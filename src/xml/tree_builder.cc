#include "xml/tree_builder.h"

#include <bit>
#include <cassert>
#include <cstddef>

namespace pathfinder::xml {

TreeBuilder::TreeBuilder(StringPool* pool) : pool_(pool) {
  // Pre 0 is always the document node.
  Emit(NodeKind::kDoc, 0, 0);
  stack_.push_back(0);
}

Pre TreeBuilder::Emit(NodeKind kind, StrId prop, StrId value) {
  Pre pre = static_cast<Pre>(doc_.size_.size());
  doc_.size_.push_back(0);
  // stack_ holds the doc node plus all open elements, so the level of a
  // newly emitted node (a child of the innermost open node) is exactly
  // stack_.size(); a doc node itself is emitted while stack_ is empty.
  doc_.level_.push_back(static_cast<uint16_t>(stack_.size()));
  doc_.kind_.push_back(static_cast<uint8_t>(kind));
  doc_.prop_.push_back(prop);
  doc_.value_.push_back(value);
  return pre;
}

void TreeBuilder::Reserve(size_t rows) {
  if (rows <= doc_.size_.capacity()) return;
  size_t cap = std::bit_ceil(rows);
  doc_.size_.reserve(cap);
  doc_.level_.reserve(cap);
  doc_.kind_.reserve(cap);
  doc_.prop_.reserve(cap);
  doc_.value_.reserve(cap);
}

void TreeBuilder::StartElem(std::string_view tag) {
  StartElem(pool_->Intern(tag));
}

void TreeBuilder::StartElem(StrId tag) {
  Pre pre = Emit(NodeKind::kElem, tag, 0);
  stack_.push_back(pre);
  in_start_tag_ = true;
}

void TreeBuilder::Attr(std::string_view name, std::string_view value) {
  Attr(pool_->Intern(name), pool_->Intern(value));
}

void TreeBuilder::Attr(StrId name, StrId value) {
  assert(in_start_tag_ && "Attr outside a start tag");
  Emit(NodeKind::kAttr, name, value);
}

void TreeBuilder::Text(std::string_view content) {
  Text(pool_->Intern(content));
}

void TreeBuilder::Text(StrId content) {
  in_start_tag_ = false;
  // Empty text nodes are legal (XQuery text {} constructors build them);
  // parsers avoid emitting them by not calling Text for empty runs.
  Emit(NodeKind::kText, 0, content);
}

void TreeBuilder::Comment(std::string_view content) {
  in_start_tag_ = false;
  Emit(NodeKind::kComment, 0, pool_->Intern(content));
}

void TreeBuilder::Pi(std::string_view target, std::string_view content) {
  in_start_tag_ = false;
  Emit(NodeKind::kPi, pool_->Intern(target), pool_->Intern(content));
}

void TreeBuilder::EndElem() {
  assert(stack_.size() > 1 && "EndElem without open element");
  Pre open = stack_.back();
  stack_.pop_back();
  doc_.size_[open] = static_cast<Pre>(doc_.size_.size()) - open - 1;
  in_start_tag_ = false;
}

void TreeBuilder::CloseTree() {
  Pre root = stack_[0];
  doc_.size_[root] = static_cast<Pre>(doc_.size_.size()) - root - 1;
}

Pre TreeBuilder::NextTree() {
  assert(stack_.size() == 1 && "NextTree with an open element");
  CloseTree();
  if (doc_.roots_.empty()) doc_.roots_.push_back(0);
  stack_.pop_back();
  Pre root = Emit(NodeKind::kDoc, 0, 0);
  stack_.push_back(root);
  doc_.roots_.push_back(root);
  in_start_tag_ = false;
  return root;
}

void TreeBuilder::CopySubtree(const Document& src, Pre v) {
  Pre first = src.kind(v) == NodeKind::kDoc ? v + 1 : v;
  Pre last = v + src.size(v);  // inclusive
  if (first > last) return;  // a document node without children
  assert((src.kind(v) != NodeKind::kAttr || in_start_tag_) &&
         "attribute copy outside a start tag");
  if (src.kind(v) != NodeKind::kAttr) in_start_tag_ = false;

  const auto b = static_cast<ptrdiff_t>(first);
  const auto e = static_cast<ptrdiff_t>(last) + 1;
  Reserve(doc_.size_.size() + static_cast<size_t>(e - b));
  doc_.size_.insert(doc_.size_.end(), src.size_.begin() + b,
                    src.size_.begin() + e);
  doc_.kind_.insert(doc_.kind_.end(), src.kind_.begin() + b,
                    src.kind_.begin() + e);
  doc_.prop_.insert(doc_.prop_.end(), src.prop_.begin() + b,
                    src.prop_.begin() + e);
  doc_.value_.insert(doc_.value_.end(), src.value_.begin() + b,
                     src.value_.begin() + e);
  // The copied root lands where Emit would put a new node, at level
  // stack_.size(); every copied level moves by the same offset.
  const int shift = static_cast<int>(stack_.size()) - src.level(first);
  for (auto it = src.level_.begin() + b; it != src.level_.begin() + e; ++it) {
    doc_.level_.push_back(static_cast<uint16_t>(*it + shift));
  }
}

Result<Document> TreeBuilder::Finish() && {
  if (stack_.size() != 1) {
    return Status::InvalidArgument("unclosed elements at end of document");
  }
  if (doc_.size_.size() - stack_[0] < 2) {
    return Status::InvalidArgument("document has no content");
  }
  CloseTree();
  return std::move(doc_);
}

}  // namespace pathfinder::xml

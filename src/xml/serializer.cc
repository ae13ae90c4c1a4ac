#include "xml/serializer.h"

namespace pathfinder::xml {

namespace {

// Appends `s` with & < > escaped, and " too in an attribute value. The
// runs between special characters are copied in one piece.
void AppendEscaped(std::string_view s, bool attr, std::string* out) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    std::string_view rep;
    switch (s[i]) {
      case '&':
        rep = "&amp;";
        break;
      case '<':
        rep = "&lt;";
        break;
      case '>':
        rep = "&gt;";
        break;
      case '"':
        if (!attr) continue;
        rep = "&quot;";
        break;
      default:
        continue;
    }
    out->append(s.data() + run, i - run);
    *out += rep;
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

void SerializeRange(const Document& doc, Pre begin, Pre end_inclusive,
                    const StringPool& pool, std::string* out) {
  // Iterative pre-order walk over the encoding: levels tell us when to
  // emit end tags. open[] holds pre ranks of currently open elements.
  std::vector<Pre> open;
  for (Pre v = begin; v <= end_inclusive; ++v) {
    // Close elements whose subtree ended before v.
    while (!open.empty() && open.back() + doc.size(open.back()) < v) {
      *out += "</";
      *out += pool.Get(doc.prop(open.back()));
      *out += ">";
      open.pop_back();
    }
    switch (doc.kind(v)) {
      case NodeKind::kDoc:
        break;  // transparent
      case NodeKind::kElem: {
        *out += "<";
        *out += pool.Get(doc.prop(v));
        // Attributes follow immediately at level(v)+1 with kind kAttr.
        Pre a = v + 1;
        while (a <= v + doc.size(v) && doc.kind(a) == NodeKind::kAttr &&
               doc.level(a) == doc.level(v) + 1) {
          *out += " ";
          *out += pool.Get(doc.prop(a));
          *out += "=\"";
          AppendEscaped(pool.Get(doc.value(a)), /*attr=*/true, out);
          *out += "\"";
          ++a;
        }
        // Self-close childless elements (attributes are not children).
        if (a > v + doc.size(v)) {
          *out += "/>";
          v = v + doc.size(v);  // skip the attribute rows
        } else {
          *out += ">";
          open.push_back(v);
        }
        break;
      }
      case NodeKind::kAttr:
        break;  // rendered with its owner element
      case NodeKind::kText:
        AppendEscaped(pool.Get(doc.value(v)), /*attr=*/false, out);
        break;
      case NodeKind::kComment:
        *out += "<!--";
        *out += pool.Get(doc.value(v));
        *out += "-->";
        break;
      case NodeKind::kPi:
        *out += "<?";
        *out += pool.Get(doc.prop(v));
        *out += " ";
        *out += pool.Get(doc.value(v));
        *out += "?>";
        break;
    }
  }
  while (!open.empty()) {
    *out += "</";
    *out += pool.Get(doc.prop(open.back()));
    *out += ">";
    open.pop_back();
  }
}

}  // namespace

void AppendSubtree(const Document& doc, Pre v, const StringPool& pool,
                   std::string* out) {
  if (doc.kind(v) == NodeKind::kAttr) {
    // Lone attributes serialize as name="value" (diagnostic form).
    *out += pool.Get(doc.prop(v));
    *out += "=\"";
    AppendEscaped(pool.Get(doc.value(v)), /*attr=*/true, out);
    *out += "\"";
    return;
  }
  SerializeRange(doc, v, v + doc.size(v), pool, out);
}

std::string SerializeSubtree(const Document& doc, Pre v,
                             const StringPool& pool) {
  std::string out;
  AppendSubtree(doc, v, pool, &out);
  return out;
}

std::string SerializeDocument(const Document& doc, const StringPool& pool) {
  return SerializeSubtree(doc, 0, pool);
}

}  // namespace pathfinder::xml

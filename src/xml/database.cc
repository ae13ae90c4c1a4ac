#include "xml/database.h"

#include <cassert>

#include "xml/parser.h"
#include "xml/path_summary.h"

namespace pathfinder::xml {

Database::Database()
    : chunks_(new std::atomic<Slot*>[kMaxChunks]) {
  for (size_t i = 0; i < kMaxChunks; ++i) {
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
}

Database::~Database() {
  for (size_t i = 0; i < kMaxChunks; ++i) {
    delete[] chunks_[i].load(std::memory_order_relaxed);
  }
}

FragId Database::AddDocument(const std::string& name, Document doc) {
  // Path summary + partitioned node index: built before the slot is
  // published, so every reader that can see the document sees it (key
  // inference relies on its immutability). Built unconditionally (it
  // is a few percent of the encoding): per-query PF_PATHSUM gating
  // only switches the structural rewrite and staircase pruning, never
  // storage — on/off runs read the same immutable document.
  if (doc.summary() == nullptr) doc.set_summary(BuildPathSummary(doc));
  std::lock_guard<std::mutex> lock(mu_);
  return PublishLocked(name, std::move(doc), /*bump_structure=*/true);
}

FragId Database::PublishUpdate(const std::string& name, Document doc,
                               bool structural) {
  // The updater repaired the summary incrementally; build it from
  // scratch only if it didn't attach one (defensive — never the
  // ApplyUpdate path).
  if (doc.summary() == nullptr) doc.set_summary(BuildPathSummary(doc));
  std::lock_guard<std::mutex> lock(mu_);
  return PublishLocked(name, std::move(doc), structural);
}

FragId Database::PublishLocked(const std::string& name, Document doc,
                               bool bump_structure) {
  size_t n = count_.load(std::memory_order_relaxed);
  assert(n < kMaxChunks * kChunkSize && "document capacity exceeded");
  size_t ci = n >> kChunkBits;
  Slot* chunk = chunks_[ci].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Slot[kChunkSize];
    chunks_[ci].store(chunk, std::memory_order_release);
  }
  Slot& s = chunk[n & kChunkMask];
  s.doc = std::make_unique<Document>(std::move(doc));
  s.name = name;
  FragId id = static_cast<FragId>(n);
  uint64_t gen = generation_.load(std::memory_order_relaxed) + 1;
  by_name_[name] = id;
  NameVersion& nv = versions_[name];
  // A name never seen before always takes a structure bump, whatever
  // the caller claimed — there is no prior snapshot to repair against.
  if (bump_structure || nv.structure == 0) nv.structure = gen;
  nv.content = gen;
  // Publish the slot before the count (readers index by acquire-loaded
  // count) and the count before the generation (a cache that observes
  // the new generation must be able to resolve the new binding).
  count_.store(n + 1, std::memory_order_release);
  generation_.store(gen, std::memory_order_release);
  return id;
}

Result<FragId> Database::LoadXml(const std::string& name,
                                 std::string_view xml) {
  // Parse outside the registration lock: the StringPool is internally
  // synchronized, so shredding can overlap running queries.
  PF_ASSIGN_OR_RETURN(Document doc, ParseXml(xml, &pool_));
  return AddDocument(name, std::move(doc));
}

Result<FragId> Database::FindDocument(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no document named '" + name + "'");
  }
  return it->second;
}

size_t Database::EncodingBytes() const {
  size_t total = 0;
  size_t n = num_documents();
  for (size_t i = 0; i < n; ++i) {
    total += slot(static_cast<FragId>(i))->doc->EncodingBytes();
  }
  return total;
}

Database::DocVersions Database::Versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  DocVersions v;
  v.generation = generation_.load(std::memory_order_relaxed);
  v.docs.reserve(versions_.size());
  for (const auto& [name, nv] : versions_) {
    DocVersion d;
    d.name = name;
    d.structure = nv.structure;
    d.content = nv.content;
    auto it = by_name_.find(name);
    d.frag = it == by_name_.end() ? 0 : it->second;
    v.docs.push_back(std::move(d));
  }
  return v;
}

}  // namespace pathfinder::xml

#ifndef PATHFINDER_XML_DATABASE_H_
#define PATHFINDER_XML_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/string_pool.h"
#include "xml/document.h"

namespace pathfinder::xml {

/// Id of a document fragment. Persistent documents get dense ids
/// starting at 0 (below 2^20); fragments constructed during query
/// evaluation number from 2^31 in creation order (see
/// engine::QueryContext::kFirstConstructed).
using FragId = uint32_t;

/// The persistent store: loaded documents plus the shared property
/// StringPool (the paper's property BATs).
///
/// Thread safety: registrations may race query evaluation. Documents
/// live in a two-level directory of fixed-size slot chunks (the
/// StringPool pattern): a published id's chunk pointer and slot are
/// written before the id escapes, and neither ever moves afterwards,
/// so `doc`/`doc_name` are wait-free for any id obtained from a
/// completed registration. `AddDocument`, `FindDocument`, and
/// `Versions` serialize on an internal mutex. Re-registering a name
/// appends a fresh document and rebinds the name; the old FragId stays
/// readable, so queries already in flight keep a consistent snapshot.
class Database {
 public:
  Database();
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Register a document under `name` (the fn:doc argument).
  FragId AddDocument(const std::string& name, Document doc);

  /// Parse and register.
  Result<FragId> LoadXml(const std::string& name, std::string_view xml);

  Result<FragId> FindDocument(const std::string& name) const;

  size_t num_documents() const {
    return count_.load(std::memory_order_acquire);
  }
  const Document& doc(FragId id) const { return *slot(id)->doc; }
  const std::string& doc_name(FragId id) const { return slot(id)->name; }

  StringPool* pool() { return &pool_; }
  const StringPool& pool() const { return pool_; }

  /// Storage accounting (Sec. 3.1): encoding columns + unique property
  /// payload bytes.
  size_t EncodingBytes() const;
  size_t PoolPayloadBytes() const { return pool_.payload_bytes(); }

  /// Monotonic content version, bumped on every document
  /// (re)registration. Caches compare generations to detect that the
  /// store changed at all (see engine::QueryCache).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Per-name versions: for every currently bound document name, the
  /// value `generation()` had right after the event that last changed
  /// it, split by what the event could have perturbed:
  ///  * `structure` moves on (re)registration and on structural updates
  ///    (inserts/deletes/element replace-value) — anything that can
  ///    renumber pres or change sizes/levels/kinds/props;
  ///  * `content` moves on every event that `structure` moves on, plus
  ///    content-only updates (leaf replace-value), which perturb the
  ///    value column but keep every pre rank bit-identical.
  /// Caches evict entries on a structure move but can *repair*
  /// value-free entries across a pure content move by re-pointing
  /// cached node items from `frag` to the new snapshot's frag (see
  /// engine::QueryCache).
  struct DocVersion {
    std::string name;
    uint64_t structure = 0;
    uint64_t content = 0;
    FragId frag = 0;  ///< snapshot currently bound to the name
  };
  struct DocVersions {
    uint64_t generation = 0;
    std::vector<DocVersion> docs;
  };
  DocVersions Versions() const;

  /// Publish `doc` as the new snapshot of `name` after a node-level
  /// update (xml/update.h drives this): same append-and-rebind as
  /// AddDocument, but a content-only update bumps just the name's
  /// content version so caches can repair instead of evict. Stats and
  /// summary must already be attached (the updater repairs them
  /// incrementally); missing ones are computed from scratch.
  FragId PublishUpdate(const std::string& name, Document doc,
                       bool structural);

  /// Updaters (xml/update.h ApplyUpdate) hold this lock across their
  /// whole read-splice-publish cycle so concurrent updates serialize
  /// instead of splicing off the same base and losing one of them.
  /// Queries and plain registrations never take it.
  std::unique_lock<std::mutex> LockForUpdate() {
    return std::unique_lock<std::mutex>(update_mu_);
  }

 private:
  struct Slot {
    std::unique_ptr<Document> doc;
    std::string name;
  };

  struct NameVersion {
    uint64_t structure = 0;
    uint64_t content = 0;
  };

  FragId PublishLocked(const std::string& name, Document doc,
                       bool bump_structure);

  static constexpr size_t kChunkBits = 8;  // 256 documents per chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kChunkMask = kChunkSize - 1;
  static constexpr size_t kMaxChunks = size_t{1} << 12;  // 2^20 documents

  Slot* slot(FragId id) const {
    Slot* chunk = chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    return &chunk[id & kChunkMask];
  }

  StringPool pool_;
  std::atomic<uint64_t> generation_{0};

  // Directory of lazily-allocated slot chunks. Fixed-size so readers
  // index it without synchronizing on growth.
  std::unique_ptr<std::atomic<Slot*>[]> chunks_;
  std::atomic<size_t> count_{0};

  mutable std::mutex mu_;
  std::mutex update_mu_;  // serializes updaters; see LockForUpdate()
  std::unordered_map<std::string, FragId> by_name_;       // guarded by mu_
  std::unordered_map<std::string, NameVersion> versions_;  // guarded by mu_
};

}  // namespace pathfinder::xml

#endif  // PATHFINDER_XML_DATABASE_H_

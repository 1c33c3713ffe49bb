// Durable epoch-versioned EDB store: atomic hot-swap for readers, WAL +
// checkpoint durability for crashes.
//
// The store holds an immutable EdbVersion per committed update batch.
// Readers pin a version (a shared_ptr — the refcount IS the pin) and keep a
// perfectly consistent snapshot for as long as they hold it, while writers
// advance the tip underneath them. A commit is copy-on-write at relation
// granularity: untouched relations are shared between versions, touched
// ones are rebuilt, and every version interns through the store's single
// thread-safe SymbolTable so Values resolve identically across epochs.
//
// Durability (when Options::dir is set):
//   * every committed batch is appended to a CRC32-checksummed WAL and
//     fsynced before the tip moves — an acknowledged Commit survives a
//     crash;
//   * Checkpoint() writes the tip with the temp-file + atomic-rename
//     discipline of storage/io, then rotates the WAL;
//   * Recover() loads the last durable checkpoint and replays the WAL,
//     truncating at the first torn or corrupt record. A lost tail comes
//     back as StatusCode::kDataLoss with the store positioned on the
//     longest consistent prefix — never on a half-applied batch.
//
// Thread safety: Pin()/TipEpoch()/symbols() may be called from any thread.
// Commit()/Checkpoint()/Recover() are serialized internally (one writer at
// a time); they never block readers. Relations inside an EdbVersion must be
// read only through SnapshotInto()/TuplesUnchecked() when shared across
// threads — the instrumented Relation paths (Contains/Probe/Scan) mutate
// lazy indexes and are for single-threaded use (tests, tools).
//
// The discipline is capability-checked under -DMCM_THREAD_SAFETY=ON:
// commit_mu_ is the single-writer capability (it guards the WAL handle, so
// no WAL append can compile outside the commit path), tip_mu_ guards the
// tip pointer, and the registered order commit_mu_ -> tip_mu_ (ranks 4 -> 5
// in util/mutex.h) makes an inverted acquisition a compile error.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/relation.h"
#include "storage/symbol_table.h"
#include "storage/wal.h"
#include "util/lifetime_annotations.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mcm {

enum class UpdateOpKind : uint8_t {
  kInsert = 0,
  kDelete,
  kCreateRelation,
  kDropRelation,
};

/// One mutation inside an update batch. Insert/delete fields use the TSV
/// value convention: a field that parses as a signed 64-bit integer is an
/// integer, anything else is interned as a symbol.
struct UpdateOp {
  UpdateOpKind kind = UpdateOpKind::kInsert;
  std::string relation;
  uint32_t arity = 0;               ///< kCreateRelation only
  std::vector<std::string> fields;  ///< kInsert / kDelete only
};

/// An atomically-applied group of mutations. Validation is all-or-nothing:
/// a batch with any invalid op is rejected whole and the tip version is
/// untouched.
struct UpdateBatch {
  std::vector<UpdateOp> ops;

  void Insert(std::string relation, std::vector<std::string> fields) {
    ops.push_back({UpdateOpKind::kInsert, std::move(relation), 0,
                   std::move(fields)});
  }
  void Delete(std::string relation, std::vector<std::string> fields) {
    ops.push_back({UpdateOpKind::kDelete, std::move(relation), 0,
                   std::move(fields)});
  }
  void CreateRelation(std::string relation, uint32_t arity) {
    ops.push_back({UpdateOpKind::kCreateRelation, std::move(relation), arity,
                   {}});
  }
  void DropRelation(std::string relation) {
    ops.push_back({UpdateOpKind::kDropRelation, std::move(relation), 0, {}});
  }
  bool empty() const { return ops.empty(); }
};

/// \brief An immutable snapshot of the EDB at one epoch.
///
/// Obtained from VersionedStore::Pin(); stays fully consistent for the
/// lifetime of the shared_ptr regardless of concurrent commits. Relations
/// are shared copy-on-write with neighbouring versions and carry no
/// AccessStats instrumentation.
///
/// Lifetime: the shared_ptr IS the pin. References and relation pointers
/// obtained from a version are annotated lifetimebound — they must not
/// outlive the pin that produced them (tests/lifetime/ proves escapes are
/// compile errors under -DMCM_LIFETIME_SAFETY=ON). Share() hands out
/// co-owning relation handles for code that legitimately needs a relation
/// to survive pin release (Relation::Borrow, replication).
class MCM_OWNER(Relation) EdbVersion {
 public:
  uint64_t epoch() const { return epoch_; }

  /// nullptr if absent. See the header comment for the concurrency caveat
  /// on instrumented Relation reads.
  const Relation* Find(const std::string& name) const MCM_LIFETIME_BOUND;
  /// Co-owning handle to one relation (nullptr if absent): keeps the
  /// relation alive independently of this version's pin. The zero-copy
  /// EdbView path borrows through this, so a working database stays safe
  /// even if its pin is released first.
  std::shared_ptr<const Relation> Share(const std::string& name) const;
  std::vector<std::string> RelationNames() const;
  size_t TotalTuples() const;
  /// Precomputed at commit time; same estimate as Database::ApproxBytes.
  size_t ApproxBytes() const { return approx_bytes_; }

  /// Copy every relation's tuples into `dst` (relations are created there
  /// as needed; existing same-name relations receive the tuples, erroring
  /// on an arity mismatch). Reads only name/arity and the uninstrumented
  /// tuple storage of immutable relations, so it is safe from many threads
  /// at once no matter how many commits land concurrently. The symbol table
  /// is NOT copied — share the store's. The deep-copy reference that
  /// EdbView::AttachTo's borrow is checked against.
  [[nodiscard]] Status SnapshotInto(Database* dst) const;

 private:
  friend class VersionedStore;
  EdbVersion() = default;

  uint64_t epoch_ = 0;
  size_t approx_bytes_ = 0;
  std::map<std::string, std::shared_ptr<const Relation>> relations_;
};

/// \brief Versioned EDB store with WAL + checkpoint durability.
class VersionedStore {
 public:
  struct Options {
    /// Directory for wal.log / checkpoint.mcm (created on Recover). Empty
    /// means in-memory only: versioning and hot-swap without durability;
    /// Checkpoint() is then an error.
    std::string dir;
  };

  explicit VersionedStore(Options options = {});
  VersionedStore(const VersionedStore&) = delete;
  VersionedStore& operator=(const VersionedStore&) = delete;

  /// Bring the store to its recovered state; must be called exactly once,
  /// before any Commit. Returns OK when the durable state was intact (or
  /// the store is fresh / in-memory) and kDataLoss when a torn or corrupt
  /// WAL tail (or checkpoint) was truncated away — the store is then
  /// positioned on the longest consistent prefix and remains fully usable.
  [[nodiscard]] Status Recover() MCM_EXCLUDES(commit_mu_);

  bool durable() const { return !options_.dir.empty(); }
  std::string WalPath() const { return options_.dir + "/wal.log"; }
  /// Retained copy of the previous WAL segment, refreshed by Checkpoint().
  /// Recovery never reads it — it exists so a replication shipper can serve
  /// record-based catch-up to a follower that is at most one rotation
  /// behind (storage/replication.h).
  std::string WalPrevPath() const { return options_.dir + "/wal.prev.log"; }
  std::string CheckpointPath() const {
    return options_.dir + "/checkpoint.mcm";
  }

  /// Pin the current tip. O(1), wait-free with respect to writers.
  std::shared_ptr<const EdbVersion> Pin() const MCM_EXCLUDES(tip_mu_);
  uint64_t TipEpoch() const { return Pin()->epoch(); }

  /// Atomically apply `batch`: validate against the tip (rejecting the
  /// whole batch on the first invalid op), append + fsync the WAL record,
  /// build the copy-on-write successor version, and swap the tip. Returns
  /// the new epoch. Pinned readers are unaffected.
  [[nodiscard]] Result<uint64_t> Commit(const UpdateBatch& batch)
      MCM_EXCLUDES(commit_mu_);

  /// Write the tip as a durable checkpoint (temp file + atomic rename) and
  /// rotate the WAL. If rotation fails after the checkpoint landed, the old
  /// WAL keeps absorbing commits and replay filters the overlap by epoch —
  /// consistent either way.
  [[nodiscard]] Status Checkpoint() MCM_EXCLUDES(commit_mu_);

  /// Commit one batch that recreates every relation of `db` — the bootstrap
  /// path from TSV fact files. Values that resolve in `db`'s symbol table
  /// are carried over as symbols, everything else as integers (the
  /// SaveRelationTsv convention).
  [[nodiscard]] Result<uint64_t> BootstrapFromDatabase(const Database& db);

  // -- Replication follower surface (storage/replication.h) ------------------

  /// Apply one shipped WAL record payload (the exact bytes the primary
  /// appended) through the same parse/validate/commit path as Recover().
  /// Returns the resulting tip epoch. Semantics, in order:
  ///   * a payload whose sequence number is <= the tip epoch is a no-op
  ///     (idempotent redelivery after a shipper restart) returning the tip;
  ///   * a sequence gap (> tip + 1) is kDataLoss — records were lost in
  ///     transit and nothing past the gap may ever be applied;
  ///   * a payload that parses but does not validate against the tip is
  ///     kDataLoss (the stream diverged from the primary's history).
  /// The batch is re-logged to the follower's own WAL before the tip moves,
  /// so an acknowledged apply survives a follower crash. All-or-nothing: on
  /// any error the tip is untouched — never a half batch.
  [[nodiscard]] Result<uint64_t> ApplyReplicated(const std::string& payload)
      MCM_EXCLUDES(commit_mu_);

  /// Bootstrap this store from a primary checkpoint image (the exact bytes
  /// of its checkpoint.mcm). Only legal on a *fresh* store — recovered, at
  /// epoch 0, with an empty symbol table — because checkpoint symbol ids
  /// must re-intern to identical Values; anything else is
  /// kFailedPrecondition ("reseed required": tear the store down and start
  /// over). On success the image is also written to this store's own
  /// checkpoint path and the WAL is rotated to the snapshot epoch, so a
  /// restart recovers to the same state. Returns the snapshot epoch.
  [[nodiscard]] Result<uint64_t> InstallSnapshot(
      const std::string& checkpoint_bytes) MCM_EXCLUDES(commit_mu_);

  /// The store-wide interning table shared by all versions (and by working
  /// databases built from them). Internally synchronized.
  SymbolTable& symbols() MCM_LIFETIME_BOUND { return symbols_; }
  const SymbolTable& symbols() const MCM_LIFETIME_BOUND { return symbols_; }

 private:
  /// A validated op with its tuple bound to interned Values.
  struct BoundOp {
    UpdateOpKind kind;
    std::string relation;
    uint32_t arity = 0;
    Tuple tuple;
  };

  Status ValidateAndBind(const UpdateBatch& batch, const EdbVersion& base,
                         std::vector<BoundOp>* bound)
      MCM_REQUIRES(commit_mu_);
  std::shared_ptr<const EdbVersion> BuildVersion(
      const EdbVersion& base, const std::vector<BoundOp>& bound,
      uint64_t epoch) const MCM_REQUIRES(commit_mu_);

  static std::string SerializeBatch(uint64_t seq, const UpdateBatch& batch);
  static Status ParseBatchPayload(const std::string& payload, uint64_t* seq,
                                  UpdateBatch* batch);
  std::string SerializeCheckpoint(const EdbVersion& tip) const
      MCM_REQUIRES(commit_mu_);
  /// Parses `content` and interns its symbol section; only valid on a
  /// fresh (empty-table) store, i.e. during Recover.
  Result<std::shared_ptr<const EdbVersion>> LoadCheckpoint(
      const std::string& content) MCM_REQUIRES(commit_mu_);

  void SetTip(std::shared_ptr<const EdbVersion> v) MCM_REQUIRES(commit_mu_);

  Options options_;
  SymbolTable symbols_;

  /// The single-writer capability: serializes Commit / Checkpoint / Recover
  /// (lock-order rank 5; acquired before tip_mu_, SymbolTable::mu_, and
  /// FaultInjection::mu_; may be acquired under Follower::mu_, rank 4).
  util::Mutex commit_mu_ MCM_ACQUIRED_AFTER(util::kLockRankStoreCommit)
      MCM_ACQUIRED_BEFORE(util::kLockRankStoreTip);
  /// WAL single-writer discipline, statically enforced: the handle itself
  /// and every append through it require commit_mu_, so a concurrent
  /// Append/Checkpoint outside the commit path cannot compile.
  bool recovered_ MCM_GUARDED_BY(commit_mu_) = false;
  std::unique_ptr<WalWriter> wal_ MCM_GUARDED_BY(commit_mu_)
      MCM_PT_GUARDED_BY(commit_mu_);

  mutable util::Mutex tip_mu_
      MCM_ACQUIRED_AFTER(commit_mu_, util::kLockRankStoreTip)
          MCM_ACQUIRED_BEFORE(util::kLockRankSymbols);
  std::shared_ptr<const EdbVersion> tip_ MCM_GUARDED_BY(tip_mu_);
};

}  // namespace mcm

// Instrumented in-memory relation with incremental hash indexes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/access_stats.h"
#include "storage/tuple.h"
#include "util/lifetime_annotations.h"
#include "util/status.h"

namespace mcm {

/// Set of column positions an index is keyed on (in key order).
using IndexKey = std::vector<uint32_t>;

/// \brief A deduplicated multiset-free relation (set semantics).
///
/// Storage model:
///  * `tuples_` keeps insertion order, which gives fixpoint engines stable
///    snapshot/delta iteration (tuples are only ever appended);
///  * a hash set over tuple ids provides O(1) duplicate elimination;
///  * secondary hash indexes on arbitrary column subsets are created on
///    demand and maintained incrementally on insert.
///
/// Every access that yields tuples reports to the attached AccessStats, which
/// implements the paper's cost unit (tuple retrievals).
///
/// Borrow mode (zero-copy snapshots): Borrow() builds a relation that
/// *shares* an immutable base relation's tuple storage instead of copying
/// it. The borrower behaves exactly like a copy — same tuples, same ids,
/// its own lazy indexes and its own AccessStats — but costs O(1) to
/// create. The first mutation (Insert of a new tuple) materializes the
/// borrower into an ordinary owned relation (copy-on-write), so semantics
/// are indistinguishable from an eager copy. The base relation is only
/// ever read through its uninstrumented tuple storage — its lazy indexes,
/// dedup set, and stats are never touched — so any number of borrowers on
/// any number of threads may share one frozen base (the EdbVersion
/// contract, storage/versioned_store.h). The borrower itself is
/// single-owner, like every Relation.
class MCM_OWNER(Tuple) Relation {
 public:
  Relation(std::string name, uint32_t arity,
           AccessStats* stats = nullptr)
      : name_(std::move(name)), arity_(arity), stats_(stats) {}

  /// Zero-copy read-only snapshot of `base` (shared, kept alive by the
  /// returned relation; must itself be frozen — for borrowers of borrowers
  /// the chain is collapsed to the root owner). `stats` receives this
  /// borrower's instrumentation, independent of the base's.
  static Relation Borrow(std::shared_ptr<const Relation> base,
                         AccessStats* stats);

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const std::string& name() const MCM_LIFETIME_BOUND { return name_; }
  uint32_t arity() const { return arity_; }
  size_t size() const { return store().size(); }
  bool empty() const { return store().empty(); }

  /// True while this relation shares a base's tuple storage (no mutation
  /// has materialized it yet).
  bool borrowed() const { return base_ != nullptr; }

  /// Redirect instrumentation to `stats` (may be nullptr to disable).
  void set_stats(AccessStats* stats) { stats_ = stats; }
  AccessStats* stats() const { return stats_; }

  /// Insert `t`; returns true iff the tuple was new. Asserts on arity
  /// mismatch in debug builds. On a borrowed relation the first insert
  /// materializes a private copy of the shared storage (copy-on-write).
  bool Insert(const Tuple& t);

  /// Convenience for binary relations.
  bool Insert2(Value a, Value b) { return Insert(Tuple{a, b}); }

  /// Membership test (counts as one probe + one tuple read if found).
  bool Contains(const Tuple& t) const;

  /// Tuple by dense id in [0, size()). Counts one tuple read.
  const Tuple& Get(size_t id) const MCM_LIFETIME_BOUND;

  /// Tuple by id without instrumentation — for engine-internal bookkeeping
  /// (e.g. copying between snapshots) that the paper's cost model does not
  /// charge for.
  const Tuple& PeekUnchecked(size_t id) const MCM_LIFETIME_BOUND {
    return store()[id];
  }

  /// Ids of the tuples matching `key_vals` on `key_cols`, without
  /// instrumentation: Probe's lookup, charging no probe and no read. Builds
  /// the index on first use, like Probe; the reference is invalidated by
  /// the next Insert into this relation.
  const std::vector<uint32_t>& PostingsUnchecked(
      const IndexKey& key_cols,
      const std::vector<Value>& key_vals) const MCM_LIFETIME_BOUND;

  /// All tuples, uninstrumented view (used by printers/tests).
  const std::vector<Tuple>& TuplesUnchecked() const MCM_LIFETIME_BOUND {
    return store();
  }

  /// Full scan: returns all tuples, charging one read per tuple.
  std::vector<Tuple> Scan() const;

  /// Probe the index on `key_cols` with `key_vals`; returns matching tuple
  /// ids, charging one read per match. Builds the index on first use. The
  /// reference is invalidated by the next Insert into this relation.
  const std::vector<uint32_t>& Probe(const IndexKey& key_cols,
                                     const std::vector<Value>& key_vals) const
      MCM_LIFETIME_BOUND;

  /// Remove everything (indexes included; a borrow is released, not
  /// materialized).
  void Clear();

  /// Distinct values in column `col` (uninstrumented; used by statistics).
  std::vector<Value> DistinctColumn(uint32_t col) const;

  std::string ToString(size_t limit = 32) const;

 private:
  struct Index {
    // Column positions this index is keyed on.
    IndexKey key_cols;
    // Packed key -> tuple ids. Keys are hashed tuples over the key columns.
    std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash> buckets;
  };

  /// The tuple storage this relation reads: its own, or the borrowed
  /// base's. Everything below funnels reads through here.
  const std::vector<Tuple>& store() const {
    return base_ != nullptr ? base_->tuples_ : tuples_;
  }

  /// Copy-on-write detach: copy the base's tuples and dedup set into this
  /// relation and drop the borrow. Tuple ids are unchanged, so indexes
  /// already built over the shared storage stay valid.
  void Materialize();

  Tuple MakeKey(const IndexKey& cols, const Tuple& t) const;
  Index& GetOrBuildIndex(const IndexKey& cols) const;

  void CountRead(uint64_t n) const {
    if (stats_ != nullptr) stats_->tuples_read += n;
  }

  std::string name_;
  uint32_t arity_;
  AccessStats* stats_;
  std::vector<Tuple> tuples_;
  std::unordered_set<Tuple, TupleHash> dedup_;
  /// Borrow mode: the frozen relation whose tuple storage this one shares
  /// (null once owned/materialized). The shared_ptr keeps the storage
  /// alive even if the pin that produced it is released early.
  std::shared_ptr<const Relation> base_;
  // Keyed by the column list; mutable because indexes are built lazily from
  // const probes.
  mutable std::unordered_map<std::string, Index> indexes_;
  static const std::vector<uint32_t> kEmptyPostings;
};

}  // namespace mcm

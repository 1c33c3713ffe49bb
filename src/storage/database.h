// Catalog of named relations plus the shared symbol table and access stats.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/access_stats.h"
#include "storage/relation.h"
#include "storage/symbol_table.h"
#include "util/lifetime_annotations.h"
#include "util/status.h"

namespace mcm {

/// \brief An in-memory database: named relations + interning + cost counters.
///
/// All relations created through a Database share its AccessStats, so a
/// single counter captures the total tuple-retrieval cost of evaluating a
/// query — the unit used throughout the paper's complexity tables.
///
/// Thread safety: a Database is single-owner — evaluation mutates relations,
/// counts stats, and builds lazy indexes, none of which is synchronized.
/// Even the const read paths are not shareable across threads: Contains() /
/// Get() / Scan() / Probe() count into the shared AccessStats through a
/// const method, and Probe() builds its hash index lazily on first use
/// (mutation hiding behind const — see the concurrency audit in DESIGN.md
/// 5e). The sanctioned cross-thread path is the SymbolTable, which is
/// internally synchronized and may be shared via the external-table
/// constructor; shared EDB data lives in a VersionedStore's immutable
/// EdbVersions and reaches a working database through EdbView.
class MCM_OWNER(Relation) Database {
 public:
  Database() = default;
  /// A database that interns through `shared_symbols` (not owned; must
  /// outlive this database) instead of its own table. Used by the query
  /// service: per-request working databases share the base EDB's table so
  /// snapshotted Values resolve consistently and concurrently.
  explicit Database(SymbolTable* shared_symbols) : symbols_(shared_symbols) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Create a relation; error if the name is taken.
  Result<Relation*> CreateRelation(const std::string& name, uint32_t arity);

  /// Install a zero-copy read-only borrow of `base` (Relation::Borrow)
  /// under `name`, instrumented by this database's stats; error if the
  /// name is taken. This is EdbView's per-relation attach step — the
  /// zero-copy replacement for a per-tuple copy of the pinned version.
  [[nodiscard]] Result<Relation*> AttachBorrowed(const std::string& name,
                                   std::shared_ptr<const Relation> base);

  /// Fetch an existing relation or create it.
  Relation* GetOrCreateRelation(const std::string& name, uint32_t arity)
      MCM_LIFETIME_BOUND;

  /// nullptr if absent.
  Relation* Find(const std::string& name) MCM_LIFETIME_BOUND;
  const Relation* Find(const std::string& name) const MCM_LIFETIME_BOUND;

  /// Error Status if absent.
  Result<Relation*> Get(const std::string& name);

  bool Drop(const std::string& name);

  std::vector<std::string> RelationNames() const;

  /// The interning table. Annotated lifetimebound even though a *shared*
  /// table outlives the database: the discipline is that references
  /// obtained through a Database do not outlive it — code that needs the
  /// table past the working database's life takes it from its true owner
  /// (the VersionedStore / base Database) instead.
  SymbolTable& symbols() MCM_LIFETIME_BOUND { return *symbols_; }
  const SymbolTable& symbols() const MCM_LIFETIME_BOUND { return *symbols_; }

  AccessStats& stats() MCM_LIFETIME_BOUND { return stats_; }
  const AccessStats& stats() const MCM_LIFETIME_BOUND { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Total number of tuples across all relations.
  size_t TotalTuples() const;

  /// Approximate resident footprint of the stored tuples: value payload
  /// plus a flat per-tuple bookkeeping estimate for the dedup set and
  /// per-column indexes. Used by the execution governor's memory budget;
  /// deliberately cheap (O(#relations)), not an exact allocator measure.
  size_t ApproxBytes() const;

 private:
  std::unordered_map<std::string, std::unique_ptr<Relation>> relations_;
  SymbolTable own_symbols_;
  /// Points at own_symbols_ unless the sharing constructor redirected it.
  SymbolTable* symbols_ = &own_symbols_;
  AccessStats stats_;
};

}  // namespace mcm

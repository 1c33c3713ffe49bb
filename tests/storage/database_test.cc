#include "storage/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/versioned_store.h"

namespace mcm {
namespace {

TEST(Database, CreateAndFind) {
  Database db;
  auto r = db.CreateRelation("edge", 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->name(), "edge");
  EXPECT_EQ(db.Find("edge"), *r);
  EXPECT_EQ(db.Find("missing"), nullptr);
}

TEST(Database, CreateDuplicateFails) {
  Database db;
  ASSERT_TRUE(db.CreateRelation("t", 1).ok());
  auto dup = db.CreateRelation("t", 1);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(Database, GetOrCreateIdempotent) {
  Database db;
  Relation* a = db.GetOrCreateRelation("t", 2);
  Relation* b = db.GetOrCreateRelation("t", 2);
  EXPECT_EQ(a, b);
}

TEST(Database, GetReportsNotFound) {
  Database db;
  auto r = db.Get("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Database, Drop) {
  Database db;
  db.GetOrCreateRelation("t", 1);
  EXPECT_TRUE(db.Drop("t"));
  EXPECT_FALSE(db.Drop("t"));
  EXPECT_EQ(db.Find("t"), nullptr);
}

TEST(Database, SharedStatsAcrossRelations) {
  Database db;
  Relation* a = db.GetOrCreateRelation("a", 1);
  Relation* b = db.GetOrCreateRelation("b", 1);
  a->Insert(Tuple{1});
  b->Insert(Tuple{2});
  a->Scan();
  b->Scan();
  EXPECT_EQ(db.stats().tuples_read, 2u);
  EXPECT_EQ(db.stats().tuples_inserted, 2u);
  db.ResetStats();
  EXPECT_EQ(db.stats().tuples_read, 0u);
}

TEST(Database, RelationNamesAndTotals) {
  Database db;
  db.GetOrCreateRelation("x", 1)->Insert(Tuple{1});
  db.GetOrCreateRelation("y", 1)->Insert(Tuple{1});
  db.GetOrCreateRelation("y", 1)->Insert(Tuple{2});
  auto names = db.RelationNames();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(db.TotalTuples(), 3u);
}

TEST(Database, SymbolTableAttached) {
  Database db;
  Value a = db.symbols().Intern("ann");
  EXPECT_EQ(db.symbols().Resolve(a), "ann");
}

TEST(AccessStats, Accumulate) {
  AccessStats a, b;
  a.tuples_read = 5;
  a.probes = 1;
  b.tuples_read = 7;
  b.scans = 2;
  a += b;
  EXPECT_EQ(a.tuples_read, 12u);
  EXPECT_EQ(a.scans, 2u);
  EXPECT_EQ(a.probes, 1u);
}

TEST(AccessStats, ToStringHasCounters) {
  AccessStats s;
  s.tuples_read = 42;
  EXPECT_NE(s.ToString().find("reads=42"), std::string::npos);
}

TEST(Database, AttachBorrowedSharesAndCountsIntoDatabaseStats) {
  auto base = std::make_shared<Relation>("edge", 2);
  base->Insert2(1, 2);
  base->Insert2(2, 3);

  Database db;
  auto attached = db.AttachBorrowed("edge", base);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  Relation* rel = *attached;
  EXPECT_TRUE(rel->borrowed());
  EXPECT_EQ(db.Find("edge"), rel);
  EXPECT_EQ(rel->TuplesUnchecked().data(), base->TuplesUnchecked().data());

  // Reads through the borrowed relation charge this database's stats,
  // exactly like a copied snapshot would.
  db.stats().Reset();
  (void)rel->Scan();
  EXPECT_EQ(db.stats().tuples_read, 2u);

  // Writes copy-on-write: the shared base is never mutated.
  EXPECT_TRUE(rel->Insert2(3, 4));
  EXPECT_FALSE(rel->borrowed());
  EXPECT_EQ(base->size(), 2u);
  EXPECT_EQ(rel->size(), 3u);
}

TEST(Database, AttachBorrowedRejectsExistingName) {
  auto base = std::make_shared<Relation>("edge", 2);
  Database db;
  db.GetOrCreateRelation("edge", 2);
  auto attached = db.AttachBorrowed("edge", base);
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.status().code(), StatusCode::kAlreadyExists);
}

TEST(Database, SnapshotIntoPinnedVersionsUnderConcurrentHotSwap) {
  // Regression for the concurrent-hot-swap audit: the versioned store
  // never mutates relations in place, so pinned versions may be copied
  // from many threads while a writer commits. Every snapshot must be
  // internally consistent with its pinned epoch (here: relation size ==
  // epoch, an invariant a torn read would break). Run under TSan/ASan
  // this also proves the absence of data races on the shared relation
  // storage.
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  UpdateBatch setup;
  setup.CreateRelation("grow", 1);
  setup.Insert("grow", {"0"});
  ASSERT_TRUE(store.Commit(setup).ok());  // epoch 1, size 1

  constexpr int kReaders = 4;
  constexpr int kCommits = 50;
  std::atomic<bool> stop{false};
  std::atomic<int> inconsistencies{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &stop, &inconsistencies] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const EdbVersion> v = store.Pin();
        Database work(&store.symbols());
        if (!v->SnapshotInto(&work).ok() ||
            work.Find("grow") == nullptr ||
            work.Find("grow")->size() != v->epoch()) {
          inconsistencies.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 2; i <= kCommits; ++i) {
    UpdateBatch b;
    b.Insert("grow", {std::to_string(i - 1)});
    ASSERT_TRUE(store.Commit(b).ok());  // epoch i, size i
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_EQ(store.TipEpoch(), static_cast<uint64_t>(kCommits));
}

TEST(Database, SharedSymbolTableSpansDatabases) {
  // The service's isolation model: per-query working databases that all
  // intern through the base database's symbol table, so a Value produced
  // in one database resolves identically in another.
  Database base;
  Value alice = base.symbols().Intern("alice");

  Database work(&base.symbols());
  EXPECT_EQ(work.symbols().Intern("alice"), alice);
  Value bob = work.symbols().Intern("bob");
  EXPECT_EQ(base.symbols().Resolve(bob), "bob");
  EXPECT_EQ(base.symbols().size(), 2u);
}

}  // namespace
}  // namespace mcm

#include "storage/versioned_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/database.h"
#include "storage/edb_view.h"
#include "storage/io.h"
#include "util/fault_injection.h"

namespace mcm {
namespace {

class VersionedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mcm_store_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    util::FaultInjection::Instance().DisarmAll();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Dir() const { return dir_.string(); }

  /// A store that has gone through recovery, ready for commits.
  std::unique_ptr<VersionedStore> OpenDurable(Status* recover_status =
                                                  nullptr) {
    auto store =
        std::make_unique<VersionedStore>(VersionedStore::Options{Dir()});
    Status st = store->Recover();
    if (recover_status != nullptr) *recover_status = st;
    return store;
  }

  static UpdateBatch EdgeBatch() {
    UpdateBatch b;
    b.CreateRelation("edge", 2);
    b.Insert("edge", {"1", "2"});
    b.Insert("edge", {"2", "3"});
    return b;
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// In-memory versioning semantics

TEST_F(VersionedStoreTest, CommitAdvancesEpochAndPinStaysConsistent) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  auto v0 = store.Pin();
  EXPECT_EQ(v0->epoch(), 0u);

  auto e1 = store.Commit(EdgeBatch());
  ASSERT_TRUE(e1.ok()) << e1.status().ToString();
  EXPECT_EQ(*e1, 1u);

  auto v1 = store.Pin();
  UpdateBatch b2;
  b2.Delete("edge", {"1", "2"});
  b2.Insert("edge", {"3", "4"});
  ASSERT_TRUE(store.Commit(b2).ok());
  auto v2 = store.Pin();

  // v0 pinned before any commit never sees the relation.
  EXPECT_EQ(v0->Find("edge"), nullptr);
  // v1 keeps its snapshot despite the later delete.
  ASSERT_NE(v1->Find("edge"), nullptr);
  EXPECT_EQ(v1->Find("edge")->size(), 2u);
  EXPECT_TRUE(v1->Find("edge")->Contains(Tuple{1, 2}));
  // v2 reflects the second batch.
  EXPECT_EQ(v2->Find("edge")->size(), 2u);
  EXPECT_FALSE(v2->Find("edge")->Contains(Tuple{1, 2}));
  EXPECT_TRUE(v2->Find("edge")->Contains(Tuple{3, 4}));
  EXPECT_EQ(v2->epoch(), 2u);
}

TEST_F(VersionedStoreTest, UntouchedRelationsAreSharedBetweenVersions) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  UpdateBatch setup;
  setup.CreateRelation("stable", 1);
  setup.Insert("stable", {"7"});
  setup.CreateRelation("hot", 1);
  ASSERT_TRUE(store.Commit(setup).ok());
  auto v1 = store.Pin();

  UpdateBatch touch;
  touch.Insert("hot", {"1"});
  ASSERT_TRUE(store.Commit(touch).ok());
  auto v2 = store.Pin();

  // COW: untouched relation object is literally the same, touched is not.
  EXPECT_EQ(v1->Find("stable"), v2->Find("stable"));
  EXPECT_NE(v1->Find("hot"), v2->Find("hot"));
}

TEST_F(VersionedStoreTest, SymbolAndIntegerFieldConvention) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  UpdateBatch b;
  b.CreateRelation("parent", 2);
  b.Insert("parent", {"ann", "-42"});
  ASSERT_TRUE(store.Commit(b).ok());

  Value ann = store.symbols().Find("ann");
  ASSERT_GE(ann, 0);
  EXPECT_TRUE(store.Pin()->Find("parent")->Contains(Tuple{ann, -42}));
  // "-42" parses as an integer, so it was never interned.
  EXPECT_EQ(store.symbols().Find("-42"), -1);
}

TEST_F(VersionedStoreTest, RejectedBatchLeavesTipUntouched) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  ASSERT_TRUE(store.Commit(EdgeBatch()).ok());

  struct Case {
    UpdateBatch batch;
    StatusCode want;
  };
  std::vector<Case> cases;
  {
    UpdateBatch b;  // empty
    cases.push_back({b, StatusCode::kInvalidArgument});
  }
  {
    UpdateBatch b;
    b.Insert("nope", {"1"});
    cases.push_back({b, StatusCode::kNotFound});
  }
  {
    UpdateBatch b;
    b.Insert("edge", {"1"});  // arity mismatch
    cases.push_back({b, StatusCode::kInvalidArgument});
  }
  {
    UpdateBatch b;
    b.CreateRelation("edge", 2);
    cases.push_back({b, StatusCode::kAlreadyExists});
  }
  {
    UpdateBatch b;
    b.DropRelation("ghost");
    cases.push_back({b, StatusCode::kNotFound});
  }
  {
    UpdateBatch b;
    b.CreateRelation("wide", kMaxTupleArity + 1);
    cases.push_back({b, StatusCode::kInvalidArgument});
  }
  {
    // Later op invalid: the whole batch must be rejected, including the
    // valid insert before it.
    UpdateBatch b;
    b.Insert("edge", {"9", "9"});
    b.Insert("edge", {"too", "many", "fields"});
    cases.push_back({b, StatusCode::kInvalidArgument});
  }

  for (size_t i = 0; i < cases.size(); ++i) {
    auto r = store.Commit(cases[i].batch);
    ASSERT_FALSE(r.ok()) << "case " << i;
    EXPECT_EQ(r.status().code(), cases[i].want) << "case " << i;
  }
  EXPECT_EQ(store.TipEpoch(), 1u);
  EXPECT_EQ(store.Pin()->Find("edge")->size(), 2u);
  EXPECT_FALSE(store.Pin()->Find("edge")->Contains(Tuple{9, 9}));
}

TEST_F(VersionedStoreTest, BatchLocalCreateDropSequences) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  // Create + fill + drop + recreate inside one batch: the final state is
  // the recreated (narrower) relation only.
  UpdateBatch b;
  b.CreateRelation("r", 2);
  b.Insert("r", {"1", "2"});
  b.DropRelation("r");
  b.CreateRelation("r", 1);
  b.Insert("r", {"5"});
  ASSERT_TRUE(store.Commit(b).ok());
  const Relation* r = store.Pin()->Find("r");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->arity(), 1u);
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->Contains(Tuple{5}));

  // Delete-then-reinsert keeps the tuple.
  UpdateBatch b2;
  b2.Delete("r", {"5"});
  b2.Insert("r", {"5"});
  ASSERT_TRUE(store.Commit(b2).ok());
  EXPECT_TRUE(store.Pin()->Find("r")->Contains(Tuple{5}));
}

TEST_F(VersionedStoreTest, SnapshotIntoWorkingDatabase) {
  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  UpdateBatch b;
  b.CreateRelation("parent", 2);
  b.Insert("parent", {"ann", "bob"});
  ASSERT_TRUE(store.Commit(b).ok());

  Database work(&store.symbols());
  ASSERT_TRUE(store.Pin()->SnapshotInto(&work).ok());
  Value ann = work.symbols().Find("ann");
  Value bob = work.symbols().Find("bob");
  EXPECT_TRUE(work.Find("parent")->Contains(Tuple{ann, bob}));

  // Arity clash with a pre-existing relation is an error.
  Database clash(&store.symbols());
  clash.GetOrCreateRelation("parent", 3);
  EXPECT_FALSE(store.Pin()->SnapshotInto(&clash).ok());
}

TEST_F(VersionedStoreTest, BootstrapFromDatabase) {
  Database db;
  db.GetOrCreateRelation("edge", 2);
  db.Find("edge")->Insert(Tuple{1, 2});
  Value ann = db.symbols().Intern("ann");
  db.GetOrCreateRelation("who", 1);
  db.Find("who")->Insert(Tuple{ann});

  VersionedStore store;
  ASSERT_TRUE(store.Recover().ok());
  auto epoch = store.BootstrapFromDatabase(db);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 1u);

  auto v = store.Pin();
  EXPECT_TRUE(v->Find("edge")->Contains(Tuple{1, 2}));
  Value re_ann = store.symbols().Find("ann");
  ASSERT_GE(re_ann, 0);
  EXPECT_TRUE(v->Find("who")->Contains(Tuple{re_ann}));
  EXPECT_EQ(v->TotalTuples(), 2u);
}

TEST_F(VersionedStoreTest, LifecycleGuards) {
  VersionedStore mem;
  EXPECT_TRUE(mem.Recover().ok());
  EXPECT_EQ(mem.Recover().code(), StatusCode::kInternal);  // only once
  EXPECT_EQ(mem.Checkpoint().code(), StatusCode::kInvalidArgument);

  VersionedStore durable(VersionedStore::Options{Dir()});
  auto r = durable.Commit(EdgeBatch());  // before Recover
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Durability

TEST_F(VersionedStoreTest, WalOnlyRecoveryRestoresCommittedState) {
  {
    auto store = OpenDurable();
    ASSERT_TRUE(store->Commit(EdgeBatch()).ok());
    UpdateBatch b2;
    b2.CreateRelation("parent", 2);
    b2.Insert("parent", {"ann", "bob"});
    b2.Delete("edge", {"1", "2"});
    ASSERT_TRUE(store->Commit(b2).ok());
  }  // "crash": no checkpoint was ever written

  Status st;
  auto re = OpenDurable(&st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto v = re->Pin();
  EXPECT_EQ(v->epoch(), 2u);
  EXPECT_EQ(v->Find("edge")->size(), 1u);
  Value ann = re->symbols().Find("ann");
  Value bob = re->symbols().Find("bob");
  ASSERT_GE(ann, 0);
  EXPECT_TRUE(v->Find("parent")->Contains(Tuple{ann, bob}));
}

TEST_F(VersionedStoreTest, CheckpointPlusWalRecovery) {
  {
    auto store = OpenDurable();
    ASSERT_TRUE(store->Commit(EdgeBatch()).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    UpdateBatch b2;
    b2.Insert("edge", {"sym", "10"});
    ASSERT_TRUE(store->Commit(b2).ok());
  }

  Status st;
  auto re = OpenDurable(&st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto v = re->Pin();
  EXPECT_EQ(v->epoch(), 2u);
  EXPECT_EQ(v->Find("edge")->size(), 3u);
  Value sym = re->symbols().Find("sym");
  ASSERT_GE(sym, 0);
  EXPECT_TRUE(v->Find("edge")->Contains(Tuple{sym, 10}));
}

TEST_F(VersionedStoreTest, CheckpointAloneRecoversWithEmptyRotatedWal) {
  {
    auto store = OpenDurable();
    ASSERT_TRUE(store->Commit(EdgeBatch()).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
  }
  Status st;
  auto re = OpenDurable(&st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(re->TipEpoch(), 1u);
  EXPECT_EQ(re->Pin()->Find("edge")->size(), 2u);
}

TEST_F(VersionedStoreTest, TornWalTailIsTruncatedAndReported) {
  std::string wal_path;
  {
    auto store = OpenDurable();
    ASSERT_TRUE(store->Commit(EdgeBatch()).ok());
    UpdateBatch b2;
    b2.Insert("edge", {"8", "9"});
    ASSERT_TRUE(store->Commit(b2).ok());
    wal_path = store->WalPath();
  }
  // Tear the tail of the last record off, as a crash mid-write would.
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(wal_path, &bytes).ok());
  {
    std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 3);
  }

  Status st;
  auto re = OpenDurable(&st);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  // The longest consistent prefix: epoch 1, without the second batch.
  EXPECT_EQ(re->TipEpoch(), 1u);
  EXPECT_FALSE(re->Pin()->Find("edge")->Contains(Tuple{8, 9}));

  // The store stays fully usable, and the next recovery is clean.
  UpdateBatch b3;
  b3.Insert("edge", {"5", "6"});
  auto epoch = re->Commit(b3);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2u);
  re.reset();

  Status st2;
  auto re2 = OpenDurable(&st2);
  EXPECT_TRUE(st2.ok()) << st2.ToString();
  EXPECT_EQ(re2->TipEpoch(), 2u);
  EXPECT_TRUE(re2->Pin()->Find("edge")->Contains(Tuple{5, 6}));
}

TEST_F(VersionedStoreTest, CorruptCheckpointIsDataLossNotAHalfState) {
  std::string ckpt_path;
  {
    auto store = OpenDurable();
    ASSERT_TRUE(store->Commit(EdgeBatch()).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ckpt_path = store->CheckpointPath();
  }
  {
    std::ofstream out(ckpt_path, std::ios::binary | std::ios::trunc);
    out << "mcmckpt\t1\nepoch\tgarbage\n";
  }

  Status st;
  auto re = OpenDurable(&st);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
  // The rotated WAL continues the (lost) checkpoint, so nothing bridges the
  // gap: the store comes back empty rather than half-applied.
  EXPECT_EQ(re->TipEpoch(), 0u);
  EXPECT_EQ(re->Pin()->Find("edge"), nullptr);

  // Still usable: fresh commits work and are durable.
  ASSERT_TRUE(re->Commit(EdgeBatch()).ok());
  re.reset();
  Status st2;
  auto re2 = OpenDurable(&st2);
  // The mangled checkpoint is still on disk, so recovery keeps reporting
  // data loss, but the replayed WAL state is consistent.
  EXPECT_TRUE(st2.IsDataLoss());
  EXPECT_EQ(re2->TipEpoch(), 1u);
  EXPECT_EQ(re2->Pin()->Find("edge")->size(), 2u);
}

TEST_F(VersionedStoreTest, CheckpointBitFlipFailsTheChecksum) {
  std::string ckpt_path;
  {
    auto store = OpenDurable();
    ASSERT_TRUE(store->Commit(EdgeBatch()).ok());
    ASSERT_TRUE(store->Checkpoint().ok());
    ckpt_path = store->CheckpointPath();
  }
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(ckpt_path, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(ckpt_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  Status st;
  auto re = OpenDurable(&st);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
}

TEST_F(VersionedStoreTest, FailedWalFsyncAbortsCommitWithoutMovingTip) {
  auto store = OpenDurable();
  ASSERT_TRUE(store->Commit(EdgeBatch()).ok());

  util::FaultInjection::Instance().Arm("wal/fsync",
                                       Status::Internal("injected"));
  UpdateBatch b2;
  b2.Insert("edge", {"8", "9"});
  auto r = store->Commit(b2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(store->TipEpoch(), 1u);
  EXPECT_FALSE(store->Pin()->Find("edge")->Contains(Tuple{8, 9}));

  // Retry after the fault clears: same batch lands as epoch 2, and the
  // rolled-back first attempt left no trace in the log.
  util::FaultInjection::Instance().DisarmAll();
  auto r2 = store->Commit(b2);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(*r2, 2u);
  store.reset();

  Status st;
  auto re = OpenDurable(&st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(re->TipEpoch(), 2u);
  EXPECT_TRUE(re->Pin()->Find("edge")->Contains(Tuple{8, 9}));
}

TEST_F(VersionedStoreTest, FailedCheckpointWriteKeepsOldDurableState) {
  auto store = OpenDurable();
  ASSERT_TRUE(store->Commit(EdgeBatch()).ok());

  util::FaultInjection::Instance().Arm("io/atomic/fsync",
                                       Status::Internal("injected"));
  EXPECT_FALSE(store->Checkpoint().ok());
  util::FaultInjection::Instance().DisarmAll();

  // The half-written temp file must not shadow recovery: the WAL still has
  // everything.
  store.reset();
  Status st;
  auto re = OpenDurable(&st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(re->TipEpoch(), 1u);
  EXPECT_EQ(re->Pin()->Find("edge")->size(), 2u);
}

TEST_F(VersionedStoreTest, EscapedFieldsSurviveTheWal) {
  {
    auto store = OpenDurable();
    UpdateBatch b;
    b.CreateRelation("odd", 1);
    b.Insert("odd", {"tab\there"});
    b.Insert("odd", {"line\nbreak"});
    b.Insert("odd", {"back\\slash"});
    ASSERT_TRUE(store->Commit(b).ok());
  }
  Status st;
  auto re = OpenDurable(&st);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(re->Pin()->Find("odd")->size(), 3u);
  for (const char* s : {"tab\there", "line\nbreak", "back\\slash"}) {
    Value v = re->symbols().Find(s);
    ASSERT_GE(v, 0) << s;
    EXPECT_TRUE(re->Pin()->Find("odd")->Contains(Tuple{v}));
  }
}

// ---------------------------------------------------------------------------
// Pin survival under churn — the lifetime contract the zero-copy EdbView
// path leans on. A pinned version must stay byte-identical and readable
// (ASan-clean) while writers advance the tip, checkpoints rotate the WAL,
// and recovery churns replicas off the live directory; and it must outlive
// the store itself.

TEST_F(VersionedStoreTest, PinSurvivesConcurrentCheckpointCommitRecoverChurn) {
  auto store = OpenDurable();
  UpdateBatch init;
  init.CreateRelation("edge", 2);
  for (int i = 0; i < 64; ++i) {
    init.Insert("edge", {std::to_string(i), std::to_string(i + 1)});
  }
  ASSERT_TRUE(store->Commit(init).ok());

  auto pin = store->Pin();  // epoch 1: the version whose survival is tested
  ASSERT_NE(pin->Find("edge"), nullptr);
  const std::vector<Tuple> expected = pin->Find("edge")->TuplesUnchecked();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Writer: commits advance the tip 40 epochs past the pin.
  std::thread writer([&] {
    for (int i = 0; i < 40; ++i) {
      UpdateBatch b;
      b.Insert("edge", {std::to_string(1000 + i), std::to_string(i)});
      if (i % 8 == 3) b.CreateRelation("scratch_" + std::to_string(i), 1);
      if (!store->Commit(b).ok()) ++failures;
    }
    stop = true;
  });

  // Checkpointer: rotates the WAL out from under the in-flight commits.
  std::thread checkpointer([&] {
    while (!stop) {
      Status st = store->Checkpoint();
      if (!st.ok()) ++failures;
    }
  });

  // Recover churn: restore scratch copies of the live directory into fresh
  // stores. A copy taken mid-append or mid-rotation may hold a torn tail —
  // Recover must answer OK or an honest kDataLoss, never crash, and the
  // pin is unaffected either way.
  std::thread recoverer([&] {
    int round = 0;
    while (!stop) {
      std::filesystem::path scratch =
          dir_.string() + "_recover_" + std::to_string(round++);
      std::error_code ec;
      std::filesystem::create_directories(scratch, ec);
      for (const char* f : {"checkpoint.mcm", "wal.log", "wal.prev.log"}) {
        std::filesystem::copy_file(
            dir_ / f, scratch / f,
            std::filesystem::copy_options::overwrite_existing, ec);
      }
      VersionedStore replica(VersionedStore::Options{scratch.string()});
      (void)replica.Recover();
      std::filesystem::remove_all(scratch, ec);
    }
  });

  // Readers: the pin must keep serving exactly the epoch-1 snapshot, both
  // through the raw sanctioned read path and through the EdbView borrow.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop) {
        if (pin->epoch() != 1 ||
            pin->Find("edge")->TuplesUnchecked() != expected) {
          ++failures;
          return;
        }
        Database work(&store->symbols());
        if (!EdbView(*pin).AttachTo(&work).ok() ||
            work.Find("edge")->TuplesUnchecked() != expected) {
          ++failures;
          return;
        }
      }
    });
  }

  writer.join();
  checkpointer.join();
  recoverer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The directory recovers to the full 41-epoch history while the pin is
  // still held on epoch 1...
  {
    Status st;
    auto re = OpenDurable(&st);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(re->TipEpoch(), 41u);
    EXPECT_EQ(re->Pin()->Find("edge")->size(), expected.size() + 40);
  }

  // ...and the pin outlives even its own store: relations are co-owned, so
  // tuple reads stay valid after the store (and its tip) are destroyed.
  store.reset();
  EXPECT_EQ(pin->epoch(), 1u);
  EXPECT_EQ(pin->Find("edge")->TuplesUnchecked(), expected);
}

}  // namespace
}  // namespace mcm

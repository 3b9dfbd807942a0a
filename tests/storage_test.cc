// Unit tests for the storage substrate: slotted pages, disk manager,
// buffer pool, heap files, and the B+Tree.

#include <algorithm>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/slotted_page.h"
#include "util/rng.h"

namespace doradb {
namespace {

// ---------------------------------------------------------------- SlottedPage

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : page_(buf_) { page_.Init(7, 3); }
  alignas(8) uint8_t buf_[kPageSize]{};
  SlottedPage page_;
};

TEST_F(SlottedPageTest, InitEmpty) {
  EXPECT_EQ(page_.page_id(), 7u);
  EXPECT_EQ(page_.table_id(), 3u);
  EXPECT_EQ(page_.slot_count(), 0);
  EXPECT_EQ(page_.record_count(), 0);
  EXPECT_GT(page_.FreeSpace(), kPageSize - 100);
}

TEST_F(SlottedPageTest, InsertAndGet) {
  SlotId slot;
  ASSERT_TRUE(page_.Insert("hello world", &slot).ok());
  std::string_view out;
  ASSERT_TRUE(page_.Get(slot, &out).ok());
  EXPECT_EQ(out, "hello world");
  EXPECT_EQ(page_.record_count(), 1);
}

TEST_F(SlottedPageTest, GetEmptySlotFails) {
  std::string_view out;
  EXPECT_TRUE(page_.Get(0, &out).IsNotFound());
  EXPECT_TRUE(page_.Get(99, &out).IsNotFound());
}

TEST_F(SlottedPageTest, DeleteFreesSlotForReuse) {
  SlotId a, b;
  ASSERT_TRUE(page_.Insert("aaaa", &a).ok());
  ASSERT_TRUE(page_.Insert("bbbb", &b).ok());
  ASSERT_TRUE(page_.Delete(a).ok());
  EXPECT_EQ(page_.record_count(), 1);
  SlotId c;
  ASSERT_TRUE(page_.Insert("cccc", &c).ok());
  EXPECT_EQ(c, a) << "freed slot should be reused";
}

TEST_F(SlottedPageTest, DeleteEmptySlotFails) {
  EXPECT_TRUE(page_.Delete(0).IsNotFound());
}

TEST_F(SlottedPageTest, InsertAtOccupiedSlotIsBusy) {
  // The physical conflict of paper §4.2.1: T1 deletes, T2 inserts into the
  // freed slot, T1's rollback cannot reclaim it.
  SlotId a;
  ASSERT_TRUE(page_.Insert("victim", &a).ok());
  ASSERT_TRUE(page_.Delete(a).ok());
  SlotId b;
  ASSERT_TRUE(page_.Insert("usurper", &b).ok());
  ASSERT_EQ(a, b);
  EXPECT_TRUE(page_.InsertAt(a, "victim").IsBusy());
}

TEST_F(SlottedPageTest, InsertAtRestoresDeletedRecord) {
  SlotId a;
  ASSERT_TRUE(page_.Insert("original", &a).ok());
  ASSERT_TRUE(page_.Delete(a).ok());
  ASSERT_TRUE(page_.InsertAt(a, "original").ok());
  std::string_view out;
  ASSERT_TRUE(page_.Get(a, &out).ok());
  EXPECT_EQ(out, "original");
}

TEST_F(SlottedPageTest, UpdateSameSize) {
  SlotId a;
  ASSERT_TRUE(page_.Insert("12345", &a).ok());
  ASSERT_TRUE(page_.Update(a, "54321").ok());
  std::string_view out;
  ASSERT_TRUE(page_.Get(a, &out).ok());
  EXPECT_EQ(out, "54321");
}

TEST_F(SlottedPageTest, UpdateGrowRelocatesWithinPage) {
  SlotId a;
  ASSERT_TRUE(page_.Insert("short", &a).ok());
  const std::string big(1000, 'x');
  ASSERT_TRUE(page_.Update(a, big).ok());
  std::string_view out;
  ASSERT_TRUE(page_.Get(a, &out).ok());
  EXPECT_EQ(out, big);
}

TEST_F(SlottedPageTest, FillUntilFullThenCompactAfterDeletes) {
  const std::string rec(100, 'r');
  std::vector<SlotId> slots;
  SlotId s;
  while (page_.Insert(rec, &s).ok()) slots.push_back(s);
  ASSERT_GT(slots.size(), 50u);
  EXPECT_TRUE(page_.Insert(rec, &s).IsFull());
  // Delete every other record; compaction should make room again.
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(page_.Delete(slots[i]).ok());
  }
  EXPECT_TRUE(page_.Insert(rec, &s).ok());
}

TEST_F(SlottedPageTest, CompactPreservesRecords) {
  SlotId a, b, c;
  ASSERT_TRUE(page_.Insert("alpha", &a).ok());
  ASSERT_TRUE(page_.Insert("beta", &b).ok());
  ASSERT_TRUE(page_.Insert("gamma", &c).ok());
  ASSERT_TRUE(page_.Delete(b).ok());
  page_.Compact();
  std::string_view out;
  ASSERT_TRUE(page_.Get(a, &out).ok());
  EXPECT_EQ(out, "alpha");
  ASSERT_TRUE(page_.Get(c, &out).ok());
  EXPECT_EQ(out, "gamma");
  EXPECT_TRUE(page_.Get(b, &out).IsNotFound());
}

TEST_F(SlottedPageTest, LsnRoundTrip) {
  page_.set_page_lsn(12345);
  EXPECT_EQ(page_.page_lsn(), 12345u);
}

// ---------------------------------------------------------------- DiskManager

TEST(DiskManagerTest, AllocateReadWrite) {
  DiskManager disk;
  const PageId p = disk.AllocatePage();
  std::vector<uint8_t> in(kPageSize, 0xAB), out(kPageSize, 0);
  ASSERT_TRUE(disk.WritePage(p, in.data()).ok());
  ASSERT_TRUE(disk.ReadPage(p, out.data()).ok());
  EXPECT_EQ(in, out);
}

TEST(DiskManagerTest, DeallocatedPageIsReused) {
  DiskManager disk;
  const PageId a = disk.AllocatePage();
  disk.DeallocatePage(a);
  const PageId b = disk.AllocatePage();
  EXPECT_EQ(a, b);
}

TEST(DiskManagerTest, ManyPagesSpanExtents) {
  DiskManager disk;
  std::vector<PageId> ids;
  for (int i = 0; i < 3000; ++i) ids.push_back(disk.AllocatePage());
  std::vector<uint8_t> buf(kPageSize);
  for (PageId id : ids) {
    std::fill(buf.begin(), buf.end(), static_cast<uint8_t>(id % 251));
    ASSERT_TRUE(disk.WritePage(id, buf.data()).ok());
  }
  for (PageId id : ids) {
    ASSERT_TRUE(disk.ReadPage(id, buf.data()).ok());
    EXPECT_EQ(buf[0], static_cast<uint8_t>(id % 251));
  }
}

// ----------------------------------------------------------------- BufferPool

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : pool_(&disk_, 16) {}
  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(BufferPoolTest, NewPageIsPinnedAndWritable) {
  PageGuard g;
  PageId pid;
  ASSERT_TRUE(pool_.NewPage(&g, &pid).ok());
  g.LatchExclusive();
  SlottedPage page = g.AsSlotted();
  page.Init(pid, 0);
  SlotId s;
  ASSERT_TRUE(page.Insert("data", &s).ok());
  g.MarkDirty();
}

TEST_F(BufferPoolTest, FetchHitsCachedPage) {
  PageGuard g;
  PageId pid;
  ASSERT_TRUE(pool_.NewPage(&g, &pid).ok());
  g.Release();
  PageGuard g2;
  ASSERT_TRUE(pool_.FetchPage(pid, &g2).ok());
  EXPECT_GE(pool_.hits(), 1u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  // Create more pages than frames; early pages must survive eviction.
  std::vector<PageId> pids;
  for (int i = 0; i < 64; ++i) {
    PageGuard g;
    PageId pid;
    ASSERT_TRUE(pool_.NewPage(&g, &pid).ok());
    g.LatchExclusive();
    SlottedPage page = g.AsSlotted();
    page.Init(pid, 0);
    SlotId s;
    ASSERT_TRUE(page.Insert("page" + std::to_string(pid), &s).ok());
    g.MarkDirty();
    pids.push_back(pid);
  }
  EXPECT_GT(pool_.evictions(), 0u);
  for (PageId pid : pids) {
    PageGuard g;
    ASSERT_TRUE(pool_.FetchPage(pid, &g).ok());
    g.LatchShared();
    SlottedPage page = g.AsSlotted();
    std::string_view out;
    ASSERT_TRUE(page.Get(0, &out).ok());
    EXPECT_EQ(out, "page" + std::to_string(pid));
  }
}

TEST_F(BufferPoolTest, AllFramesPinnedFails) {
  std::vector<PageGuard> guards(16);
  for (int i = 0; i < 16; ++i) {
    PageId pid;
    ASSERT_TRUE(pool_.NewPage(&guards[i], &pid).ok());
  }
  PageGuard extra;
  PageId pid;
  EXPECT_TRUE(pool_.NewPage(&extra, &pid).IsFull());
}

TEST_F(BufferPoolTest, WalCallbackInvokedOnDirtyWriteback) {
  Lsn flushed_up_to = 0;
  pool_.SetWalFlushCallback([&](Lsn lsn) {
    flushed_up_to = lsn;
    return true;
  });
  PageGuard g;
  PageId pid;
  ASSERT_TRUE(pool_.NewPage(&g, &pid).ok());
  g.LatchExclusive();
  SlottedPage page = g.AsSlotted();
  page.Init(pid, 0);
  page.set_page_lsn(777);
  g.MarkDirty();
  g.Release();
  ASSERT_TRUE(pool_.FlushPage(pid).ok());
  EXPECT_EQ(flushed_up_to, 777u);
}

TEST_F(BufferPoolTest, ConcurrentFetchStress) {
  std::vector<PageId> pids;
  for (int i = 0; i < 32; ++i) {
    PageGuard g;
    PageId pid;
    ASSERT_TRUE(pool_.NewPage(&g, &pid).ok());
    g.LatchExclusive();
    g.AsSlotted().Init(pid, 0);
    g.MarkDirty();
    pids.push_back(pid);
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t);
      for (int i = 0; i < 2000; ++i) {
        const PageId pid = pids[rng() % pids.size()];
        PageGuard g;
        if (!pool_.FetchPage(pid, &g).ok()) {
          // Transient kFull is possible when all frames are pinned.
          continue;
        }
        g.LatchShared();
        if (g.AsSlotted().page_id() != pid) failed = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed);
}

// ------------------------------------------------------------------- HeapFile

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(&disk_, 256), heap_(&pool_, 1) {}
  DiskManager disk_;
  BufferPool pool_;
  HeapFile heap_;
};

TEST_F(HeapFileTest, InsertGetRoundTrip) {
  Rid rid;
  ASSERT_TRUE(heap_.Insert("record-1", &rid).ok());
  std::string out;
  ASSERT_TRUE(heap_.Get(rid, &out).ok());
  EXPECT_EQ(out, "record-1");
  EXPECT_EQ(heap_.record_count(), 1u);
}

TEST_F(HeapFileTest, InsertManySpansPages) {
  const std::string rec(500, 'z');
  std::vector<Rid> rids;
  for (int i = 0; i < 200; ++i) {
    Rid rid;
    ASSERT_TRUE(heap_.Insert(rec + std::to_string(i), &rid).ok());
    rids.push_back(rid);
  }
  EXPECT_GT(heap_.page_count(), 1u);
  for (int i = 0; i < 200; ++i) {
    std::string out;
    ASSERT_TRUE(heap_.Get(rids[i], &out).ok());
    EXPECT_EQ(out, rec + std::to_string(i));
  }
}

TEST_F(HeapFileTest, UpdateReturnsOldImage) {
  Rid rid;
  ASSERT_TRUE(heap_.Insert("before", &rid).ok());
  std::string old;
  ASSERT_TRUE(heap_.Update(rid, "after!", &old).ok());
  EXPECT_EQ(old, "before");
  std::string out;
  ASSERT_TRUE(heap_.Get(rid, &out).ok());
  EXPECT_EQ(out, "after!");
}

TEST_F(HeapFileTest, DeleteThenGetFails) {
  Rid rid;
  ASSERT_TRUE(heap_.Insert("gone", &rid).ok());
  std::string old;
  ASSERT_TRUE(heap_.Delete(rid, &old).ok());
  EXPECT_EQ(old, "gone");
  std::string out;
  EXPECT_TRUE(heap_.Get(rid, &out).IsNotFound());
  EXPECT_EQ(heap_.record_count(), 0u);
}

TEST_F(HeapFileTest, InsertAtAfterDeleteRestores) {
  Rid rid;
  ASSERT_TRUE(heap_.Insert("abc", &rid).ok());
  ASSERT_TRUE(heap_.Delete(rid).ok());
  ASSERT_TRUE(heap_.InsertAt(rid, "abc").ok());
  std::string out;
  ASSERT_TRUE(heap_.Get(rid, &out).ok());
  EXPECT_EQ(out, "abc");
}

TEST_F(HeapFileTest, InsertAtUsurpedSlotIsBusy) {
  Rid rid;
  ASSERT_TRUE(heap_.Insert("victim", &rid).ok());
  ASSERT_TRUE(heap_.Delete(rid).ok());
  Rid rid2;
  ASSERT_TRUE(heap_.Insert("usurper", &rid2).ok());
  ASSERT_EQ(rid.page_id, rid2.page_id);
  ASSERT_EQ(rid.slot, rid2.slot);
  EXPECT_TRUE(heap_.InsertAt(rid, "victim").IsBusy());
}

TEST_F(HeapFileTest, ScanVisitsAllRecords) {
  std::set<std::string> expect;
  for (int i = 0; i < 100; ++i) {
    Rid rid;
    const std::string rec = "rec" + std::to_string(i);
    ASSERT_TRUE(heap_.Insert(rec, &rid).ok());
    expect.insert(rec);
  }
  std::set<std::string> got;
  ASSERT_TRUE(heap_.Scan([&](const Rid&, std::string_view data) {
    got.insert(std::string(data));
    return true;
  }).ok());
  EXPECT_EQ(got, expect);
}

TEST_F(HeapFileTest, ScanEarlyStop) {
  for (int i = 0; i < 10; ++i) {
    Rid rid;
    ASSERT_TRUE(heap_.Insert("r", &rid).ok());
  }
  int visited = 0;
  ASSERT_TRUE(heap_.Scan([&](const Rid&, std::string_view) {
    return ++visited < 3;
  }).ok());
  EXPECT_EQ(visited, 3);
}

TEST_F(HeapFileTest, ConcurrentInsertsKeepAllRecords) {
  constexpr int kThreads = 4, kPerThread = 500;
  std::vector<std::thread> threads;
  std::vector<std::vector<Rid>> rids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Rid rid;
        const std::string rec =
            "t" + std::to_string(t) + "i" + std::to_string(i);
        if (heap_.Insert(rec, &rid).ok()) rids[t].push_back(rid);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(heap_.record_count(),
            static_cast<uint64_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(rids[t].size(), static_cast<size_t>(kPerThread));
    std::string out;
    ASSERT_TRUE(heap_.Get(rids[t][0], &out).ok());
    EXPECT_EQ(out, "t" + std::to_string(t) + "i0");
  }
}

// ------------------------------------------------------------------ KeyBuilder

TEST(KeyBuilderTest, OrderPreserving64) {
  KeyBuilder a, b;
  a.Add64(100);
  b.Add64(200);
  EXPECT_LT(a.Str(), b.Str());
}

TEST(KeyBuilderTest, CompositeFieldOrder) {
  KeyBuilder a, b;
  a.Add32(1).Add32(999);
  b.Add32(2).Add32(0);
  EXPECT_LT(a.Str(), b.Str()) << "first field dominates";
}

TEST(KeyBuilderTest, StringFieldPadded) {
  KeyBuilder a, b;
  a.AddString("ABC", 8).Add32(5);
  b.AddString("ABD", 8).Add32(1);
  EXPECT_LT(a.Str(), b.Str());
  EXPECT_EQ(a.size(), 12u);
}

TEST(KeyBuilderTest, PrefixUpperBound) {
  EXPECT_EQ(PrefixUpperBound("abc"), "abd");
  std::string with_ff = std::string("a") + '\xFF';
  EXPECT_EQ(PrefixUpperBound(with_ff), "b");
}

// ---------------------------------------------------------------------- BTree

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&disk_, 4096), tree_(&pool_, 0, /*unique=*/true) {}

  static std::string Key(uint64_t v) {
    KeyBuilder kb;
    kb.Add64(v);
    return kb.Str();
  }

  DiskManager disk_;
  BufferPool pool_;
  BTree tree_;
};

TEST_F(BTreeTest, InsertProbe) {
  ASSERT_TRUE(tree_.Insert(Key(42), {Rid{1, 2}, 7, false}).ok());
  IndexEntry out;
  ASSERT_TRUE(tree_.Probe(Key(42), &out).ok());
  EXPECT_EQ(out.rid, (Rid{1, 2}));
  EXPECT_EQ(out.aux, 7u);
}

TEST_F(BTreeTest, ProbeMissingIsNotFound) {
  IndexEntry out;
  EXPECT_TRUE(tree_.Probe(Key(1), &out).IsNotFound());
}

TEST_F(BTreeTest, UniqueViolationRejected) {
  ASSERT_TRUE(tree_.Insert(Key(5), {Rid{1, 0}, 0, false}).ok());
  EXPECT_TRUE(tree_.Insert(Key(5), {Rid{2, 0}, 0, false}).IsDuplicate());
}

TEST_F(BTreeTest, RemoveThenProbeFails) {
  ASSERT_TRUE(tree_.Insert(Key(9), {Rid{1, 0}, 0, false}).ok());
  ASSERT_TRUE(tree_.Remove(Key(9), Rid{1, 0}).ok());
  IndexEntry out;
  EXPECT_TRUE(tree_.Probe(Key(9), &out).IsNotFound());
  EXPECT_EQ(tree_.num_entries(), 0u);
}

TEST_F(BTreeTest, ManyInsertsSplitAndStaySorted) {
  constexpr uint64_t kN = 20000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        tree_.Insert(Key(i * 7919 % kN * 2 + (i % 2)), {Rid{PageId(i), 0},
                     i, false}).ok())
        << i;
  }
  EXPECT_GT(tree_.splits(), 0u);
  EXPECT_GT(tree_.Height(), 1);
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
}

TEST_F(BTreeTest, SequentialInsertThenFullScanInOrder) {
  constexpr uint64_t kN = 5000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree_.Insert(Key(i), {Rid{PageId(i), 0}, i, false}).ok());
  }
  uint64_t expect = 0;
  ASSERT_TRUE(tree_.Scan(Key(0), "", [&](std::string_view,
                                         const IndexEntry& e) {
    EXPECT_EQ(e.aux, expect);
    ++expect;
    return true;
  }).ok());
  EXPECT_EQ(expect, kN);
}

TEST_F(BTreeTest, RangeScanBounds) {
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree_.Insert(Key(i), {Rid{PageId(i), 0}, i, false}).ok());
  }
  std::vector<uint64_t> got;
  ASSERT_TRUE(tree_.Scan(Key(10), Key(20), [&](std::string_view,
                                               const IndexEntry& e) {
    got.push_back(e.aux);
    return true;
  }).ok());
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), 10u);
  EXPECT_EQ(got.back(), 19u);
}

TEST_F(BTreeTest, DeletedFlagHidesEntryFromProbes) {
  ASSERT_TRUE(tree_.Insert(Key(1), {Rid{1, 0}, 0, false}).ok());
  ASSERT_TRUE(tree_.SetDeleted(Key(1), Rid{1, 0}, true).ok());
  IndexEntry out;
  EXPECT_TRUE(tree_.Probe(Key(1), &out).IsNotFound());
  // ...but ProbeAll(include_deleted) still sees it.
  std::vector<IndexEntry> all;
  ASSERT_TRUE(tree_.ProbeAll(Key(1), &all, /*include_deleted=*/true).ok());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].deleted);
}

TEST_F(BTreeTest, ReinsertOverCommittedDeleteSupersedes) {
  // §4.2.2: transactions "may safely re-insert a new record with the same
  // primary key" — the flagged entry is garbage.
  ASSERT_TRUE(tree_.Insert(Key(1), {Rid{1, 0}, 0, false}).ok());
  ASSERT_TRUE(tree_.SetDeleted(Key(1), Rid{1, 0}, true).ok());
  ASSERT_TRUE(tree_.Insert(Key(1), {Rid{2, 0}, 0, false}).ok());
  IndexEntry out;
  ASSERT_TRUE(tree_.Probe(Key(1), &out).ok());
  EXPECT_EQ(out.rid, (Rid{2, 0}));
  std::vector<IndexEntry> all;
  ASSERT_TRUE(tree_.ProbeAll(Key(1), &all, /*include_deleted=*/true).ok());
  EXPECT_EQ(all.size(), 1u) << "flagged duplicate should have been dropped";
}

TEST_F(BTreeTest, UndeleteRestoresVisibility) {
  ASSERT_TRUE(tree_.Insert(Key(3), {Rid{3, 0}, 0, false}).ok());
  ASSERT_TRUE(tree_.SetDeleted(Key(3), Rid{3, 0}, true).ok());
  ASSERT_TRUE(tree_.SetDeleted(Key(3), Rid{3, 0}, false).ok());
  IndexEntry out;
  EXPECT_TRUE(tree_.Probe(Key(3), &out).ok());
}

TEST_F(BTreeTest, LeafSplitGarbageCollectsDeletedEntries) {
  // Fill leaves, flag a large fraction, keep inserting: GC should reclaim
  // flagged entries instead of splitting forever (§4.2.2).
  constexpr uint64_t kN = 10000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree_.Insert(Key(i), {Rid{PageId(i), 0}, i, false}).ok());
  }
  for (uint64_t i = 0; i < kN; i += 2) {
    ASSERT_TRUE(tree_.SetDeleted(Key(i), Rid{PageId(i), 0}, true).ok());
  }
  for (uint64_t i = kN; i < kN + 5000; ++i) {
    ASSERT_TRUE(tree_.Insert(Key(i), {Rid{PageId(i), 0}, i, false}).ok());
  }
  EXPECT_GT(tree_.gc_purged(), 0u);
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
}

TEST_F(BTreeTest, ConcurrentReadersAndWriters) {
  constexpr uint64_t kPre = 5000;
  for (uint64_t i = 0; i < kPre; ++i) {
    ASSERT_TRUE(tree_.Insert(Key(i), {Rid{PageId(i), 0}, i, false}).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (uint64_t i = kPre; i < kPre + 3000; ++i) {
      if (!tree_.Insert(Key(i), {Rid{PageId(i), 0}, i, false}).ok()) {
        failed = true;
      }
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(t);
      while (!stop.load()) {
        const uint64_t k = rng.UniformInt(uint64_t{0}, kPre - 1);
        IndexEntry out;
        if (!tree_.Probe(Key(k), &out).ok() || out.aux != k) failed = true;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed);
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
}

// Non-unique index behaviour.
class NonUniqueBTreeTest : public ::testing::Test {
 protected:
  NonUniqueBTreeTest()
      : pool_(&disk_, 2048), tree_(&pool_, 0, /*unique=*/false) {}
  static std::string Key(uint64_t v) {
    KeyBuilder kb;
    kb.Add64(v);
    return kb.Str();
  }
  DiskManager disk_;
  BufferPool pool_;
  BTree tree_;
};

TEST_F(NonUniqueBTreeTest, DuplicateKeysAllowed) {
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree_.Insert(Key(7), {Rid{i, 0}, i, false}).ok());
  }
  std::vector<IndexEntry> all;
  ASSERT_TRUE(tree_.ProbeAll(Key(7), &all).ok());
  EXPECT_EQ(all.size(), 10u);
}

TEST_F(NonUniqueBTreeTest, RemoveSpecificRid) {
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(tree_.Insert(Key(7), {Rid{i, 0}, i, false}).ok());
  }
  ASSERT_TRUE(tree_.Remove(Key(7), Rid{2, 0}).ok());
  std::vector<IndexEntry> all;
  ASSERT_TRUE(tree_.ProbeAll(Key(7), &all).ok());
  ASSERT_EQ(all.size(), 4u);
  for (const auto& e : all) EXPECT_NE(e.rid, (Rid{2, 0}));
}

TEST_F(NonUniqueBTreeTest, LargeDuplicateRunsSurviveSplits) {
  // Duplicate runs must not break descent: boundary-adjusted splits.
  for (uint64_t key = 0; key < 50; ++key) {
    for (uint32_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(tree_.Insert(Key(key), {Rid{PageId(key * 100 + i), 0},
                               key, false}).ok());
    }
  }
  ASSERT_TRUE(tree_.CheckIntegrity().ok());
  for (uint64_t key = 0; key < 50; ++key) {
    std::vector<IndexEntry> all;
    ASSERT_TRUE(tree_.ProbeAll(Key(key), &all).ok());
    EXPECT_EQ(all.size(), 40u) << "key " << key;
  }
}

// -------------------------------------------------------------------- Catalog

TEST(CatalogTest, CreateTableAndIndex) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  Catalog catalog(&pool);
  TableId t;
  ASSERT_TRUE(catalog.CreateTable("warehouse", &t).ok());
  IndexId i;
  ASSERT_TRUE(catalog.CreateIndex(t, "wh_pk", true, false, &i).ok());
  EXPECT_NE(catalog.GetTable("warehouse"), nullptr);
  EXPECT_NE(catalog.Heap(t), nullptr);
  EXPECT_NE(catalog.Index(i), nullptr);
  EXPECT_EQ(catalog.GetTable(t)->indexes.size(), 1u);
}

TEST(CatalogTest, DuplicateTableNameRejected) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  Catalog catalog(&pool);
  TableId t;
  ASSERT_TRUE(catalog.CreateTable("x", &t).ok());
  EXPECT_TRUE(catalog.CreateTable("x", &t).IsDuplicate());
}

TEST(CatalogTest, IndexOnMissingTableRejected) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  Catalog catalog(&pool);
  IndexId i;
  EXPECT_FALSE(catalog.CreateIndex(99, "idx", true, false, &i).ok());
}

}  // namespace
}  // namespace doradb

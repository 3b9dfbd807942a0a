// Partitioned WAL (plog) tests: GSN stamping and merge, the global flush
// horizon, crash recovery through the LogBackend facade with independently
// torn per-partition tails, and DORA's pipelined commit / early lock
// release on top of it.

#include <atomic>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "engine/database.h"
#include "log/recovery.h"
#include "plog/partitioned_log_manager.h"
#include "util/rng.h"

namespace doradb {
namespace {

// Fresh (pre-wiped) per-test data directory for file-backed log streams.
std::string TempLogDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "doradb_plog_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

plog::PartitionedLogManager::Options PlogOpts(uint32_t parts,
                                              uint64_t interval_us = 20) {
  plog::PartitionedLogManager::Options o;
  o.num_partitions = parts;
  o.log.flush_interval_us = interval_us;
  return o;
}

Database::Options PlogDb(uint32_t parts = 4, uint64_t interval_us = 20) {
  Database::Options o;
  o.buffer_frames = 512;
  o.log_backend = LogBackendKind::kPartitioned;
  o.log_partitions = parts;
  o.log.flush_interval_us = interval_us;
  o.lock.wait_timeout_us = 300000;
  return o;
}

plog::PartitionedLogManager* Plm(Database* db) {
  return static_cast<plog::PartitionedLogManager*>(db->log_manager());
}

// --------------------------------------------------------- plog unit tests

TEST(PlogTest, ConcurrentBoundAppendersGetUniqueOrderedGsns) {
  plog::PartitionedLogManager log{PlogOpts(4)};
  constexpr int kThreads = 4, kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      log.BindThisThread(static_cast<uint32_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        LogRecord rec;
        rec.type = LogType::kUpdate;
        rec.txn = static_cast<TxnId>(t + 1);
        rec.after = std::string(16, static_cast<char>('a' + t));
        log.Append(&rec);
      }
    });
  }
  for (auto& t : threads) t.join();
  log.FlushTo(log.current_lsn());
  const auto recs = log.ReadStable();
  ASSERT_EQ(recs.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LT(recs[i - 1].lsn, recs[i].lsn) << "merge must be GSN-sorted";
  }
  for (const auto& r : recs) {
    ASSERT_EQ(r.after.size(), 16u);
    EXPECT_EQ(r.after[0], static_cast<char>('a' + (r.txn - 1)));
  }
}

TEST(PlogTest, WaitFlushedCoversEveryPartition) {
  plog::PartitionedLogManager log{PlogOpts(2, /*interval_us=*/1000000)};
  log.BindThisThread(0);
  LogRecord a;
  a.type = LogType::kBegin;
  a.txn = 1;
  log.Append(&a);
  log.BindThisThread(1);
  LogRecord b;
  b.type = LogType::kCommit;
  b.txn = 1;
  const Lsn end = log.Append(&b);
  log.WaitFlushed(end);
  EXPECT_GE(log.flushed_lsn(), end)
      << "the horizon is the min over all partitions";
  EXPECT_EQ(log.ReadStable().size(), 2u);
}

TEST(PlogTest, DiscardLosesUnflushedOnly) {
  plog::PartitionedLogManager log{PlogOpts(2, /*interval_us=*/1000000)};
  log.BindThisThread(0);
  LogRecord a;
  a.type = LogType::kBegin;
  a.txn = 1;
  const Lsn end = log.Append(&a);
  log.WaitFlushed(end);
  log.BindThisThread(1);
  LogRecord b;
  b.type = LogType::kCommit;
  b.txn = 1;
  log.Append(&b);  // NOT flushed
  log.DiscardVolatileTail();
  const auto recs = log.ReadStable();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, LogType::kBegin);
}

TEST(PlogTest, HorizonDropsFlushedAheadRecords) {
  // Partition 1 flushes ahead; partition 0 crashes with its buffer. The
  // survivor in partition 1 has a GSN above the consistent horizon and
  // must be dropped (its same-transaction predecessor is gone), even
  // though its bytes are "stable".
  plog::PartitionedLogManager log{PlogOpts(2, /*interval_us=*/1000000)};
  log.BindThisThread(0);
  LogRecord mine;
  mine.type = LogType::kUpdate;
  mine.txn = 1;
  log.Append(&mine);  // gsn 1, volatile in partition 0
  log.BindThisThread(1);
  LogRecord ahead;
  ahead.type = LogType::kCommit;
  ahead.txn = 1;
  log.Append(&ahead);    // gsn 2
  log.FlushPartition(1);  // partition 1 is ahead of partition 0
  log.DiscardVolatileTail();
  EXPECT_TRUE(log.ReadStable().empty())
      << "commit above the horizon must not survive its lost update";
}

TEST(PlogTest, TornTailTruncatesAtLastWholeRecord) {
  plog::PartitionedLogManager log{PlogOpts(2, /*interval_us=*/1000000)};
  log.BindThisThread(0);
  LogRecord a;
  a.type = LogType::kInsert;
  a.txn = 1;
  a.after = std::string(64, 'x');
  log.Append(&a);
  LogRecord b;
  b.type = LogType::kInsert;
  b.txn = 1;
  b.after = std::string(64, 'y');
  log.Append(&b);
  // Crash mid-flush: record a fully reaches the stable region, record b
  // tears (all but 10 of its bytes).
  const size_t total = log.partition(0)->stable_size();
  (void)total;
  std::vector<uint8_t> tmp;
  const size_t a_bytes = a.SerializeTo(&tmp);
  const size_t b_bytes = b.SerializeTo(&tmp);
  log.partition(0)->PartialFlushTorn(a_bytes + b_bytes - 10);
  log.DiscardVolatileTail();
  const auto recs = log.ReadStable();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].lsn, a.lsn);
  EXPECT_EQ(recs[0].after, std::string(64, 'x'));
}

// --------------------------------------------- file-backed segments

TEST(PlogFileTest, ReopenReplaysStableStreamAndAdvancesClock) {
  const std::string dir = TempLogDir("reopen");
  plog::PartitionedLogManager::Options o = PlogOpts(2, 1000000);
  o.data_dir = dir;
  Lsn max_gsn = 0;
  {
    plog::PartitionedLogManager log{o};
    for (int i = 0; i < 10; ++i) {
      log.BindThisThread(static_cast<uint32_t>(i));
      LogRecord rec;
      rec.type = LogType::kUpdate;
      rec.txn = 1;
      rec.after = "v" + std::to_string(i);
      max_gsn = log.Append(&rec);
    }
    log.FlushTo(log.current_lsn());
  }  // clean close: segment files + watermark headers on disk

  plog::PartitionedLogManager log{o};  // second lifetime
  const auto recs = log.ReadStable();
  ASSERT_EQ(recs.size(), 10u) << "cold start must rebuild the streams";
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LT(recs[i - 1].lsn, recs[i].lsn);
  }
  EXPECT_GE(log.current_lsn(), max_gsn)
      << "the GSN clock must resume past every recovered record";
  LogRecord rec;
  rec.type = LogType::kCommit;
  rec.txn = 1;
  EXPECT_GT(log.Append(&rec), max_gsn) << "no GSN may ever be reissued";
}

TEST(PlogFileTest, TornSegmentTailTruncatedOnReopen) {
  const std::string dir = TempLogDir("torn");
  plog::PartitionedLogManager::Options o = PlogOpts(1, 1000000);
  o.data_dir = dir;
  {
    plog::PartitionedLogManager log{o};
    log.BindThisThread(0);
    LogRecord a;
    a.type = LogType::kInsert;
    a.txn = 1;
    a.after = std::string(64, 'x');
    log.Append(&a);
    LogRecord b;
    b.type = LogType::kInsert;
    b.txn = 1;
    b.after = std::string(64, 'y');
    log.Append(&b);
    log.FlushTo(log.current_lsn());
    // The dead process's last write tears mid-record on the medium.
    log.partition(0)->TearStableTail(10);
    log.SimulateKill();
  }
  plog::PartitionedLogManager log{o};
  const auto recs = log.ReadStable();
  ASSERT_EQ(recs.size(), 1u)
      << "reopen must truncate the torn tail at the last whole record";
  EXPECT_EQ(recs[0].after, std::string(64, 'x'));
  // Appends after the truncation must extend a decodable stream.
  log.BindThisThread(0);
  LogRecord c;
  c.type = LogType::kInsert;
  c.txn = 2;
  c.after = std::string(64, 'z');
  log.Append(&c);
  log.FlushTo(log.current_lsn());
  EXPECT_EQ(log.ReadStable().size(), 2u);
}

TEST(PlogFileTest, ReopenTruncatesFlushedAheadRecords) {
  // Cross-lifetime variant of HorizonDropsFlushedAheadRecords, with the
  // stronger physical claim: a record above the merged cold-start horizon
  // must not merely be hidden by the first recovery's merge — it must be
  // truncated OFF the segment files, or a later lifetime whose horizon
  // has moved past it would resurrect it.
  const std::string dir = TempLogDir("flushed_ahead");
  plog::PartitionedLogManager::Options o = PlogOpts(2, 1000000);
  o.data_dir = dir;
  {
    plog::PartitionedLogManager log{o};
    log.BindThisThread(0);
    LogRecord mine;
    mine.type = LogType::kUpdate;
    mine.txn = 1;
    log.Append(&mine);  // gsn 1, volatile in partition 0 — dies unflushed
    log.BindThisThread(1);
    LogRecord ahead;
    ahead.type = LogType::kCommit;
    ahead.txn = 1;
    log.Append(&ahead);     // gsn 2
    log.FlushPartition(1);  // partition 1 is durably ahead of partition 0
    log.SimulateKill();
  }
  plog::PartitionedLogManager log{o};
  EXPECT_TRUE(log.ReadStable().empty())
      << "commit above the horizon must not survive its lost update";
  EXPECT_EQ(log.partition(1)->stable_size(), 0u)
      << "the suprahorizon record must be physically gone, not just "
         "hidden from this recovery's merge";
}

TEST(PlogFileTest, DecodeErrorNamesSegmentFileAndOffset) {
  const std::string dir = TempLogDir("decode_err");
  plog::PartitionedLogManager::Options o = PlogOpts(1, 1000000);
  o.data_dir = dir;
  plog::PartitionedLogManager log{o};
  log.BindThisThread(0);
  for (int i = 0; i < 8; ++i) {
    LogRecord rec;
    rec.type = LogType::kUpdate;
    rec.txn = 1;
    rec.after = std::string(40, static_cast<char>('a' + i));
    log.Append(&rec);
  }
  log.FlushTo(log.current_lsn());
  log.partition(0)->FlipStableByte(log.partition(0)->stable_size() / 2);
  Status tail;
  const auto recs = log.partition(0)->ReadStable(&tail);
  EXPECT_LT(recs.size(), 8u);
  ASSERT_FALSE(tail.ok());
  EXPECT_NE(tail.ToString().find("seg-"), std::string::npos)
      << "the error must name the segment file: " << tail.ToString();
  EXPECT_NE(tail.ToString().find("offset"), std::string::npos)
      << "the error must carry the byte offset: " << tail.ToString();
}

TEST(PlogFileTest, MemoryDecodeErrorStillReportsOffset) {
  plog::PartitionedLogManager log{PlogOpts(1, 1000000)};
  log.BindThisThread(0);
  for (int i = 0; i < 4; ++i) {
    LogRecord rec;
    rec.type = LogType::kUpdate;
    rec.txn = 1;
    rec.after = std::string(40, 'm');
    log.Append(&rec);
  }
  log.FlushTo(log.current_lsn());
  log.partition(0)->FlipStableByte(log.partition(0)->stable_size() / 2);
  Status tail;
  (void)log.partition(0)->ReadStable(&tail);
  ASSERT_FALSE(tail.ok());
  EXPECT_NE(tail.ToString().find("<memory>"), std::string::npos)
      << tail.ToString();
  EXPECT_NE(tail.ToString().find("offset"), std::string::npos);
}

TEST(PlogFileTest, SegmentsRollAndCheckpointTruncationUnlinksThem) {
  const std::string dir = TempLogDir("unlink");
  Database::Options opts = PlogDb(/*parts=*/2);
  opts.data_dir = dir;
  opts.log_segment_bytes = 1024;  // roll every few records
  Database db(opts);
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 60; ++i) {
    db.log_manager()->BindThisThread(static_cast<uint32_t>(i));
    auto txn = db.Begin();
    Rid rid;
    ASSERT_TRUE(db.Insert(txn.get(), table,
                          "padpadpadpadpadpad" + std::to_string(i), &rid,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(txn.get()).ok());
    rids.push_back(rid);
  }
  db.log_manager()->FlushTo(db.log_manager()->current_lsn());
  const size_t files_before = db.log_manager()->segment_files();
  ASSERT_GT(files_before, 2u) << "small segments must have rolled";

  for (int sweep = 0; sweep < 2; ++sweep) {
    ASSERT_TRUE(db.CheckpointPartition(0).ok());
    ASSERT_TRUE(db.CheckpointPartition(1).ok());
  }
  EXPECT_LT(db.log_manager()->segment_files(), files_before)
      << "truncation must unlink whole segment files";
  EXPECT_GT(db.log_manager()->reclaimed_bytes(), 0u);

  db.SimulateCrash();
  ASSERT_TRUE(db.Recover(nullptr).ok());
  for (int i = 0; i < 60; ++i) {
    std::string out;
    ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[i], &out).ok());
    EXPECT_EQ(out, "padpadpadpadpadpad" + std::to_string(i));
  }
}

// ------------------------------------- recovery through the facade

class PlogRecoveryTest : public ::testing::Test {
 protected:
  PlogRecoveryTest() : db_(PlogDb()) {
    EXPECT_TRUE(db_.catalog()->CreateTable("t", &table_).ok());
  }

  Database db_;
  TableId table_;
};

TEST_F(PlogRecoveryTest, CommittedSurviveCrash) {
  std::vector<Rid> rids;
  for (int i = 0; i < 50; ++i) {
    // Scatter transactions across partitions.
    db_.log_manager()->BindThisThread(static_cast<uint32_t>(i));
    auto txn = db_.Begin();
    Rid rid;
    ASSERT_TRUE(db_.Insert(txn.get(), table_, "rec" + std::to_string(i), &rid,
                           AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db_.Commit(txn.get()).ok());
    rids.push_back(rid);
  }
  db_.SimulateCrash();
  ASSERT_TRUE(db_.Recover(nullptr).ok());
  for (int i = 0; i < 50; ++i) {
    std::string out;
    ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(rids[i], &out).ok());
    EXPECT_EQ(out, "rec" + std::to_string(i));
  }
}

TEST_F(PlogRecoveryTest, LoserSpanningPartitionsRolledBack) {
  auto setup = db_.Begin();
  Rid stable_rid;
  ASSERT_TRUE(db_.Insert(setup.get(), table_, "stable", &stable_rid,
                         AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db_.Commit(setup.get()).ok());

  // A loser whose records land in different partitions: flushed but never
  // committed.
  auto loser = db_.Begin();
  db_.log_manager()->BindThisThread(1);
  ASSERT_TRUE(db_.Update(loser.get(), table_, stable_rid, "dirty!",
                         AccessOptions::Baseline()).ok());
  db_.log_manager()->BindThisThread(2);
  Rid loser_rid;
  ASSERT_TRUE(db_.Insert(loser.get(), table_, "loser-insert", &loser_rid,
                         AccessOptions::Baseline()).ok());
  db_.log_manager()->FlushTo(db_.log_manager()->current_lsn());
  db_.SimulateCrash();

  ASSERT_TRUE(db_.Recover(nullptr).ok());
  std::string out;
  ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(stable_rid, &out).ok());
  EXPECT_EQ(out, "stable") << "cross-partition loser update must be undone";
  EXPECT_TRUE(db_.catalog()->Heap(table_)->Get(loser_rid, &out).IsNotFound());
}

TEST_F(PlogRecoveryTest, RepeatedCrashRecoverIsIdempotent) {
  std::vector<Rid> rids;
  for (int i = 0; i < 20; ++i) {
    db_.log_manager()->BindThisThread(static_cast<uint32_t>(i));
    auto txn = db_.Begin();
    Rid rid;
    ASSERT_TRUE(db_.Insert(txn.get(), table_, "r" + std::to_string(i), &rid,
                           AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db_.Commit(txn.get()).ok());
    rids.push_back(rid);
  }
  for (int round = 0; round < 3; ++round) {
    db_.SimulateCrash();
    ASSERT_TRUE(db_.Recover(nullptr).ok());
  }
  for (int i = 0; i < 20; ++i) {
    std::string out;
    ASSERT_TRUE(db_.catalog()->Heap(table_)->Get(rids[i], &out).ok());
    EXPECT_EQ(out, "r" + std::to_string(i));
  }
  EXPECT_EQ(db_.catalog()->Heap(table_)->record_count(), 20u);
}

// ----------------------------------- torn-tail crash property test

// Crash-recovery property under independently torn partition tails: run a
// history of single-row updates whose records scatter across partitions,
// crash with per-partition flush progress and mid-record tears chosen at
// random, recover, and assert the replayed state is a committed prefix:
//  1. every acknowledged commit survives,
//  2. every row holds a value actually written by a commit-logged txn at
//     least as recent as the row's last acknowledged writer,
//  3. a second crash+recover replays the identical state.
TEST(PlogPropertyTest, TornTailCrashRecoversCommittedPrefix) {
  constexpr uint32_t kPartitions = 4;
  constexpr int kRows = 16;
  constexpr int kTxns = 60;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    // Manual flush control: the background flusher effectively never runs.
    Database db(PlogDb(kPartitions, /*interval_us=*/1000000));
    TableId table;
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());

    std::vector<Rid> rids(kRows);
    {
      auto setup = db.Begin();
      for (int r = 0; r < kRows; ++r) {
        ASSERT_TRUE(db.Insert(setup.get(), table, "base", &rids[r],
                              AccessOptions::Baseline()).ok());
      }
      ASSERT_TRUE(db.Commit(setup.get()).ok());
    }

    // Per-row history of (value, acked) in write order; index 0 = "base".
    struct Write {
      std::string value;
      bool acked;
      bool commit_logged;
    };
    std::vector<std::vector<Write>> history(kRows,
                                            {{"base", true, true}});

    for (int t = 0; t < kTxns; ++t) {
      auto txn = db.Begin();
      const int nops = static_cast<int>(rng.UniformInt(uint64_t{1}, 3));
      std::vector<int> rows;
      bool ok = true;
      for (int i = 0; i < nops && ok; ++i) {
        const int row = static_cast<int>(
            rng.UniformInt(uint64_t{0}, uint64_t{kRows - 1}));
        // Scatter this transaction's records across partitions.
        db.log_manager()->BindThisThread(
            static_cast<uint32_t>(rng.UniformInt(uint64_t{0},
                                                 kPartitions - 1)));
        const std::string value =
            "t" + std::to_string(t) + "r" + std::to_string(row);
        ok = db.Update(txn.get(), table, rids[row], value,
                       AccessOptions::Baseline()).ok();
        if (ok) rows.push_back(row);
      }
      if (!ok) {
        ASSERT_TRUE(db.Abort(txn.get()).ok());
        continue;
      }
      const bool ack = rng.Percent(50);
      const Lsn end = db.CommitAsync(txn.get());
      if (ack) {
        db.log_manager()->WaitFlushed(end);
        ASSERT_TRUE(db.CommitFinalize(txn.get()).ok());
      } else {
        // ELR discipline: commit record appended, locks released, but the
        // client was never acknowledged — a crash may lose this txn.
        db.lock_manager()->ReleaseAll(txn.get());
        db.txn_manager()->Finish(txn.get());
      }
      for (int row : rows) {
        history[row].push_back(
            Write{"t" + std::to_string(t) + "r" + std::to_string(row), ack,
                  true});
      }
      // Random per-partition flush progress between transactions.
      if (rng.Percent(30)) {
        Plm(&db)->FlushPartition(static_cast<uint32_t>(
            rng.UniformInt(uint64_t{0}, kPartitions - 1)));
      }
    }

    // Crash: each partition independently loses a random suffix of its
    // volatile buffer — a random prefix (possibly ending mid-record, i.e.
    // a torn tail) reaches the stable region without a watermark advance.
    for (uint32_t p = 0; p < kPartitions; ++p) {
      if (rng.Percent(60)) {
        Plm(&db)->partition(p)->PartialFlushTorn(
            rng.UniformInt(uint64_t{0}, uint64_t{4096}));
      }
    }
    db.SimulateCrash();
    ASSERT_TRUE(db.Recover(nullptr).ok());

    auto check_state = [&](const char* when) {
      for (int row = 0; row < kRows; ++row) {
        std::string out;
        ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[row], &out).ok());
        const auto& h = history[row];
        size_t last_acked = 0;
        for (size_t i = 0; i < h.size(); ++i) {
          if (h[i].acked) last_acked = i;
        }
        bool found = false;
        for (size_t i = last_acked; i < h.size(); ++i) {
          if (h[i].commit_logged && h[i].value == out) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found)
            << when << ": seed " << seed << " row " << row << " holds '"
            << out << "', older than its last acked write '"
            << h[last_acked].value << "'";
      }
    };
    check_state("after first recovery");

    // Determinism: a second crash (no new writes) replays the same state.
    std::vector<std::string> before(kRows);
    for (int row = 0; row < kRows; ++row) {
      ASSERT_TRUE(
          db.catalog()->Heap(table)->Get(rids[row], &before[row]).ok());
    }
    db.SimulateCrash();
    ASSERT_TRUE(db.Recover(nullptr).ok());
    for (int row = 0; row < kRows; ++row) {
      std::string out;
      ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[row], &out).ok());
      EXPECT_EQ(out, before[row]) << "second recovery must be a no-op";
    }
  }
}

// Crash-loop property under checkpoints + truncation: run rounds of
// randomized ELR-style commits (commit record appended, locks released,
// acknowledgement deferred to a simulated ack daemon that finalizes only
// once the global horizon covers the commit GSN), interleaved with
// partition-local fuzzy checkpoints that truncate the stable streams.
// Each round ends in a crash with random per-partition flush progress and
// mid-record tears. After every recovery:
//  1. every acknowledged commit survives,
//  2. every row holds a commit-logged value at least as recent as the
//     row's last acknowledged writer (never garbage, never a lost-then-
//     resurrected truncated value),
// and the next round continues on the recovered state — so the committed
// prefix must survive repeated crash/recover cycles across truncations.
TEST(PlogPropertyTest, CheckpointedCrashLoopRecoversCommittedPrefix) {
  constexpr uint32_t kPartitions = 4;
  constexpr int kRows = 12;
  constexpr int kTxnsPerRound = 40;
  constexpr int kRounds = 3;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 0xA24BAED4963EE407ull);
    // Manual flush control: the background flusher effectively never runs.
    Database db(PlogDb(kPartitions, /*interval_us=*/1000000));
    TableId table;
    ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());

    std::vector<Rid> rids(kRows);
    {
      auto setup = db.Begin();
      for (int r = 0; r < kRows; ++r) {
        ASSERT_TRUE(db.Insert(setup.get(), table, "base", &rids[r],
                              AccessOptions::Baseline()).ok());
      }
      ASSERT_TRUE(db.Commit(setup.get()).ok());
    }

    struct Write {
      std::string value;
      bool acked;
    };
    std::vector<std::vector<Write>> history(kRows, {{"base", true}});

    // The ELR pipeline: commits appended but not yet acknowledged. The
    // transactions stay registered (active) until finalized — exactly the
    // discipline that makes truncation safe for maybe-lost commits.
    struct Pending {
      std::unique_ptr<Transaction> txn;
      Lsn gsn;
      std::vector<std::pair<int, size_t>> writes;  // (row, history index)
    };
    std::vector<Pending> pending;

    // Simulated ack daemon: finalize every pending commit the global
    // stable horizon already covers, acknowledging its writes.
    auto drain_acks = [&] {
      const Lsn horizon = db.log_manager()->flushed_lsn();
      size_t n = 0;
      while (n < pending.size() && pending[n].gsn <= horizon) {
        ASSERT_TRUE(db.CommitFinalize(pending[n].txn.get()).ok());
        for (const auto& [row, idx] : pending[n].writes) {
          history[row][idx].acked = true;
        }
        ++n;
      }
      pending.erase(pending.begin(), pending.begin() + n);
    };

    for (int round = 0; round < kRounds; ++round) {
      for (int t = 0; t < kTxnsPerRound; ++t) {
        auto txn = db.Begin();
        const int nops = static_cast<int>(rng.UniformInt(uint64_t{1}, 3));
        std::vector<std::pair<int, size_t>> writes;
        for (int i = 0; i < nops; ++i) {
          const int row = static_cast<int>(
              rng.UniformInt(uint64_t{0}, uint64_t{kRows - 1}));
          db.log_manager()->BindThisThread(static_cast<uint32_t>(
              rng.UniformInt(uint64_t{0}, kPartitions - 1)));
          const std::string value = "s" + std::to_string(seed) + "r" +
                                    std::to_string(round) + "t" +
                                    std::to_string(t) + "o" +
                                    std::to_string(i);
          ASSERT_TRUE(db.Update(txn.get(), table, rids[row], value,
                                AccessOptions::Baseline()).ok());
          history[row].push_back(Write{value, false});
          writes.emplace_back(row, history[row].size() - 1);
        }
        const Lsn gsn = db.CommitAsync(txn.get());
        db.lock_manager()->ReleaseAll(txn.get());  // ELR
        pending.push_back(Pending{std::move(txn), gsn, std::move(writes)});

        if (rng.Percent(50)) {
          // A client that insists on its ack: group-commit wait.
          db.log_manager()->WaitFlushed(gsn);
        } else if (rng.Percent(40)) {
          Plm(&db)->FlushPartition(static_cast<uint32_t>(
              rng.UniformInt(uint64_t{0}, kPartitions - 1)));
        }
        drain_acks();
        if (rng.Percent(20)) {
          // Fuzzy partition checkpoint + truncation, concurrent with the
          // (un-acknowledged) pipeline above.
          ASSERT_TRUE(db.CheckpointPartition(static_cast<uint32_t>(
              rng.UniformInt(uint64_t{0}, kPartitions - 1))).ok());
        }
      }

      // Crash: random per-partition flush progress, possibly mid-record.
      for (uint32_t p = 0; p < kPartitions; ++p) {
        if (rng.Percent(60)) {
          Plm(&db)->partition(p)->PartialFlushTorn(
              rng.UniformInt(uint64_t{0}, uint64_t{4096}));
        }
      }
      db.SimulateCrash();
      // The crash killed the ack pipeline: un-finalized commits are gone.
      for (auto& p : pending) db.txn_manager()->Finish(p.txn.get());
      pending.clear();
      ASSERT_TRUE(db.Recover(nullptr).ok());

      for (int row = 0; row < kRows; ++row) {
        std::string out;
        ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[row], &out).ok());
        const auto& h = history[row];
        size_t last_acked = 0;
        for (size_t i = 0; i < h.size(); ++i) {
          if (h[i].acked) last_acked = i;
        }
        bool found = false;
        for (size_t i = last_acked; i < h.size(); ++i) {
          if (h[i].value == out) {
            found = true;
            break;
          }
        }
        ASSERT_TRUE(found)
            << "seed " << seed << " round " << round << " row " << row
            << " holds '" << out << "', older than its last acked write '"
            << h[last_acked].value << "'";
        // The recovered value is the next round's acknowledged base.
        history[row] = {{out, true}};
      }
    }
    EXPECT_GT(db.log_manager()->reclaimed_bytes(), 0u)
        << "seed " << seed
        << ": checkpoints must actually have truncated the log";
  }
}

// Crash-loop property across PROCESS LIFETIMES (file-backed segments):
// the same committed-prefix discipline as the checkpointed crash loop, but
// each round ends in one of two deaths —
//   * an in-process crash (SimulateCrash + Recover on the live object), or
//   * a kill: buffers dropped with NO stable truncation (torn tails and
//     stale watermark headers stay on the segment files), the Database
//     destroyed, and a fresh one opened over the data directory — the
//     cold-start path: streams, claims, and the GSN clock all rebuilt from
//     files alone.
// Partitions also suffer random mid-record tears ("killed between
// fsyncs") before every death. After each recovery:
//  1. every acknowledged commit survives,
//  2. every row holds a commit-logged value at least as recent as the
//     row's last acknowledged writer,
// and the next round continues on the recovered state.
TEST(PlogPropertyTest, FileBackendCrashLoopAcrossLifetimes) {
  constexpr uint32_t kPartitions = 4;
  constexpr int kRows = 10;
  constexpr int kTxnsPerRound = 30;
  constexpr int kRounds = 4;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 0xD1B54A32D192ED03ull);
    const std::string dir =
        TempLogDir("crash_loop_" + std::to_string(seed));
    // Long flusher naps keep flush progress test-driven; short enough that
    // the per-lifetime teardown join stays cheap.
    Database::Options opts = PlogDb(kPartitions, /*interval_us=*/200000);
    opts.data_dir = dir;
    opts.log_segment_bytes = 2048;  // several rolls per round
    auto db = std::make_unique<Database>(opts);
    TableId table;
    ASSERT_TRUE(db->catalog()->CreateTable("t", &table).ok());

    std::vector<Rid> rids(kRows);
    {
      auto setup = db->Begin();
      for (int r = 0; r < kRows; ++r) {
        ASSERT_TRUE(db->Insert(setup.get(), table, "base", &rids[r],
                               AccessOptions::Baseline()).ok());
      }
      ASSERT_TRUE(db->Commit(setup.get()).ok());
    }

    struct Write {
      std::string value;
      bool acked;
    };
    std::vector<std::vector<Write>> history(kRows, {{"base", true}});

    struct Pending {
      std::unique_ptr<Transaction> txn;
      Lsn gsn;
      std::vector<std::pair<int, size_t>> writes;
    };
    std::vector<Pending> pending;

    auto drain_acks = [&] {
      const Lsn horizon = db->log_manager()->flushed_lsn();
      size_t n = 0;
      while (n < pending.size() && pending[n].gsn <= horizon) {
        ASSERT_TRUE(db->CommitFinalize(pending[n].txn.get()).ok());
        for (const auto& [row, idx] : pending[n].writes) {
          history[row][idx].acked = true;
        }
        ++n;
      }
      pending.erase(pending.begin(), pending.begin() + n);
    };

    for (int round = 0; round < kRounds; ++round) {
      for (int t = 0; t < kTxnsPerRound; ++t) {
        auto txn = db->Begin();
        const int nops = static_cast<int>(rng.UniformInt(uint64_t{1}, 3));
        std::vector<std::pair<int, size_t>> writes;
        for (int i = 0; i < nops; ++i) {
          const int row = static_cast<int>(
              rng.UniformInt(uint64_t{0}, uint64_t{kRows - 1}));
          db->log_manager()->BindThisThread(static_cast<uint32_t>(
              rng.UniformInt(uint64_t{0}, kPartitions - 1)));
          const std::string value = "s" + std::to_string(seed) + "r" +
                                    std::to_string(round) + "t" +
                                    std::to_string(t) + "o" +
                                    std::to_string(i);
          ASSERT_TRUE(db->Update(txn.get(), table, rids[row], value,
                                 AccessOptions::Baseline()).ok());
          history[row].push_back(Write{value, false});
          writes.emplace_back(row, history[row].size() - 1);
        }
        const Lsn gsn = db->CommitAsync(txn.get());
        db->lock_manager()->ReleaseAll(txn.get());  // ELR
        pending.push_back(Pending{std::move(txn), gsn, std::move(writes)});

        if (rng.Percent(50)) {
          db->log_manager()->WaitFlushed(gsn);
        } else if (rng.Percent(40)) {
          Plm(db.get())->FlushPartition(static_cast<uint32_t>(
              rng.UniformInt(uint64_t{0}, kPartitions - 1)));
        }
        drain_acks();
        if (rng.Percent(20)) {
          ASSERT_TRUE(db->CheckpointPartition(static_cast<uint32_t>(
              rng.UniformInt(uint64_t{0}, kPartitions - 1))).ok());
        }
      }

      // Death throes: random per-partition flush progress, possibly
      // tearing mid-record — the "killed between two fsyncs" shape.
      for (uint32_t p = 0; p < kPartitions; ++p) {
        if (rng.Percent(60)) {
          Plm(db.get())->partition(p)->PartialFlushTorn(
              rng.UniformInt(uint64_t{0}, uint64_t{4096}));
        }
      }
      const bool cold_restart = rng.Percent(50);
      if (cold_restart) {
        db->SimulateKill();
        for (auto& p : pending) db->txn_manager()->Finish(p.txn.get());
        pending.clear();
        db.reset();  // the process is gone
        db = std::make_unique<Database>(opts);  // second lifetime
        // Self-contained reopen: the schema comes back from catalog.db —
        // the fresh lifetime never re-declares it.
        ASSERT_TRUE(db->catalog_load_status().ok())
            << db->catalog_load_status().ToString();
        ASSERT_NE(db->catalog()->GetTable("t"), nullptr);
        table = db->catalog()->GetTable("t")->id;
      } else {
        db->SimulateCrash();
        for (auto& p : pending) db->txn_manager()->Finish(p.txn.get());
        pending.clear();
      }
      ASSERT_TRUE(db->Recover(nullptr).ok());

      for (int row = 0; row < kRows; ++row) {
        std::string out;
        ASSERT_TRUE(db->catalog()->Heap(table)->Get(rids[row], &out).ok());
        const auto& h = history[row];
        size_t last_acked = 0;
        for (size_t i = 0; i < h.size(); ++i) {
          if (h[i].acked) last_acked = i;
        }
        bool found = false;
        for (size_t i = last_acked; i < h.size(); ++i) {
          if (h[i].value == out) {
            found = true;
            break;
          }
        }
        ASSERT_TRUE(found)
            << "seed " << seed << " round " << round
            << (cold_restart ? " (cold restart)" : " (crash)") << " row "
            << row << " holds '" << out
            << "', older than its last acked write '" << h[last_acked].value
            << "'";
        history[row] = {{out, true}};
      }
    }
  }
}

// ----------------------------------- DORA pipelined commit + ELR

TEST(PlogDoraTest, PipelinedCommitDurableAndRecoverable) {
  constexpr int kRows = 32;
  constexpr int kTxns = 200;
  Database db(PlogDb(/*parts=*/2));
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());

  std::vector<Rid> rids(kRows);
  {
    auto setup = db.Begin();
    for (int r = 0; r < kRows; ++r) {
      ASSERT_TRUE(db.Insert(setup.get(), table, "init", &rids[r],
                            AccessOptions::Baseline()).ok());
    }
    ASSERT_TRUE(db.Commit(setup.get()).ok());
  }

  dora::DoraEngine::Options opts;
  opts.pipelined_commit = true;
  dora::DoraEngine engine(&db, opts);
  engine.RegisterTable(table, kRows, 2);
  engine.Start();

  for (int t = 0; t < kTxns; ++t) {
    const int row = t % kRows;
    auto dtxn = engine.BeginTxn();
    dora::FlowGraph g;
    g.AddPhase().AddAction(
        table, static_cast<uint64_t>(row), dora::LocalMode::kX,
        [&, t, row](dora::ActionEnv& env) {
          return env.db->Update(env.txn, table, rids[row],
                                "v" + std::to_string(t),
                                AccessOptions::NoCc());
        });
    ASSERT_TRUE(engine.Run(dtxn, std::move(g)).ok());
  }
  engine.Stop();
  EXPECT_EQ(engine.txns_committed(), static_cast<uint64_t>(kTxns));
  EXPECT_GT(engine.txns_pipelined(), 0u)
      << "commits must flow through the ELR/ack-queue path";

  // Every Run() returned => every commit was acknowledged durable; all
  // final values must survive a crash.
  db.SimulateCrash();
  ASSERT_TRUE(db.Recover(nullptr).ok());
  for (int row = 0; row < kRows; ++row) {
    std::string out;
    ASSERT_TRUE(db.catalog()->Heap(table)->Get(rids[row], &out).ok());
    const int last = row + (kTxns - kRows) + (kTxns % kRows > row ? kRows : 0);
    // Last writer of `row` is the largest t < kTxns with t % kRows == row.
    int expect = -1;
    for (int t = row; t < kTxns; t += kRows) expect = t;
    (void)last;
    EXPECT_EQ(out, "v" + std::to_string(expect)) << "row " << row;
  }
}

TEST(PlogDoraTest, PipelinedCommitSerializesConflictingWriters) {
  // Two-executor engine, many conflicting increments on one row: ELR must
  // not let lost updates through (local locks hand off FIFO, and the
  // dependent txn's commit GSN follows its predecessor's).
  Database db(PlogDb(/*parts=*/2));
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  Rid rid;
  {
    auto setup = db.Begin();
    ASSERT_TRUE(db.Insert(setup.get(), table, "0", &rid,
                          AccessOptions::Baseline()).ok());
    ASSERT_TRUE(db.Commit(setup.get()).ok());
  }

  dora::DoraEngine::Options opts;
  opts.pipelined_commit = true;
  dora::DoraEngine engine(&db, opts);
  engine.RegisterTable(table, 64, 2);
  engine.Start();

  constexpr int kClients = 4, kPerClient = 50;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        auto dtxn = engine.BeginTxn();
        dora::FlowGraph g;
        g.AddPhase().AddAction(
            table, 0, dora::LocalMode::kX, [&](dora::ActionEnv& env) {
              std::string cur;
              Status s =
                  env.db->Read(env.txn, table, rid, &cur,
                               AccessOptions::NoCc());
              if (!s.ok()) return s;
              return env.db->Update(env.txn, table, rid,
                                    std::to_string(std::stoi(cur) + 1),
                                    AccessOptions::NoCc());
            });
        if (!engine.Run(dtxn, std::move(g)).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  engine.Stop();
  ASSERT_EQ(failures.load(), 0);
  std::string out;
  auto txn = db.Begin();
  ASSERT_TRUE(
      db.Read(txn.get(), table, rid, &out, AccessOptions::Baseline()).ok());
  ASSERT_TRUE(db.Commit(txn.get()).ok());
  EXPECT_EQ(out, std::to_string(kClients * kPerClient))
      << "ELR must not admit lost updates";
}

TEST(PlogDoraTest, PipelinedCommitKeepsIncrementsAcrossExecutors) {
  // TPC-B-shaped increments spread over both executors' ranges (so both
  // log partitions and their ack queues carry commits): every acked
  // increment must be visible exactly once.
  Database db(PlogDb(/*parts=*/2));
  TableId table;
  ASSERT_TRUE(db.catalog()->CreateTable("t", &table).ok());
  const std::vector<uint64_t> keys = {5, 25, 45, 65, 85};
  std::vector<Rid> rids(keys.size());
  {
    auto setup = db.Begin();
    for (Rid& rid : rids) {
      ASSERT_TRUE(db.Insert(setup.get(), table, "0", &rid,
                            AccessOptions::Baseline()).ok());
    }
    ASSERT_TRUE(db.Commit(setup.get()).ok());
  }

  dora::DoraEngine::Options opts;
  opts.pipelined_commit = true;
  dora::DoraEngine engine(&db, opts);
  engine.RegisterTable(table, 100, 2);
  engine.Start();

  constexpr int kClients = 4, kPerClient = 40;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(uint64_t(c) + 1);
      for (int i = 0; i < kPerClient; ++i) {
        const size_t pick = rng.UniformInt(size_t{0}, keys.size() - 1);
        auto dtxn = engine.BeginTxn();
        dora::FlowGraph g;
        g.AddPhase().AddAction(
            table, keys[pick], dora::LocalMode::kX,
            [&, pick](dora::ActionEnv& env) {
              std::string cur;
              DORADB_RETURN_NOT_OK(env.db->Read(env.txn, table, rids[pick],
                                                &cur, AccessOptions::NoCc()));
              return env.db->Update(env.txn, table, rids[pick],
                                    std::to_string(std::stoi(cur) + 1),
                                    AccessOptions::NoCc());
            });
        if (!engine.Run(dtxn, std::move(g)).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  engine.Stop();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_GT(engine.txns_pipelined(), 0u);
  int sum = 0;
  for (const Rid& rid : rids) {
    std::string out;
    ASSERT_TRUE(db.catalog()->Heap(table)->Get(rid, &out).ok());
    sum += std::stoi(out);
  }
  EXPECT_EQ(sum, kClients * kPerClient) << "an acked increment was lost";
}

}  // namespace
}  // namespace doradb

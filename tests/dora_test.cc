// Tests for the DORA core: local lock table semantics, routing rules, flow
// graph execution through executors and RVPs, abort propagation, the
// deadlock-avoidance enqueue protocol, rebalancing, and the plan advisor.

#include <atomic>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "dora/dora_engine.h"
#include "dora/plan_advisor.h"
#include "util/rng.h"

namespace doradb {
namespace dora {
namespace {

Database::Options SmallDb() {
  Database::Options o;
  o.buffer_frames = 1024;
  o.lock.wait_timeout_us = 500000;
  return o;
}

// ----------------------------------------------------------- LocalLockTable

class LocalLockTableTest : public ::testing::Test {
 protected:
  LocalLockTableTest() : db_(SmallDb()) {}

  std::shared_ptr<DoraTxn> Txn() {
    return std::make_shared<DoraTxn>(&db_, db_.Begin());
  }

  Action* MakeAction(DoraTxn* t, uint64_t key, LocalMode m,
                     bool whole = false) {
    auto a = std::make_unique<Action>();
    a->dtxn = t;
    a->routing_value = key;
    a->mode = m;
    a->whole_dataset = whole;
    actions_.push_back(std::move(a));
    return actions_.back().get();
  }

  Database db_;
  LocalLockTable table_;
  std::vector<std::unique_ptr<Action>> actions_;
};

TEST_F(LocalLockTableTest, SharedLocksCompatible) {
  auto t1 = Txn(), t2 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kS)));
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t2.get(), 7, LocalMode::kS)));
}

TEST_F(LocalLockTableTest, ExclusiveConflictsParkAction) {
  auto t1 = Txn(), t2 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  Action* blocked = MakeAction(t2.get(), 7, LocalMode::kX);
  EXPECT_FALSE(table_.TryAcquire(blocked));
  EXPECT_EQ(table_.num_parked(), 1u);

  std::vector<Action*> runnable;
  table_.ReleaseAll(t1.get(), &runnable);
  ASSERT_EQ(runnable.size(), 1u);
  EXPECT_EQ(runnable[0], blocked);
}

TEST_F(LocalLockTableTest, DifferentKeysNoConflict) {
  auto t1 = Txn(), t2 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 1, LocalMode::kX)));
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t2.get(), 2, LocalMode::kX)));
}

TEST_F(LocalLockTableTest, ReentrantSameTxn) {
  auto t1 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)))
      << "same transaction must re-enter its own lock";
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kS)));
}

TEST_F(LocalLockTableTest, ReentrantBypassesWaitQueue) {
  auto t1 = Txn(), t2 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  EXPECT_FALSE(table_.TryAcquire(MakeAction(t2.get(), 7, LocalMode::kX)));
  // t1's second action must not queue behind t2 (self-deadlock otherwise).
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
}

TEST_F(LocalLockTableTest, FifoOrderAmongWaiters) {
  auto t1 = Txn(), t2 = Txn(), t3 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  Action* w2 = MakeAction(t2.get(), 7, LocalMode::kX);
  Action* w3 = MakeAction(t3.get(), 7, LocalMode::kX);
  EXPECT_FALSE(table_.TryAcquire(w2));
  EXPECT_FALSE(table_.TryAcquire(w3));
  std::vector<Action*> runnable;
  table_.ReleaseAll(t1.get(), &runnable);
  ASSERT_EQ(runnable.size(), 1u) << "w3 must stay behind w2 (both X)";
  EXPECT_EQ(runnable[0], w2);
  runnable.clear();
  table_.ReleaseAll(t2.get(), &runnable);
  ASSERT_EQ(runnable.size(), 1u);
  EXPECT_EQ(runnable[0], w3);
}

TEST_F(LocalLockTableTest, SharedWaitersGrantedTogether) {
  auto t1 = Txn(), t2 = Txn(), t3 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  EXPECT_FALSE(table_.TryAcquire(MakeAction(t2.get(), 7, LocalMode::kS)));
  EXPECT_FALSE(table_.TryAcquire(MakeAction(t3.get(), 7, LocalMode::kS)));
  std::vector<Action*> runnable;
  table_.ReleaseAll(t1.get(), &runnable);
  EXPECT_EQ(runnable.size(), 2u) << "both S waiters wake together";
}

TEST_F(LocalLockTableTest, WholeDatasetConflictsWithExact) {
  auto t1 = Txn(), t2 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 7, LocalMode::kX)));
  Action* whole = MakeAction(t2.get(), 0, LocalMode::kX, /*whole=*/true);
  EXPECT_FALSE(table_.TryAcquire(whole)) << "whole waits for exact locks";
  std::vector<Action*> runnable;
  table_.ReleaseAll(t1.get(), &runnable);
  ASSERT_EQ(runnable.size(), 1u);
  EXPECT_EQ(runnable[0], whole);
  // While whole-X is held, exact locks must wait.
  auto t3 = Txn();
  EXPECT_FALSE(table_.TryAcquire(MakeAction(t3.get(), 9, LocalMode::kS)));
  runnable.clear();
  table_.ReleaseAll(t2.get(), &runnable);
  EXPECT_EQ(runnable.size(), 1u);
}

TEST_F(LocalLockTableTest, EmptyAfterAllReleases) {
  auto t1 = Txn();
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 1, LocalMode::kX)));
  EXPECT_TRUE(table_.TryAcquire(MakeAction(t1.get(), 2, LocalMode::kS)));
  EXPECT_FALSE(table_.Empty());
  std::vector<Action*> runnable;
  table_.ReleaseAll(t1.get(), &runnable);
  EXPECT_TRUE(table_.Empty());
}

// ---------------------------------------------------------------- Routing

TEST(RoutingTest, UniformPartitioning) {
  auto rule = RoutingRule::Uniform(100, 4);
  EXPECT_EQ(rule->Route(0), 0u);
  EXPECT_EQ(rule->Route(24), 0u);
  EXPECT_EQ(rule->Route(25), 1u);
  EXPECT_EQ(rule->Route(99), 3u);
  EXPECT_EQ(rule->Route(1000), 3u) << "values beyond the space clamp to last";
}

TEST(RoutingTest, SingleExecutorTakesAll) {
  auto rule = RoutingRule::Uniform(1000, 1);
  EXPECT_EQ(rule->Route(0), 0u);
  EXPECT_EQ(rule->Route(999), 0u);
}

TEST(RoutingTest, InstallSwapsRule) {
  RoutingTable table;
  table.Install(RoutingRule::Uniform(100, 2));
  EXPECT_EQ(table.Route(80), 1u);
  auto rule = std::make_shared<RoutingRule>();
  rule->boundaries = {90};
  rule->executor_of_dataset = {0, 1};
  table.Install(rule);
  EXPECT_EQ(table.Route(80), 0u) << "new rule shifts the boundary";
}

// ----------------------------------------------------------- engine + txns

class DoraEngineTest : public ::testing::Test {
 protected:
  DoraEngineTest() : db_(SmallDb()) {
    EXPECT_TRUE(db_.catalog()->CreateTable("a", &table_a_).ok());
    EXPECT_TRUE(db_.catalog()->CreateTable("b", &table_b_).ok());
    engine_ = std::make_unique<DoraEngine>(&db_);
    engine_->RegisterTable(table_a_, 100, 2);
    engine_->RegisterTable(table_b_, 100, 1);
    engine_->Start();
  }
  ~DoraEngineTest() override { engine_->Stop(); }

  Database db_;
  TableId table_a_, table_b_;
  std::unique_ptr<DoraEngine> engine_;
};

TEST_F(DoraEngineTest, SinglePhaseSingleActionCommits) {
  auto dtxn = engine_->BeginTxn();
  std::atomic<bool> ran{false};
  FlowGraph g;
  g.AddPhase().AddAction(table_a_, 5, LocalMode::kX, [&](ActionEnv& env) {
    ran = true;
    Rid rid;
    return env.db->Insert(env.txn, table_a_, "payload", &rid,
                          AccessOptions::RidOnly());
  });
  ASSERT_TRUE(engine_->Run(dtxn, std::move(g)).ok());
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(engine_->txns_committed(), 1u);
  EXPECT_EQ(db_.catalog()->Heap(table_a_)->record_count(), 1u);
}

TEST_F(DoraEngineTest, ActionsRouteToCorrectExecutor) {
  std::atomic<uint32_t> exec_for_low{999}, exec_for_high{999};
  auto dtxn = engine_->BeginTxn();
  FlowGraph g;
  g.AddPhase()
      .AddAction(table_a_, 1, LocalMode::kS,
                 [&](ActionEnv& env) {
                   exec_for_low = env.self->index_in_table();
                   return Status::OK();
                 })
      .AddAction(table_a_, 99, LocalMode::kS, [&](ActionEnv& env) {
        exec_for_high = env.self->index_in_table();
        return Status::OK();
      });
  ASSERT_TRUE(engine_->Run(dtxn, std::move(g)).ok());
  EXPECT_EQ(exec_for_low.load(), 0u);
  EXPECT_EQ(exec_for_high.load(), 1u);
}

TEST_F(DoraEngineTest, PhasesRunInOrder) {
  std::vector<int> order;
  std::mutex mu;
  auto record = [&](int v) {
    std::lock_guard<std::mutex> g(mu);
    order.push_back(v);
  };
  auto dtxn = engine_->BeginTxn();
  FlowGraph g;
  g.AddPhase()
      .AddAction(table_a_, 1, LocalMode::kS,
                 [&](ActionEnv&) {
                   record(1);
                   return Status::OK();
                 })
      .AddAction(table_a_, 99, LocalMode::kS, [&](ActionEnv&) {
        record(1);
        return Status::OK();
      });
  g.AddPhase().AddAction(table_b_, 1, LocalMode::kS, [&](ActionEnv&) {
    record(2);
    return Status::OK();
  });
  ASSERT_TRUE(engine_->Run(dtxn, std::move(g)).ok());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[2], 2) << "phase 2 must run after both phase-1 actions";
}

TEST_F(DoraEngineTest, AbortInPhaseOneSkipsPhaseTwo) {
  std::atomic<bool> phase2_ran{false};
  auto dtxn = engine_->BeginTxn();
  FlowGraph g;
  g.AddPhase().AddAction(table_a_, 1, LocalMode::kX, [&](ActionEnv&) {
    return Status::NotFound("bad input");
  });
  g.AddPhase().AddAction(table_b_, 1, LocalMode::kX, [&](ActionEnv&) {
    phase2_ran = true;
    return Status::OK();
  });
  const Status s = engine_->Run(dtxn, std::move(g));
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(phase2_ran.load());
  EXPECT_EQ(engine_->txns_aborted(), 1u);
}

TEST_F(DoraEngineTest, AbortRollsBackStorageEffects) {
  auto dtxn = engine_->BeginTxn();
  Rid inserted;
  FlowGraph g;
  g.AddPhase()
      .AddAction(table_a_, 1, LocalMode::kX,
                 [&](ActionEnv& env) {
                   return env.db->Insert(env.txn, table_a_, "doomed",
                                         &inserted, AccessOptions::RidOnly());
                 })
      .AddAction(table_a_, 99, LocalMode::kX, [&](ActionEnv&) {
        return Status::InvalidArgument("fail sibling");
      });
  EXPECT_FALSE(engine_->Run(dtxn, std::move(g)).ok());
  // Depending on scheduling the insert may have been skipped entirely
  // (sibling failed first); if it did run, it must have been rolled back.
  if (inserted.Valid()) {
    std::string out;
    EXPECT_TRUE(
        db_.catalog()->Heap(table_a_)->Get(inserted, &out).IsNotFound())
        << "aborted transaction's insert must be rolled back";
  }
  EXPECT_EQ(db_.catalog()->Heap(table_a_)->record_count(), 0u);
}

TEST_F(DoraEngineTest, ConflictingTxnsSerialize) {
  // Two concurrent transactions incrementing the same logical record via
  // the same routing key must serialize on the local lock.
  auto setup = engine_->BeginTxn();
  Rid rid;
  {
    FlowGraph g;
    g.AddPhase().AddAction(table_a_, 7, LocalMode::kX, [&](ActionEnv& env) {
      return env.db->Insert(env.txn, table_a_, "00000000", &rid,
                            AccessOptions::RidOnly());
    });
    ASSERT_TRUE(engine_->Run(setup, std::move(g)).ok());
  }
  constexpr int kThreads = 4, kIters = 50;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto dtxn = engine_->BeginTxn();
        FlowGraph g;
        g.AddPhase().AddAction(table_a_, 7, LocalMode::kX,
                               [&](ActionEnv& env) {
          std::string val;
          DORADB_RETURN_NOT_OK(env.db->Read(env.txn, table_a_, rid, &val,
                                            AccessOptions::NoCc()));
          const uint64_t n = std::stoull(val) + 1;
          char buf[9];
          std::snprintf(buf, sizeof(buf), "%08lu", n);
          return env.db->Update(env.txn, table_a_, rid,
                                std::string_view(buf, 8),
                                AccessOptions::NoCc());
        });
        if (!engine_->Run(dtxn, std::move(g)).ok()) failures++;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  std::string val;
  ASSERT_TRUE(db_.catalog()->Heap(table_a_)->Get(rid, &val).ok());
  EXPECT_EQ(std::stoull(val), uint64_t(kThreads * kIters))
      << "lost update => local locking is broken";
}

TEST_F(DoraEngineTest, SameGraphTxnsNeverDeadlock) {
  // §4.2.3: transactions with the same flow graph cannot deadlock thanks to
  // the atomic ordered enqueue. Hammer two keys from many clients with
  // multi-action single-phase graphs.
  constexpr int kThreads = 6, kIters = 60;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto dtxn = engine_->BeginTxn();
        FlowGraph g;
        g.AddPhase()
            .AddAction(table_a_, 3, LocalMode::kX,
                       [](ActionEnv&) { return Status::OK(); })
            .AddAction(table_a_, 77, LocalMode::kX,
                       [](ActionEnv&) { return Status::OK(); })
            .AddAction(table_b_, 5, LocalMode::kX,
                       [](ActionEnv&) { return Status::OK(); });
        if (!engine_->Run(dtxn, std::move(g)).ok()) failures++;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0) << "no txn may deadlock or time out";
  EXPECT_EQ(engine_->txns_committed(),
            uint64_t(kThreads * kIters) + 0u);
}

TEST_F(DoraEngineTest, TicketedGraphsNeverDeadlockBesideSingleActions) {
  // Ticketed two-executor graphs share their executors and keys with
  // unticketed single-action increments: ticket-ordered admission must
  // neither starve nor deadlock beside the FIFO path, and no increment may
  // be lost.
  const uint64_t keys[2] = {3, 77};
  Rid rids[2];
  for (int k = 0; k < 2; ++k) {
    auto dtxn = engine_->BeginTxn();
    FlowGraph g;
    g.AddPhase().AddAction(table_a_, keys[k], LocalMode::kX,
                           [&, k](ActionEnv& env) {
      return env.db->Insert(env.txn, table_a_, "00000000", &rids[k],
                            AccessOptions::RidOnly());
    });
    ASSERT_TRUE(engine_->Run(dtxn, std::move(g)).ok());
  }
  constexpr int kGraphThreads = 4, kIncThreads = 2, kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kGraphThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto dtxn = engine_->BeginTxn();
        FlowGraph g;
        g.AddPhase()
            .AddAction(table_a_, keys[0], LocalMode::kX,
                       [](ActionEnv&) { return Status::OK(); })
            .AddAction(table_a_, keys[1], LocalMode::kX,
                       [](ActionEnv&) { return Status::OK(); });
        if (!engine_->Run(dtxn, std::move(g)).ok()) failures++;
      }
    });
  }
  for (int t = 0; t < kIncThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (t + i) % 2;
        auto dtxn = engine_->BeginTxn();
        FlowGraph g;
        g.AddPhase().AddAction(table_a_, keys[k], LocalMode::kX,
                               [&, k](ActionEnv& env) {
          std::string val;
          DORADB_RETURN_NOT_OK(env.db->Read(env.txn, table_a_, rids[k], &val,
                                            AccessOptions::NoCc()));
          char buf[9];
          std::snprintf(buf, sizeof(buf), "%08lu", std::stoul(val) + 1);
          return env.db->Update(env.txn, table_a_, rids[k],
                                std::string_view(buf, 8),
                                AccessOptions::NoCc());
        });
        if (!engine_->Run(dtxn, std::move(g)).ok()) failures++;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0) << "no txn may deadlock or time out";
  uint64_t sum = 0;
  for (const Rid& rid : rids) {
    std::string val;
    ASSERT_TRUE(db_.catalog()->Heap(table_a_)->Get(rid, &val).ok());
    sum += std::stoull(val);
  }
  EXPECT_EQ(sum, uint64_t(kIncThreads * kIters));
}

TEST_F(DoraEngineTest, WholeDatasetActionDrainsExecutor) {
  std::atomic<int> whole_ran{0};
  auto dtxn = engine_->BeginTxn();
  FlowGraph g;
  g.AddPhase()
      .AddWholeDatasetAction(table_a_, 0, LocalMode::kX,
                             [&](ActionEnv&) {
                               whole_ran++;
                               return Status::OK();
                             })
      .AddWholeDatasetAction(table_a_, 1, LocalMode::kX, [&](ActionEnv&) {
        whole_ran++;
        return Status::OK();
      });
  ASSERT_TRUE(engine_->Run(dtxn, std::move(g)).ok());
  EXPECT_EQ(whole_ran.load(), 2);
}

TEST_F(DoraEngineTest, RebalanceMovesBoundary) {
  // Shift everything to executor 0, then verify routing changed and the
  // system still executes transactions correctly.
  auto rule = std::make_shared<RoutingRule>();
  rule->boundaries = {95};
  rule->executor_of_dataset = {0, 1};
  rule->version = 1;
  ASSERT_TRUE(engine_->MigrateRoutingRule(table_a_, rule).ok());
  EXPECT_EQ(engine_->RouteIndex(table_a_, 80), 0u);
  EXPECT_EQ(engine_->RouteIndex(table_a_, 96), 1u);

  std::atomic<uint32_t> ran_on{999};
  auto dtxn = engine_->BeginTxn();
  FlowGraph g;
  g.AddPhase().AddAction(table_a_, 80, LocalMode::kX, [&](ActionEnv& env) {
    ran_on = env.self->index_in_table();
    return Status::OK();
  });
  ASSERT_TRUE(engine_->Run(dtxn, std::move(g)).ok());
  EXPECT_EQ(ran_on.load(), 0u);
}

TEST_F(DoraEngineTest, RebalanceUnderLoad) {
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread load([&] {
    Rng rng(1);
    while (!stop.load()) {
      auto dtxn = engine_->BeginTxn();
      const uint64_t key = rng.UniformInt(uint64_t{0}, uint64_t{99});
      FlowGraph g;
      g.AddPhase().AddAction(table_a_, key, LocalMode::kX,
                             [](ActionEnv&) { return Status::OK(); });
      if (!engine_->Run(dtxn, std::move(g)).ok()) failures++;
    }
  });
  for (int i = 0; i < 5; ++i) {
    auto rule = std::make_shared<RoutingRule>();
    rule->boundaries = {uint64_t(20 + 10 * i)};
    rule->executor_of_dataset = {0, 1};
    rule->version = uint64_t(i) + 1;
    ASSERT_TRUE(engine_->MigrateRoutingRule(table_a_, rule).ok());
  }
  stop = true;
  load.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(DoraEngineTest, SerializedPlanRunsActionsSequentially) {
  FlowGraph g;
  std::vector<int> order;
  std::mutex mu;
  g.AddPhase()
      .AddAction(table_a_, 1, LocalMode::kS,
                 [&](ActionEnv&) {
                   std::lock_guard<std::mutex> lk(mu);
                   order.push_back(1);
                   return Status::OK();
                 })
      .AddAction(table_a_, 99, LocalMode::kS, [&](ActionEnv&) {
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(2);
        return Status::OK();
      });
  FlowGraph serial = std::move(g).Serialized();
  EXPECT_EQ(serial.phases().size(), 2u);
  auto dtxn = engine_->BeginTxn();
  ASSERT_TRUE(engine_->Run(dtxn, std::move(serial)).ok());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST_F(DoraEngineTest, SerialPlanAvoidsWastedWorkOnAbort) {
  // §A.4 DORA-S: when the first action fails, the second never executes.
  std::atomic<bool> second_ran{false};
  FlowGraph g;
  g.AddPhase()
      .AddAction(table_a_, 1, LocalMode::kX,
                 [](ActionEnv&) { return Status::NotFound("wrong input"); })
      .AddAction(table_a_, 99, LocalMode::kX, [&](ActionEnv&) {
        second_ran = true;
        return Status::OK();
      });
  auto dtxn = engine_->BeginTxn();
  EXPECT_FALSE(engine_->Run(dtxn, std::move(g).Serialized()).ok());
  EXPECT_FALSE(second_ran.load());
}

// ------------------------------------------------------------- PlanAdvisor

TEST(PlanAdvisorTest, RecommendsSerialAboveThreshold) {
  PlanAdvisor::Options o;
  o.serial_threshold = 0.2;
  o.min_samples = 10;
  PlanAdvisor advisor(o);
  for (int i = 0; i < 100; ++i) advisor.RecordOutcome(1, i % 2 == 0);
  EXPECT_TRUE(advisor.RecommendSerial(1)) << "50% abort rate";
  EXPECT_NEAR(advisor.AbortRate(1), 0.5, 0.01);
  EXPECT_FALSE(advisor.RecommendSerial(2)) << "unknown type defaults parallel";
}

TEST(PlanAdvisorTest, StaysParallelBelowThreshold) {
  PlanAdvisor::Options o;
  o.serial_threshold = 0.2;
  o.min_samples = 10;
  PlanAdvisor advisor(o);
  for (int i = 0; i < 100; ++i) advisor.RecordOutcome(1, i % 20 == 0);
  EXPECT_FALSE(advisor.RecommendSerial(1)) << "5% abort rate";
}

}  // namespace
}  // namespace doradb
}  // namespace dora

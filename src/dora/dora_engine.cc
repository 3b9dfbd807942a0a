#include "dora/dora_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <set>

#include "obs/health.h"
#include "obs/heartbeat.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace doradb {
namespace dora {

DoraEngine::DoraEngine(Database* db, Options options)
    : db_(db), options_(options) {}

DoraEngine::~DoraEngine() { Stop(); }

void DoraEngine::RegisterTable(TableId table, uint64_t key_space,
                               uint32_t executors) {
  assert(!started_);
  auto group = std::make_unique<TableGroup>();
  group->table = table;
  group->key_space = key_space;
  group->routing.Install(RoutingRule::Uniform(key_space, executors));
  // Adopt a persisted routing override (a live split written through by a
  // prior lifetime's MigrateRoutingRule) when it matches this wiring —
  // the piece of RegisterFromCatalog that makes a split survive restart.
  // A mismatched override (different key space or executor count) is
  // ignored; SetDoraConfig below clears it from the catalog.
  if (TableInfo* info = db_->catalog()->GetTable(table);
      info != nullptr && !info->routing_executors.empty() &&
      info->key_space == key_space && info->dora_executors == executors) {
    auto persisted = std::make_shared<RoutingRule>();
    persisted->boundaries = info->routing_boundaries;
    persisted->executor_of_dataset = info->routing_executors;
    persisted->version = info->routing_version;
    if (persisted->Validate(key_space, executors).ok()) {
      group->routing.Install(std::move(persisted));
    }
  }
  for (uint32_t i = 0; i < executors; ++i) {
    group->executors.push_back(std::make_unique<Executor>(
        this, db_, table, i, next_global_index_++));
  }
  tables_[table] = std::move(group);
  // Make the routing configuration part of the self-describing catalog
  // (no-op re-save when a reopened lifetime re-registers identical wiring).
  // A persist failure (SetDoraConfig rolls its in-memory change back) is
  // parked rather than returned — registration keeps the void signature
  // the Workload::SetupDora contract relies on — and every subsequent
  // Run() surfaces it: the engine must not execute on wiring the next
  // lifetime cannot see, but the application, not SIGABRT, decides what
  // to do about it.
  if (db_->catalog()->GetTable(table) != nullptr) {
    const Status s = db_->catalog()->SetDoraConfig(table, key_space,
                                                   executors);
    if (!s.ok() && registration_status_.ok()) registration_status_ = s;
  }
}

uint32_t DoraEngine::RegisterFromCatalog() {
  assert(!started_);
  uint32_t n = 0;
  // Creation order == id order, so executor global indexes (and with them
  // the plog partition and core bindings) come out exactly as a workload
  // registering tables in creation order would produce.
  for (const auto& t : db_->catalog()->tables()) {
    if (t->dora_executors == 0 || tables_.count(t->id) != 0) continue;
    RegisterTable(t->id, t->key_space, t->dora_executors);
    ++n;
  }
  return n;
}

void DoraEngine::Start() {
  assert(!started_);
  started_ = true;
  // One transaction-context arena per executor (at least one): BeginTxn
  // shards clients across them, FinishTxn's last release recycles.
  const uint32_t n_arenas = std::max(1u, next_global_index_);
  while (arenas_.size() < n_arenas) {
    arenas_.push_back(std::make_unique<TxnArena>());
  }
  // §4.1.3: executors implicitly hold a table IX lock across transactions
  // — modeled by one long-lived system transaction, so client transactions
  // never touch the table locks.
  system_txn_ = db_->Begin();
  for (auto& [table, group] : tables_) {
    (void)db_->lock_manager()->LockTable(system_txn_.get(), table,
                                         LockMode::kIX);
  }
  if (options_.pipelined_commit) {
    // One commit-ack queue per log partition, sharded over at most
    // core-count daemons; with the central backend this degenerates to a
    // single group-commit daemon. Shards must be fully built before any
    // executor runs: a transaction can finish (and consult ack_shards_)
    // as soon as the first executor is live.
    const uint32_t n = db_->log_manager()->num_partitions();
    const uint32_t shards = std::min(n, std::max(1u, HardwareContexts()));
    for (uint32_t s = 0; s < shards; ++s) {
      ack_shards_.push_back(std::make_unique<AckShard>());
    }
    for (uint32_t p = 0; p < n; ++p) {
      ack_shards_[p % shards]->queues.emplace_back(p,
                                                   std::deque<CommitAck>());
    }
    for (size_t i = 0; i < ack_shards_.size(); ++i) {
      AckShard* s = ack_shards_[i].get();
      ack_shards_[i]->daemon = std::thread([this, s, i] { AckLoop(s, i); });
    }
  }
  for (auto& [table, group] : tables_) {
    for (auto& e : group->executors) e->Start();
  }

  // Stage-gap profiler: picks up DORADB_PROF_SAMPLE on the first engine
  // start (an explicit StageGapProfiler::Enable beforehand wins).
  obs::StageGapProfiler::EnsureInitFromEnv();

  // Register this engine's executors as a load-heatmap source: the
  // watchdog's periodic sweep (or an explicit LoadHeatmap::Sweep in tests)
  // pulls each executor's raw counters and turns deltas into per-window
  // rates. Unregistered in Stop() before executors die.
  heatmap_token_ = obs::LoadHeatmap::Default().RegisterSource([this] {
    std::vector<obs::ExecLoadRaw> out;
    for (Executor* e : AllExecutors()) {
      out.push_back(obs::ExecLoadRaw{e->global_index(), e->inbox_depth(),
                                     e->actions_executed(), e->busy_cycles(),
                                     e->queue_wait_hist()});
    }
    return out;
  });

  // Fold the engine's existing atomics into the metrics registry as
  // pull-style callbacks — InboxStats and the txn counters keep their
  // legacy accessors, the registry reads the same storage at snapshot
  // time. Tokens are released in Stop(): the callbacks dereference this
  // engine.
  auto& reg = obs::MetricsRegistry::Default();
  const auto kCtr = obs::MetricType::kCounter;
  auto cb = [this, &reg, kCtr](const std::string& name,
                               std::function<int64_t()> fn,
                               obs::MetricType type, const char* unit) {
    obs_tokens_.push_back(reg.RegisterCallback(name, std::move(fn), type,
                                               unit));
  };
  cb("dora.txns.committed",
     [this] { return static_cast<int64_t>(txns_committed()); }, kCtr, "txns");
  cb("dora.txns.aborted",
     [this] { return static_cast<int64_t>(txns_aborted()); }, kCtr, "txns");
  cb("dora.txns.pipelined",
     [this] { return static_cast<int64_t>(txns_pipelined()); }, kCtr, "txns");
  cb("dora.txns.acked_inline",
     [this] { return static_cast<int64_t>(txns_acked_inline()); }, kCtr,
     "txns");
  cb("dora.tickets.issued",
     [this] { return static_cast<int64_t>(tickets_.issued()); }, kCtr,
     "tickets");
  cb("dora.inbox.batches", [this] {
       return static_cast<int64_t>(CollectInboxStats().batches);
     }, kCtr, "drains");
  cb("dora.inbox.items", [this] {
       return static_cast<int64_t>(CollectInboxStats().items);
     }, kCtr, "msgs");
  cb("dora.inbox.wakeups", [this] {
       return static_cast<int64_t>(CollectInboxStats().wakeups);
     }, kCtr, "wakes");
  cb("dora.actions.executed", [this] {
       return static_cast<int64_t>(CollectInboxStats().actions);
     }, kCtr, "actions");
  // Per-executor load signals — the direct prerequisite for the ROADMAP's
  // live-repartitioning item: depth says "queued now", load says "served
  // so far".
  for (Executor* e : AllExecutors()) {
    const std::string prefix =
        "dora.exec." + std::to_string(e->global_index());
    cb(prefix + ".inbox_depth", [e] { return e->inbox_depth(); },
       obs::MetricType::kGauge, "msgs");
    cb(prefix + ".load",
       [e] { return static_cast<int64_t>(e->load_counter()); }, kCtr,
       "actions");
  }
}

void DoraEngine::Stop() {
  if (!started_) return;
  // Callbacks first: they read executors this function is about to join
  // (and, for short-lived engines in tests, a global-registry snapshot
  // must never race a dying engine).
  for (const uint64_t token : obs_tokens_) {
    obs::MetricsRegistry::Default().Unregister(token);
  }
  obs_tokens_.clear();
  if (heatmap_token_ != 0) {
    obs::LoadHeatmap::Default().UnregisterSource(heatmap_token_);
    heatmap_token_ = 0;
  }
  // Executors first (no new commits enter the ack queues), then drain the
  // ack daemons so every in-flight commit is acknowledged durable.
  for (auto& [table, group] : tables_) {
    for (auto& e : group->executors) e->Stop();
  }
  for (auto& shard : ack_shards_) {
    {
      std::lock_guard<std::mutex> g(shard->mu);
      shard->stop = true;
    }
    shard->cv.notify_all();
    if (shard->daemon.joinable()) shard->daemon.join();
  }
  ack_shards_.clear();
  if (system_txn_ != nullptr) {
    (void)db_->Commit(system_txn_.get());
    system_txn_.reset();
  }
  started_ = false;
}

void DoraEngine::AckLoop(AckShard* shard, size_t idx) {
  // Watchdog heartbeat: a daemon blocked in WaitFlushedFrom with commits
  // outstanding shows up as stalled-in-"wait-durable"; an empty queue is
  // marked idle so quiet periods never read as stalls.
  obs::ScopedHeartbeat hb("dora.ack." + std::to_string(idx));
  // (partition, batch) pairs drained from the shard's queues.
  std::vector<std::pair<uint32_t, std::deque<CommitAck>>> drained;
  for (;;) {
    drained.clear();
    {
      std::unique_lock<std::mutex> lk(shard->mu);
      hb->SetStage("wait-work");
      hb->SetIdle(true);
      shard->cv.wait(lk, [&] {
        if (shard->stop) return true;
        for (const auto& [p, q] : shard->queues) {
          if (!q.empty()) return true;
        }
        return false;
      });
      hb->SetIdle(false);
      bool any = false;
      for (auto& [p, q] : shard->queues) {
        if (q.empty()) continue;
        any = true;
        drained.emplace_back(p, std::deque<CommitAck>());
        drained.back().second.swap(q);
      }
      if (!any && shard->stop) return;
    }
    for (auto& [partition, batch] : drained) {
      // Group commit: one wait for the batch's highest GSN covers every
      // commit queued behind the same flush horizon. The daemon's blocked
      // time is idle overlap — the executors it unblocked are busy
      // elsewhere — so it is left unattributed.
      Lsn max_gsn = kInvalidLsn;
      for (const auto& ack : batch) max_gsn = std::max(max_gsn, ack.gsn);
      hb->SetStage("wait-durable");
      const Status durable =
          db_->log_manager()->WaitFlushedFrom(partition, max_gsn);
      hb->Beat();
      hb->SetStage("ack");
      // On a durability failure the frozen horizon still covers a prefix
      // of the batch — those commits ARE durable and ack normally. The
      // rest are indeterminate: never re-acked over a failed fsync, never
      // rolled back either (their records may have reached the medium).
      const Lsn covered =
          durable.ok() ? max_gsn : db_->log_manager()->flushed_lsn();
      for (auto& ack : batch) {
        Transaction* txn = ack.dtxn->txn();
        if (!durable.ok() && ack.gsn > covered) {
          const Status s = db_->CommitIndeterminate(txn, durable);
          ack.dtxn->Complete(s);
          ack.dtxn->Unref();  // ack queue's reference
          continue;
        }
        obs::CommitTracer::Stamp(txn->id(), obs::TraceStage::kDurable);
        if (ack.dtxn->prof.armed) {
          ack.dtxn->prof.Stamp(obs::TraceStage::kDurable);
        }
        const Status s = db_->CommitFinalize(txn);
        committed_.fetch_add(1, std::memory_order_relaxed);
        pipelined_.fetch_add(1, std::memory_order_relaxed);
        if (obs::MetricsEnabled() && txn->start_tsc() != 0) {
          Database::CommitLatencyHistogram()->Record(static_cast<uint64_t>(
              Cycles::ToNanos(Cycles::Now() - txn->start_tsc())));
        }
        obs::CommitTracer::Stamp(txn->id(), obs::TraceStage::kAck);
        if (ack.dtxn->prof.armed) {
          ack.dtxn->prof.Stamp(obs::TraceStage::kAck);
          obs::StageGapProfiler::RecordTxn(ack.dtxn->prof);
        }
        ack.dtxn->Complete(s);
        ack.dtxn->Unref();  // ack queue's reference
      }
    }
  }
}

DoraTxnRef DoraEngine::BeginTxn() {
  thread_local uint64_t slot = ~uint64_t{0};
  if (slot == ~uint64_t{0}) {
    slot = next_client_slot_.fetch_add(1, std::memory_order_relaxed);
  }
  TxnArena* arena = arenas_[slot % arenas_.size()].get();
  DoraTxn* t = arena->Acquire();
  t->Reset(db_, db_->Begin());
  return DoraTxnRef::Adopt(t);
}

Status DoraEngine::Run(const DoraTxnRef& dtxn, FlowGraph&& graph) {
  // A registration whose routing config never reached the catalog must
  // not execute: after a restart that wiring would silently not exist.
  if (!registration_status_.ok()) return registration_status_;
  DoraTxn* t = dtxn.get();
  // Materialize the flow graph into actions + RVPs owned by the txn
  // context (all storage capacity-recycled across transactions).
  auto& phases = graph.phases();
  const size_t total = graph.num_actions();
  if (phases.empty() || total == 0) {
    const Status s = db_->Commit(t->txn());
    t->Complete(s);
    return s;
  }
  t->actions.clear();
  t->actions.resize(total);
  t->rvps.clear();
  t->rvps.resize(phases.size());
  t->phase_actions.resize(phases.size());
  size_t idx = 0;
  for (size_t p = 0; p < phases.size(); ++p) {
    t->rvps[p].remaining.store(static_cast<int32_t>(phases[p].size()),
                               std::memory_order_relaxed);
    auto& pa = t->phase_actions[p];
    pa.clear();
    for (auto& spec : phases[p]) {
      Action& a = t->actions[idx++];
      a.dtxn = t;
      a.table = spec.table;
      a.routing_value = spec.routing_value;
      a.whole_dataset = spec.whole_dataset;
      a.mode = spec.mode;
      a.body = std::move(spec.body);
      a.phase = p;
      a.owner = nullptr;
      a.ticket = 0;
      a.parked_at = 0;
      pa.push_back(&a);
    }
  }
  obs::CommitTracer::Stamp(t->txn()->id(), obs::TraceStage::kDispatch);
  // Arm the always-on stage-gap profiler for 1-in-N transactions: the
  // stamps ride in the txn context (relaxed first-wins CAS per slot) and
  // fold into registry histograms exactly once at completion.
  if (obs::StageGapProfiler::Sample(t->txn()->id())) {
    t->prof.armed = true;
    t->prof.Stamp(obs::TraceStage::kDispatch);
  }
  DispatchPhase(t, 0);
  return t->Wait();
}

uint32_t DoraEngine::RouteIndex(TableId table, uint64_t routing_value) const {
  auto it = tables_.find(table);
  assert(it != tables_.end());
  return it->second->routing.Route(routing_value);
}

Executor* DoraEngine::RouteToExecutor(TableId table,
                                      uint64_t routing_value) const {
  auto it = tables_.find(table);
  assert(it != tables_.end());
  const uint32_t idx = it->second->routing.Route(routing_value);
  return it->second->executors[idx].get();
}

Executor* DoraEngine::ExecutorAt(TableId table, uint32_t index) const {
  auto it = tables_.find(table);
  assert(it != tables_.end());
  return it->second->executors[index % it->second->executors.size()].get();
}

uint32_t DoraEngine::executors_of(TableId table) const {
  auto it = tables_.find(table);
  return it == tables_.end()
             ? 0
             : static_cast<uint32_t>(it->second->executors.size());
}

const RoutingTable* DoraEngine::routing_of(TableId table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second->routing;
}

uint64_t DoraEngine::key_space_of(TableId table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : it->second->key_space;
}

std::vector<TableId> DoraEngine::RegisteredTables() const {
  std::vector<TableId> out;
  for (const auto& [table, group] : tables_) out.push_back(table);
  std::sort(out.begin(), out.end());
  return out;
}

void DoraEngine::DispatchPhase(DoraTxn* dtxn, size_t phase) {
  ScopedTimeClass timer(TimeClass::kDoraQueue);
  auto& actions = dtxn->phase_actions[phase];
  Executor* first = nullptr;
  bool multi = false;
  for (Action* a : actions) {
    a->owner = a->whole_dataset
                   ? ExecutorAt(a->table,
                                static_cast<uint32_t>(a->routing_value))
                   : RouteToExecutor(a->table, a->routing_value);
    if (first == nullptr) {
      first = a->owner;
    } else if (a->owner != first) {
      multi = true;
    }
  }
  // §4.2.3 without queue latches: a phase fanning out to several executors
  // takes one global ticket, enqueues everywhere, then publishes. The
  // executors admit ticketed actions in ticket order once the published
  // horizon covers them (see Executor::ProcessInbox), so two transactions
  // with overlapping executor sets can never interleave their submissions
  // — which, with FIFO admission and commit-held local locks, rules out
  // deadlocks between them. Single-executor phases (the common case) skip
  // the ticket entirely.
  const uint64_t ticket = multi ? tickets_.Take() : 0;
  // Profiler enqueue stamp lands BEFORE the pushes (first-wins: only the
  // txn's first phase records), so drain - enqueue is a true queue wait
  // even when the executor drains faster than this loop finishes.
  if (dtxn->prof.armed) dtxn->prof.Stamp(obs::TraceStage::kEnqueue);
  for (Action* a : actions) {
    a->ticket = ticket;
    a->owner->PushToInbox(a);
  }
  if (multi) tickets_.Publish(ticket);
  obs::CommitTracer::Stamp(dtxn->txn()->id(), obs::TraceStage::kEnqueue);
}

void DoraEngine::Redispatch(Action* a) {
  ScopedTimeClass timer(TimeClass::kDoraQueue);
  Executor* owner = RouteToExecutor(a->table, a->routing_value);
  a->owner = owner;
  // The bounce is a single enqueue: no ticket needed (same as the mutex
  // protocol, which re-latched only the new owner's queue).
  a->ticket = 0;
  owner->PushToInbox(a);
}

void DoraEngine::FanOutCompletions(DoraTxn* dtxn) {
  auto& owners = dtxn->scratch_owners;
  owners.clear();
  for (const auto& a : dtxn->actions) {
    if (a.owner != nullptr) owners.push_back(a.owner);
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  if (owners.empty()) return;
  // Messages are embedded in the context; size the vector BEFORE the first
  // push (no reallocation while nodes are enqueued) and take one reference
  // per message — the context stays alive until the last executor drains.
  dtxn->completion_msgs.clear();
  dtxn->completion_msgs.resize(owners.size());
  dtxn->Ref(static_cast<uint32_t>(owners.size()));
  for (size_t i = 0; i < owners.size(); ++i) {
    CompletionMsg& m = dtxn->completion_msgs[i];
    m.dtxn = dtxn;
    owners[i]->PushToInbox(&m);
  }
}

void DoraEngine::FinishTxn(DoraTxn* dtxn) {
  // A degraded engine takes the synchronous fallback below: Database::
  // Commit handles the read-only/rollback split and surfaces the typed
  // Unavailable — pipelining a commit that can never become durable would
  // only park it in an ack queue to fail later.
  if (!dtxn->aborted() && options_.pipelined_commit && !ack_shards_.empty() &&
      !obs::EngineHealth::Default().degraded()) {
    // Pipelined commit (§5.4 flush pipelining + ELR): append the commit
    // record, release thread-local locks immediately, queue the ack, and
    // let this executor pick up its next action instead of stalling in
    // WaitFlushed. The client is completed by the ack daemon once the
    // commit GSN is covered by the global stable horizon.
    const Lsn commit_gsn = db_->CommitAsync(dtxn->txn());
    obs::CommitTracer::Stamp(dtxn->txn()->id(),
                             obs::TraceStage::kCommitAppend);
    if (dtxn->prof.armed) {
      dtxn->prof.Stamp(obs::TraceStage::kCommitAppend);
    }
    FanOutCompletions(dtxn);  // early lock release, pre-durability
    // Inline-ack fast path: when the global flush horizon already covers
    // the commit GSN (synchronous log, or a flusher won the race), the
    // commit is durable right now — finalize and complete the client on
    // this executor instead of round-tripping through the ack daemon.
    if (db_->log_manager()->flushed_lsn() >= commit_gsn) {
      Transaction* txn = dtxn->txn();
      obs::CommitTracer::Stamp(txn->id(), obs::TraceStage::kDurable);
      if (dtxn->prof.armed) {
        dtxn->prof.Stamp(obs::TraceStage::kDurable);
      }
      const Status s = db_->CommitFinalize(txn);
      committed_.fetch_add(1, std::memory_order_relaxed);
      pipelined_.fetch_add(1, std::memory_order_relaxed);
      acked_inline_.fetch_add(1, std::memory_order_relaxed);
      if (obs::MetricsEnabled() && txn->start_tsc() != 0) {
        Database::CommitLatencyHistogram()->Record(static_cast<uint64_t>(
            Cycles::ToNanos(Cycles::Now() - txn->start_tsc())));
      }
      obs::CommitTracer::Stamp(txn->id(), obs::TraceStage::kAck);
      if (dtxn->prof.armed) {
        dtxn->prof.Stamp(obs::TraceStage::kAck);
        obs::StageGapProfiler::RecordTxn(dtxn->prof);
      }
      dtxn->Complete(s);
      return;
    }
    dtxn->Ref();  // the ack queue's reference
    // The commit record went to this thread's bound partition; its ack
    // queue lives at slot partition/shards of shard partition%shards.
    const uint32_t partition = db_->log_manager()->CurrentPartition() %
                               db_->log_manager()->num_partitions();
    const uint32_t shards = static_cast<uint32_t>(ack_shards_.size());
    AckShard* shard = ack_shards_[partition % shards].get();
    {
      std::lock_guard<std::mutex> g(shard->mu);
      shard->queues[partition / shards].second.push_back(
          CommitAck{dtxn, commit_gsn});
    }
    shard->cv.notify_one();
    return;
  }

  Status final_status;
  if (dtxn->aborted()) {
    (void)db_->Abort(dtxn->txn());
    final_status = dtxn->abort_reason();
    if (final_status.ok()) final_status = Status::Aborted();
    aborted_.fetch_add(1, std::memory_order_relaxed);
    if (obs::MetricsEnabled()) {
      // Abort attribution by reason ("dora.aborts.deadlock" etc.) — the
      // paper's resource manager decides serial-plan switches on exactly
      // this signal.
      obs::MetricsRegistry::Default()
          .GetCounter(std::string("dora.aborts.") + final_status.CodeName(),
                      "txns")
          ->Add();
    }
  } else {
    // Synchronous commit bundles append + durable flush; bracket it so the
    // profiled flush_wait gap (append->durable) covers the blocking wait.
    if (dtxn->prof.armed) {
      dtxn->prof.Stamp(obs::TraceStage::kCommitAppend);
    }
    final_status = db_->Commit(dtxn->txn());
    if (dtxn->prof.armed) {
      dtxn->prof.Stamp(obs::TraceStage::kDurable);
    }
    if (final_status.ok()) {
      committed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Degraded engine: the commit failed Unavailable (rolled back or
      // indeterminate) — counting it as committed would overstate the
      // engine's own throughput numbers.
      aborted_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Completion fan-out (§A.1 steps 10-12) after commit/abort completes.
  FanOutCompletions(dtxn);
  obs::CommitTracer::Stamp(dtxn->txn()->id(), obs::TraceStage::kAck);
  if (dtxn->prof.armed) {
    dtxn->prof.Stamp(obs::TraceStage::kAck);
    // Aborted transactions record too: their missing durable/append
    // endpoints simply skip those gaps.
    obs::StageGapProfiler::RecordTxn(dtxn->prof);
  }
  dtxn->Complete(std::move(final_status));
}

namespace {

// Walk the merged boundary lists of two rules over the same key space and
// report (a) every executor on either side of an ownership change — the
// set the migration fence must drain — and (b) the number of maximal
// contiguous ranges whose owner changes (the moved_ranges metric).
void DiffOwnership(const RoutingRule& from, const RoutingRule& to,
                   std::set<uint32_t>* affected, uint64_t* changed_ranges) {
  size_t ia = 0, ib = 0;
  uint64_t changed = 0;
  bool in_changed_run = false;
  for (;;) {
    const uint32_t oa = from.executor_of_dataset[ia];
    const uint32_t ob = to.executor_of_dataset[ib];
    if (oa != ob) {
      affected->insert(oa);
      affected->insert(ob);
      if (!in_changed_run) {
        ++changed;
        in_changed_run = true;
      }
    } else {
      in_changed_run = false;
    }
    const uint64_t na =
        ia < from.boundaries.size() ? from.boundaries[ia] : UINT64_MAX;
    const uint64_t nb =
        ib < to.boundaries.size() ? to.boundaries[ib] : UINT64_MAX;
    if (na == UINT64_MAX && nb == UINT64_MAX) break;
    if (na <= nb) ++ia;
    if (nb <= na) ++ib;
  }
  *changed_ranges = changed;
}

}  // namespace

Status DoraEngine::MigrateRoutingRule(TableId table,
                                      std::shared_ptr<const RoutingRule> rule,
                                      uint64_t* fence_wait_ns) {
  if (fence_wait_ns != nullptr) *fence_wait_ns = 0;
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::InvalidArgument("unknown table");
  TableGroup* group = it->second.get();
  const uint32_t n = static_cast<uint32_t>(group->executors.size());
  DORADB_RETURN_NOT_OK(rule->Validate(group->key_space, n));
  auto old_rule = group->routing.Current();
  if (rule->version <= old_rule->version) {
    return Status::Busy(
        "routing rule version " + std::to_string(rule->version) +
        " is not newer than the installed version " +
        std::to_string(old_rule->version));
  }
  std::set<uint32_t> affected;
  uint64_t moved_ranges = 0;
  DiffOwnership(*old_rule, *rule, &affected, &moved_ranges);
  const bool split = rule->boundaries.size() > old_rule->boundaries.size();

  if (affected.empty()) {
    // Ownership function unchanged (a same-owner re-split or a pure
    // version bump): no executor can mis-admit under either rule, so no
    // fence is needed.
    group->routing.Install(rule);
  } else {
    // §A.2.1 via system actions, scoped to the executors whose ownership
    // actually changes (always >= 2: a range moves FROM one executor TO
    // another). Phase 1 takes a whole-dataset X lock on each — a
    // multi-executor phase, so it is stamped with a dispatch ticket; the
    // X grant (FIFO inboxes + commit-held local locks) is the drain
    // barrier. Phase 2 publishes the rule while they are still locked
    // out; the stale-route re-check at admission bounces anything
    // enqueued under the old rule afterwards.
    const auto t0 = std::chrono::steady_clock::now();
    auto dtxn = BeginTxn();
    FlowGraph g;
    g.AddPhase();
    for (const uint32_t i : affected) {
      g.AddWholeDatasetAction(table, i, LocalMode::kX,
                              [](ActionEnv&) { return Status::OK(); });
    }
    g.AddPhase();
    g.AddWholeDatasetAction(
        table, *affected.begin(), LocalMode::kX,
        [group, rule](ActionEnv&) {
          // Under the fence's X locks: a concurrent migration that won the
          // race already advanced the version, and installing over it
          // would silently undo its handoff.
          if (rule->version <= group->routing.Current()->version) {
            return Status::Busy(
                "routing rule version lost a concurrent migration");
          }
          group->routing.Install(rule);
          return Status::OK();
        });
    DORADB_RETURN_NOT_OK(Run(dtxn, std::move(g)));
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (fence_wait_ns != nullptr) *fence_wait_ns = ns;
    obs::MetricsRegistry::Default()
        .GetHistogram("dora.rebalance.fence_wait_ns", "ns")
        ->Record(ns);
  }

  auto& reg = obs::MetricsRegistry::Default();
  if (split) reg.GetCounter("dora.rebalance.splits")->Add(1);
  if (moved_ranges != 0) {
    reg.GetCounter("dora.rebalance.moved_ranges")->Add(moved_ranges);
  }

  // Write-through AFTER publication: the new rule is already live, so a
  // crash in this window loses only the split (the next lifetime adopts
  // the old assignment — exactly one of the two, never a blend), while
  // persisting first could hand a restarted process a rule the fence
  // never published.
  if (db_->catalog()->GetTable(table) != nullptr) {
    DORADB_RETURN_NOT_OK(db_->catalog()->SetDoraRouting(
        table, rule->boundaries, rule->executor_of_dataset, rule->version));
  }
  return Status::OK();
}

DoraEngine::InboxStats DoraEngine::CollectInboxStats() const {
  InboxStats s;
  for (const auto& [table, group] : tables_) {
    for (const auto& e : group->executors) {
      s.batches += e->inbox_batches();
      s.items += e->inbox_items();
      s.wakeups += e->inbox_wakeups();
      s.actions += e->actions_executed();
    }
  }
  s.tickets = tickets_.issued();
  for (const auto& a : arenas_) {
    s.arena_allocs += a->allocs();
    s.arena_recycles += a->recycles();
  }
  return s;
}

std::vector<Executor*> DoraEngine::AllExecutors() const {
  std::vector<Executor*> out;
  for (const auto& [table, group] : tables_) {
    for (const auto& e : group->executors) out.push_back(e.get());
  }
  std::sort(out.begin(), out.end(),
            [](const Executor* a, const Executor* b) {
              return a->global_index() < b->global_index();
            });
  return out;
}

}  // namespace dora
}  // namespace doradb

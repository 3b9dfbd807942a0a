#include "layers.h"

#include <algorithm>
#include <array>

#include "obs/trace.h"
#include "util/clock.h"

namespace perfbench {

using doradb::Cycles;
using doradb::TimeClass;

namespace {

constexpr Scope kBoth = Scope::kBoth;
constexpr Scope kDora = Scope::kDora;
constexpr Scope kBase = Scope::kBase;

std::vector<MetricDef> BuildTable() {
  std::vector<MetricDef> t = {
      // proc: the whole process, from getrusage.
      {"proc.cpu_us_per_txn", "us", kBoth,
       "user+system CPU of every thread of the process per transaction"},
      {"proc.ctx_switches_per_txn", "count", kBoth,
       "voluntary+involuntary context switches per transaction (park/wake "
       "hand-offs)"},
      // dora hand-off.
      {"dora.wakeups_per_action", "count", kDora,
       "producer-side futex wakes of executor inboxes per executed action"},
      {"dora.stage.dispatch_us", "us", kDora,
       "median tracer gap dispatch -> enqueue (flow graph to inbox push)"},
      {"dora.stage.inbox_us", "us", kDora,
       "median tracer gap enqueue -> drain (time in the executor inbox)"},
      {"dora.stage.ack_us", "us", kDora,
       "median tracer gap durable -> ack (commit finalize and completion "
       "fan-out)"},
      {"dora.probe.roundtrip_us", "us", kDora,
       "median DoraEngine::Run of a one-action no-op flow graph on the idle "
       "database"},
      // dora coordination.
      {"dora.actions_per_txn", "count", kDora,
       "actions executed per transaction"},
      {"dora.msgs_per_drain", "count", kDora,
       "inbox messages per non-empty executor drain"},
      {"dora.tickets_per_txn", "count", kDora,
       "multi-executor dispatch tickets per transaction"},
      {"dora.ticket_deferred_frac", "frac", kDora,
       "share of executed actions admitted through the ticket-ordered "
       "deferred queue (dora.tickets.deferred per action)"},
      {"dora.stage.execute_us", "us", kDora,
       "median tracer gap first drain -> last execute (all phases incl. "
       "RVP hand-offs)"},
      {"dora.exec_busy_mean", "frac", kDora,
       "mean over executors of busy cycles per window cycle"},
      {"dora.exec_busy_max", "frac", kDora,
       "busiest executor's busy cycles per window cycle"},
      {"dora.local_lock_ns_per_txn", "ns", kDora,
       "TimeClass dora_local_lock per transaction"},
      {"dora.queue_ns_per_txn", "ns", kDora,
       "TimeClass dora_queue per transaction"},
      {"dora.rvp_ns_per_txn", "ns", kDora,
       "TimeClass dora_rvp per transaction"},
      // dora stalls.
      {"dora.expiries_per_ktxn", "count", kDora,
       "local-wait expiries (dora.aborts.deadlock) per 1000 transactions"},
      {"dora.queue_wait_p99_us", "us", kDora,
       "worst executor's windowed queue-wait p99"},
      // lock: the centralized lock manager.
      {"lock.acquires_per_txn", "count", kBoth,
       "LockManager acquisitions per transaction"},
      {"lock.waits_per_txn", "count", kBoth,
       "LockManager blocked waits per transaction"},
      {"lock.deadlocks_per_ktxn", "count", kBoth,
       "LockManager deadlock victims per 1000 transactions"},
      {"lock.timeouts_per_ktxn", "count", kBoth,
       "LockManager wait timeouts per 1000 transactions"},
      {"lock.row_locks_per_txn", "count", kBoth,
       "centralized row (RID) locks per transaction (Fig. 5 census)"},
      {"lock.higher_locks_per_txn", "count", kBoth,
       "centralized table/database locks per transaction (Fig. 5 census)"},
      {"lock.acquire_ns_per_txn", "ns", kBoth,
       "TimeClass lock_acquire + lock_release (uncontended lock-manager "
       "code) per transaction"},
      {"lock.contention_ns_per_txn", "ns", kBoth,
       "TimeClass lock_acquire_cont + lock_release_cont (lock-head latch "
       "spinning) per transaction"},
      {"lock.wait_ns_per_txn", "ns", kBoth,
       "TimeClass lock_wait (blocked on an incompatible lock) per "
       "transaction"},
      {"lock.other_ns_per_txn", "ns", kBoth,
       "TimeClass lock_other (deadlock detection, hierarchy bookkeeping) "
       "per transaction"},
      {"lock.probe.lock_release_ns", "ns", kBase,
       "median LockManager::LockRow + ReleaseAll on the idle database"},
      // txn.
      {"txn.commit_p50_us", "us", kBoth,
       "txn.commit_latency_ns p50 (begin to commit finalize)"},
      {"txn.commit_p99_us", "us", kBoth, "txn.commit_latency_ns p99"},
      {"txn.aborts_per_ktxn", "count", kBoth,
       "Database aborts (txn.aborts) per 1000 transactions"},
      {"txn.probe.begin_commit_us", "us", kBase,
       "median Begin + Commit of an empty transaction on the idle database"},
      // log.
      {"log.appends_per_txn", "count", kBoth,
       "log records appended per transaction"},
      {"log.flushes_per_txn", "count", kBoth,
       "log flush calls per transaction"},
      {"log.bytes_per_txn", "bytes", kBoth,
       "log bytes flushed (log.group_commit_bytes sum) per transaction"},
      {"log.fsyncs_per_txn", "count", kBoth,
       "log-stream fsync/fdatasync calls (DurabilityStats) per transaction"},
      {"log.fsync_p99_us", "us", kBoth,
       "log.fsync_ns p99 (0 on in-memory media)"},
      {"log.stage.durable_us", "us", kBoth,
       "median tracer gap commit-append -> durable (group-commit wait)"},
      {"log.work_ns_per_txn", "ns", kBoth,
       "TimeClass log_work per transaction"},
      {"log.contention_ns_per_txn", "ns", kBoth,
       "TimeClass log_cont (log buffer latch spinning) per transaction"},
      {"log.io_retries", "count", kBoth,
       "bounded-retry durability I/O retries in the window"},
      // storage.
      {"storage.bp_hit_frac", "frac", kBoth,
       "buffer-pool hits per page access"},
      {"storage.evictions_per_txn", "count", kBoth,
       "buffer-pool evictions per transaction"},
      {"storage.page_write_bytes_per_txn", "bytes", kBoth,
       "page-store bytes written per transaction"},
      {"storage.write_amp", "ratio", kBoth,
       "(log bytes + page bytes) per modelled byte of record data the "
       "committed transactions wrote"},
      {"storage.buffer_contention_ns_per_txn", "ns", kBoth,
       "TimeClass buffer_cont per transaction"},
      {"storage.other_contention_ns_per_txn", "ns", kBoth,
       "TimeClass other_cont per transaction"},
      {"storage.space_amp", "ratio", kBase,
       "(allocated pages x page size + retained log) per byte of live "
       "record data, after the run"},
      {"storage.probe.index_probe_ns", "ns", kBase,
       "median primary-index BTree::Probe on the idle database"},
      // ckpt.
      {"ckpt.checkpoints_per_s", "1/s", kBoth,
       "checkpoint records written per second"},
      {"ckpt.pages_flushed_per_s", "1/s", kBoth,
       "dirty pages written back by checkpoints per second"},
      {"ckpt.duration_p99_us", "us", kBoth, "ckpt.duration_ns p99"},
      {"ckpt.reclaimed_bytes_per_s", "bytes/s", kBoth,
       "log bytes reclaimed by checkpoint truncation per second"},
      // obs.
      {"obs.trace_overhead_frac", "frac", kBoth,
       "1 - traced tps / untraced tps, same clients and seed"},
      // workloads: the client-observed tail. It swings with how busy a
      // shared host is, so it is not an end-to-end metric (run.py).
      {"workloads.p99_us", "us", kBoth,
       "client-observed p99 latency over every transaction of the untraced "
       "window"},
  };
  // workloads: one latency row per transaction type. The names must live as
  // long as the table, so they are interned in a static list.
  static std::vector<std::string> names;
  static std::vector<std::string> meanings;
  names.reserve(AllTxnNames().size());
  meanings.reserve(AllTxnNames().size());
  for (const std::string& type : AllTxnNames()) {
    names.push_back("workloads." + type + ".p50_us");
    meanings.push_back("client-observed p50 latency of " + type +
                       " (0 when the workload does not run it)");
    t.push_back(MetricDef{names.back().c_str(), "us", kBoth,
                          meanings.back().c_str()});
  }
  return t;
}

double Ns(uint64_t cycles) { return Cycles::ToNanos(cycles); }

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

double CounterDelta(const doradb::obs::MetricsSnapshot& d,
                    const char* name) {
  const auto* m = d.Find(name);
  return m == nullptr ? 0.0 : static_cast<double>(m->value);
}

double HistSum(const doradb::obs::MetricsSnapshot& d, const char* name) {
  const auto* m = d.Find(name);
  return m == nullptr ? 0.0 : static_cast<double>(m->sum);
}

// Windowed percentile in ns of a registry histogram (0 without samples).
double HistPct(const doradb::obs::MetricsSnapshot& d, const std::string& name,
               double p) {
  const auto* m = d.Find(name);
  if (m == nullptr || m->count == 0) return 0.0;
  return static_cast<double>(m->Percentile(p));
}

double Median(std::vector<double>* v) {
  if (v->empty()) return 0.0;
  const size_t mid = v->size() / 2;
  std::nth_element(v->begin(), v->begin() + mid, v->end());
  double m = (*v)[mid];
  if (v->size() % 2 == 0) {
    m = (m + *std::max_element(v->begin(), v->begin() + mid)) / 2;
  }
  return m;
}

}  // namespace

const std::vector<std::string>& AllTxnNames() {
  static const std::vector<std::string> names = {
      // TM1 (TATP)
      "GetSubscriberData", "GetNewDestination", "GetAccessData",
      "UpdateSubscriberData", "UpdateLocation", "InsertCallForwarding",
      "DeleteCallForwarding",
      // TPC-B
      "AccountUpdate",
      // TPC-C
      "NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"};
  return names;
}

const char* Better(const MetricDef& m) {
  // Hit rates and messages amortized per drain improve upwards; every other
  // row is a cost, a count of work, a wait or a failure.
  const std::string name = m.name;
  return name == "storage.bp_hit_frac" || name == "dora.msgs_per_drain"
             ? "higher"
             : "lower";
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> table = BuildTable();
  return table;
}

LayerSnapshot LayerSnapshot::Take(doradb::Database* db,
                                  doradb::dora::DoraEngine* engine) {
  LayerSnapshot s;
  s.time_classes = doradb::ThreadStats::AggregateSnapshot();
  s.registry = doradb::obs::MetricsRegistry::Default().Snapshot();
  s.inbox = engine->CollectInboxStats();
  for (doradb::dora::Executor* e : engine->AllExecutors()) {
    s.exec_busy_cycles.push_back(e->busy_cycles());
  }
  doradb::LockManager* lm = db->lock_manager();
  s.lock_acquires = lm->acquires();
  s.lock_waits = lm->waits();
  s.lock_deadlocks = lm->deadlocks();
  s.lock_timeouts = lm->timeouts();
  doradb::BufferPool* bp = db->buffer_pool();
  s.bp_hits = bp->hits();
  s.bp_misses = bp->misses();
  s.bp_evictions = bp->evictions();
  s.page_writes = db->disk()->writes();
  for (const auto& row : doradb::DurabilityStats::Snapshot()) {
    if (row.stream == doradb::kPageStoreStream) continue;
    s.log_fsyncs += row.counts[static_cast<size_t>(
        doradb::DurabilityCounter::kFsyncCalls)];
  }
  getrusage(RUSAGE_SELF, &s.ru);
  s.tsc = Cycles::Now();
  s.wall = std::chrono::steady_clock::now();
  return s;
}

void ComputeLayers(const LayerSnapshot& a, const LayerSnapshot& b,
                   const WindowWork& work, bool dora, MetricMap* out) {
  MetricMap& m = *out;
  const double txns = static_cast<double>(work.attempted);
  const double secs =
      std::chrono::duration<double>(b.wall - a.wall).count();
  const doradb::StatsSnapshot tc = b.time_classes - a.time_classes;
  const doradb::obs::MetricsSnapshot reg = b.registry.Delta(a.registry);
  auto cls_ns = [&](TimeClass c) { return Ns(tc.Cycles(c)); };
  auto per_txn = [&](double v) { return Div(v, txns); };
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 +
           static_cast<double>(t.tv_usec);
  };

  m["proc.cpu_us_per_txn"] =
      per_txn(tv(b.ru.ru_utime) + tv(b.ru.ru_stime) - tv(a.ru.ru_utime) -
              tv(a.ru.ru_stime));
  m["proc.ctx_switches_per_txn"] = per_txn(static_cast<double>(
      (b.ru.ru_nvcsw + b.ru.ru_nivcsw) - (a.ru.ru_nvcsw + a.ru.ru_nivcsw)));

  m["lock.acquires_per_txn"] =
      per_txn(static_cast<double>(b.lock_acquires - a.lock_acquires));
  m["lock.waits_per_txn"] =
      per_txn(static_cast<double>(b.lock_waits - a.lock_waits));
  m["lock.deadlocks_per_ktxn"] =
      1000 * per_txn(static_cast<double>(b.lock_deadlocks - a.lock_deadlocks));
  m["lock.timeouts_per_ktxn"] =
      1000 * per_txn(static_cast<double>(b.lock_timeouts - a.lock_timeouts));
  m["lock.row_locks_per_txn"] = per_txn(
      static_cast<double>(tc.Locks(doradb::LockCounter::kRowLevel)));
  m["lock.higher_locks_per_txn"] = per_txn(
      static_cast<double>(tc.Locks(doradb::LockCounter::kHigherLevel)));
  m["lock.acquire_ns_per_txn"] = per_txn(cls_ns(TimeClass::kLockAcquire) +
                                         cls_ns(TimeClass::kLockRelease));
  m["lock.contention_ns_per_txn"] =
      per_txn(cls_ns(TimeClass::kLockAcquireContention) +
              cls_ns(TimeClass::kLockReleaseContention));
  m["lock.wait_ns_per_txn"] = per_txn(cls_ns(TimeClass::kLockWait));
  m["lock.other_ns_per_txn"] = per_txn(cls_ns(TimeClass::kLockOther));

  m["txn.commit_p50_us"] = HistPct(reg, "txn.commit_latency_ns", 50) / 1000;
  m["txn.commit_p99_us"] = HistPct(reg, "txn.commit_latency_ns", 99) / 1000;
  m["txn.aborts_per_ktxn"] = 1000 * per_txn(CounterDelta(reg, "txn.aborts"));

  const double log_bytes = HistSum(reg, "log.group_commit_bytes");
  m["log.appends_per_txn"] = per_txn(CounterDelta(reg, "log.appends"));
  m["log.flushes_per_txn"] = per_txn(CounterDelta(reg, "log.flushes"));
  m["log.bytes_per_txn"] = per_txn(log_bytes);
  m["log.fsyncs_per_txn"] =
      per_txn(static_cast<double>(b.log_fsyncs - a.log_fsyncs));
  m["log.fsync_p99_us"] = HistPct(reg, "log.fsync_ns", 99) / 1000;
  m["log.work_ns_per_txn"] = per_txn(cls_ns(TimeClass::kLogWork));
  m["log.contention_ns_per_txn"] = per_txn(cls_ns(TimeClass::kLogContention));
  m["log.io_retries"] = CounterDelta(reg, "log.io_retries");

  const double hits = static_cast<double>(b.bp_hits - a.bp_hits);
  const double misses = static_cast<double>(b.bp_misses - a.bp_misses);
  const double page_bytes = static_cast<double>(b.page_writes - a.page_writes) *
                            static_cast<double>(doradb::kPageSize);
  m["storage.bp_hit_frac"] = Div(hits, hits + misses);
  m["storage.evictions_per_txn"] =
      per_txn(static_cast<double>(b.bp_evictions - a.bp_evictions));
  m["storage.page_write_bytes_per_txn"] = per_txn(page_bytes);
  m["storage.write_amp"] = Div(log_bytes + page_bytes, work.record_bytes);
  m["storage.buffer_contention_ns_per_txn"] =
      per_txn(cls_ns(TimeClass::kBufferContention));
  m["storage.other_contention_ns_per_txn"] =
      per_txn(cls_ns(TimeClass::kOtherContention));

  m["ckpt.checkpoints_per_s"] = Div(CounterDelta(reg, "ckpt.checkpoints"), secs);
  m["ckpt.pages_flushed_per_s"] =
      Div(CounterDelta(reg, "ckpt.pages_flushed"), secs);
  m["ckpt.duration_p99_us"] = HistPct(reg, "ckpt.duration_ns", 99) / 1000;
  m["ckpt.reclaimed_bytes_per_s"] =
      Div(CounterDelta(reg, "log.reclaimed_bytes"), secs);

  if (!dora) return;
  const auto inbox = b.inbox - a.inbox;
  m["dora.wakeups_per_action"] = inbox.wakeups_per_action();
  m["dora.actions_per_txn"] = per_txn(static_cast<double>(inbox.actions));
  m["dora.msgs_per_drain"] = inbox.actions_per_drain();
  m["dora.tickets_per_txn"] = per_txn(static_cast<double>(inbox.tickets));
  m["dora.ticket_deferred_frac"] =
      Div(CounterDelta(reg, "dora.tickets.deferred"),
          static_cast<double>(inbox.actions));
  const double span = static_cast<double>(b.tsc - a.tsc);
  double busy_sum = 0, busy_max = 0;
  const size_t n = std::min(a.exec_busy_cycles.size(),
                            b.exec_busy_cycles.size());
  for (size_t i = 0; i < n; ++i) {
    const double busy = std::min(
        1.0, Div(static_cast<double>(b.exec_busy_cycles[i] -
                                     a.exec_busy_cycles[i]),
                 span));
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
  }
  m["dora.exec_busy_mean"] = Div(busy_sum, static_cast<double>(n));
  m["dora.exec_busy_max"] = busy_max;
  m["dora.local_lock_ns_per_txn"] = per_txn(cls_ns(TimeClass::kDoraLocalLock));
  m["dora.queue_ns_per_txn"] = per_txn(cls_ns(TimeClass::kDoraQueue));
  m["dora.rvp_ns_per_txn"] = per_txn(cls_ns(TimeClass::kDoraRvp));
  m["dora.expiries_per_ktxn"] =
      1000 * per_txn(CounterDelta(reg, "dora.aborts.deadlock"));
  double qwait_p99 = 0;
  for (const auto& mv : reg.metrics) {
    const std::string& name = mv.name;
    if (name.rfind("dora.exec.", 0) == 0 &&
        name.size() > 14 &&
        name.compare(name.size() - 14, 14, ".queue_wait_ns") == 0 &&
        mv.count > 0) {
      qwait_p99 = std::max(qwait_p99, static_cast<double>(mv.Percentile(99)));
    }
  }
  m["dora.queue_wait_p99_us"] = qwait_p99 / 1000;
}

void ComputeStageGaps(MetricMap* out, uint64_t* txns_traced) {
  using doradb::obs::TraceStage;
  const std::vector<doradb::obs::TraceEvent> events =
      doradb::obs::CommitTracer::Dump();
  std::vector<double> dispatch, inbox, execute, durable, ack;
  constexpr uint64_t kNone = 0;
  uint64_t traced = 0;
  size_t i = 0;
  while (i < events.size()) {
    const uint64_t id = events[i].txn_id;
    // first stamp of each stage, except execute and ack: last.
    std::array<uint64_t, doradb::obs::kNumTraceStages> first{};
    std::array<uint64_t, doradb::obs::kNumTraceStages> last{};
    for (; i < events.size() && events[i].txn_id == id; ++i) {
      const size_t st = static_cast<size_t>(events[i].stage);
      if (first[st] == kNone) first[st] = events[i].tsc;
      last[st] = events[i].tsc;
    }
    ++traced;
    auto gap_us = [](uint64_t from, uint64_t to, std::vector<double>* v) {
      if (from == kNone || to == kNone || to < from) return;
      v->push_back(Ns(to - from) / 1000);
    };
    auto at = [](const auto& arr, TraceStage s) {
      return arr[static_cast<size_t>(s)];
    };
    gap_us(at(first, TraceStage::kDispatch), at(first, TraceStage::kEnqueue),
           &dispatch);
    gap_us(at(first, TraceStage::kEnqueue), at(first, TraceStage::kDrain),
           &inbox);
    gap_us(at(first, TraceStage::kDrain), at(last, TraceStage::kExecute),
           &execute);
    gap_us(at(first, TraceStage::kCommitAppend),
           at(first, TraceStage::kDurable), &durable);
    if (at(first, TraceStage::kDispatch) != kNone) {
      gap_us(at(first, TraceStage::kDurable), at(last, TraceStage::kAck),
             &ack);
    }
  }
  MetricMap& m = *out;
  m["dora.stage.dispatch_us"] = Median(&dispatch);
  m["dora.stage.inbox_us"] = Median(&inbox);
  m["dora.stage.execute_us"] = Median(&execute);
  m["dora.stage.ack_us"] = Median(&ack);
  m["log.stage.durable_us"] = Median(&durable);
  *txns_traced = traced;
}

double MedianNs(const std::function<void()>& fn, int max_iters,
                int budget_ms) {
  std::vector<double> ns;
  ns.reserve(static_cast<size_t>(max_iters));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  for (int i = 0; i < max_iters; ++i) {
    const uint64_t t0 = Cycles::Now();
    fn();
    ns.push_back(Ns(Cycles::Now() - t0));
    if ((i & 63) == 63 && std::chrono::steady_clock::now() > deadline) break;
  }
  return Median(&ns);
}

}  // namespace perfbench

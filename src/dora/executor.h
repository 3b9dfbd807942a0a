// Executor: the worker thread bound to one or more datasets of a table
// (paper §4.1.3). It owns one lock-free MPSC inbox carrying both incoming
// actions and completion messages, and a thread-local lock table. Actions
// are served FIFO; conflicting actions park in the local lock table and
// resume when the blocking transaction's completion message releases its
// locks.
//
// Inbox protocol: producers (dispatchers and other executors) push with
// one CAS; this thread drains the whole list per iteration and parks on a
// futex only when a drain comes up empty — so an executor wakes at most
// once per batch and a push onto a busy executor costs no syscall.
// Multi-queue dispatches carry a global ticket (dora/ticket.h); drained
// ticketed actions are deferred until the published horizon covers them
// and then admitted in ticket order, preserving the §4.2.3 atomic-enqueue
// guarantee without latching any queue.

#ifndef DORADB_DORA_EXECUTOR_H_
#define DORADB_DORA_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "dora/action.h"
#include "dora/local_lock_table.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "util/mpsc_queue.h"

namespace doradb {
namespace dora {

class DoraEngine;

class Executor {
 public:
  // `global_index` defines the executor's position in the engine-wide
  // order: its log-partition binding, its pinned core (Options::
  // pin_threads), and its arena all key off it.
  Executor(DoraEngine* engine, Database* db, TableId table,
           uint32_t index_in_table, uint32_t global_index);

  void Start();
  void Stop();

  TableId table() const { return table_; }
  uint32_t index_in_table() const { return index_in_table_; }
  uint32_t global_index() const { return global_index_; }

  // Lock-free inbox; push Action / CompletionMsg / StopMsg nodes.
  MpscQueue& inbox() { return inbox_; }

  // Preferred producer entry point: stamps the entry's enqueue timestamp
  // and the depth accounting (metrics on), then pushes. Pushing to
  // inbox() directly stays correct — such messages just don't feed the
  // queue-wait histogram or the depth gauge.
  void PushToInbox(InboxEntry* entry);

  // --- stats ---
  uint64_t actions_executed() const {
    return actions_executed_.load(std::memory_order_relaxed);
  }
  uint64_t local_lock_acquires() const { return locks_.acquires(); }
  uint64_t local_lock_conflicts() const { return locks_.conflicts(); }
  // Non-empty inbox drains and the messages they carried.
  uint64_t inbox_batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  uint64_t inbox_items() const {
    return items_.load(std::memory_order_relaxed);
  }
  // Producer-side futex wakes (pushes that found this executor parked).
  uint64_t inbox_wakeups() const { return inbox_.wakeups(); }
  // Actions admitted so far; read by the dora.exec.<g>.load metric.
  uint64_t load_counter() const {
    return load_counter_.load(std::memory_order_relaxed);
  }
  // Messages ever pushed via PushToInbox. pushed - items approximates the
  // live inbox depth (the per-executor load gauge the repartitioning
  // roadmap item consumes); it undercounts by pushes that bypassed the
  // wrapper and by the drained-but-unprocessed window, never below zero
  // after clamping.
  uint64_t inbox_pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  int64_t inbox_depth() const {
    const int64_t d = static_cast<int64_t>(inbox_pushed()) -
                      static_cast<int64_t>(inbox_items());
    return d > 0 ? d : 0;
  }
  // Cycles spent inside ProcessInbox batches that did work (metrics on).
  // busy_cycles delta / wall cycles delta = the executor's busy fraction
  // over a window; the load heatmap sweeps this.
  uint64_t busy_cycles() const {
    return busy_cycles_.load(std::memory_order_relaxed);
  }
  // Per-executor queue-wait histogram (dora.exec.<g>.queue_wait_ns);
  // the heatmap computes windowed p99 from its bucket deltas.
  const Histogram* queue_wait_hist() const { return queue_wait_hist_; }

 private:
  void Loop();
  // Split a drained chain into completions / ready / deferred.
  void Classify(MpscNode* chain);
  // Completions first (paper steps 11-12), then unticketed actions FIFO,
  // then the ticket-ordered admission loop. Returns true if any work ran.
  bool ProcessInbox(MpscNode* chain);
  // Admit one action: bounce if stale-routed, else local-lock + run.
  void AdmitAction(Action* a);
  // Local-lock deadlock resolution (§4.2.3): abort over-age parked waits.
  void ExpireStaleParked(uint64_t timeout_cycles);
  // Execute the woken actions in runnable_, re-checking routing first: an
  // action parked before a migration published may wake on an executor
  // that no longer owns its key — it gives the grant back and redispatches
  // instead of executing here. Index loop: ReleaseGrant can append.
  void RunRunnable();
  // Run the body (unless the txn already aborted) and report to the RVP.
  void ExecuteGranted(Action* a);
  void ReportToRvp(Action* a);

  DoraEngine* const engine_;
  Database* const db_;
  const TableId table_;
  const uint32_t index_in_table_;
  const uint32_t global_index_;

  MpscQueue inbox_;
  StopMsg stop_msg_;

  // Consumer-thread state (touched only by Loop()).
  bool stop_seen_ = false;
  std::vector<DoraTxn*> comps_;
  std::vector<Action*> ready_;
  std::vector<Action*> deferred_;  // ticketed, sorted by ticket (stable)
  std::vector<Action*> runnable_;

  LocalLockTable locks_;  // executor-private: no latching

  std::thread thread_;
  std::atomic<uint64_t> actions_executed_{0};
  std::atomic<uint64_t> load_counter_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> items_{0};
  std::atomic<uint64_t> pushed_{0};
  std::atomic<uint64_t> busy_cycles_{0};

  // Watchdog heartbeat, registered for the lifetime of Loop(). Only this
  // thread writes through it; the watchdog reads via table snapshots.
  obs::Heartbeats::Handle* hb_ = nullptr;

  // Registry-owned instrumentation, shared across executors (resolved once
  // at construction; hot paths record through the cached pointers gated on
  // obs::MetricsEnabled()).
  Histogram* batch_size_hist_;      // dora.inbox.batch_size
  Histogram* drain_wait_hist_;      // dora.inbox.drain_wait_ns
  Histogram* queue_wait_hist_;      // dora.exec.<g>.queue_wait_ns
  obs::Counter* ticket_deferred_;   // dora.tickets.deferred
};

}  // namespace dora
}  // namespace doradb

#endif  // DORADB_DORA_EXECUTOR_H_

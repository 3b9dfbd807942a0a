// DORA actions, rendezvous points (RVPs), transaction flow graphs, and the
// per-transaction execution context (paper §4.1.2-4.1.3).
//
// An action is "a subset of a transaction's code which involves access to a
// single or a small set of records from the same table"; its identifier is
// the routing-field value(s) of the records it intends to access. RVPs
// separate a transaction into phases; actions of different phases never run
// concurrently.
//
// Executor messaging: actions and completion messages are both intrusive
// inbox entries (InboxEntry over util/mpsc_queue.h), so an executor drains
// one lock-free queue and wakes at most once per batch. Transaction
// contexts are pooled in per-executor arenas (dora/arena.h) and recycled —
// via an intrusive reference count — once the client and every completion
// message are done with them, which removes all per-transaction
// malloc/free of graph state from the steady-state path.

#ifndef DORADB_DORA_ACTION_H_
#define DORADB_DORA_ACTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "obs/profiler.h"
#include "txn/transaction.h"
#include "util/mpsc_queue.h"
#include "util/status.h"

namespace doradb {
namespace dora {

class Executor;
class DoraEngine;
class DoraTxn;
class TxnArena;

// Thread-local lock modes: DORA needs only shared/exclusive (§4.1.3).
enum class LocalMode : uint8_t { kS = 0, kX = 1 };

// Environment handed to an action body, executing on an executor thread.
struct ActionEnv {
  Database* db;
  Transaction* txn;
  DoraTxn* dtxn;
  Executor* self;

  // First live entry with exactly `key` in index `index`.
  Status Probe(IndexId index, std::string_view key, IndexEntry* out) const {
    return db->catalog()->Index(index)->Probe(key, out);
  }
};

// Fixed-capacity, allocation-free callable holding an action body. The
// std::function it replaces heap-allocated every capture over two words,
// and dispatch is the per-request hot path. Captures live inline
// (kCapacity bytes covers the largest workload capture, TPC-C NewOrder's
// input struct + line index vector) and dispatch goes through a
// per-capture-type static op table. Move-only, like the unique captures it
// stores; moves relocate the capture, so Action vectors recycle cleanly.
class ActionBody {
 public:
  static constexpr size_t kCapacity = 256;

  ActionBody() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ActionBody> &&
                std::is_invocable_r_v<Status, std::decay_t<F>&, ActionEnv&>>>
  ActionBody(F&& f) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "action capture exceeds ActionBody::kCapacity — shrink "
                  "the lambda capture (move bulky state behind a "
                  "shared_ptr) or raise kCapacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned action capture");
    new (storage_) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  ActionBody(ActionBody&& o) noexcept { MoveFrom(o); }
  ActionBody& operator=(ActionBody&& o) noexcept {
    if (this != &o) {
      Destroy();
      MoveFrom(o);
    }
    return *this;
  }
  ActionBody(const ActionBody&) = delete;
  ActionBody& operator=(const ActionBody&) = delete;
  ~ActionBody() { Destroy(); }

  explicit operator bool() const { return ops_ != nullptr; }
  Status operator()(ActionEnv& env) { return ops_->invoke(storage_, env); }

 private:
  struct Ops {
    Status (*invoke)(void*, ActionEnv&);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
  };
  template <typename Fn>
  struct OpsFor {
    static constexpr Ops kOps = {
        [](void* p, ActionEnv& env) -> Status {
          return (*static_cast<Fn*>(p))(env);
        },
        [](void* dst, void* src) {
          Fn* s = static_cast<Fn*>(src);
          new (dst) Fn(std::move(*s));
          s->~Fn();
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); }};
  };

  void MoveFrom(ActionBody& o) {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, o.storage_);
      o.ops_ = nullptr;
    }
  }
  void Destroy() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

// Header of every executor inbox message. Executors receive exactly three
// message kinds through one MPSC queue: dispatched actions, transaction
// completions (§4.1.3 steps 10-12), and the stop sentinel.
struct InboxEntry : MpscNode {
  enum class Kind : uint8_t { kAction = 0, kCompletion = 1, kStop = 2 };
  Kind kind = Kind::kAction;
  // Cycle timestamp of the push (Executor::PushToInbox). Feeds the
  // per-drain queue-wait histogram; 0 while metrics are disabled.
  uint64_t enqueued_tsc = 0;
};

// A unit of work routed to the executor owning the dataset it touches.
struct Action : InboxEntry {
  Action() { kind = Kind::kAction; }

  DoraTxn* dtxn = nullptr;
  TableId table = 0;
  uint64_t routing_value = 0;  // action identifier (single routing field)
  bool whole_dataset = false;  // empty-identifier action: dataset-wide lock
  LocalMode mode = LocalMode::kS;
  ActionBody body;
  size_t phase = 0;
  Executor* owner = nullptr;  // executor it was dispatched to
  // Global dispatch ticket (dora/ticket.h). 0 = single-queue dispatch, no
  // ordering constraint; nonzero = the executor defers admission until the
  // published horizon covers it, restoring the §4.2.3 atomicity.
  uint64_t ticket = 0;
  uint64_t parked_at = 0;  // cycle timestamp when parked (0 = never)
};

// Completion message: "release dtxn's thread-local locks". One per
// participating executor, embedded in the transaction context so fan-out
// allocates nothing; each message carries one reference on the context.
struct CompletionMsg : InboxEntry {
  CompletionMsg() { kind = Kind::kCompletion; }
  DoraTxn* dtxn = nullptr;
};

// Stop sentinel, pushed once by Executor::Stop().
struct StopMsg : InboxEntry {
  StopMsg() { kind = Kind::kStop; }
};

// Rendezvous point: counts down as the actions of its phase complete; the
// zeroing executor initiates the next phase (or commit/abort, §4.1.3).
// Copyable so RVPs live in a plain (capacity-recycled) vector — copies
// only ever happen during single-threaded graph materialization.
struct Rvp {
  std::atomic<int32_t> remaining{0};

  Rvp() = default;
  Rvp(const Rvp& o)
      : remaining(o.remaining.load(std::memory_order_relaxed)) {}
  Rvp& operator=(const Rvp& o) {
    remaining.store(o.remaining.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    return *this;
  }
};

// Declarative transaction flow graph, built by the dispatcher. Phases run
// in order; actions within a phase run in parallel on their executors.
class FlowGraph {
 public:
  FlowGraph() = default;

  FlowGraph& AddPhase() {
    phases_.emplace_back();
    return *this;
  }

  // Add an action to the last phase.
  FlowGraph& AddAction(TableId table, uint64_t routing_value, LocalMode mode,
                       ActionBody body) {
    phases_.back().push_back(
        ActionSpec{table, routing_value, false, mode, std::move(body)});
    return *this;
  }

  // Dataset-wide action (identifier = empty set): conflicts with every
  // action on the executor's datasets.
  FlowGraph& AddWholeDatasetAction(TableId table, uint32_t executor_index,
                                   LocalMode mode, ActionBody body) {
    phases_.back().push_back(ActionSpec{table, executor_index, true, mode,
                                        std::move(body)});
    return *this;
  }

  struct ActionSpec {
    TableId table;
    uint64_t routing_value;
    bool whole_dataset;
    LocalMode mode;
    ActionBody body;
  };

  const std::vector<std::vector<ActionSpec>>& phases() const {
    return phases_;
  }
  std::vector<std::vector<ActionSpec>>& phases() { return phases_; }
  size_t num_actions() const {
    size_t n = 0;
    for (const auto& p : phases_) n += p.size();
    return n;
  }

  // §A.4: derive the serial plan — each action in its own phase, in order.
  // PlanAdvisor recommends this plan for high-abort transactions
  // ("inserting empty rendezvous points between actions of the same phase").
  FlowGraph Serialized() &&;

 private:
  std::vector<std::vector<ActionSpec>> phases_;
};

// Per-transaction execution context shared by dispatcher and executors.
//
// Lifetime: reference-counted. The client's handle (DoraTxnRef) holds one
// reference; every in-flight completion message and commit-ack entry holds
// another. The last release recycles the context into its home arena with
// all vector capacities intact, so a warmed-up engine materializes and
// dispatches flow graphs without touching the allocator.
class DoraTxn {
 public:
  // Standalone construction (tests, non-pooled use): the caller owns the
  // object and Unref never recycles it.
  DoraTxn(Database* db, std::unique_ptr<Transaction> txn)
      : db_(db), txn_(std::move(txn)) {}

  // Pooled construction; see dora/arena.h.
  explicit DoraTxn(TxnArena* home) : home_(home) {}

  Database* db() { return db_; }
  Transaction* txn() { return txn_.get(); }

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  void MarkAborted(const Status& why) {
    bool expected = false;
    if (aborted_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
      std::lock_guard<std::mutex> g(mu_);
      abort_reason_ = why;
    }
  }
  Status abort_reason() const {
    std::lock_guard<std::mutex> g(mu_);
    return abort_reason_;
  }

  // Dispatcher blocks here (closed loop) until the terminal RVP finishes.
  // Direct futex wait on the done flag — no mutex, no condvar, and none of
  // the pre-sleep spinning of std::atomic::wait, which on saturated hosts
  // only delays the executor that would set the flag.
  Status Wait() {
    while (done_.load(std::memory_order_acquire) == 0) {
      detail::FutexWait(&done_, 0, /*timeout_us=*/-1);
    }
    return result_;
  }
  void Complete(Status result) {
    result_ = std::move(result);
    done_.store(1, std::memory_order_release);
    detail::FutexWake(&done_);
  }

  // --- reference counting (arena recycling) ---

  void Ref(uint32_t n = 1) { refs_.fetch_add(n, std::memory_order_relaxed); }
  // Defined in action.cc (needs TxnArena).
  void Unref();

  // Re-arm a recycled (or fresh) context for a new client transaction.
  void Reset(Database* db, std::unique_ptr<Transaction> txn) {
    db_ = db;
    txn_ = std::move(txn);
    aborted_.store(false, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    result_ = Status::OK();
    abort_reason_ = Status::OK();
    refs_.store(1, std::memory_order_relaxed);
    prof.Reset();
  }

  // Stage-gap profiler card (obs/profiler.h): armed for sampled txns at
  // dispatch, stamped along the commit path, folded into registry
  // histograms once at completion.
  obs::StageStamps prof;

  // Materialized graph state (owned by the txn context; capacities survive
  // recycling).
  std::vector<Action> actions;                      // phase-major
  std::vector<Rvp> rvps;                            // one per phase
  std::vector<std::vector<Action*>> phase_actions;  // per phase
  std::vector<CompletionMsg> completion_msgs;       // one per participant
  std::vector<Executor*> scratch_owners;            // fan-out scratch

  size_t num_phases() const { return phase_actions.size(); }

 private:
  friend class TxnArena;

  Database* db_ = nullptr;
  std::unique_ptr<Transaction> txn_;
  TxnArena* home_ = nullptr;  // recycle target; null = standalone
  std::atomic<uint32_t> refs_{1};
  std::atomic<bool> aborted_{false};

  mutable std::mutex mu_;  // guards abort_reason_ only
  std::atomic<uint32_t> done_{0};
  Status result_;
  Status abort_reason_;
};

// Counted handle to a pooled DoraTxn. Copy = +1 ref; destruction = -1,
// recycling the context on the last release.
class DoraTxnRef {
 public:
  DoraTxnRef() = default;
  // Takes ownership of one existing reference.
  static DoraTxnRef Adopt(DoraTxn* t) {
    DoraTxnRef r;
    r.t_ = t;
    return r;
  }

  DoraTxnRef(const DoraTxnRef& o) : t_(o.t_) {
    if (t_ != nullptr) t_->Ref();
  }
  DoraTxnRef(DoraTxnRef&& o) noexcept : t_(o.t_) { o.t_ = nullptr; }
  DoraTxnRef& operator=(const DoraTxnRef& o) {
    if (this != &o) {
      if (o.t_ != nullptr) o.t_->Ref();
      Release();
      t_ = o.t_;
    }
    return *this;
  }
  DoraTxnRef& operator=(DoraTxnRef&& o) noexcept {
    if (this != &o) {
      Release();
      t_ = o.t_;
      o.t_ = nullptr;
    }
    return *this;
  }
  ~DoraTxnRef() { Release(); }

  DoraTxn* get() const { return t_; }
  DoraTxn* operator->() const { return t_; }
  DoraTxn& operator*() const { return *t_; }
  explicit operator bool() const { return t_ != nullptr; }

 private:
  void Release() {
    if (t_ != nullptr) {
      t_->Unref();
      t_ = nullptr;
    }
  }

  DoraTxn* t_ = nullptr;
};

}  // namespace dora
}  // namespace doradb

#endif  // DORADB_DORA_ACTION_H_

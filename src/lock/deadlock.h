// Deadlock detection over an explicit waits-for graph.
//
// Every blocked transaction records the set of transactions it waits for
// (snapshotted under the lock-head latch). Waiters poll the detector while
// blocked; a waiter that finds itself on a cycle self-aborts with
// Status::Deadlock, releasing its locks and breaking the cycle. A timeout
// backstop catches anything detection misses (e.g. edges that became stale
// mid-walk). Detection work is charged to TimeClass::kLockOther — the
// "Other" slice of the paper's Fig. 3 lock-manager breakdown.

#ifndef DORADB_LOCK_DEADLOCK_H_
#define DORADB_LOCK_DEADLOCK_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/types.h"
#include "util/spinlock.h"

namespace doradb {

class Transaction;

// Sharded registry of active transactions, so the detector can read a
// TxnId's waits-for edges.
class ActiveTxnTable {
 public:
  static constexpr size_t kShards = 64;

  void Register(Transaction* txn);
  void Unregister(TxnId id);
  // Copy `id`'s waits-for edges into *out; false if the transaction already
  // finished. The copy happens under the shard lock, which pins the
  // transaction: its owner unregisters it (TxnManager::Finish) before
  // freeing it. Lock order: shard lock, then the transaction's waits lock;
  // nothing takes them the other way round.
  bool WaitsForOf(TxnId id, std::vector<TxnId>* out) const;
  size_t Size() const;

 private:
  struct Shard {
    mutable TatasLock lock;
    std::unordered_map<TxnId, Transaction*> map;
  };
  Shard& ShardFor(TxnId id) { return shards_[id % kShards]; }
  const Shard& ShardFor(TxnId id) const { return shards_[id % kShards]; }

  Shard shards_[kShards];
};

class DeadlockDetector {
 public:
  explicit DeadlockDetector(ActiveTxnTable* txns) : txns_(txns) {}

  // DFS from `self` over waits-for edges; true if `self` is on a cycle.
  bool WouldDeadlock(TxnId self) const;

  uint64_t cycles_found() const {
    return cycles_found_.load(std::memory_order_relaxed);
  }

 private:
  ActiveTxnTable* const txns_;
  mutable std::atomic<uint64_t> cycles_found_{0};
};

}  // namespace doradb

#endif  // DORADB_LOCK_DEADLOCK_H_

#include "lock/deadlock.h"

#include "txn/transaction.h"

namespace doradb {

void ActiveTxnTable::Register(Transaction* txn) {
  Shard& s = ShardFor(txn->id());
  TatasGuard g(s.lock, TimeClass::kLockOther);
  s.map[txn->id()] = txn;
}

void ActiveTxnTable::Unregister(TxnId id) {
  Shard& s = ShardFor(id);
  TatasGuard g(s.lock, TimeClass::kLockOther);
  s.map.erase(id);
}

bool ActiveTxnTable::WaitsForOf(TxnId id, std::vector<TxnId>* out) const {
  const Shard& s = ShardFor(id);
  TatasGuard g(s.lock, TimeClass::kLockOther);
  auto it = s.map.find(id);
  if (it == s.map.end()) return false;
  *out = it->second->WaitsForSnapshot();
  return true;
}

size_t ActiveTxnTable::Size() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    TatasGuard g(s.lock, TimeClass::kLockOther);
    n += s.map.size();
  }
  return n;
}

bool DeadlockDetector::WouldDeadlock(TxnId self) const {
  ScopedTimeClass timer(TimeClass::kLockOther);
  // Iterative DFS; the graph is tiny (bounded by blocked transactions).
  std::vector<TxnId> stack;
  if (!txns_->WaitsForOf(self, &stack)) return false;
  std::vector<TxnId> visited;
  std::vector<TxnId> edges;
  while (!stack.empty()) {
    const TxnId cur = stack.back();
    stack.pop_back();
    if (cur == self) {
      cycles_found_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    bool seen = false;
    for (TxnId v : visited) {
      if (v == cur) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    visited.push_back(cur);
    // A finished transaction's edge is stale: skip it.
    if (!txns_->WaitsForOf(cur, &edges)) continue;
    stack.insert(stack.end(), edges.begin(), edges.end());
  }
  return false;
}

}  // namespace doradb

#include "plog/partitioned_log_manager.h"

#include <algorithm>

#include "log/segment_file.h"
#include "obs/heartbeat.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace doradb {
namespace plog {

namespace {

std::atomic<uint64_t> g_next_instance_id{1};

// Sticky thread->partition binding, per manager instance. A thread touches
// at most a handful of managers over its life (tests create several
// Databases), so a tiny linear-scanned vector beats a hash map. Entries
// for destroyed managers cannot be pruned from here (their ids are only
// known to the owning thread), so the vector is capped: evicting a live
// binding is harmless — the thread simply rebinds on its next append.
constexpr size_t kMaxBindings = 64;

struct Binding {
  uint64_t instance;
  uint32_t index;
};
thread_local std::vector<Binding> t_bindings;

uint32_t* FindBinding(uint64_t instance) {
  for (auto& b : t_bindings) {
    if (b.instance == instance) return &b.index;
  }
  return nullptr;
}

void InsertBinding(uint64_t instance, uint32_t index) {
  if (t_bindings.size() >= kMaxBindings) {
    t_bindings.erase(t_bindings.begin());  // oldest first
  }
  t_bindings.push_back(Binding{instance, index});
}

}  // namespace

PartitionedLogManager::PartitionedLogManager(Options options)
    : options_(options),
      instance_id_(g_next_instance_id.fetch_add(1,
                                                std::memory_order_relaxed)) {
  const uint32_t n = std::max<uint32_t>(1, options_.num_partitions);
  partitions_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::unique_ptr<LogStorage> storage;
    if (!options_.data_dir.empty()) {
      SegmentFileStorage::Options so;
      so.target_segment_bytes = options_.segment_target_bytes;
      storage = std::make_unique<SegmentFileStorage>(
          options_.data_dir + "/plog-" + std::to_string(i), i, so);
    }
    partitions_.push_back(
        std::make_unique<LogPartition>(&clock_, std::move(storage)));
    partitions_.back()->set_idle_sync_skip_ticks(
        options_.log.idle_sync_skip_ticks);
  }
  if (!options_.data_dir.empty()) {
    // Cold start: every partition derives its durability claim from its
    // segment files, and the shared clock resumes past the highest one so
    // no GSN is ever reissued across lifetimes.
    Lsn max_claim = 0;
    Lsn horizon = ~Lsn{0};
    for (auto& p : partitions_) {
      const Lsn claim = p->RecoverFromStorage();
      max_claim = std::max(max_claim, claim);
      horizon = std::min(horizon, claim);
    }
    // A kill can leave the streams mutually inconsistent — one partition
    // flushed ahead of another's lost tail. Do on disk what
    // DiscardVolatileTail does at an in-process crash: truncate every
    // stream to the merged horizon. Left in place, a suprahorizon record
    // would merely be hidden by this recovery's merge, then resurrected
    // by a later lifetime whose horizon has moved past it — undoing an
    // old before-image over newer committed data.
    for (auto& p : partitions_) {
      if (p->recovered_last_gsn() > horizon) p->TruncateStableTo(horizon);
    }
    clock_.AdvanceTo(max_claim);
  }
  // One flusher per partition on hardware that can host them; on smaller
  // machines each flusher thread sweeps a slice of partitions so the
  // thread count never exceeds the core count (oversubscription turns
  // latch holds into scheduling stalls).
  const uint32_t nf = std::min(n, std::max(1u, HardwareContexts()));
  flushers_.reserve(nf);
  for (uint32_t i = 0; i < nf; ++i) {
    flushers_.emplace_back([this, i, nf] { FlusherLoop(i, nf); });
  }
}

PartitionedLogManager::~PartitionedLogManager() {
  stop_.store(true, std::memory_order_release);
  for (auto& f : flushers_) {
    if (f.joinable()) f.join();
  }
  for (auto& p : partitions_) p->Flush();
}

void PartitionedLogManager::BindThisThread(uint32_t hint) {
  const uint32_t index = hint % num_partitions();
  if (uint32_t* bound = FindBinding(instance_id_)) {
    *bound = index;
  } else {
    InsertBinding(instance_id_, index);
  }
}

uint32_t PartitionedLogManager::LocalIndex() const {
  if (uint32_t* bound = FindBinding(instance_id_)) return *bound;
  const uint32_t index =
      next_unbound_.fetch_add(1, std::memory_order_relaxed) %
      num_partitions();
  InsertBinding(instance_id_, index);
  return index;
}

uint32_t PartitionedLogManager::CurrentPartition() const {
  return LocalIndex();
}

Lsn PartitionedLogManager::Append(LogRecord* rec) {
  const Lsn gsn = partitions_[LocalIndex()]->Append(rec);
  if (options_.log.synchronous) (void)WaitFlushed(gsn);
  return gsn;
}

Lsn PartitionedLogManager::flushed_lsn() const {
  Lsn h = partitions_[0]->watermark();
  for (size_t i = 1; i < partitions_.size(); ++i) {
    h = std::min(h, partitions_[i]->watermark());
  }
  return h;
}

Status PartitionedLogManager::WaitFlushed(Lsn lsn) {
  if (flushed_lsn() >= lsn) return Status::OK();
  // Self-service group commit across partitions: flush only the laggards;
  // one pass typically covers every record buffered so far system-wide.
  // (Flush() attributes its own copy work; the nap is idle, not log work.)
  for (;;) {
    for (auto& p : partitions_) {
      if (p->watermark() < lsn) {
        p->Flush();
        // A poisoned partition's watermark is frozen: if it still gates
        // `lsn`, the global horizon can never get there — bail with the
        // typed error rather than spin on an unreachable durability point.
        if (p->poisoned() && p->watermark() < lsn) {
          return Status::Unavailable("log: partition stream poisoned");
        }
      }
    }
    if (flushed_lsn() >= lsn) return Status::OK();
    NapMicros(options_.log.flush_interval_us);
  }
}

Status PartitionedLogManager::WaitFlushedFrom(uint32_t partition_hint,
                                              Lsn lsn) {
  // Flush the record's own partition eagerly, then fall through to the
  // shared laggard sweep. Other partitions normally advance on their own
  // flushers, but an IDLE partition may be deferring its watermark-only
  // header sync (idle_sync_skip_ticks), so a waiter must force laggards
  // through rather than poll the horizon forever.
  LogPartition* own = partitions_[partition_hint % partitions_.size()].get();
  if (own->watermark() < lsn) own->Flush();
  return WaitFlushed(lsn);
}

void PartitionedLogManager::DiscardVolatileTail() {
  // Crash: every partition loses its volatile buffer — independently, so
  // one partition may retain durable records whose same-transaction
  // predecessors just died in another's buffer. Do what a restart does:
  // compute the consistent horizon and truncate every stable tail to it,
  // so the surviving state is one committed prefix no matter how many
  // crash/recover cycles follow.
  Lsn horizon = ~Lsn{0};
  for (auto& p : partitions_) {
    horizon = std::min(horizon, p->DiscardVolatileAndClaim());
  }
  for (auto& p : partitions_) p->TruncateStableTo(horizon);
}

void PartitionedLogManager::SimulateKill() {
  // The process dies mid-flight: buffers vanish, the stable media keep
  // whatever bytes (and stale watermark headers) they happened to hold.
  // No truncation — a second lifetime's cold start must cope with it.
  for (auto& p : partitions_) p->Kill();
}

std::vector<LogRecord> PartitionedLogManager::ReadStable() const {
  // Per-partition decode with torn-tail tolerance, then horizon merge.
  std::vector<std::vector<LogRecord>> streams;
  Lsn horizon = ~Lsn{0};
  for (const auto& p : partitions_) {
    std::vector<LogRecord> recs = p->ReadStable(nullptr);
    // Two independently valid durability claims per partition: the
    // watermark (all its records <= w are stable — covers idle
    // partitions), and the last decodable GSN (its stable region is a
    // prefix of its append stream, so everything up to that record is
    // present — covers completed-but-unmarked partial flushes). Take the
    // stronger; a torn tail only ever truncates the unmarked suffix.
    const Lsn decoded_upto = recs.empty() ? 0 : recs.back().lsn;
    horizon = std::min(horizon, std::max(p->watermark(), decoded_upto));
    streams.push_back(std::move(recs));
  }
  std::vector<LogRecord> merged;
  for (auto& stream : streams) {
    for (auto& rec : stream) {
      // Records above the horizon may have siblings (same txn, lower GSN,
      // different partition) that were lost; dropping them restores the
      // committed-prefix property the recovery driver assumes.
      if (rec.lsn <= horizon) merged.push_back(std::move(rec));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const LogRecord& a, const LogRecord& b) {
              return a.lsn < b.lsn;
            });
  return merged;
}

void PartitionedLogManager::ReclaimStableBelow(Lsn point) {
  for (auto& p : partitions_) p->ReclaimStableBelow(point);
}

void PartitionedLogManager::ReclaimPartitionBelow(uint32_t partition,
                                                  Lsn point) {
  partitions_[partition % partitions_.size()]->ReclaimStableBelow(point);
}

uint64_t PartitionedLogManager::reclaimed_bytes() const {
  uint64_t n = 0;
  for (const auto& p : partitions_) n += p->reclaimed_bytes();
  return n;
}

void PartitionedLogManager::FlusherLoop(uint32_t index, uint32_t stride) {
  // Watchdog heartbeat: one per flusher thread, named by its stride slot.
  obs::ScopedHeartbeat hb("log.flusher.plog." + std::to_string(index));
  while (!stop_.load(std::memory_order_acquire)) {
    hb->SetStage("nap");
    hb->SetIdle(true);
    NapMicros(options_.log.flush_interval_us);
    hb->SetIdle(false);
    hb->SetStage("flush");
    for (size_t p = index; p < partitions_.size(); p += stride) {
      // Periodic flush: idle partitions may defer the watermark-only
      // header fdatasync (see LogPartition::Flush).
      partitions_[p]->Flush(/*force_watermark=*/false);
      hb->Beat();
    }
  }
}

uint64_t PartitionedLogManager::idle_syncs_skipped() const {
  uint64_t n = 0;
  for (const auto& p : partitions_) n += p->idle_syncs_skipped();
  return n;
}

uint64_t PartitionedLogManager::appends() const {
  uint64_t n = 0;
  for (const auto& p : partitions_) n += p->appends();
  return n;
}

uint64_t PartitionedLogManager::flushes() const {
  uint64_t n = 0;
  for (const auto& p : partitions_) n += p->flushes();
  return n;
}

size_t PartitionedLogManager::stable_size() const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p->stable_size();
  return n;
}

size_t PartitionedLogManager::segment_files() const {
  if (options_.data_dir.empty()) return 0;
  size_t n = 0;
  for (const auto& p : partitions_) n += p->segment_count();
  return n;
}

PageId PartitionedLogManager::recovered_max_page_id() const {
  PageId max_pid = kInvalidPageId;
  for (const auto& p : partitions_) {
    const PageId pid = p->recovered_max_page_id();
    if (pid == kInvalidPageId) continue;
    if (max_pid == kInvalidPageId || pid > max_pid) max_pid = pid;
  }
  return max_pid;
}

}  // namespace plog
}  // namespace doradb

// perf_window: one measured engine window of the repository benchmark.
//
// perfbench/run.py runs this program once per engine window, each in its
// own process, so a crash costs one window and is counted rather than
// taking the run down. One invocation:
//
//   1. sets up the workload (Database, Load, DoraEngine::Start) — timed as
//      setup_s;
//   2. runs closed-loop clients through Workload::RunDora or
//      Workload::RunBaseline for a warm-up and a measured window; with
//      --trace 1 it runs an untraced and then a traced window (commit
//      tracer on, one span per call the clients make) and reads every
//      layer's counters around them through public APIs;
//   3. with --trace 1, times the idle-database probes;
//   4. checks the workload's invariants (CheckConsistency); the durable
//      workload is then killed, destroyed and reopened over its directory,
//      recovered and checked again, and must keep every acknowledged commit
//      — the sequence restart_s times (in-memory workloads time their
//      restart in --restart-probe processes);
//   5. prints one JSON object as its last stdout line and exits 0, or 3 when
//      a check failed.
//
// Usage:
//   perf_window --workload tm1-1c|tpcb-ckpt-1c|tpcb-ckpt-4c|tpcb-durable-4c|
//                          tpcc-mix-4c
//               --engine dora|base --seed N [--window-index I]
//               [--warmup-ms M] [--window-ms M] [--windows K] [--trace 0|1]
//               [--data-dir DIR] [--spans FILE]
//               [--corrupt 1]
//   perf_window --describe              per-layer metric table as JSON
//   perf_window --recover-only --workload tpcb-durable-4c --data-dir DIR
//               reopen + Recover + checks over a crashed window's directory
//   perf_window --restart-probe --workload tm1-1c|tpcc-mix-4c
//               set up, crash and recover the freshly loaded database

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dora/dora_engine.h"
#include "engine/database.h"
#include "layers.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/rng.h"
#include "workloads/tm1/tm1.h"
#include "workloads/tpcb/tpcb.h"
#include "workloads/tpcc/tpcc.h"

using namespace doradb;
using perfbench::MetricMap;

namespace {

using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  std::string engine;
  uint64_t seed = 1;
  uint32_t window_index = 0;
  uint64_t warmup_ms = 500;
  uint64_t window_ms = 2000;
  uint32_t windows = 1;  // measured windows back to back (--trace 0)
  bool trace = false;
  std::string data_dir;
  std::string spans;
  bool corrupt = false;
  bool describe = false;
  bool recover_only = false;
  bool restart_probe = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perf_window: %s\n", why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--describe") { a.describe = true; continue; }
    if (k == "--recover-only") { a.recover_only = true; continue; }
    if (k == "--restart-probe") { a.restart_probe = true; continue; }
    if (i + 1 >= argc) Usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--engine") a.engine = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--window-index") a.window_index = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    else if (k == "--warmup-ms") a.warmup_ms = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--window-ms") a.window_ms = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--windows") a.windows = std::max<uint32_t>(1, static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10)));
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--data-dir") a.data_dir = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--corrupt") a.corrupt = v == "1";
    else Usage("unknown option " + k);
  }
  return a;
}

// The workloads. Everything not listed here is the engine default,
// so a change of default is measured as users get it.
struct WorkloadSpec {
  const char* name;
  uint32_t clients;  // capped at the hardware contexts the process may use
  bool durable;      // WAL, pages and catalog in files under --data-dir
  bool checkpointed; // 2 MiB pool, checkpoint daemon, restart after windows
};

constexpr WorkloadSpec kWorkloads[] = {
    // TATP mix, 20,000 subscribers, one client: 25% offered load on four
    // contexts, so time goes to fixed per-transaction hand-off costs.
    {"tm1-1c", 1, false, false},
    // TPC-B 8 x 10,000 accounts in a 2 MiB pool with the checkpoint daemon
    // on: the log, eviction and checkpoint layers; durable puts the WAL,
    // pages and catalog in files. One client keeps the Baseline free of
    // lock waits, deadlocks and their aborts; four bring them.
    {"tpcb-ckpt-1c", 1, false, true},
    {"tpcb-ckpt-4c", 4, false, true},
    {"tpcb-durable-4c", 4, true, true},
    // TPC-C 45/43/4/4/4 over 4 warehouses: multi-phase flow graphs, RVPs,
    // range scans, RID-locked inserts and deletes.
    {"tpcc-mix-4c", 4, false, false},
};

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint32_t UsableContexts() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Database::Options DbOptionsFor(const WorkloadSpec& spec,
                               const std::string& data_dir) {
  Database::Options o;
  if (spec.durable) o.data_dir = data_dir;
  if (spec.checkpointed) {
    o.checkpoint.enabled = true;
    o.buffer_frames = 256;  // 2 MiB: smaller than the ~5 MiB of accounts
  }
  return o;
}

tpcc::TpccWorkload::Config TpccConfig() {
  tpcc::TpccWorkload::Config c;
  // As specified: every customer has an order at load, so OrderStatus
  // finds one instead of returning NotFound for most customers.
  c.initial_orders_per_district = c.customers_per_district;
  return c;
}

// ------------------------------------------------------------- JSON output

class Json {
 public:
  Json& Key(const std::string& k) {
    Sep();
    Quote(k);
    out_ += ':';
    fresh_ = true;
    return *this;
  }
  Json& Str(const std::string& v) {
    Sep();
    Quote(v);
    return *this;
  }
  Json& Num(double v) {
    Sep();
    if (!(v == v) || v > 1e300 || v < -1e300) v = 0;  // NaN/inf guard
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& Int(uint64_t v) {
    Sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& Bool(bool v) {
    Sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Open(char c) {
    Sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& Close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  Json& Raw(const std::string& json) {
    Sep();
    out_ += json;
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  void Quote(const std::string& v) {
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  std::string out_;
  bool fresh_ = true;
};

// ------------------------------------------------------------------ spans

// One span per call the benchmark makes into a public engine function.
// Times are ns since process start; spans stay in memory and are written
// when the program ends.
struct Span {
  const char* name;
  int32_t txn_type;  // -1 for non-transaction calls
  uint64_t start_ns;
  uint64_t end_ns;
};

const SteadyClock::time_point kEpoch = SteadyClock::now();

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           kEpoch)
          .count());
}

std::vector<Span> g_call_spans;  // main-thread calls (Load, Start, ...)

template <typename F>
auto Timed(const char* name, F&& fn) {
  const uint64_t t0 = NowNs();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    g_call_spans.push_back(Span{name, -1, t0, NowNs()});
  } else {
    auto r = fn();
    g_call_spans.push_back(Span{name, -1, t0, NowNs()});
    return r;
  }
}

// ------------------------------------------------------------------ checks

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

bool AllOk(const std::vector<Check>& checks) {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

// --------------------------------------------------------------- the bench

struct Bench {
  Database::Options db_opts;
  std::unique_ptr<Database> db;
  std::unique_ptr<Workload> workload;
  tm1::Tm1Workload* tm1 = nullptr;
  tpcb::TpcbWorkload* tpcb = nullptr;
  tpcc::TpccWorkload* tpcc = nullptr;
  std::unique_ptr<dora::DoraEngine> engine;

  Status CheckConsistency() {
    if (tm1 != nullptr) return tm1->CheckConsistency();
    if (tpcb != nullptr) return tpcb->CheckConsistency();
    return tpcc->CheckConsistency();
  }

  // Modelled bytes of record data a committed transaction of `type`
  // inserts or updates: row sizes times rows written (deletes write no
  // record data). NewOrder and Delivery use the mean of 10 order lines.
  double RecordBytes(uint32_t type) const {
    if (tm1 != nullptr) {
      switch (type) {
        case tm1::kUpdateSubscriberData:
          return sizeof(tm1::SubscriberRow) + sizeof(tm1::SpecialFacilityRow);
        case tm1::kUpdateLocation: return sizeof(tm1::SubscriberRow);
        case tm1::kInsertCallForwarding:
          return sizeof(tm1::CallForwardingRow);
        default: return 0;
      }
    }
    if (tpcb != nullptr) {
      return sizeof(tpcb::AccountRow) + sizeof(tpcb::TellerRow) +
             sizeof(tpcb::BranchRow) + sizeof(tpcb::HistoryRow);
    }
    switch (type) {
      case tpcc::kNewOrder:
        return sizeof(tpcc::DistrictRow) + sizeof(tpcc::OrderRow) +
               sizeof(tpcc::NewOrderRow) +
               10 * (sizeof(tpcc::StockRow) + sizeof(tpcc::OrderLineRow));
      case tpcc::kPayment:
        return sizeof(tpcc::WarehouseRow) + sizeof(tpcc::DistrictRow) +
               sizeof(tpcc::CustomerRow) + sizeof(tpcc::HistoryRow);
      case tpcc::kDelivery:
        return 10 * (sizeof(tpcc::OrderRow) + sizeof(tpcc::CustomerRow) +
                     10 * sizeof(tpcc::OrderLineRow));
      default: return 0;
    }
  }

  // Primary-index probe of a random loaded key, for the index probe.
  Status ProbeIndex(Rng& rng) {
    IndexEntry e;
    if (tm1 != nullptr) {
      const uint64_t sid = rng.UniformInt(uint64_t{1}, tm1->config().subscribers);
      return db->catalog()->Index(tm1->schema().sub_pk)
          ->Probe(tm1::Schema::SubKey(sid), &e);
    }
    if (tpcb != nullptr) {
      const uint64_t n = tpcb->config().branches *
                         tpcb->config().accounts_per_branch;
      return db->catalog()->Index(tpcb->schema().account_pk)
          ->Probe(tpcb::Schema::Key(rng.UniformInt(uint64_t{1}, n)), &e);
    }
    const auto& c = tpcc->config();
    const auto w = static_cast<uint32_t>(rng.UniformInt(uint64_t{1}, c.warehouses));
    const auto d = static_cast<uint8_t>(rng.UniformInt(uint64_t{1}, c.districts));
    const auto cu = static_cast<uint32_t>(
        rng.UniformInt(uint64_t{1}, c.customers_per_district));
    return db->catalog()->Index(tpcc->schema().cu_pk)
        ->Probe(tpcc::Schema::CuKey(w, d, cu), &e);
  }

  // Self-test hook: commit a row that breaks the workload's invariant, so
  // the checks below must fail.
  Status Corrupt() {
    auto txn = db->Begin();
    Rid rid;
    Status s;
    const AccessOptions opts = AccessOptions::Baseline();
    if (tm1 != nullptr) {
      tm1::SubscriberRow row{};
      row.s_id = tm1->config().subscribers + 1;  // no index entries
      s = db->Insert(txn.get(), tm1->schema().subscriber, AsBytes(row), &rid,
                     opts);
    } else if (tpcb != nullptr) {
      tpcb::HistoryRow row{};
      row.b_id = 1;
      row.delta = 1;  // moves no balance
      s = db->Insert(txn.get(), tpcb->schema().history, AsBytes(row), &rid,
                     opts);
    } else {
      tpcc::OrderRow row{};
      row.w_id = 1;
      row.d_id = 1;
      row.o_id = 1u << 30;  // past D_NEXT_O_ID, without order lines
      row.ol_cnt = 5;
      s = db->Insert(txn.get(), tpcc->schema().order, AsBytes(row), &rid,
                     opts);
    }
    if (!s.ok()) {
      (void)db->Abort(txn.get());
      return s;
    }
    return db->Commit(txn.get());
  }
};

Status Setup(Bench* b, const WorkloadSpec& spec, const std::string& data_dir) {
  b->db_opts = DbOptionsFor(spec, data_dir);
  b->db = Timed("Database::Database",
                [&] { return std::make_unique<Database>(b->db_opts); });
  if (spec.name == std::string("tm1-1c")) {
    auto w = std::make_unique<tm1::Tm1Workload>(b->db.get(),
                                                tm1::Tm1Workload::Config{});
    b->tm1 = w.get();
    b->workload = std::move(w);
  } else if (std::strncmp(spec.name, "tpcb-", 5) == 0) {
    auto w = std::make_unique<tpcb::TpcbWorkload>(b->db.get(),
                                                  tpcb::TpcbWorkload::Config{});
    b->tpcb = w.get();
    b->workload = std::move(w);
  } else {
    auto w = std::make_unique<tpcc::TpccWorkload>(b->db.get(), TpccConfig());
    b->tpcc = w.get();
    b->workload = std::move(w);
  }
  const Status s = Timed("Workload::Load", [&] { return b->workload->Load(); });
  if (!s.ok()) return s;
  b->engine = std::make_unique<dora::DoraEngine>(b->db.get());
  b->workload->SetupDora(b->engine.get());
  Timed("DoraEngine::Start", [&] { b->engine->Start(); });
  return b->engine->registration_status();
}

// ----------------------------------------------------------------- clients

enum Outcome : uint8_t { kCommitted = 0, kUserAbort, kSystemAbort, kOther };
constexpr size_t kMaxTypes = 8;

// Benchmark-defined aborts (TM1's missing rows and duplicate call
// forwardings, TPC-C's 1% NewOrder rollback, NotFound lookups) count as
// done; deadlock, timeout, unavailable and indeterminate (I/O error after
// the commit append) are system aborts; any other status is a failure of
// its own kind.
Outcome Classify(const Status& s) {
  if (s.ok()) return kCommitted;
  if (s.IsAborted() || s.IsNotFound() || s.IsDuplicate()) return kUserAbort;
  if (s.IsDeadlock() || s.IsTimeout() || s.IsUnavailable() || s.IsIOError()) {
    return kSystemAbort;
  }
  return kOther;
}

struct alignas(64) ClientState {
  Rng rng;
  std::atomic<uint64_t> acked{0};  // every commit acknowledged, any phase
  uint64_t counts[kMaxTypes][4] = {};
  std::vector<uint32_t> lat_ns;
  std::vector<uint8_t> lat_type;
  std::vector<Span> spans;
  std::string first_other;
};

struct WindowResult {
  double seconds = 0;
  uint64_t counts[kMaxTypes][4] = {};
  uint64_t attempted = 0, committed = 0, user = 0, system = 0, other = 0;
  std::string other_example;
  std::vector<uint32_t> lat_ns;
  std::vector<uint8_t> lat_type;
  perfbench::LayerSnapshot before, after;
  double record_bytes = 0;

  double tps() const {
    return seconds <= 0 ? 0 : static_cast<double>(committed + user) / seconds;
  }
};

class Driver {
 public:
  Driver(Bench* b, bool dora, uint32_t clients, uint64_t seed,
         uint32_t window_index)
      : b_(b), dora_(dora), clients_(clients) {
    for (uint32_t i = 0; i < clients; ++i) {
      auto c = std::make_unique<ClientState>();
      // Same seed and window index give every client the same stream, on
      // either engine.
      c->rng = Rng(seed * 0x9E3779B97F4A7C15ull + window_index * 1000003ull +
                   i * 7919ull + 1);
      state_.push_back(std::move(c));
    }
  }

  uint64_t acked() const {
    uint64_t n = 0;
    for (const auto& c : state_) n += c->acked.load(std::memory_order_relaxed);
    return n;
  }

  // Warm up for `warmup_ms`, then measure `window_ms`. `layers` snapshots
  // every layer's counters at the window's edges; `samples` keeps each
  // transaction's latency; `spans` records one span per client call.
  WindowResult Run(uint64_t warmup_ms, uint64_t window_ms, bool layers,
                   bool samples, bool spans) {
    phase_.store(0, std::memory_order_relaxed);
    stop_.store(false, std::memory_order_relaxed);
    std::vector<std::thread> threads;
    for (uint32_t i = 0; i < clients_; ++i) {
      threads.emplace_back([this, i, samples, spans] {
        Loop(state_[i].get(), samples, spans);
      });
    }
    Sleep(warmup_ms);
    WindowResult r;
    if (layers) r.before = TakeSnapshot();
    const auto t0 = SteadyClock::now();
    phase_.store(1, std::memory_order_release);
    Sleep(window_ms);
    stop_.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    r.seconds = std::chrono::duration<double>(SteadyClock::now() - t0).count();
    if (layers) r.after = TakeSnapshot();
    for (auto& c : state_) {
      for (size_t t = 0; t < kMaxTypes; ++t) {
        for (size_t o = 0; o < 4; ++o) {
          r.counts[t][o] += c->counts[t][o];
          c->counts[t][o] = 0;
        }
      }
      r.lat_ns.insert(r.lat_ns.end(), c->lat_ns.begin(), c->lat_ns.end());
      r.lat_type.insert(r.lat_type.end(), c->lat_type.begin(),
                        c->lat_type.end());
      c->lat_ns.clear();
      c->lat_type.clear();
      if (r.other_example.empty()) r.other_example = c->first_other;
    }
    for (size_t t = 0; t < kMaxTypes; ++t) {
      r.committed += r.counts[t][kCommitted];
      r.user += r.counts[t][kUserAbort];
      r.system += r.counts[t][kSystemAbort];
      r.other += r.counts[t][kOther];
      r.record_bytes += static_cast<double>(r.counts[t][kCommitted]) *
                        b_->RecordBytes(static_cast<uint32_t>(t));
    }
    r.attempted = r.committed + r.user + r.system + r.other;
    return r;
  }

  std::vector<Span> TakeSpans() {
    std::vector<Span> out;
    for (auto& c : state_) {
      out.insert(out.end(), c->spans.begin(), c->spans.end());
      c->spans.clear();
    }
    return out;
  }

 private:
  void Sleep(uint64_t ms) {
    // Progress lines let the parent count the commits a crashed window
    // acknowledged before it died.
    const auto end = SteadyClock::now() + std::chrono::milliseconds(ms);
    while (SteadyClock::now() < end) {
      const auto step = std::min<SteadyClock::duration>(
          std::chrono::milliseconds(200), end - SteadyClock::now());
      std::this_thread::sleep_for(step);
      std::printf("progress {\"acked\":%llu}\n",
                  static_cast<unsigned long long>(acked()));
      std::fflush(stdout);
    }
  }

  perfbench::LayerSnapshot TakeSnapshot() const {
    return perfbench::LayerSnapshot::Take(b_->db.get(), b_->engine.get());
  }

  void Loop(ClientState* c, bool samples, bool spans) {
    Workload* w = b_->workload.get();
    while (!stop_.load(std::memory_order_acquire)) {
      const bool measuring = phase_.load(std::memory_order_acquire) == 1;
      const uint32_t type = w->PickTxnType(c->rng);
      const uint64_t t0 = NowNs();
      const Status s = dora_ ? w->RunDora(b_->engine.get(), type, c->rng)
                             : w->RunBaseline(type, c->rng);
      const uint64_t t1 = NowNs();
      const Outcome o = Classify(s);
      if (o == kCommitted) c->acked.fetch_add(1, std::memory_order_relaxed);
      if (!measuring) continue;
      c->counts[type][o]++;
      if (o == kOther && c->first_other.empty()) c->first_other = s.ToString();
      if (samples) {
        c->lat_ns.push_back(static_cast<uint32_t>(
            std::min<uint64_t>(t1 - t0, UINT32_MAX)));
        c->lat_type.push_back(static_cast<uint8_t>(type));
      }
      if (spans) {
        c->spans.push_back(Span{dora_ ? "Workload::RunDora"
                                      : "Workload::RunBaseline",
                                static_cast<int32_t>(type), t0, t1});
      }
    }
  }

  Bench* const b_;
  const bool dora_;
  const uint32_t clients_;
  std::vector<std::unique_ptr<ClientState>> state_;
  std::atomic<int> phase_{0};
  std::atomic<bool> stop_{false};
};

double PercentileUs(std::vector<uint32_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (v[lo] + frac * (static_cast<double>(v[hi]) - v[lo])) / 1000.0;
}

// ------------------------------------------------------------------ output

void WriteCounts(Json* j, const std::vector<std::string>& type_names,
                 const WindowResult& r) {
  j->Key("seconds").Num(r.seconds);
  j->Key("attempted").Int(r.attempted);
  j->Key("committed").Int(r.committed);
  j->Key("user_aborts").Int(r.user);
  j->Key("system_aborts").Int(r.system);
  j->Key("other_failures").Int(r.other);
  if (!r.other_example.empty()) j->Key("other_example").Str(r.other_example);
  j->Key("tps").Num(r.tps());
  j->Key("p50_us").Num(PercentileUs(r.lat_ns, 50));
  j->Key("p90_us").Num(PercentileUs(r.lat_ns, 90));
  j->Key("p99_us").Num(PercentileUs(r.lat_ns, 99));
  j->Key("samples").Int(r.lat_ns.size());
  j->Key("by_type").Open('{');
  for (size_t t = 0; t < type_names.size(); ++t) {
    j->Key(type_names[t]).Open('{');
    j->Key("attempted").Int(r.counts[t][0] + r.counts[t][1] + r.counts[t][2] +
                            r.counts[t][3]);
    j->Key("committed").Int(r.counts[t][kCommitted]);
    j->Key("user_aborts").Int(r.counts[t][kUserAbort]);
    j->Key("system_aborts").Int(r.counts[t][kSystemAbort]);
    j->Key("other_failures").Int(r.counts[t][kOther]);
    j->Close('}');
  }
  j->Close('}');
}

// The engine and workload options in force, for the run's record.
std::string OptionsJson(const Bench& b, uint32_t clients) {
  const Database::Options& o = b.db_opts;
  const dora::DoraEngine::Options& e = b.engine->options();
  Json out;
  Json* j = &out;
  j->Open('{');
  j->Key("clients").Int(clients);
  j->Key("db.buffer_frames").Int(o.buffer_frames);
  j->Key("db.durable").Bool(!o.data_dir.empty());
  j->Key("db.log_backend").Str(o.log_backend == LogBackendKind::kCentral
                                   ? "central"
                                   : "partitioned");
  j->Key("db.log_partitions").Int(o.log_partitions);
  j->Key("db.log.flush_interval_us").Int(o.log.flush_interval_us);
  j->Key("db.log.synchronous").Bool(o.log.synchronous);
  j->Key("db.log_segment_bytes").Int(o.log_segment_bytes);
  j->Key("db.checkpoint.enabled").Bool(o.checkpoint.enabled);
  j->Key("db.checkpoint.interval_us").Int(o.checkpoint.interval_us);
  j->Key("db.checkpoint.truncate").Bool(o.checkpoint.truncate);
  j->Key("db.checkpoint.partition_local").Bool(o.checkpoint.partition_local);
  j->Key("db.lock.wait_timeout_us").Int(o.lock.wait_timeout_us);
  j->Key("db.lock.detect_interval_us").Int(o.lock.detect_interval_us);
  j->Key("db.lock.deadlock_detection").Bool(o.lock.deadlock_detection);
  j->Key("db.watchdog_interval_ms").Int(o.watchdog_interval_ms);
  j->Key("dora.pin_threads").Bool(e.pin_threads);
  j->Key("dora.hold_table_locks").Bool(e.hold_table_locks);
  j->Key("dora.local_wait_timeout_us").Int(e.local_wait_timeout_us);
  j->Key("dora.pipelined_commit").Bool(e.pipelined_commit);
  j->Key("dora.epoch_batch_min").Int(e.epoch_batch_min);
  j->Key("dora.executors").Int(b.engine->AllExecutors().size());
  if (b.tm1 != nullptr) {
    j->Key("tm1.subscribers").Int(b.tm1->config().subscribers);
    j->Key("tm1.executors_per_table").Int(b.tm1->config().executors_per_table);
  } else if (b.tpcb != nullptr) {
    j->Key("tpcb.branches").Int(b.tpcb->config().branches);
    j->Key("tpcb.accounts_per_branch").Int(b.tpcb->config().accounts_per_branch);
    j->Key("tpcb.account_executors").Int(b.tpcb->config().account_executors);
  } else {
    const auto& c = b.tpcc->config();
    j->Key("tpcc.warehouses").Int(c.warehouses);
    j->Key("tpcc.customers_per_district").Int(c.customers_per_district);
    j->Key("tpcc.items").Int(c.items);
    j->Key("tpcc.initial_orders_per_district").Int(c.initial_orders_per_district);
    j->Key("tpcc.executors_per_table").Int(c.executors_per_table);
  }
  j->Close('}');
  return out.str();
}

bool WriteSpans(const std::string& path,
                const std::vector<std::string>& type_names,
                const std::string& engine,
                const std::vector<Span>& client_spans) {
  std::ofstream f(path, std::ios::trunc);
  f << "name,txn_type,engine,start_ns,end_ns\n";
  auto row = [&](const Span& s) {
    f << s.name << ','
      << (s.txn_type < 0 ? std::string() : type_names[s.txn_type]) << ','
      << engine << ',' << s.start_ns << ',' << s.end_ns << '\n';
  };
  for (const Span& s : g_call_spans) row(s);
  for (const Span& s : client_spans) row(s);
  return static_cast<bool>(f);
}

// Live record bytes (heap scan) against stored bytes (allocated pages plus
// the retained log).
double SpaceAmp(Database* db) {
  uint64_t live = 0;
  for (const auto& t : db->catalog()->tables()) {
    if (t == nullptr || t->heap == nullptr) continue;
    (void)t->heap->Scan([&](const Rid&, std::string_view rec) {
      live += rec.size();
      return true;
    });
  }
  const double stored =
      static_cast<double>(db->disk()->NumAllocated()) * kPageSize +
      static_cast<double>(db->log_manager()->stable_size());
  return live == 0 ? 0 : stored / static_cast<double>(live);
}

uint64_t CountRows(Database* db, TableId table) {
  uint64_t n = 0;
  (void)db->catalog()->Heap(table)->Scan([&](const Rid&, std::string_view) {
    ++n;
    return true;
  });
  return n;
}

// Checks a recovered TPC-B database: the balance invariant, and at least one
// history row per commit acknowledged to a client.
void CheckRecoveredTpcb(Database* db, tpcb::TpcbWorkload* w, uint64_t acked,
                        std::vector<Check>* checks, uint64_t* history_rows) {
  const Status s = w->CheckConsistency();
  checks->push_back({"recovered_balance_invariant", s.ok(), s.ToString()});
  *history_rows = CountRows(db, w->schema().history);
  const bool kept = *history_rows >= acked;
  checks->push_back({"acked_commits_durable", kept,
                     "history rows " + std::to_string(*history_rows) +
                         " vs acknowledged commits " + std::to_string(acked)});
}

// Reopen a durable TPC-B directory in a fresh Database, recover it and
// check it.
void ReopenAndCheck(const WorkloadSpec& spec, const std::string& dir,
                    uint64_t acked, std::vector<Check>* checks,
                    uint64_t* history_rows) {
  Database db(DbOptionsFor(spec, dir));
  tpcb::TpcbWorkload w(&db, tpcb::TpcbWorkload::Config{});
  Status s = w.Attach();
  if (s.ok()) s = Timed("Database::Recover", [&] { return db.Recover(); });
  checks->push_back({"recover", s.ok(), s.ToString()});
  if (s.ok()) CheckRecoveredTpcb(&db, &w, acked, checks, history_rows);
}

void WriteChecks(Json* j, const char* key, const std::vector<Check>& list) {
  j->Key(key).Open('[');
  for (const Check& c : list) {
    j->Open('{').Key("name").Str(c.name).Key("ok").Bool(c.ok);
    j->Key("detail").Str(c.detail).Close('}');
  }
  j->Close(']');
}

int Describe() {
  Json j;
  j.Open('{').Key("per_layer").Open('[');
  for (const auto& m : perfbench::LayerMetrics()) {
    j.Open('{');
    j.Key("name").Str(m.name);
    j.Key("unit").Str(m.unit);
    j.Key("better").Str(perfbench::Better(m));
    j.Key("scope").Str(m.scope == perfbench::Scope::kBoth   ? "both"
                       : m.scope == perfbench::Scope::kDora ? "dora"
                                                            : "base");
    j.Key("meaning").Str(m.meaning);
    j.Close('}');
  }
  j.Close(']').Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// In-memory media: crash the freshly loaded database and recover it. The
// stable log then holds exactly the load, so the replayed work does not
// depend on how fast a window ran. A crash drops the pool and the volatile
// log tail; the stable log and page image survive.
int RestartProbe(const WorkloadSpec& spec) {
  if (spec.checkpointed) Usage("--restart-probe is for tm1-1c and tpcc-mix-4c");
  Bench b;
  const auto t0 = SteadyClock::now();
  const Status setup = Setup(&b, spec, "");
  const double setup_s =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  if (!setup.ok()) {
    std::fprintf(stderr, "perf_window: setup failed: %s\n",
                 setup.ToString().c_str());
    return 4;
  }
  b.engine->Stop();
  const uint64_t crash_ns = NowNs();
  b.db->SimulateCrash();
  const Status s = b.db->Recover();
  const double restart_s = static_cast<double>(NowNs() - crash_ns) / 1e9;
  std::vector<Check> checks = {{"recover", s.ok(), s.ToString()}};
  // Reported, not gating: the post-recovery re-check the benchmark
  // requires is the durable workload's. On in-memory media TM1's recovered
  // sub_pk answers no probe (a known engine defect).
  std::vector<Check> findings;
  if (s.ok()) {
    const Status c = b.CheckConsistency();
    findings.push_back({"recovered_consistency", c.ok(), c.ToString()});
  }
  Json j;
  j.Open('{').Key("setup_s").Num(setup_s).Key("restart_s").Num(restart_s);
  WriteChecks(&j, "checks", checks);
  WriteChecks(&j, "findings", findings);
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
  return s.ok() ? 0 : 3;
}

int RecoverOnly(const Args& args, const WorkloadSpec& spec) {
  if (!spec.durable || args.data_dir.empty()) {
    Usage("--recover-only needs the durable workload and --data-dir");
  }
  std::vector<Check> checks;
  uint64_t history_rows = 0;
  ReopenAndCheck(spec, args.data_dir, 0, &checks, &history_rows);
  Json j;
  j.Open('{').Key("history_rows").Int(history_rows);
  WriteChecks(&j, "checks", checks);
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
  return AllOk(checks) ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.describe) return Describe();
  const WorkloadSpec* spec = FindSpec(args.workload);
  if (spec == nullptr) Usage("unknown workload '" + args.workload + "'");
  if (args.recover_only) return RecoverOnly(args, *spec);
  if (args.restart_probe) return RestartProbe(*spec);
  if (args.engine != "dora" && args.engine != "base") {
    Usage("--engine must be dora or base");
  }
  if (spec->durable && args.data_dir.empty()) {
    Usage(std::string(spec->name) + " needs --data-dir");
  }
  const bool dora = args.engine == "dora";
  const uint32_t clients = std::min(spec->clients, UsableContexts());

  Bench b;
  const auto setup_t0 = SteadyClock::now();
  const Status setup = Setup(&b, *spec, args.data_dir);
  const double setup_s =
      std::chrono::duration<double>(SteadyClock::now() - setup_t0).count();
  if (!setup.ok()) {
    std::fprintf(stderr, "perf_window: setup failed: %s\n",
                 setup.ToString().c_str());
    return 4;
  }
  rusage setup_ru{};
  getrusage(RUSAGE_SELF, &setup_ru);

  if (b.workload->NumTxnTypes() > kMaxTypes) {
    std::fprintf(stderr, "perf_window: more than %zu transaction types\n",
                 kMaxTypes);
    return 2;
  }
  std::vector<std::string> type_names;
  for (uint32_t t = 0; t < b.workload->NumTxnTypes(); ++t) {
    type_names.push_back(b.workload->TxnName(t));
  }
  const std::string options_json = OptionsJson(b, clients);
  Driver driver(&b, dora, clients, args.seed, args.window_index);
  std::vector<WindowResult> windows;
  MetricMap layers;
  uint64_t traced_txns = 0;  // transactions the commit tracer stamped
  std::vector<Span> client_spans;
  if (!args.trace) {
    // One warm-up, then `windows` measured windows back to back: the
    // parent takes medians over many short windows, so a few disturbed by
    // a neighbour on a shared host do not move them.
    for (uint32_t i = 0; i < args.windows; ++i) {
      windows.push_back(driver.Run(i == 0 ? args.warmup_ms : 0,
                                   args.window_ms, /*layers=*/false,
                                   /*samples=*/true, /*spans=*/false));
    }
  } else {
    // Untraced window: tps, counters and per-type latency. Traced window:
    // stage stamps and spans; its tps against the untraced one is the
    // tracing overhead.
    windows.push_back(driver.Run(args.warmup_ms, args.window_ms,
                                 /*layers=*/true, /*samples=*/true,
                                 /*spans=*/false));
    obs::CommitTracer::Enable(size_t{1} << 18);
    windows.push_back(driver.Run(0, args.window_ms, /*layers=*/false,
                                 /*samples=*/false, /*spans=*/true));
    obs::CommitTracer::Disable();
    client_spans = driver.TakeSpans();
    const WindowResult& u = windows[0];
    perfbench::ComputeLayers(u.before, u.after,
                             perfbench::WindowWork{u.attempted, u.record_bytes},
                             dora, &layers);
    perfbench::ComputeStageGaps(&layers, &traced_txns);
    layers["obs.trace_overhead_frac"] =
        u.tps() <= 0 ? 0 : 1.0 - windows[1].tps() / u.tps();
    layers["workloads.p99_us"] = PercentileUs(u.lat_ns, 99);
    // Per-type p50 of the untraced window.
    for (uint32_t t = 0; t < b.workload->NumTxnTypes(); ++t) {
      std::vector<uint32_t> v;
      for (size_t i = 0; i < u.lat_ns.size(); ++i) {
        if (u.lat_type[i] == t) v.push_back(u.lat_ns[i]);
      }
      layers["workloads." + type_names[t] + ".p50_us"] =
          PercentileUs(std::move(v), 50);
    }
    // Probes on the loaded, idle database.
    if (dora) {
      const TableId table = b.engine->RegisteredTables().front();
      layers["dora.probe.roundtrip_us"] =
          perfbench::MedianNs(
              [&] {
                dora::FlowGraph g;
                g.AddPhase().AddAction(
                    table, 1, dora::LocalMode::kS,
                    [](dora::ActionEnv&) { return Status::OK(); });
                (void)b.engine->Run(b.engine->BeginTxn(), std::move(g));
              },
              2000, 300) /
          1000;
    } else {
      auto txn = b.db->Begin();
      const TableId table = b.engine->RegisteredTables().front();
      layers["lock.probe.lock_release_ns"] = perfbench::MedianNs(
          [&] {
            (void)b.db->lock_manager()->LockRow(txn.get(), table,
                                                Rid{1, 1}, LockMode::kS);
            b.db->lock_manager()->ReleaseAll(txn.get());
          },
          20000, 300);
      (void)b.db->Abort(txn.get());
      layers["txn.probe.begin_commit_us"] =
          perfbench::MedianNs(
              [&] {
                auto t = b.db->Begin();
                (void)b.db->Commit(t.get());
              },
              2000, 300) /
          1000;
      Rng rng(args.seed);
      layers["storage.probe.index_probe_ns"] = perfbench::MedianNs(
          [&] { (void)b.ProbeIndex(rng); }, 20000, 300);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const uint64_t acked = driver.acked();

  // ---- correctness checks
  std::vector<Check> checks;
  if (args.corrupt) {
    const Status s = b.Corrupt();
    checks.push_back({"self_test_corruption_committed", s.ok(), s.ToString()});
  }
  Timed("DoraEngine::Stop", [&] { b.engine->Stop(); });
  const Status consistent =
      Timed("Workload::CheckConsistency", [&] { return b.CheckConsistency(); });
  checks.push_back({"consistency", consistent.ok(), consistent.ToString()});
  if (args.trace && !dora) layers["storage.space_amp"] = SpaceAmp(b.db.get());

  double restart_s = 0;
  uint64_t history_rows = 0;
  if (spec->durable) {
    // Kill, destroy, reopen over the same directory, recover: restart_s
    // covers the sequence up to Recover's return (the checks after it are
    // not timed).
    const uint64_t kill_ns = NowNs();
    b.db->SimulateKill();
    b.engine.reset();
    b.workload.reset();
    b.db.reset();
    std::vector<Check> recovery;
    ReopenAndCheck(*spec, args.data_dir, acked, &recovery, &history_rows);
    uint64_t end_ns = NowNs();
    for (const Span& s : g_call_spans) {
      if (std::strcmp(s.name, "Database::Recover") == 0) end_ns = s.end_ns;
    }
    restart_s = static_cast<double>(end_ns - kill_ns) / 1e9;
    checks.insert(checks.end(), recovery.begin(), recovery.end());
  } else if (spec->checkpointed) {
    // In-memory media: a crash drops the pool and the volatile log tail;
    // the stable log and page image survive for Recover.
    const uint64_t crash_ns = NowNs();
    b.db->SimulateCrash();
    const Status s = Timed("Database::Recover", [&] { return b.db->Recover(); });
    restart_s = static_cast<double>(NowNs() - crash_ns) / 1e9;
    checks.push_back({"recover", s.ok(), s.ToString()});
    if (s.ok()) {
      CheckRecoveredTpcb(b.db.get(), b.tpcb, acked, &checks, &history_rows);
    }
  }

  if (args.trace && !args.spans.empty() &&
      !WriteSpans(args.spans, type_names, args.engine, client_spans)) {
    std::fprintf(stderr, "perf_window: cannot write %s\n", args.spans.c_str());
    return 2;
  }

  Json j;
  j.Open('{');
  j.Key("workload").Str(spec->name);
  j.Key("engine").Str(args.engine);
  j.Key("seed").Int(args.seed);
  j.Key("window_index").Int(args.window_index);
  j.Key("trace").Bool(args.trace);
  j.Key("build_type").Str(PERFBENCH_BUILD_TYPE);
  j.Key("compiler").Str(PERFBENCH_COMPILER);
  j.Key("hw_contexts").Int(std::thread::hardware_concurrency());
  j.Key("usable_contexts").Int(UsableContexts());
  j.Key("options").Raw(options_json);
  j.Key("setup_s").Num(setup_s);
  j.Key("rss_setup_kb").Int(static_cast<uint64_t>(setup_ru.ru_maxrss));
  j.Key("rss_kb").Int(static_cast<uint64_t>(ru.ru_maxrss));
  j.Key("acked_total").Int(acked);
  if (spec->checkpointed) {
    j.Key("restart_s").Num(restart_s);
    j.Key("history_rows").Int(history_rows);
  }
  j.Key("windows").Open('[');
  for (const WindowResult& w : windows) {
    j.Open('{');
    WriteCounts(&j, type_names, w);
    j.Close('}');
  }
  j.Close(']');
  if (args.trace) {
    j.Key("traced_txns").Int(traced_txns);
    j.Key("layers").Open('{');
    for (const auto& [k, v] : layers) j.Key(k).Num(v);
    j.Close('}');
  }
  WriteChecks(&j, "checks", checks);
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  return AllOk(checks) ? 0 : 3;
}

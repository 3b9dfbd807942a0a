// Figure 1: TM1 GetSubscriberData — (a) throughput per CPU utilization as
// load increases; (b) Baseline time breakdown; (c) DORA time breakdown.
//
// Paper shape: Baseline's per-context throughput collapses (>80% drop at
// full utilization) as lock-manager contention grows to >85% of execution;
// DORA stays flat with the lock manager eliminated.

#include "bench_common.h"

using namespace doradb;
using namespace doradb::bench;

int main() {
  PrintHeader("Figure 1", "TM1 GetSubscriberData: throughput/util + breakdowns");
  auto rig = MakeTm1();

  std::printf("\n%-8s %-10s %12s %14s  %s\n", "system", "load%", "tps",
              "tps_per_load", "time breakdown");
  for (const EngineKind kind : {EngineKind::kBaseline, EngineKind::kDora}) {
    const char* name = kind == EngineKind::kBaseline ? "BASE" : "DORA";
    for (uint32_t clients : ClientLadder()) {
      ThreadStats::ResetAll();
      const BenchResult r =
          RunBench(rig.workload.get(),
                   MakeConfig(kind, rig.engine.get(), clients,
                              tm1::kGetSubscriberData));
      std::printf("%-8s %-10.0f %12.0f %14.1f  %s\n", name,
                  r.offered_load_pct, r.throughput_tps,
                  r.throughput_tps / (r.offered_load_pct / 100.0),
                  r.breakdown.Row().c_str());
      BenchJson::Default().Add(
          ResultRow("tm1_get_subscriber_data", EngineName(kind), clients, r));
    }
    std::printf("\n");
  }
  std::printf(
      "expected shape: BASE tps_per_load degrades with load while its\n"
      "lockmgr(+cont) share grows; DORA shows near-zero lock manager time\n"
      "(the 'dora' class replaces it). On few-core hosts DORA's absolute\n"
      "tps is hand-off-bound; measured numbers are in perfbench/README.md.\n");
  BenchJson::Default().Emit("fig1_tm1_getsubdata");
  return 0;
}

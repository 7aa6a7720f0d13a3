// trace_summary: loads a trace-bundle directory (the CSV layout written by
// WriteTraceBundle / the simulator) and prints a characterization report —
// per-class inventory, host utilization, and waiting-time quantiles.
//
// Usage:
//   trace_summary <trace_dir>
//   trace_summary --json <trace_dir>       # machine-readable summary
//   trace_summary --generate <trace_dir>   # synthesize a demo trace first
#include <cstdio>

#include "src/common/flags.h"
#include "src/obs/json_writer.h"
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"
#include "src/trace/workload_generator.h"

using namespace optum;

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv) || flags.positional().size() != 1) {
    std::fprintf(
        stderr,
        "usage: trace_summary [--generate] [--json] [--json-out F] [--hosts N] "
        "[--hours H] <trace_dir>\n");
    return 2;
  }
  const std::string dir = flags.positional()[0];
  const bool generate = flags.GetBool("generate", false);
  const bool json = flags.GetBool("json", false);
  const std::string json_out_path = flags.GetString("json-out", "");
  // Demo-trace shape, used with --generate.
  WorkloadConfig config;
  config.num_hosts = static_cast<int>(flags.GetInt("hosts", 48));
  config.horizon = flags.GetInt("hours", 6) * kTicksPerHour;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  if (const std::string error = flags.Validate(); !error.empty()) {
    std::fprintf(stderr, "trace_summary: %s\n", error.c_str());
    return 2;
  }

  if (generate) {
    const Workload workload = WorkloadGenerator(config).Generate();
    AlibabaBaseline scheduler;
    SimConfig sim_config;
    sim_config.pod_usage_period = 5;
    const SimResult result = Simulator(workload, sim_config, scheduler).Run();
    if (!WriteTraceBundle(result.trace, dir)) {
      std::fprintf(stderr, "failed to write trace to %s\n", dir.c_str());
      return 1;
    }
    if (!json) {
      std::printf("generated demo trace in %s\n\n", dir.c_str());
    }
  }

  TraceBundle trace;
  if (!ReadTraceBundle(dir, &trace)) {
    std::fprintf(stderr, "failed to load trace bundle from %s\n", dir.c_str());
    return 1;
  }

  const TraceSummary summary = Summarize(trace);
  if (!json_out_path.empty()) {
    // Shared checked sink (schema optum.summary.v1, as with --json).
    return obs::WriteJsonDocument(json_out_path, RenderSummaryJson(summary)) ? 0 : 1;
  }
  if (json) {
    // Same export code path as `runsim --json` (schema optum.summary.v1).
    std::printf("%s\n", RenderSummaryJson(summary).c_str());
    return 0;
  }
  std::fputs(RenderSummary(summary).c_str(), stdout);

  std::printf("\nwaiting time quantiles (s):\n");
  for (const SloClass slo : {SloClass::kBe, SloClass::kLs, SloClass::kLsr}) {
    const EmpiricalCdf cdf = WaitingTimeCdf(trace, slo);
    if (cdf.empty()) {
      continue;
    }
    std::printf("  %-4s p50=%-8.4g p90=%-8.4g p99=%-8.4g max=%.4g\n", ToString(slo),
                cdf.ValueAtPercentile(50), cdf.ValueAtPercentile(90),
                cdf.ValueAtPercentile(99), cdf.max());
  }
  return 0;
}

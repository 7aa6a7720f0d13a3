// runsim: generate a synthetic unified-scheduling workload and run it under
// any scheduler in the library, from the command line.
//
// Examples:
//   runsim --scheduler optum --hosts 96 --hours 8
//   runsim --scheduler nsigma --hosts 64 --hours 4 --seed 7
//   runsim --scheduler optum --omega_o 0.5 --omega_b 0.5 --triple-ero
//   runsim --scheduler alibaba --trace-out /tmp/trace   # persist the trace
#include <cstdio>
#include <memory>

#include "src/common/cli_options.h"
#include "src/common/flags.h"
#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/obs/decision_log.h"
#include "src/obs/hotspot.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/obs/pressure.h"
#include "src/obs/profiler.h"
#include "src/obs/schema.h"
#include "src/sched/baselines.h"
#include "src/sched/medea.h"
#include "src/serve/arrival_driver.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_stats.h"
#include "src/trace/workload_generator.h"

using namespace optum;

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: runsim [flags]\n"
      "  --scheduler S    alibaba | borg | nsigma | rc | medea | optum (default optum)\n"
      "  --hosts N        cluster size (default 64)\n"
      "  --hours H        simulated hours (default 6)\n"
      "  --seed S         workload seed (default 42)\n"
      "  --ls-load X      initial LS request load (default 0.8)\n"
      "  --be-load X      BE request-load target (default 0.25)\n"
      "  --omega_o X      Optum LS weight (default 0.7)\n"
      "  --omega_b X      Optum BE weight (default 0.3)\n"
      "  --sample X       Optum host sampling fraction (default 0.05)\n"
      "  --triple-ero     enable triple-wise ERO profiling (Optum)\n"
      "  --trace-out DIR  write the run's trace bundle as CSVs\n"
      "  --decision-log F JSONL per-placement decision traces (Optum only)\n"
      "%s%s"
      "  --json           machine-readable run summary on stdout\n"
      "  --json-out F     write the --json summary to F instead of stdout\n",
      cli::ObsOptionsHelp(), cli::BurstOptionsHelp());
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv) || flags.GetBool("help", false)) {
    PrintUsage();
    return 2;
  }

  const std::string json_out_path = flags.GetString("json-out", "");
  const bool json_out = flags.GetBool("json", false) || !json_out_path.empty();
  const cli::ObsOptions obs_opts = cli::ParseObsOptions(flags);
  const cli::BurstOptions burst_opts = cli::ParseBurstOptions(flags);
  const std::string decision_log_path = flags.GetString("decision-log", "");

  WorkloadConfig config;
  config.num_hosts = static_cast<int>(flags.GetInt("hosts", 64));
  config.horizon = flags.GetInt("hours", 6) * kTicksPerHour;
  config.seed = cli::GetSeed(flags, "seed", 42);
  config.initial_ls_request_load = flags.GetDouble("ls-load", 0.8);
  config.be_target_request_load = flags.GetDouble("be-load", 0.25);
  Workload workload = WorkloadGenerator(config).Generate();

  // Anomaly-storm overlay (DESIGN.md §13): correlated extra arrivals the
  // hotspot detector is meant to find. Injected into the arrival stream up
  // front so every scheduler sees the identical storm schedule.
  serve::ArrivalConfig burst;
  burst.burst_amplitude = burst_opts.amplitude;
  burst.burst_duration_rounds = burst_opts.duration_rounds;
  burst.burst_interval_rounds = burst_opts.interval_rounds;
  burst.burst_seed = burst_opts.seed;
  int64_t storm_pods = 0;
  if (burst.burst_enabled()) {
    burst.offered_pods_per_sec =
        burst_opts.offered_pods_per_sec > 0.0
            ? burst_opts.offered_pods_per_sec
            : static_cast<double>(config.num_hosts) / 300.0;
    burst.round_seconds = kSecondsPerTick;
    storm_pods = serve::AppendStormOverlay(burst, config.horizon,
                                           burst_opts.cpu_scale, &workload);
  }

  if (!json_out) {
    std::printf("workload: %zu apps, %zu pods, %d hosts, %lld ticks\n",
                workload.apps.size(), workload.pods.size(), config.num_hosts,
                static_cast<long long>(config.horizon));
    if (storm_pods > 0) {
      std::printf("storm overlay: %lld extra pods (amplitude %.1f, %lld-tick "
                  "storms every %lld ticks)\n",
                  static_cast<long long>(storm_pods), burst.burst_amplitude,
                  static_cast<long long>(burst.burst_duration_rounds),
                  static_cast<long long>(burst.burst_interval_rounds));
    }
  }

  SimConfig sim_config;
  sim_config.pod_usage_period = 5;

  const std::string which = flags.GetString("scheduler", "optum");
  std::unique_ptr<PlacementPolicy> policy;
  std::unique_ptr<core::OptumScheduler> optum;
  if (which == "alibaba") {
    policy = std::make_unique<AlibabaBaseline>();
  } else if (which == "borg") {
    policy = MakeBorgLike();
  } else if (which == "nsigma") {
    policy = MakeNSigmaScheduler();
  } else if (which == "rc") {
    policy = MakeResourceCentralLike();
  } else if (which == "medea") {
    policy = std::make_unique<Medea>();
  } else if (which == "optum") {
    // Profile from a reference run first, as in the paper's workflow.
    if (!json_out) {
      std::printf("profiling from a reference run...\n");
    }
    AlibabaBaseline reference;
    const SimResult ref_result = Simulator(workload, sim_config, reference).Run();
    core::OfflineProfilerConfig prof_config;
    prof_config.max_train_samples = 1500;
    prof_config.enable_triple_ero = flags.GetBool("triple-ero", false);
    core::OptumProfiles profiles =
        core::OfflineProfiler(prof_config).BuildProfiles(ref_result.trace);
    core::OptumConfig optum_config;
    optum_config.omega_o = flags.GetDouble("omega_o", 0.7);
    optum_config.omega_b = flags.GetDouble("omega_b", 0.3);
    optum_config.sample_fraction = flags.GetDouble("sample", 0.05);
    optum_config.use_triple_ero = flags.GetBool("triple-ero", false);
    optum = std::make_unique<core::OptumScheduler>(std::move(profiles), optum_config);
    sim_config.on_tick_end = [&optum](const ClusterState& cluster, Tick now) {
      optum->ObserveColocation(cluster, now);
    };
  } else {
    PrintUsage();
    return 2;
  }

  // Observability wiring (DESIGN.md §9): open every requested sink file,
  // collect them into one obs::Sinks surface, and attach that surface to
  // the simulator config, the active policy, and the pressure monitor. The
  // registry collects per-tick sim.* gauges for any scheduler; the Optum
  // scheduler additionally publishes its hot-path timers, counters, and
  // predictor-cache gauges.
  obs::MetricRegistry registry;
  obs::Sinks sinks;
  std::unique_ptr<obs::DecisionLog> decision_log;
  std::unique_ptr<obs::SpanLog> span_log;
  std::unique_ptr<obs::TimeSeriesRecorder> series;
  std::unique_ptr<obs::HotspotLog> hotspot_log;
  std::unique_ptr<obs::HostPressureMonitor> monitor;
  std::unique_ptr<obs::ProfileLog> profile_log;
  std::unique_ptr<obs::RoundProfiler> profiler;
  if (obs_opts.wants_metrics()) {
    sinks.metrics = &registry;
  }
  if (obs_opts.wants_profile()) {
    profiler = std::make_unique<obs::RoundProfiler>();
    if (!obs_opts.profile_json.empty()) {
      profile_log = std::make_unique<obs::ProfileLog>(obs_opts.profile_json);
      if (!profile_log->ok()) {
        return 1;  // OpenJsonSink already reported the failure
      }
      profiler->set_log(profile_log.get());
    }
    sinks.profile = profiler.get();
  }
  if (!decision_log_path.empty()) {
    if (!optum) {
      std::fprintf(stderr, "--decision-log requires --scheduler optum\n");
      return 2;
    }
    decision_log = std::make_unique<obs::DecisionLog>(decision_log_path);
    if (!decision_log->ok()) {
      return 1;  // OpenJsonSink already reported the failure
    }
    sinks.decision_log = decision_log.get();
  }
  if (!obs_opts.span_log.empty()) {
    span_log = std::make_unique<obs::SpanLog>(obs_opts.span_log);
    if (!span_log->ok()) {
      return 1;  // OpenJsonSink already reported the failure
    }
    if (sinks.metrics != nullptr) {
      span_log->AttachMetrics(&registry);
    }
    sinks.span_log = span_log.get();
  }
  if (!obs_opts.series_json.empty()) {
    series = std::make_unique<obs::TimeSeriesRecorder>(
        &registry, obs_opts.series_json, obs_opts.series_ring);
    if (!series->ok()) {
      return 1;  // OpenJsonSink already reported the failure
    }
    sinks.series = series.get();
  }
  if (!obs_opts.hotspot_log.empty()) {
    hotspot_log = std::make_unique<obs::HotspotLog>(obs_opts.hotspot_log);
    if (!hotspot_log->ok()) {
      return 1;  // OpenJsonSink already reported the failure
    }
    sinks.hotspot_log = hotspot_log.get();
  }

  // Host-pressure sensing (DESIGN.md §13): the monitor rides the simulator
  // tick; under Optum the pressure signal folds in the predicted resident
  // interference from the ERO-backed predictor, otherwise it is
  // capacity-only.
  if (obs_opts.wants_pressure()) {
    monitor = std::make_unique<obs::HostPressureMonitor>(
        static_cast<size_t>(config.num_hosts),
        obs::HostPressureMonitor::Options{});
    monitor->AttachSinks(sinks, "sim");
    sim_config.pressure = monitor.get();
    if (optum) {
      core::OptumScheduler* opt = optum.get();
      sim_config.pressure_interference = [opt](const Host& host,
                                               double cpu_util,
                                               double mem_util) {
        return opt->interference_predictor().ResidentInterference(
            host, cpu_util, mem_util, /*weight_ls=*/1.0, /*weight_be=*/0.0);
      };
    }
  }

  PlacementPolicy& active = optum ? *optum : *policy;
  sim_config.sinks = sinks;
  active.AttachSinks(sinks);
  const SimResult result = Simulator(workload, sim_config, active).Run();

  const TraceSummary trace_summary = Summarize(result.trace);
  if (json_out) {
    obs::JsonWriter w;
    w.BeginObject();
    w.KV("schema", obs::kRunsimSchema);
    w.KV("scheduler", active.name());
    w.KV("hosts", config.num_hosts);
    w.KV("horizon_ticks", config.horizon);
    w.KV("seed", static_cast<int64_t>(config.seed));
    w.KV("scheduled_pods", result.scheduled_pods);
    w.KV("never_scheduled_pods", result.never_scheduled_pods);
    w.KV("avg_cpu_util_nonidle", result.MeanCpuUtilNonIdle());
    w.KV("avg_mem_util_nonidle", result.MeanMemUtilNonIdle());
    w.KV("violation_rate", result.violation_rate());
    w.KV("oom_kills", result.oom_kills);
    w.KV("preemptions", result.preemptions);
    w.Key("summary");
    w.RawValue(RenderSummaryJson(trace_summary));
    w.EndObject();
    if (!json_out_path.empty()) {
      if (!obs::WriteJsonDocument(json_out_path, w.str())) {
        return 1;
      }
    } else {
      std::printf("%s\n", w.str().c_str());
    }
  } else {
    std::printf("\n[%s]\n", active.name().c_str());
    std::printf("  scheduled pods:        %lld (pending at end: %lld)\n",
                static_cast<long long>(result.scheduled_pods),
                static_cast<long long>(result.never_scheduled_pods));
    std::printf("  avg CPU util (busy):   %.4f\n", result.MeanCpuUtilNonIdle());
    std::printf("  avg mem util (busy):   %.4f\n", result.MeanMemUtilNonIdle());
    std::printf("  usage violation rate:  %.5f\n", result.violation_rate());
    std::printf("  OOM kills / preempts:  %lld / %lld\n",
                static_cast<long long>(result.oom_kills),
                static_cast<long long>(result.preemptions));
    std::printf("\n%s", RenderSummary(trace_summary).c_str());
  }

  if (!obs_opts.metrics_json.empty()) {
    if (!registry.WriteJsonFile(obs_opts.metrics_json)) {
      return 1;  // WriteJsonDocument already reported the failure
    }
    if (!json_out) {
      std::printf("\nmetrics written to %s\n", obs_opts.metrics_json.c_str());
    }
  }
  if (decision_log != nullptr && !json_out) {
    std::printf("decision log: %lld records in %s\n",
                static_cast<long long>(decision_log->records_written()),
                decision_log_path.c_str());
  }
  if (span_log != nullptr && !json_out) {
    std::printf("span log: %lld records in %s\n",
                static_cast<long long>(span_log->records_written()),
                obs_opts.span_log.c_str());
  }
  if (series != nullptr && !json_out) {
    std::printf("series: %lld samples in %s (ring %zu)\n",
                static_cast<long long>(series->samples_written()),
                obs_opts.series_json.c_str(), series->ring_capacity());
  }
  if (hotspot_log != nullptr) {
    hotspot_log->Flush();
    if (!json_out) {
      std::printf("hotspot log: %lld episodes in %s\n",
                  static_cast<long long>(monitor->detector().events_emitted()),
                  obs_opts.hotspot_log.c_str());
    }
  }
  if (monitor != nullptr && !obs_opts.slo_json.empty()) {
    if (!monitor->WriteSloJson(obs_opts.slo_json)) {
      return 1;  // WriteJsonDocument already reported the failure
    }
    if (!json_out) {
      std::printf("slo accounting written to %s\n", obs_opts.slo_json.c_str());
    }
  }
  if (profiler != nullptr) {
    // The simulator already called Finalize() at the horizon; repeated
    // finalization is a no-op, so this also covers early-exit paths.
    profiler->Finalize();
    if (!obs_opts.profile_collapsed.empty() &&
        !profiler->WriteCollapsed(obs_opts.profile_collapsed)) {
      std::fprintf(stderr, "failed to write %s\n",
                   obs_opts.profile_collapsed.c_str());
      return 1;
    }
    if (!json_out) {
      std::printf("profile: %lld windows over %lld ticks\n",
                  static_cast<long long>(profiler->windows_flushed()),
                  static_cast<long long>(profiler->rounds_profiled()));
    }
  }

  const std::string trace_out = flags.GetString("trace-out", "");
  if (!trace_out.empty()) {
    if (!WriteTraceBundle(result.trace, trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("\ntrace bundle written to %s\n", trace_out.c_str());
  }
  return 0;
}

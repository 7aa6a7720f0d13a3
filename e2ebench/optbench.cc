// optbench: the repository's end-to-end benchmark binary (see README.md in
// this directory for the workloads, metrics and how to read the output).
//
//   optbench --workload serve-storm|sim-closed-loop
//            --seed N --seconds S --trace 0|1 [--size full|smoke]
//            [--scratch DIR]
//
// One run: run the workload's fixed, seed-determined episode again and
// again until --seconds are used up, setting up (reference workload,
// reference run, profile training) before each of the first few. A serve
// episode builds its own fleet and warms it up before its timed rounds. Every
// episode of one seed must reproduce the same placement digest and the
// same deterministic metrics; a run that breaks an output check prints
// "correct": false. Each timed step reports its fastest repetition.
//
// With --trace 1 the run records spans around every call it makes into the
// library, prints the per-layer table, writes the spans as JSONL into the
// scratch directory and reports the per-layer metrics. Untraced and traced
// episodes alternate in a traced run, so the tracing overhead is measured
// on the same inputs.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics (name -> {value, unit}).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/core/optum_system.h"
#include "src/obs/pressure.h"
#include "src/obs/sinks.h"
#include "src/obs/span_log.h"
#include "src/sched/baselines.h"
#include "src/serve/placement_service.h"
#include "src/sim/simulator.h"
#include "src/stats/rng.h"
#include "src/trace/workload_generator.h"

namespace optbench {
namespace {

using optum::ClusterState;
using optum::Host;
using optum::HostId;
using optum::PodId;
using optum::PodSpec;
using optum::Tick;
using optum::Workload;

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string scratch = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "optbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "optbench: bad --seed %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0) ||
          args->seconds > 3600.0) {
        std::fprintf(stderr, "optbench: bad --seconds %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "optbench: --trace takes 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") {
        std::fprintf(stderr, "optbench: --size takes full or smoke\n");
        return false;
      }
      args->smoke = value == "smoke";
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else {
      std::fprintf(stderr, "optbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload != "serve-storm" && args->workload != "sim-closed-loop") {
    std::fprintf(stderr, "optbench: unknown --workload '%s'\n",
                 args->workload.c_str());
    return false;
  }
  return true;
}

// The application population, the reference trace and the profiles trained
// on it are fixed; the command-line seed drives the traffic (arrival
// counts, residency, which pods of the closed-loop trace run). A
// different catalog would change the cost of every layer, so the
// seed-to-seed spread would measure the catalog rather than the system.
constexpr uint64_t kPopulationSeed = 42;
// Places serve-storm's storms (see MakeServeConfig).
constexpr uint64_t kStormSeed = 65;

// Independent streams from the one command-line seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- helpers

// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

// Middle value; the mean of the two middle values for an even count.
double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Wait percentile (q in [0, 100]) in model seconds. The library counts a
// pod's wait in whole steps (service rounds, simulator ticks) between the
// step it arrived in and the step that placed it. Arrivals are spread
// evenly over a step, so a pod that waited w whole steps waited between w
// and w + 1 steps from its arrival to the end of the step that placed it;
// the percentile is read off that piecewise-linear distribution. It moves
// smoothly with the counts, where a whole-step percentile jumps by a full
// step as soon as one pod crosses it.
double WaitPercentile(std::vector<int64_t> steps_waited, double q,
                      double step_seconds) {
  if (steps_waited.empty()) {
    return 0.0;
  }
  std::sort(steps_waited.begin(), steps_waited.end());
  const double target = q / 100.0 * static_cast<double>(steps_waited.size());
  size_t before = 0;
  while (before < steps_waited.size()) {
    size_t end = before;
    while (end < steps_waited.size() && steps_waited[end] == steps_waited[before]) {
      ++end;
    }
    if (static_cast<double>(end) >= target) {
      const double within = (target - static_cast<double>(before)) /
                            static_cast<double>(end - before);
      return (static_cast<double>(steps_waited[before]) + within) * step_seconds;
    }
    before = end;
  }
  return static_cast<double>(steps_waited.back() + 1) * step_seconds;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// FNV-1a over (step, pod id, host) triples in placement order.
struct Digest {
  uint64_t hash = 0xcbf29ce484222325ULL;
  int64_t placements = 0;

  void Add(int64_t step, PodId pod, HostId host) {
    const int64_t words[3] = {step, static_cast<int64_t>(pod),
                              static_cast<int64_t>(host)};
    for (int64_t word : words) {
      uint64_t w = static_cast<uint64_t>(word);
      for (int b = 0; b < 8; ++b) {
        hash ^= w & 0xffU;
        hash *= 0x100000001b3ULL;
        w >>= 8;
      }
    }
    ++placements;
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
    return buf;
  }
  bool operator==(const Digest& other) const {
    return hash == other.hash && placements == other.placements;
  }
};

// Metrics in emission order; a name is set once, to a finite value.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    for (const Entry& e : entries_) {
      if (e.name == name) {
        std::fprintf(stderr, "optbench: metric %s set twice\n", name.c_str());
        std::abort();
      }
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "optbench: metric %s is not finite\n", name.c_str());
      std::abort();
    }
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-32s %16.6g %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// Output checks of one run; every failure is printed and makes the run
// incorrect.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      std::printf("CHECK FAILED: %s\n", what.c_str());
      ++failures_;
    }
  }
  bool ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

// ------------------------------------------------------------ shared setup

struct Sizes {
  int reference_hosts = 64;
  Tick reference_horizon = optum::kTicksPerDay;
  int setup_reps = 3;
  // Serve workloads.
  int serve_hosts = 6000;
  int prefill_per_host = 8;
  // Rounds per episode: untimed warm-up rounds, then timed ones. A freshly
  // built service starts with cold caches (evaluation memo, predictor
  // caches), and its first 15 or so rounds run two to five times slower
  // than later ones, and far less steadily. Those rounds are set-up, not
  // steady service: setup_s includes them, the timed phase starts after
  // them.
  int64_t serve_warmup_rounds = 20;
  int64_t serve_rounds = 100;
  double load_scale = 1.0;  // arrival rates scale with the fleet
  // Closed loop.
  int sim_hosts = 2000;
  // Crosses the first reprofile (tick 120, after the one-hour warm-up) and
  // gives every episode over 100 steps.
  Tick sim_horizon = 125;
  // Probes (traced run only).
  size_t probe_pairs = 20000;
  size_t probe_place_pods = 1000;
  size_t forest_rows_per_batch_size = 100000;
};

Sizes MakeSizes(bool smoke) {
  Sizes s;
  if (smoke) {
    s.reference_hosts = 24;
    s.reference_horizon = 6 * optum::kTicksPerHour;
    s.setup_reps = 2;
    s.serve_hosts = 200;
    s.serve_warmup_rounds = 5;
    s.serve_rounds = 20;
    s.load_scale = 200.0 / 6000.0;
    s.sim_hosts = 48;
    s.probe_pairs = 500;
    s.probe_place_pods = 50;
    s.forest_rows_per_batch_size = 2000;
  }
  return s;
}

// The application population and the offline profiles every workload
// starts from: a reference (production-like) scheduler runs a generated
// trace, and Optum's Offline Profiler trains on it (paper §4.2, Fig. 17).
struct Reference {
  Workload workload;
  optum::core::OptumProfiles profiles;
};

Reference BuildReference(const Sizes& sizes, SpanRecorder* rec) {
  Reference ref;
  {
    Scope s(rec, "trace.generate");
    optum::WorkloadConfig config;
    config.num_hosts = sizes.reference_hosts;
    config.horizon = sizes.reference_horizon;
    config.seed = kPopulationSeed;
    ref.workload = optum::WorkloadGenerator(config).Generate();
  }
  optum::SimResult reference_result;
  {
    Scope s(rec, "sim.reference_run");
    optum::AlibabaBaseline policy;
    optum::SimConfig config;
    config.pod_usage_period = 5;
    config.node_usage_period = 2;
    config.max_attempts_per_tick = 1500;
    reference_result = optum::Simulator(ref.workload, config, policy).Run();
  }
  {
    Scope s(rec, "core.profile_build");
    optum::core::OfflineProfilerConfig config;
    config.max_train_samples = 1500;
    ref.profiles =
        optum::core::OfflineProfiler(config).BuildProfiles(reference_result.trace);
  }
  return ref;
}

// Everything an episode reports. Deterministic fields are compared across
// the episodes of one run.
struct EpisodeResult {
  // Placements the episode's checks can see in every episode: the serve
  // rounds (not the drain), or every closed-loop commit.
  Digest digest;
  // Every placement, the serve drain's included; only the episode that
  // logged its drain has it (serve), otherwise it equals `digest`.
  Digest full_digest;
  // Wall time of each library call the timed phase makes, in order: one
  // RunRounds(1) per serve round, one closed-loop tick per sim step. The
  // tail is what follows the last step (serve Drain(), the simulator's
  // final bookkeeping); a negative tail was not timed.
  std::vector<double> step_ms;
  double tail_ms = -1.0;
  double timed_s = 0.0;
  double cpu_s = 0.0;
  int64_t arrivals = 0;
  int64_t placed = 0;
  int64_t timed_placed = 0;  // placed after the serve warm-up rounds
  // Serve set-up repeated by every episode: fleet prefill and construction,
  // then the warm-up rounds.
  double prefill_s = 0.0;
  double warmup_s = 0.0;
  int64_t rejected_full = 0;
  // The library's own latency row (serve), which covers the drain too.
  double latency_row_mean = 0.0;
  double latency_row_p99 = 0.0;
  // False for a serve episode that did not log its drain: full_digest and
  // the per-pod wait percentiles are then unknown.
  bool full = true;
  // Deterministic end-to-end metrics.
  double unplaced_frac = 0.0;
  double wait_s_p50 = 0.0;
  double wait_s_p99 = 0.0;
  double cpu_util = 0.0;
  double pressure_p99 = 0.0;
  double violation_rate = 0.0;
  // Serve layer.
  int64_t conflicts = 0;
  int64_t schedule_rounds = 0;
  int64_t rounds = 0;
  std::vector<double> queue_depth;
  double drain_s = 0.0;
  int64_t drain_rounds = 0;
  // Closed loop layer.
  int64_t reprofiles = 0;
  int64_t place_calls = 0;

  bool SameOutputs(const EpisodeResult& o) const {
    if (full && o.full &&
        !(full_digest == o.full_digest && wait_s_p50 == o.wait_s_p50 &&
          wait_s_p99 == o.wait_s_p99)) {
      return false;
    }
    return digest == o.digest && arrivals == o.arrivals && placed == o.placed &&
           rejected_full == o.rejected_full &&
           latency_row_mean == o.latency_row_mean &&
           latency_row_p99 == o.latency_row_p99 &&
           unplaced_frac == o.unplaced_frac && cpu_util == o.cpu_util &&
           violation_rate == o.violation_rate &&
           pressure_p99 == o.pressure_p99 && conflicts == o.conflicts &&
           schedule_rounds == o.schedule_rounds && rounds == o.rounds &&
           drain_rounds == o.drain_rounds && reprofiles == o.reprofiles &&
           place_calls == o.place_calls;
  }
};

// Per-pod (pod, host) pairs the probes evaluate, drawn from the workload's
// own placements and the final cluster's hosts.
struct ProbeInputs {
  std::vector<PodSpec> pods;
  std::vector<HostId> hosts;
};

ProbeInputs MakeProbeInputs(const ClusterState& cluster,
                            const std::vector<PodSpec>& placed_pods,
                            size_t pairs, uint64_t seed) {
  ProbeInputs in;
  optum::Rng rng(seed);
  if (placed_pods.empty() || cluster.num_hosts() == 0) {
    return in;
  }
  for (size_t i = 0; i < pairs; ++i) {
    in.pods.push_back(placed_pods[rng.NextBelow(placed_pods.size())]);
    in.hosts.push_back(static_cast<HostId>(rng.NextBelow(cluster.num_hosts())));
  }
  return in;
}

// Keeps probe results observable so the timed calls are not optimized out.
volatile double g_probe_sink = 0.0;

// Probes: time single layers against the final cluster on fresh schedulers
// built from the run's profiles. Each probe gets its own scheduler, so each
// starts with cold caches, as a scheduler does after construction or a
// profile swap.
void RunProbes(const Args& args, const Sizes& sizes,
               const optum::core::OptumProfiles& profiles,
               const ClusterState& cluster,
               const std::vector<PodSpec>& placed_pods, SpanRecorder* rec,
               MetricSet* layer) {
  namespace core = optum::core;
  const ProbeInputs in = MakeProbeInputs(cluster, placed_pods, sizes.probe_pairs,
                                         DeriveSeed(args.seed, 9));
  const size_t n = in.pods.size();
  Scope probes(rec, "bench.probes");
  double sink = 0.0;
  // Runs body() inside a span covering `units` calls; returns ns per unit.
  auto probe = [rec](const char* span, size_t units, const auto& body) {
    const int64_t t0 = NowNs();
    {
      Scope s(rec, span, -1, static_cast<int64_t>(units));
      body();
    }
    const int64_t ns = NowNs() - t0;
    return units > 0 ? static_cast<double>(ns) / static_cast<double>(units) : 0.0;
  };

  // Predicted post-placement utilization of each pair, from the first probe;
  // the interference and forest probes evaluate at these points.
  std::vector<double> cpu_util(n);
  std::vector<double> mem_util(n);
  {
    core::OptumScheduler fresh(profiles);
    layer->Set("core.usage_predict_ns",
               probe("core.usage_predict", n,
                     [&] {
                       for (size_t i = 0; i < n; ++i) {
                         const Host& host = cluster.host(in.hosts[i]);
                         const optum::Resources u =
                             fresh.usage_predictor().PredictHost(host, &in.pods[i]);
                         cpu_util[i] = u.cpu / host.capacity.cpu;
                         mem_util[i] = u.mem / host.capacity.mem;
                       }
                     }),
               "ns");
  }
  {
    core::OptumScheduler fresh(profiles);
    layer->Set("core.predict_ns",
               probe("core.predict", n,
                     [&] {
                       for (size_t i = 0; i < n; ++i) {
                         sink += fresh.interference_predictor().Predict(
                             in.pods[i].app, cpu_util[i], mem_util[i]);
                       }
                     }),
               "ns");
  }
  {
    core::OptumScheduler fresh(profiles);
    layer->Set("core.eval_host_ns",
               probe("core.eval_host", n,
                     [&] {
                       for (size_t i = 0; i < n; ++i) {
                         sink += fresh.EvaluateHost(in.pods[i],
                                                    cluster.host(in.hosts[i]))
                                     .score;
                       }
                     }),
               "ns");
  }
  {
    core::OptumScheduler fresh(profiles);
    const size_t pods = std::min(sizes.probe_place_pods, n);
    layer->Set("core.place_scored_us",
               1e-3 * probe("core.place_scored", pods,
                            [&] {
                              for (size_t i = 0; i < pods; ++i) {
                                double score = 0.0;
                                sink += static_cast<double>(
                                    fresh.PlaceScored(in.pods[i], cluster, &score)
                                        .host);
                              }
                            }),
               "us");
  }

  // Forest inference on the profiles' own models (in app id order), with
  // rows laid out as the interference predictor lays out Eq. 9/10 features.
  constexpr size_t kRowsPerModel = 64;
  std::vector<optum::AppId> ids;
  for (const auto& [id, model] : profiles.apps) {
    if (model.usable()) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  std::vector<const core::AppModel*> models;
  std::vector<std::vector<double>> rows;
  std::vector<size_t> widths;
  for (optum::AppId id : ids) {
    const core::AppModel* model = profiles.Find(id);
    const bool ls = optum::IsLatencySensitive(model->stats.slo);
    std::vector<double> model_rows;
    for (size_t r = 0; r < kRowsPerModel; ++r) {
      const size_t at = n > 0 ? (models.size() * kRowsPerModel + r) % n : 0;
      model_rows.push_back(model->stats.max_pod_cpu_util);
      model_rows.push_back(model->stats.max_pod_mem_util);
      model_rows.push_back(n > 0 ? cpu_util[at] : 0.5);
      model_rows.push_back(n > 0 ? mem_util[at] : 0.5);
      if (ls) {
        model_rows.push_back(1.0);
      }
    }
    models.push_back(model);
    rows.push_back(std::move(model_rows));
    widths.push_back(ls ? core::kLsFeatureCount : core::kBeFeatureCount);
  }
  std::vector<double> out(kRowsPerModel);
  for (const size_t batch : {size_t{1}, kRowsPerModel}) {
    // Whole passes over every model until the row budget is reached.
    const size_t passes =
        models.empty() ? 0
                       : (sizes.forest_rows_per_batch_size +
                          models.size() * kRowsPerModel - 1) /
                             (models.size() * kRowsPerModel);
    const size_t total_rows = passes * models.size() * kRowsPerModel;
    const double ns_per_row = probe(
        batch == 1 ? "ml.forest_b1" : "ml.forest_b64", total_rows, [&] {
          for (size_t pass = 0; pass < passes; ++pass) {
            for (size_t m = 0; m < models.size(); ++m) {
              const size_t w = widths[m];
              for (size_t r = 0; r < kRowsPerModel; r += batch) {
                models[m]->model->PredictBatch(
                    std::span<const double>(rows[m].data() + r * w, batch * w), w,
                    std::span<double>(out.data(), batch));
                sink += out[0];
              }
            }
          }
        });
    layer->Set(batch == 1 ? "ml.forest_ns_per_row_b1" : "ml.forest_ns_per_row_b64",
               ns_per_row, "ns");
  }
  g_probe_sink = sink;
}

// Fleet quality at the end of an episode under the §13 pressure model
// (obs/pressure.h): a non-idle host is in SLO violation when its raw
// pressure — utilization plus the predicted interference per resident
// LS/LSR pod — reaches the SLO threshold. `usage` gives a host's CPU/mem
// usage: measured demand in the simulator, the scheduler's own Eq. 6
// prediction in the placement service (which has no usage model of its
// own).
struct FleetQuality {
  double cpu_util = 0.0;        // mean over non-idle hosts
  double pressure_p99 = 0.0;    // over non-idle hosts
  double violation_rate = 0.0;  // share of non-idle hosts at the threshold
};

template <class UsageFn>
FleetQuality MeasureFleet(const ClusterState& cluster,
                          const optum::core::InterferencePredictor& predictor,
                          UsageFn usage) {
  const optum::obs::PressureConfig pressure;
  double util_sum = 0.0;
  std::vector<double> pressures;
  for (const Host& host : cluster.hosts()) {
    if (host.pods.empty()) {
      continue;
    }
    const optum::Resources used = usage(host);
    optum::obs::HostPressureInput in;
    in.cpu_util = used.cpu / host.capacity.cpu;
    in.mem_util = used.mem / host.capacity.mem;
    int32_t counts[optum::kNumSloClasses];
    optum::CountPodsBySlo(host, counts);
    const int32_t ls = counts[static_cast<size_t>(optum::SloClass::kLs)] +
                       counts[static_cast<size_t>(optum::SloClass::kLsr)];
    if (ls > 0) {
      in.interference = predictor.ResidentInterference(host, in.cpu_util,
                                                       in.mem_util, 1.0, 0.0) /
                        static_cast<double>(ls);
    }
    util_sum += in.cpu_util;
    pressures.push_back(optum::obs::RawPressure(pressure, in));
  }
  FleetQuality q;
  if (!pressures.empty()) {
    const double n = static_cast<double>(pressures.size());
    q.cpu_util = util_sum / n;
    q.pressure_p99 = Percentile(pressures, 99.0);
    q.violation_rate =
        static_cast<double>(std::count_if(pressures.begin(), pressures.end(),
                                          [&](double p) {
                                            return p >= pressure.slo_threshold;
                                          })) /
        n;
  }
  return q;
}

// ---------------------------------------------------------------- serve

constexpr PodId kPrefillIdBase = 1'000'000'000;

struct ServeFleet {
  std::unique_ptr<ClusterState> cluster;
  std::unique_ptr<optum::serve::PlacementService> service;
};

optum::serve::ServeConfig MakeServeConfig(const Args& args, const Sizes& sizes) {
  optum::serve::ServeConfig config;
  config.distributed.num_schedulers = 4;
  config.pipeline_depth = 2;
  config.arrival.seed = DeriveSeed(args.seed, 4);
  config.residency_seed = DeriveSeed(args.seed, 5);
  // Diurnal arrivals: a round is 5 model minutes, so an episode's 120 rounds
  // span ten hours of the pattern, over which the rate falls from 420 to
  // 180 pods per round (the day's mean is 300, 0.59 of the round cap).
  // Storms of 8x the rate (the serve storm of tests/pressure_slo_test.cc)
  // last 3 rounds, one per 25-round window. While the rate is high a storm
  // brings more than the admission queue's 4 x 1,024 pods (the capacity of
  // tests/serve_test.cc), so the queue fills and rejects, and the backlog
  // outlasts the storm. Residency is exponential with a mean of 60 rounds,
  // as in bench_hotpath's serve section.
  config.arrival.process = optum::serve::ArrivalProcess::kDiurnal;
  config.arrival.round_seconds = 300.0;
  config.arrival.offered_pods_per_sec = 300.0 * sizes.load_scale / 300.0;
  config.arrival.burst_amplitude = 8.0;
  config.arrival.burst_duration_rounds = 3;
  config.arrival.burst_interval_rounds = 25;
  // Storm timing is part of the scenario, not of the seed: storms that land
  // at a different phase of the diurnal cycle change queueing far more than
  // the seed's Poisson noise does. With this storm seed the storms start at
  // rounds 20, 37, 67, 92 and 117: none falls in the warm-up, and the
  // episode ends on one, so Drain() empties a full queue.
  config.arrival.burst_seed = kStormSeed;
  config.queue_capacity_per_shard =
      std::max<size_t>(16, static_cast<size_t>(1024.0 * sizes.load_scale));
  config.mean_residency_rounds = 60.0;
  return config;
}

ServeFleet BuildServeFleet(const Args& args, const Sizes& sizes,
                           const Reference& ref) {
  ServeFleet fleet;
  fleet.cluster = std::make_unique<ClusterState>(
      sizes.serve_hosts, optum::kUnitResources, /*history_window=*/64);
  const std::vector<const optum::AppProfile*> catalog =
      optum::SchedulableApps(ref.workload);
  PodId id = kPrefillIdBase;
  for (int h = 0; h < sizes.serve_hosts; ++h) {
    for (int k = 0; k < sizes.prefill_per_host; ++k) {
      const optum::AppProfile& app =
          *catalog[static_cast<size_t>(id) % catalog.size()];
      fleet.cluster->Place(optum::MakePodSpec(id, app), &app, h, 0);
      ++id;
    }
  }
  fleet.service = std::make_unique<optum::serve::PlacementService>(
      ref.workload, ref.profiles, fleet.cluster.get(), MakeServeConfig(args, sizes));
  return fleet;
}

// Reads the placed transitions of an optum.spans.v1 file in commit order.
struct PlacedEvent {
  int64_t tick;
  PodId pod;
  HostId host;
  int64_t wait;
};
std::vector<PlacedEvent> ReadPlacedSpans(const std::string& path) {
  std::vector<PlacedEvent> events;
  std::ifstream in(path);
  std::string line;
  auto field = [&line](const char* key) -> int64_t {
    const size_t at = line.find(key);
    return at == std::string::npos
               ? -1
               : std::strtoll(line.c_str() + at + std::strlen(key), nullptr, 10);
  };
  while (std::getline(in, line)) {
    if (line.find("\"phase\":\"placed\"") == std::string::npos) {
      continue;
    }
    events.push_back({field("\"tick\":"), static_cast<PodId>(field("\"pod\":")),
                      static_cast<HostId>(field("\"host\":")), field("\"wait\":")});
  }
  return events;
}

// One serve episode: fixed rounds of RunRounds(1), then Drain. The digest
// folds (round, pod, host) for every placement the rounds make, ordered by
// round and then pod id: after each round the benchmark scans the hosts
// whose change_epoch moved for pods scheduled in that round (placements
// cannot depart in their own round). Drain is a single call whose pods may
// depart before it returns, so its placements can only be read from a span
// log. With `log_drain` the episode attaches one for the drain and folds
// the drain's placements into full_digest; the log's I/O then runs inside
// Drain(), so that episode's drain is not timed.
EpisodeResult RunServeEpisode(const Args& args, const Sizes& sizes,
                              ServeFleet* fleet, bool log_drain,
                              SpanRecorder* rec, int64_t* step_id,
                              Checks* checks, std::vector<PodSpec>* placed_pods) {
  EpisodeResult r;
  ClusterState& cluster = *fleet->cluster;
  optum::serve::PlacementService& service = *fleet->service;
  const double round_seconds = MakeServeConfig(args, sizes).arrival.round_seconds;
  std::vector<uint64_t> seen_epoch(cluster.num_hosts());
  for (size_t h = 0; h < cluster.num_hosts(); ++h) {
    seen_epoch[h] = cluster.host(static_cast<HostId>(h)).change_epoch;
  }
  // arrivals_through[k] = pods emitted in rounds 0..k. Ids are dense from 0
  // in arrival order, so pod p arrived in the first round k with
  // arrivals_through[k] > p.
  std::vector<int64_t> arrivals_through;
  std::vector<int64_t> waits_rounds;
  std::vector<std::pair<PodId, HostId>> fresh;
  // Folds this round's placements into the digest and the per-pod waits.
  auto record_round = [&](int64_t round) {
    arrivals_through.push_back(service.counters().arrivals);
    fresh.clear();
    for (size_t h = 0; h < cluster.num_hosts(); ++h) {
      const Host& host = cluster.host(static_cast<HostId>(h));
      if (host.change_epoch == seen_epoch[h]) {
        continue;
      }
      seen_epoch[h] = host.change_epoch;
      for (const optum::PodRuntime* pod : host.pods) {
        if (pod->scheduled_at == round && pod->spec.id < kPrefillIdBase) {
          fresh.emplace_back(pod->spec.id, host.id);
        }
      }
    }
    std::sort(fresh.begin(), fresh.end());
    for (const auto& [pod, host] : fresh) {
      r.digest.Add(round, pod, host);
      const int64_t submit =
          std::upper_bound(arrivals_through.begin(), arrivals_through.end(),
                           static_cast<int64_t>(pod)) -
          arrivals_through.begin();
      waits_rounds.push_back(round - submit);
    }
  };

  const std::string drain_log_path = args.scratch + "/drain-spans.jsonl";
  std::unique_ptr<optum::obs::SpanLog> drain_log;
  if (log_drain) {
    drain_log = std::make_unique<optum::obs::SpanLog>(drain_log_path);
    checks->Expect(drain_log->ok(), "drain span log opens");
  }
  // Warm-up rounds (see Sizes): set-up, so not part of the timed phase.
  // Only the library calls count towards warmup_s, as for timed steps.
  for (int64_t k = 0; k < sizes.serve_warmup_rounds; ++k) {
    const int64_t t0 = NowNs();
    service.RunRounds(1);
    r.warmup_s += static_cast<double>(NowNs() - t0) * 1e-9;
    record_round(service.round());
  }
  const int64_t placed_before = service.counters().placed;
  optum::serve::ServeCounters before_drain;
  optum::serve::AdmissionStats adm_before;
  size_t depth_before = 0;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t_start = NowNs();
  {
    Scope timed(rec, "bench.timed");
    for (int64_t k = 0; k < sizes.serve_rounds; ++k) {
      const int64_t t0 = NowNs();
      {
        Scope s(rec, "serve.round", *step_id);
        service.RunRounds(1);
      }
      r.step_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      Scope d(rec, "bench.digest", *step_id);
      ++*step_id;
      record_round(service.round());
      r.queue_depth.push_back(static_cast<double>(service.queue_depth()));
    }
    before_drain = service.counters();
    adm_before = service.admission_stats();
    depth_before = service.queue_depth();

    if (drain_log != nullptr) {
      optum::obs::Sinks sinks;
      sinks.span_log = drain_log.get();
      service.AttachSinks(sinks);
    }
    const int64_t t0 = NowNs();
    {
      Scope s(rec, "serve.drain", *step_id);
      r.drain_rounds = service.Drain();
    }
    r.drain_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (drain_log == nullptr) {
      r.tail_ms = r.drain_s * 1e3;
    }
  }
  r.timed_s = static_cast<double>(NowNs() - t_start) * 1e-9;
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  checks->Expect(before_drain.arrivals == before_drain.placed +
                                              adm_before.rejected_full +
                                              before_drain.dropped +
                                              static_cast<int64_t>(depth_before),
                 "serve conservation before drain: arrivals = placed + "
                 "rejected_full + dropped + queue depth");
  checks->Expect(r.digest.placements == before_drain.placed,
                 "serve digest covers every placement before drain");

  r.full_digest = r.digest;
  if (drain_log != nullptr) {
    service.AttachSinks(optum::obs::Sinks{});
    drain_log.reset();  // flushes and closes the file
    std::vector<PlacedEvent> drained = ReadPlacedSpans(drain_log_path);
    std::remove(drain_log_path.c_str());
    std::sort(drained.begin(), drained.end(),
              [](const PlacedEvent& a, const PlacedEvent& b) {
                return a.tick != b.tick ? a.tick < b.tick : a.pod < b.pod;
              });
    for (const PlacedEvent& e : drained) {
      r.full_digest.Add(e.tick, e.pod, e.host);
      waits_rounds.push_back(e.wait);
    }
  }

  const optum::serve::ServeCounters& c = service.counters();
  const optum::serve::AdmissionStats adm = service.admission_stats();
  const optum::serve::LatencyRow row = service.MakeLatencyRow();
  checks->Expect(c.arrivals == c.placed + adm.rejected_full + c.dropped +
                                   static_cast<int64_t>(service.queue_depth()),
                 "serve conservation after drain: arrivals = placed + "
                 "rejected_full + dropped + queue depth");
  checks->Expect(service.queue_depth() == 0, "drain empties the queue");
  checks->Expect(row.placed == c.placed && row.arrivals == c.arrivals,
                 "latency row agrees with the service counters");
  r.full = log_drain;
  if (log_drain) {
    checks->Expect(r.full_digest.placements == c.placed,
                   "serve digest covers every placement");
    // The latency row's mean against the per-pod waits the benchmark
    // derived from pod ids and round boundaries on its own.
    const double own_mean =
        Mean(std::vector<double>(waits_rounds.begin(), waits_rounds.end())) *
        round_seconds;
    checks->Expect(std::fabs(own_mean - row.latency_s_mean) <=
                       1e-9 * std::max(1.0, std::fabs(own_mean)),
                   "latency row mean matches per-pod waits");
    r.wait_s_p50 = WaitPercentile(waits_rounds, 50.0, round_seconds);
    r.wait_s_p99 = WaitPercentile(waits_rounds, 99.0, round_seconds);
  }

  r.arrivals = c.arrivals;
  r.placed = c.placed;
  r.timed_placed = c.placed - placed_before;
  r.rejected_full = adm.rejected_full;
  r.conflicts = c.conflicts;
  r.schedule_rounds = c.schedule_rounds;
  r.rounds = c.rounds;
  r.latency_row_mean = row.latency_s_mean;
  r.latency_row_p99 = row.latency_s_p99;
  r.unplaced_frac = c.arrivals > 0
                        ? static_cast<double>(adm.rejected_full + c.dropped) /
                              static_cast<double>(c.arrivals)
                        : 0.0;

  const optum::core::OptumScheduler& shard0 = service.coordinator().shard(0);
  const FleetQuality quality = MeasureFleet(
      cluster, shard0.interference_predictor(), [&shard0](const Host& host) {
        return shard0.usage_predictor().PredictHost(host, nullptr);
      });
  r.cpu_util = quality.cpu_util;
  r.pressure_p99 = quality.pressure_p99;
  r.violation_rate = quality.violation_rate;

  if (placed_pods != nullptr) {
    placed_pods->clear();
    for (const Host& host : cluster.hosts()) {
      for (const optum::PodRuntime* pod : host.pods) {
        if (pod->spec.id < kPrefillIdBase) {
          placed_pods->push_back(pod->spec);
        }
      }
    }
  }
  return r;
}

// ---------------------------------------------------------- closed loop

// Forwarding decorator: times Place and folds committed placements into the
// digest in commit order.
class TimedPolicy : public optum::PlacementPolicy {
 public:
  TimedPolicy(optum::PlacementPolicy& inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  optum::PlacementDecision Place(const PodSpec& pod, const optum::AppProfile& app,
                                 const ClusterState& cluster) override {
    ++calls_;
    Scope s(rec_, "core.place", step_);
    return inner_.Place(pod, app, cluster);
  }
  void OnPodPlaced(const optum::PodRuntime& pod, const ClusterState& cluster) override {
    digest_.Add(cluster.now(), pod.spec.id, pod.host);
    inner_.OnPodPlaced(pod, cluster);
  }
  void OnPodFinished(const optum::PodRuntime& pod,
                     const ClusterState& cluster) override {
    inner_.OnPodFinished(pod, cluster);
  }
  std::string name() const override { return inner_.name(); }

  void set_step(int64_t step) { step_ = step; }
  int64_t calls() const { return calls_; }
  const Digest& digest() const { return digest_; }

 private:
  optum::PlacementPolicy& inner_;
  SpanRecorder* rec_;
  int64_t step_ = -1;
  int64_t calls_ = 0;
  Digest digest_;
};

// The closed-loop trace: the generator runs with the reference trace's seed,
// so the loop sees the application population its bootstrap profiles were
// trained on, and the command-line seed then keeps each pod with
// probability kSimKeepProbability. Ids are renumbered densely in submit
// order, as the simulator indexes per-pod state by id.
constexpr double kSimKeepProbability = 0.9;

Workload GenerateSimWorkload(const Args& args, const Sizes& sizes,
                             SpanRecorder* rec) {
  Scope s(rec, "trace.generate");
  optum::WorkloadConfig config;
  config.num_hosts = sizes.sim_hosts;
  config.horizon = sizes.sim_horizon;
  config.seed = kPopulationSeed;
  Workload full = optum::WorkloadGenerator(config).Generate();
  Workload thinned;
  thinned.config = full.config;
  thinned.apps = std::move(full.apps);
  optum::Rng keep(DeriveSeed(args.seed, 7));
  for (PodSpec& pod : full.pods) {
    if (keep.NextDouble() < kSimKeepProbability) {
      pod.id = static_cast<PodId>(thinned.pods.size());
      thinned.pods.push_back(pod);
    }
  }
  return thinned;
}

// Hook timings of the traced closed-loop episodes.
struct SimTimings {
  std::vector<double> hook_ms;      // ticks that did not reprofile
  std::vector<double> reprofile_s;  // ticks that did
};

EpisodeResult RunSimEpisode(const Reference& ref,
                            const Workload& workload, SpanRecorder* rec,
                            int64_t* step_id, Checks* checks,
                            std::vector<PodSpec>* placed_pods,
                            std::unique_ptr<ClusterState>* final_cluster,
                            SimTimings* timings) {
  namespace core = optum::core;
  EpisodeResult r;
  core::OptumSystemConfig system_config;
  system_config.reprofile_period = 2 * optum::kTicksPerHour;
  system_config.warmup = optum::kTicksPerHour;
  system_config.profiler.max_train_samples = 800;
  core::OptumSystem system(system_config, ref.profiles);
  TimedPolicy policy(system, rec);

  optum::SimConfig config;
  config.pod_usage_period = 5;
  config.node_usage_period = 2;
  config.max_attempts_per_tick = 1500;
  config.num_threads = 4;

  // A step runs from the end of one tick-end callback to the end of the
  // next; the tick span is drawn afterwards around the Place and hook spans
  // recorded in between.
  int64_t prev_end = 0;
  size_t first_child = 0;
  config.on_tick_end = [&](const ClusterState& cluster, Tick now) {
    {
      const int64_t reprofiles = system.reprofile_count();
      Scope hook(rec, "core.tick_hook", *step_id);
      const int64_t h0 = NowNs();
      system.OnTickEnd(cluster, now);
      const double hook_s = static_cast<double>(NowNs() - h0) * 1e-9;
      if (system.reprofile_count() != reprofiles) {
        hook.Rename("core.reprofile");
        if (timings != nullptr) {
          timings->reprofile_s.push_back(hook_s);
        }
      } else if (timings != nullptr) {
        timings->hook_ms.push_back(hook_s * 1e3);
      }
    }
    const int64_t end = NowNs();
    r.step_ms.push_back(static_cast<double>(end - prev_end) * 1e-6);
    if (rec != nullptr) {
      rec->Wrap("sim.tick", prev_end, end, *step_id, first_child);
      first_child = rec->size();
    }
    prev_end = end;
    ++*step_id;
    policy.set_step(*step_id);
  };

  optum::Simulator sim(workload, config, policy);
  policy.set_step(*step_id);
  const double cpu0 = ProcessCpuSeconds();
  optum::SimResult result;
  {
    Scope timed(rec, "bench.timed");
    prev_end = NowNs();
    first_child = rec != nullptr ? rec->size() : 0;
    const int64_t t_start = prev_end;
    result = sim.Run();
    const int64_t end = NowNs();
    if (rec != nullptr) {
      rec->Wrap("sim.finalize", prev_end, end, -1, first_child);
    }
    r.tail_ms = static_cast<double>(end - prev_end) * 1e-6;
    r.timed_s = static_cast<double>(end - t_start) * 1e-9;
  }
  r.cpu_s = ProcessCpuSeconds() - cpu0;

  const int64_t pods = static_cast<int64_t>(workload.pods.size());
  checks->Expect(result.scheduled_pods + result.never_scheduled_pods == pods,
                 "sim conservation: scheduled + never_scheduled = pods");
  checks->Expect(policy.digest().placements >= result.scheduled_pods,
                 "every scheduled pod passed through the placement hook");
  checks->Expect(system.reprofile_count() >= 1,
                 "the closed loop crossed at least one reprofile");
  checks->Expect(static_cast<Tick>(r.step_ms.size()) == workload.config.horizon,
                 "one tick-end callback per tick");

  r.digest = policy.digest();
  r.full_digest = r.digest;
  r.arrivals = pods;
  r.placed = policy.digest().placements;
  r.timed_placed = r.placed;
  r.place_calls = policy.calls();
  r.reprofiles = system.reprofile_count();
  r.unplaced_frac = pods > 0 ? static_cast<double>(result.never_scheduled_pods) /
                                   static_cast<double>(pods)
                             : 0.0;
  // Per-pod scheduling wait in ticks; pods that never waited count as 0.
  std::vector<int64_t> waits(static_cast<size_t>(pods) -
                                 std::min(result.waits.size(),
                                          static_cast<size_t>(pods)),
                             0);
  for (const optum::WaitSample& w : result.waits) {
    waits.push_back(std::llround(w.waited_seconds / optum::kSecondsPerTick));
  }
  r.wait_s_p50 = WaitPercentile(waits, 50.0, optum::kSecondsPerTick);
  r.wait_s_p99 = WaitPercentile(waits, 99.0, optum::kSecondsPerTick);
  r.cpu_util = result.MeanCpuUtilNonIdle();
  r.violation_rate = result.violation_rate();
  r.pressure_p99 =
      MeasureFleet(sim.cluster(), system.scheduler().interference_predictor(),
                   [](const Host& host) { return host.demand; })
          .pressure_p99;

  if (placed_pods != nullptr) {
    placed_pods->clear();
    for (const Host& host : sim.cluster().hosts()) {
      for (const optum::PodRuntime* pod : host.pods) {
        placed_pods->push_back(pod->spec);
      }
    }
  }
  if (final_cluster != nullptr) {
    // The probes need the final cluster after the simulator is gone; rebuild
    // it pod by pod in host order.
    auto copy = std::make_unique<ClusterState>(
        static_cast<int>(sim.cluster().num_hosts()), optum::kUnitResources, 64);
    for (const Host& host : sim.cluster().hosts()) {
      for (const optum::PodRuntime* pod : host.pods) {
        copy->Place(pod->spec, pod->app, host.id, pod->scheduled_at);
      }
    }
    *final_cluster = std::move(copy);
  }
  return r;
}

// ----------------------------------------------------------------- main

// A run repeats the episode at least kMinRepetitions times (no fewer than
// the set-ups, which precede the first episodes), and then for as long as
// the next repetition is expected to end within --seconds of the run's
// start: the slowest repetition so far, set-up included, must still fit.
// On a shared 4-vCPU x86 VM a serve-storm episode took 4-12 s with its
// fleet and warm-up, and a closed-loop one 6-11 s, depending on the host's
// load.
constexpr int kMinRepetitions = 3;

// Per-step fastest repetition of a group of episodes, and its total.
struct FastestSteps {
  std::vector<double> step_ms;
  double wall_s = 0.0;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const Sizes sizes = MakeSizes(args.smoke);
  const bool serve = args.workload != "sim-closed-loop";
  Checks checks;
  SpanRecorder recorder;
  SpanRecorder* rec = args.trace ? &recorder : nullptr;

  // Set-up, several times: before each of the first setup_reps episodes,
  // so that the episodes spread over the whole run (see "Timings" below).
  // Every set-up builds the same reference; each episode uses the latest.
  std::vector<double> setup_s;
  Reference ref;
  ServeFleet fleet;
  Workload sim_workload;
  auto set_up = [&] {
    const int64_t t0 = NowNs();
    Scope setup(rec, "bench.setup");
    if (!serve) {
      sim_workload = GenerateSimWorkload(args, sizes, rec);
    }
    ref = Reference{};  // frees the last reference before building anew
    ref = BuildReference(sizes, rec);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  };
  // Median over the set-ups of one phase's time: the summed duration of the
  // spans with that name directly under each bench.setup span (traced run).
  auto phase_median = [&recorder](const char* name) {
    const std::vector<Span>& spans = recorder.spans();
    std::vector<double> per_setup;
    for (size_t root = 0; root < spans.size(); ++root) {
      if (std::strcmp(spans[root].name, "bench.setup") != 0) {
        continue;
      }
      double sum = 0.0;
      for (const Span& s : spans) {
        if (s.parent == static_cast<int32_t>(root) &&
            std::strcmp(s.name, name) == 0) {
          sum += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        }
      }
      per_setup.push_back(sum);
    }
    return Median(per_setup);
  };

  // Timed phase: the workload's episode, repeated. Every repetition does
  // exactly the same work (the checks below compare their digests). A
  // traced run alternates untraced and traced repetitions, and ends after a
  // traced one, so the tracing overhead compares like with like. The first
  // repetition also logs the serve drain (see RunServeEpisode).
  const int min_total = args.trace ? 4 : kMinRepetitions;
  const int64_t run_start = NowNs();
  double longest_s = 0.0;
  std::vector<EpisodeResult> episodes;  // untraced, reported
  std::vector<EpisodeResult> traced;
  std::vector<PodSpec> placed_pods;
  std::unique_ptr<ClusterState> sim_final;
  SimTimings sim_timings;
  int64_t step_id = 0;
  for (int e = 0;; ++e) {
    const double elapsed_s = static_cast<double>(NowNs() - run_start) * 1e-9;
    if (e >= min_total && e % (args.trace ? 2 : 1) == 0 &&
        elapsed_s + longest_s > args.seconds) {
      break;
    }
    const int64_t episode_start = NowNs();
    fleet = ServeFleet{};  // one fleet at a time; it refers to `ref`
    if (e < sizes.setup_reps) {
      set_up();
    }
    const bool trace_this = args.trace && e % 2 == 1;
    SpanRecorder* episode_rec = trace_this ? rec : nullptr;
    // A serve episode starts on a fresh fleet; the rest of its set-up, the
    // warm-up rounds, runs inside RunServeEpisode.
    double prefill_s = 0.0;
    if (serve) {
      const int64_t t0 = NowNs();
      fleet = BuildServeFleet(args, sizes, ref);
      prefill_s = static_cast<double>(NowNs() - t0) * 1e-9;
    }
    EpisodeResult result =
        serve ? RunServeEpisode(args, sizes, &fleet, /*log_drain=*/e == 0,
                                episode_rec, &step_id, &checks, &placed_pods)
              : RunSimEpisode(ref, sim_workload, episode_rec, &step_id,
                              &checks, &placed_pods, &sim_final,
                              trace_this ? &sim_timings : nullptr);
    result.prefill_s = prefill_s;
    (trace_this ? traced : episodes).push_back(std::move(result));
    longest_s = std::max(longest_s,
                         static_cast<double>(NowNs() - episode_start) * 1e-9);
  }

  // Every repetition must reproduce the first one's outputs.
  const EpisodeResult& first = episodes.front();
  for (const auto* group : {&episodes, &traced}) {
    for (const EpisodeResult& ep : *group) {
      checks.Expect(ep.SameOutputs(first),
                    "episode reproduces the first episode's digest and "
                    "deterministic metrics");
    }
  }
  if (args.workload == "serve-storm" && !args.smoke) {
    checks.Expect(first.rejected_full > 0 && first.drain_rounds > 0,
                  "serve-storm overflows the admission queue and leaves a "
                  "backlog for the drain");
  }
  std::printf("workload %s seed %llu: %zu untraced, %zu traced episodes\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              episodes.size(), traced.size());
  std::printf("digest %s placements %lld\n", first.full_digest.Hex().c_str(),
              static_cast<long long>(first.full_digest.placements));

  // Timings. The machine's noise (other tenants on shared cores and caches)
  // only ever slows a call down, and it comes and goes, from single steps
  // to spells of minutes. Each step therefore counts its fastest
  // repetition: the step's own cost plus the least noise seen. The
  // repetitions are spread over the whole run, so a slow spell slows only
  // some of them; a spell that outlasts the run slows them all. A lower
  // quartile or a median over the repetitions spread more from run to run
  // on serve-storm (README.md, "Measured spread"). The timed phase's wall
  // is the sum of those step times.
  auto fastest_steps = [](const std::vector<EpisodeResult>& eps) {
    FastestSteps f;
    f.step_ms = eps.front().step_ms;
    double tail_ms = std::numeric_limits<double>::infinity();
    for (const EpisodeResult& ep : eps) {
      for (size_t k = 0; k < f.step_ms.size(); ++k) {
        f.step_ms[k] = std::min(f.step_ms[k], ep.step_ms[k]);
      }
      if (ep.tail_ms >= 0.0) {
        tail_ms = std::min(tail_ms, ep.tail_ms);
      }
    }
    double total_ms = std::isfinite(tail_ms) ? tail_ms : 0.0;
    for (double ms : f.step_ms) {
      total_ms += ms;
    }
    f.wall_s = total_ms * 1e-3;
    return f;
  };
  const FastestSteps untraced_steps = fastest_steps(episodes);
  auto placed_per_s = [&first](const FastestSteps& f) {
    return f.wall_s > 0 ? static_cast<double>(first.timed_placed) / f.wall_s
                        : 0.0;
  };

  MetricSet e2e;
  // Set-up: the median of the run's reference set-ups, plus, for serve, the
  // median over untraced episodes of the episode's own set-up (fleet and
  // warm-up rounds), which precedes every serve episode's first timed step.
  std::vector<double> prefill_s, warmup_s;
  for (const EpisodeResult& ep : episodes) {
    prefill_s.push_back(ep.prefill_s);
    warmup_s.push_back(ep.warmup_s);
  }
  e2e.Set("setup_s", Median(setup_s) + Median(prefill_s) + Median(warmup_s), "s");
  e2e.Set("placed_per_s", placed_per_s(untraced_steps), "1/s");
  e2e.Set("step_ms_p50", Percentile(untraced_steps.step_ms, 50.0), "ms");
  e2e.Set("step_ms_p90", Percentile(untraced_steps.step_ms, 90.0), "ms");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  e2e.Set("placed_frac", 1.0 - first.unplaced_frac, "ratio");
  e2e.Set("wait_s_p50", first.wait_s_p50, "model_s");
  e2e.Set("wait_s_p99", first.wait_s_p99, "model_s");
  e2e.Set("cpu_util", first.cpu_util, "ratio");
  e2e.Set("pressure_p99", first.pressure_p99, "ratio");

  MetricSet layer;
  if (args.trace) {
    const EpisodeResult& t = traced.front();
    layer.Set("unplaced_frac", first.unplaced_frac, "ratio");
    layer.Set("violation_rate", first.violation_rate, "ratio");
    layer.Set("trace.generate_s", phase_median("trace.generate"), "s");
    layer.Set("sim.reference_run_s", phase_median("sim.reference_run"), "s");
    layer.Set("core.profile_build_s", phase_median("core.profile_build"), "s");
    layer.Set("serve.prefill_s", Median(prefill_s), "s");
    layer.Set("serve.warmup_s", Median(warmup_s), "s");

    const std::vector<int64_t> self = recorder.SelfTimes();
    std::vector<double> tick_self, place_us;
    for (size_t i = 0; i < recorder.spans().size(); ++i) {
      const Span& s = recorder.spans()[i];
      if (std::strcmp(s.name, "sim.tick") == 0) {
        // Tick self time: the step minus its Place and hook spans.
        tick_self.push_back(static_cast<double>(self[i]) * 1e-6);
      } else if (std::strcmp(s.name, "core.place") == 0) {
        place_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      }
    }
    layer.Set("sim.tick_self_ms_p50", Percentile(tick_self, 50.0), "ms");
    layer.Set("sim.tick_self_ms_p90", Percentile(tick_self, 90.0), "ms");
    layer.Set("core.tick_hook_ms_p50", Percentile(sim_timings.hook_ms, 50.0), "ms");
    layer.Set("core.reprofile_s", Mean(sim_timings.reprofile_s), "s");
    layer.Set("core.place_us_p50", Percentile(place_us, 50.0), "us");
    layer.Set("core.place_us_p90", Percentile(place_us, 90.0), "us");
    layer.Set("core.place_calls", static_cast<double>(t.place_calls), "count");

    const ClusterState& probe_cluster = serve ? *fleet.cluster : *sim_final;
    RunProbes(args, sizes, ref.profiles, probe_cluster, placed_pods, rec,
              &layer);

    layer.Set("core.conflicts_per_placed",
              t.placed > 0 ? static_cast<double>(t.conflicts) /
                                 static_cast<double>(t.placed)
                           : 0.0,
              "ratio");
    layer.Set("core.batch_rounds_per_round",
              t.rounds > 0 ? static_cast<double>(t.schedule_rounds) /
                                 static_cast<double>(t.rounds)
                           : 0.0,
              "ratio");
    layer.Set("serve.queue_depth_p50", Percentile(t.queue_depth, 50.0), "pods");
    layer.Set("serve.queue_depth_max", Percentile(t.queue_depth, 100.0), "pods");
    layer.Set("serve.placed_per_round_mean",
              t.rounds > 0 ? static_cast<double>(t.placed) /
                                 static_cast<double>(t.rounds)
                           : 0.0,
              "pods");
    layer.Set("serve.drain_s", serve ? t.drain_s : 0.0, "s");
    layer.Set("serve.drain_rounds", static_cast<double>(t.drain_rounds), "count");

    double cpu = 0.0;
    double wall = 0.0;
    for (const EpisodeResult& ep : episodes) {
      cpu += ep.cpu_s;
      wall += ep.timed_s;
    }
    layer.Set("proc.cores_busy", wall > 0 ? cpu / wall : 0.0, "cores");
    const double untraced_rate = placed_per_s(untraced_steps);
    const double traced_rate = placed_per_s(fastest_steps(traced));
    const double overhead_pct =
        traced_rate > 0 ? 100.0 * (untraced_rate / traced_rate - 1.0) : 0.0;
    layer.Set("proc.trace_overhead_pct", overhead_pct, "%");

    std::printf("\nset-up (median of %d, s): generate %.3f  reference run %.3f  "
                "profile build %.3f  prefill %.3f  warm-up %.3f\n",
                sizes.setup_reps, phase_median("trace.generate"),
                phase_median("sim.reference_run"),
                phase_median("core.profile_build"), Median(prefill_s),
                Median(warmup_s));
    std::printf("\ntimed phase of the traced episodes (self time = span minus "
                "child spans):\n");
    PrintLayerTable(BuildLayerTable(recorder, "bench.timed"), overhead_pct);
    std::printf("\nprobes (after the timed phase, fresh schedulers, cold caches):\n");
    const LayerTable probes = BuildLayerTable(recorder, "bench.probes");
    for (const LayerRow& row : probes.rows) {
      std::printf("  %-22s %10lld units %12.1f ns/unit\n", row.name.c_str(),
                  static_cast<long long>(row.units),
                  row.units > 0 ? static_cast<double>(row.total_ns) /
                                      static_cast<double>(row.units)
                                : 0.0);
    }
    const std::string trace_path =
        args.scratch + "/spans-" + args.workload + "-" +
        std::to_string(args.seed) + ".jsonl";
    checks.Expect(recorder.WriteJsonl(trace_path), "span file writes");
    std::printf("spans written to %s\n", trace_path.c_str());
  }

  std::printf("\nend-to-end metrics:\n");
  e2e.Print();
  if (args.trace) {
    std::printf("per-layer metrics:\n");
    layer.Print();
  }

  int64_t attempted = 0;
  for (const auto* group : {&episodes, &traced}) {
    for (const EpisodeResult& ep : *group) {
      attempted += ep.arrivals;
    }
  }
  const int64_t failed = checks.ok() ? 0 : attempted;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              checks.ok() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              (args.trace ? layer : e2e).Json().c_str());
  return 0;
}

}  // namespace
}  // namespace optbench

int main(int argc, char** argv) { return optbench::Main(argc, argv); }

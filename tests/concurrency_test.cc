// Observer invariance of Optum's candidate scoring on a >= 1,000-host
// cluster: attaching the metrics registry, the decision log or the span log
// must leave every placement, score and final cluster aggregate of a
// PlaceScored stream unchanged, and the span log's bytes must reproduce
// from run to run. Labeled `concurrency` so tools/sanitize_runner.sh also
// runs it under TSan and ASan+UBSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/obs/decision_log.h"
#include "src/obs/metrics.h"
#include "src/obs/span_log.h"
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"

namespace optum {
namespace {

using core::OptumConfig;
using core::OptumProfiles;
using core::OptumScheduler;

Workload MakeWorkload(int hosts, Tick horizon, uint64_t seed) {
  WorkloadConfig config;
  config.num_hosts = hosts;
  config.horizon = horizon;
  config.seed = seed;
  return WorkloadGenerator(config).Generate();
}

SimConfig MakeSimConfig() {
  SimConfig config;
  config.pod_usage_period = 5;
  config.max_attempts_per_tick = 1500;
  return config;
}

OptumProfiles TrainProfiles(const Workload& workload, const SimConfig& sim_config) {
  AlibabaBaseline reference;
  const SimResult ref = Simulator(workload, sim_config, reference).Run();
  core::OfflineProfilerConfig prof;
  prof.max_train_samples = 600;
  return core::OfflineProfiler(prof).BuildProfiles(ref.trace);
}

// Everything a placement stream can observably produce: the decision and
// Eq. 11 score per pod, plus the final per-host cluster aggregates the
// stream's commits built up.
struct StreamResult {
  std::vector<HostId> hosts;
  std::vector<WaitReason> reasons;
  std::vector<double> scores;
  std::vector<size_t> pods_per_host;
  std::vector<double> request_cpu_per_host;
  std::vector<uint64_t> change_epochs;
};

// Steady-state scheduling loop on a prefilled cluster: every placement is
// committed, and one older pod is removed every third submission so host
// epochs churn and the incremental caches keep revalidating. Mirrors the
// bench_hotpath loop so the tested path is the benchmarked path.
StreamResult StreamPlacements(const OptumProfiles& profiles,
                              const std::vector<const AppProfile*>& catalog,
                              int num_hosts, int prefill_per_host, int stream,
                              obs::MetricRegistry* registry = nullptr,
                              obs::DecisionLog* decision_log = nullptr,
                              obs::SpanLog* span_log = nullptr) {
  ClusterState cluster(num_hosts, kUnitResources, /*history_window=*/64);
  PodId next_id = 0;
  std::vector<PodRuntime*> live;
  for (int h = 0; h < num_hosts; ++h) {
    for (int k = 0; k < prefill_per_host; ++k) {
      const AppProfile& app = *catalog[static_cast<size_t>(next_id) % catalog.size()];
      live.push_back(cluster.Place(MakePodSpec(next_id, app), &app, h, 0));
      ++next_id;
    }
  }

  OptumScheduler scheduler(profiles, OptumConfig{});
  obs::Sinks sinks;
  sinks.metrics = registry;
  sinks.decision_log = decision_log;
  sinks.span_log = span_log;
  scheduler.AttachSinks(sinks);

  StreamResult result;
  size_t evict_cursor = 0;
  for (int i = 0; i < stream; ++i) {
    const AppProfile& app = *catalog[static_cast<size_t>(next_id) % catalog.size()];
    const PodSpec spec = MakePodSpec(next_id, app);
    ++next_id;
    double score = 0.0;
    const PlacementDecision decision = scheduler.PlaceScored(spec, cluster, &score);
    result.hosts.push_back(decision.host);
    result.reasons.push_back(decision.reason);
    result.scores.push_back(decision.placed() ? score : 0.0);
    if (decision.placed()) {
      live.push_back(cluster.Place(spec, &app, decision.host, 0));
    }
    if (i % 3 == 0 && !live.empty()) {
      evict_cursor = (evict_cursor + 1) % live.size();
      cluster.Remove(live[evict_cursor]);
      live[evict_cursor] = live.back();
      live.pop_back();
    }
  }

  for (const Host& host : cluster.hosts()) {
    result.pods_per_host.push_back(host.pods.size());
    result.request_cpu_per_host.push_back(host.request_sum.cpu);
    result.change_epochs.push_back(host.change_epoch);
  }
  return result;
}

// Bit-identical: EXPECT_EQ on doubles is exact equality, not ULP-tolerant.
void ExpectIdenticalStreams(const StreamResult& a, const StreamResult& b) {
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (size_t i = 0; i < a.hosts.size(); ++i) {
    ASSERT_EQ(a.hosts[i], b.hosts[i]) << "placement diverged at pod " << i;
    ASSERT_EQ(a.reasons[i], b.reasons[i]) << "at pod " << i;
    ASSERT_EQ(a.scores[i], b.scores[i]) << "score diverged at pod " << i;
  }
  ASSERT_EQ(a.pods_per_host, b.pods_per_host);
  ASSERT_EQ(a.request_cpu_per_host, b.request_cpu_per_host);
  ASSERT_EQ(a.change_epochs, b.change_epochs);
}

// Attaching the full observability stack — registry counters/timers,
// predictor-cache gauges, and the per-placement decision log — must not
// perturb a single placement or score: metric updates never feed back into
// Eq. 11, and the decision log is rendered after the reduction. (Tagging
// candidates with cache-miss deltas reads the predictor's counters; it must
// not move them.)
TEST(ObserverInvarianceTest, MetricsAndDecisionLogLeavePlacementsUnchanged) {
  const Workload workload = MakeWorkload(64, 3 * kTicksPerHour, 23);
  const SimConfig sim_config = MakeSimConfig();
  const OptumProfiles profiles = TrainProfiles(workload, sim_config);
  const std::vector<const AppProfile*> catalog = SchedulableApps(workload);
  ASSERT_FALSE(catalog.empty());

  constexpr int kHosts = 1200;
  constexpr int kPrefillPerHost = 4;
  constexpr int kStream = 400;
  const StreamResult bare =
      StreamPlacements(profiles, catalog, kHosts, kPrefillPerHost, kStream);
  size_t placed = 0;
  for (HostId h : bare.hosts) {
    placed += h != kInvalidHostId ? 1 : 0;
  }
  ASSERT_GT(placed, static_cast<size_t>(kStream) / 2);

  const std::string log_path = ::testing::TempDir() + "/concurrency_decisions.jsonl";
  {
    obs::MetricRegistry registry;
    obs::DecisionLog decision_log(log_path);
    ASSERT_TRUE(decision_log.ok());
    const StreamResult observed = StreamPlacements(
        profiles, catalog, kHosts, kPrefillPerHost, kStream, &registry, &decision_log);
    ExpectIdenticalStreams(bare, observed);
    // The instrumentation must have actually been live, not silently off.
    EXPECT_EQ(registry.counter("optum.placements")->Value(), placed);
    EXPECT_EQ(registry.counter("optum.rejections")->Value(), kStream - placed);
    EXPECT_EQ(registry.histogram("optum.sample_seconds")->Count(),
              static_cast<uint64_t>(kStream));
    EXPECT_EQ(decision_log.records_written(), kStream);
  }
  std::remove(log_path.c_str());
}

// The span log renders after the reduction from deterministic fields only
// (ticks, ids, counts, scores — never wall clock), so two runs of one
// stream must write identical bytes, and attaching it must not move a
// placement. This is the load-bearing guarantee that makes span files
// diffable across runs.
TEST(ObserverInvarianceTest, SpanLogBytesReproduce) {
  const Workload workload = MakeWorkload(64, 3 * kTicksPerHour, 23);
  const SimConfig sim_config = MakeSimConfig();
  const OptumProfiles profiles = TrainProfiles(workload, sim_config);
  const std::vector<const AppProfile*> catalog = SchedulableApps(workload);
  ASSERT_FALSE(catalog.empty());

  constexpr int kHosts = 1200;
  constexpr int kPrefillPerHost = 4;
  constexpr int kStream = 400;
  const auto read_file = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string contents;
    char buf[1 << 14];
    size_t n;
    while (f != nullptr && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      contents.append(buf, n);
    }
    if (f != nullptr) {
      std::fclose(f);
    }
    return contents;
  };

  const StreamResult bare =
      StreamPlacements(profiles, catalog, kHosts, kPrefillPerHost, kStream);
  std::string baseline_bytes;
  for (int run = 0; run < 2; ++run) {
    const std::string path = ::testing::TempDir() + "/concurrency_spans_" +
                             std::to_string(run) + ".jsonl";
    StreamResult observed;
    {
      obs::SpanLog span_log(path);
      ASSERT_TRUE(span_log.ok());
      observed = StreamPlacements(profiles, catalog, kHosts, kPrefillPerHost,
                                  kStream, /*registry=*/nullptr,
                                  /*decision_log=*/nullptr, &span_log);
      // Two spans per PlaceScored call: sampled + scored.
      EXPECT_EQ(span_log.records_written(), 2 * kStream);
    }
    ExpectIdenticalStreams(bare, observed);
    const std::string bytes = read_file(path);
    std::remove(path.c_str());
    ASSERT_FALSE(bytes.empty());
    if (run == 0) {
      baseline_bytes = bytes;
      // Sanity: the stream starts with the schema header line.
      EXPECT_EQ(bytes.rfind(obs::SpanLog::RenderHeader() + "\n", 0), 0u);
    } else {
      ASSERT_EQ(bytes, baseline_bytes) << "span stream diverged between runs";
    }
  }
}

}  // namespace
}  // namespace optum

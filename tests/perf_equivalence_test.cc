// Equivalence and determinism guarantees for the performance architecture:
//  - the scheduler's incremental structures (host-baseline cache, app_counts
//    histograms, lazily filled prediction tables) are bit-identical to a
//    cache-free reference: at the predictor level against full rescans, and
//    end-to-end against ReferenceOptumPolicy (identical placement sequences
//    and headline aggregates on a seeded workload, across a profile swap);
//  - the parallel simulator tick is bit-identical to the serial tick;
//  - the incrementally maintained per-host app counts and BE-mass index
//    match a from-scratch rebuild after arbitrary place/remove sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "src/core/offline_profiler.h"
#include "src/core/optum_scheduler.h"
#include "src/core/resource_usage_predictor.h"
#include "src/sched/baselines.h"
#include "src/sched/common.h"
#include "src/sim/simulator.h"
#include "src/stats/rng.h"
#include "src/trace/workload_generator.h"

namespace optum {
namespace {

using core::AppModel;
using core::OptumConfig;
using core::OptumProfiles;
using core::OptumScheduler;
using core::ResourceUsagePredictor;
using core::ScoreMode;

// --- Shared fixtures ---------------------------------------------------------

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

SimResult RunAlibabaReference(const Workload& workload, const SimConfig& sim_config) {
  AlibabaBaseline reference;
  return Simulator(workload, sim_config, reference).Run();
}

OptumProfiles TrainProfiles(const SimResult& ref, bool with_triples,
                            size_t max_train_samples = 600) {
  core::OfflineProfilerConfig prof;
  prof.max_train_samples = max_train_samples;
  prof.enable_triple_ero = with_triples;
  return core::OfflineProfiler(prof).BuildProfiles(ref.trace);
}

// Runs `policy` (an OptumScheduler or a ReferenceOptumPolicy) with online
// ERO observation every tick and, when `swap_tick` >= 0, a wholesale profile
// replacement by `swap_profiles` at the end of that tick.
template <typename Policy>
SimResult RunWithObservation(const Workload& workload, const SimConfig& sim_config,
                             Policy& policy, Tick swap_tick = -1,
                             const OptumProfiles* swap_profiles = nullptr) {
  SimConfig config = sim_config;
  config.on_tick_end = [&](const ClusterState& cluster, Tick now) {
    policy.ObserveColocation(cluster, now);
    if (now == swap_tick) {
      policy.ReplaceProfiles(*swap_profiles);
    }
  };
  return Simulator(workload, config, policy).Run();
}

// --- Test-only reference scheduler ----------------------------------------------
//
// What OptumScheduler decides, computed with none of its caches: usage by
// the full Eq. 8 rescan, the per-host application histogram rebuilt from
// host.pods for every candidate, and every interference value evaluated
// straight from the app's model (no tables). Sampling, the Eq. 11 score and
// the candidate reduction follow the scheduler's definitions. The predictor
// grid is spelled out here as the specification the tables must reproduce:
// 64 buckets over [0, 2] per axis, each value evaluated at its bucket's
// centre; slopes sampled +-0.06 around the CPU-midpoint bucket's centre on
// the 8x finer grid. Online ERO observation and profile swaps are delegated
// to an OptumScheduler this policy never scores with, so both sides evolve
// the same ERO table.
class ReferenceOptumPolicy : public PlacementPolicy {
 public:
  ReferenceOptumPolicy(OptumProfiles profiles, const OptumConfig& config)
      : state_(std::move(profiles), config),
        config_(config),
        usage_(&state_.profiles(),
               config.use_triple_ero ? ResourceUsagePredictor::Grouping::kTripleWise
                                     : ResourceUsagePredictor::Grouping::kPairwise),
        rng_(config.seed) {}

  std::string name() const override { return "OptumReference"; }

  void ObserveColocation(const ClusterState& cluster, Tick now) {
    state_.ObserveColocation(cluster, now);
  }
  void ReplaceProfiles(OptumProfiles profiles) {
    state_.ReplaceProfiles(std::move(profiles));
  }

  PlacementDecision Place(const PodSpec& pod, const AppProfile&,
                          const ClusterState& cluster) override {
    SampleHostsInto(cluster, config_.sample_fraction, config_.min_candidates, rng_,
                    &scratch_, &candidates_);
    // Reduction in candidate order, ties toward the earlier candidate.
    bool found = false, any_cpu = false, any_mem = false;
    double best_score = 0.0;
    HostId best = -1;
    for (const HostId id : candidates_) {
      const Host& host = cluster.host(id);
      const Resources after = usage_.PredictHostRescan(host, &pod);
      const double cpu_util = after.cpu / host.capacity.cpu;
      const double mem_util = after.mem / host.capacity.mem;
      const bool cpu_blocked = cpu_util > 1.0;
      const bool mem_blocked = mem_util > config_.mem_util_limit;
      if (cpu_blocked || mem_blocked || !AffinityAllows(pod, host)) {
        any_cpu |= cpu_blocked;
        any_mem |= mem_blocked;
        continue;
      }
      const double score = cpu_util * mem_util - Interference(pod, host, cpu_util, mem_util);
      if (!found || score > best_score) {
        found = true;
        best_score = score;
        best = id;
      }
    }
    return found ? PlacementDecision::Accept(best)
                 : PlacementDecision::Reject(ClassifyShortfall(any_cpu, any_mem));
  }

 private:
  static constexpr size_t kBuckets = 64;
  static constexpr size_t kFineBuckets = 8 * kBuckets;
  static constexpr double kSlopeSpan = 0.06;

  static uint64_t Bucket(double v, size_t buckets) {
    return static_cast<uint64_t>(std::clamp(v, 0.0, 2.0) / 2.0 *
                                 static_cast<double>(buckets - 1));
  }
  static double Centre(double v, size_t buckets) {
    const double width = 2.0 / static_cast<double>(buckets - 1);
    return std::min(2.0, (static_cast<double>(Bucket(v, buckets)) + 0.5) * width);
  }
  static double Weight(SloClass slo, double ls, double be) {
    return IsLatencySensitive(slo) ? ls : slo == SloClass::kBe ? be : 0.0;
  }

  const AppModel* Usable(AppId app) const {
    const AppModel* model = state_.profiles().Find(app);
    return model != nullptr && model->usable() ? model : nullptr;
  }
  // Raw model output at a host utilization (Eq. 9 for LS, Eq. 10 for BE).
  static double Raw(const AppModel& model, double cpu, double mem) {
    const double row[core::kLsFeatureCount] = {model.stats.max_pod_cpu_util,
                                               model.stats.max_pod_mem_util, cpu, mem,
                                               1.0};
    const size_t width = IsLatencySensitive(model.stats.slo) ? core::kLsFeatureCount
                                                             : core::kBeFeatureCount;
    return model.model->Predict(std::span<const double>(row, width));
  }
  double Predict(AppId app, double cpu, double mem) const {
    const AppModel* model = Usable(app);
    return model == nullptr ? 0.0
                            : model->discretizer.ToUpperBound(Raw(
                                  *model, Centre(cpu, kBuckets), Centre(mem, kBuckets)));
  }
  double Slope(const AppModel& model, double cpu_mid, double mem) const {
    const double mid = Centre(cpu_mid, kBuckets);
    const double mem_point = Centre(Centre(mem, kBuckets), kFineBuckets);
    const double lo_cpu = std::max(0.0, mid - kSlopeSpan);
    const double hi_cpu = mid + kSlopeSpan;
    const double lo = Raw(model, Centre(lo_cpu, kFineBuckets), mem_point);
    const double hi = Raw(model, Centre(hi_cpu, kFineBuckets), mem_point);
    const double span = hi_cpu - lo_cpu;
    return span > 1e-9 ? std::max(0.0, (hi - lo) / span) : 0.0;
  }

  double Interference(const PodSpec& pod, const Host& host, double cpu_after,
                      double mem_after) const {
    // The histogram rebuilt from the pod list, in the app order Host::app_counts
    // keeps, so sums accumulate in the same order.
    std::vector<HostAppCount> counts;
    for (const PodRuntime* p : host.pods) {
      const auto it = std::find_if(counts.begin(), counts.end(), [&](const auto& c) {
        return c.app == p->spec.app;
      });
      if (it == counts.end()) {
        counts.push_back(HostAppCount{p->spec.app, p->spec.slo, 1});
      } else {
        ++it->count;
      }
    }
    std::sort(counts.begin(), counts.end(),
              [](const auto& a, const auto& b) { return a.app < b.app; });
    const double w_ls = config_.omega_o;
    const double w_be = config_.omega_b;
    double total = 0.0;
    if (config_.score_mode == ScoreMode::kPaperAbsolute) {
      // Literal Eq. 11: every pod, the incoming one included, at the
      // post-placement utilization.
      const auto it = std::find_if(counts.begin(), counts.end(),
                                   [&](const auto& c) { return c.app == pod.app; });
      if (it == counts.end()) {
        counts.push_back(HostAppCount{pod.app, pod.slo, 1});
      } else {
        ++it->count;
      }
      for (const HostAppCount& c : counts) {
        const double ri = Predict(c.app, cpu_after, mem_after);
        if (ri != 0.0) {
          total += Weight(c.slo, w_ls, w_be) * ri * static_cast<double>(c.count);
        }
      }
      return total;
    }
    // Marginal: residents' slope over the placement's CPU delta, plus the
    // incoming pod's absolute interference.
    const Resources before = usage_.PredictHostRescan(host, nullptr);
    const double cpu_before = before.cpu / host.capacity.cpu;
    const double cpu_delta = std::max(0.0, cpu_after - cpu_before);
    for (const HostAppCount& c : counts) {
      const AppModel* model = Usable(c.app);
      const double weight = Weight(c.slo, w_ls, w_be);
      if (model == nullptr || weight == 0.0) {
        continue;
      }
      total += weight * Slope(*model, 0.5 * (cpu_before + cpu_after), mem_after) *
               cpu_delta * static_cast<double>(c.count);
    }
    return total + Weight(pod.slo, w_ls, w_be) * Predict(pod.app, cpu_after, mem_after);
  }

  OptumScheduler state_;  // owns the profiles; ERO observation and swaps only
  OptumConfig config_;
  ResourceUsagePredictor usage_;
  Rng rng_;
  std::vector<HostId> scratch_;
  std::vector<HostId> candidates_;
};

// Every decision and every headline aggregate must match exactly.
void ExpectIdenticalResults(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.trace.pods.size(), b.trace.pods.size());
  for (size_t i = 0; i < a.trace.pods.size(); ++i) {
    EXPECT_EQ(a.trace.pods[i].pod_id, b.trace.pods[i].pod_id) << "at " << i;
    EXPECT_EQ(a.trace.pods[i].original_machine_id, b.trace.pods[i].original_machine_id)
        << "placement diverged at decision " << i;
  }
  EXPECT_EQ(a.scheduled_pods, b.scheduled_pods);
  EXPECT_EQ(a.never_scheduled_pods, b.never_scheduled_pods);
  EXPECT_EQ(a.oom_kills, b.oom_kills);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.violation_host_ticks, b.violation_host_ticks);
  EXPECT_EQ(a.nonidle_host_ticks, b.nonidle_host_ticks);
  EXPECT_DOUBLE_EQ(a.MeanCpuUtilNonIdle(), b.MeanCpuUtilNonIdle());
  EXPECT_DOUBLE_EQ(a.MeanMemUtilNonIdle(), b.MeanMemUtilNonIdle());
  ASSERT_EQ(a.util_series.size(), b.util_series.size());
  for (size_t i = 0; i < a.util_series.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.util_series[i].avg_cpu_nonidle, b.util_series[i].avg_cpu_nonidle);
    EXPECT_DOUBLE_EQ(a.util_series[i].max_cpu, b.util_series[i].max_cpu);
  }
  ASSERT_EQ(a.trace.lifecycles.size(), b.trace.lifecycles.size());
  ASSERT_EQ(a.waits.size(), b.waits.size());
}

// --- Scheduler vs cache-free reference, end-to-end ---------------------------

class CacheEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<ScoreMode, bool>> {};

TEST_P(CacheEquivalenceTest, IdenticalDecisionsAndAggregates) {
  const auto [score_mode, use_triple] = GetParam();
  const Workload workload = MakeWorkload(200, 3 * kTicksPerHour, 29);
  const SimConfig sim_config = MakeSimConfig();
  const SimResult ref = RunAlibabaReference(workload, sim_config);
  const OptumProfiles profiles = TrainProfiles(ref, use_triple);
  // Halfway through, both sides swap to profiles trained on fewer samples
  // (different models, ERO restarted): a table that outlived the swap would
  // serve the old models' values.
  const OptumProfiles swapped = TrainProfiles(ref, use_triple, /*max_train_samples=*/250);
  const Tick swap_tick = 3 * kTicksPerHour / 2;

  OptumConfig config;
  config.score_mode = score_mode;
  config.use_triple_ero = use_triple;

  OptumScheduler optum(profiles, config);
  const SimResult scheduler =
      RunWithObservation(workload, sim_config, optum, swap_tick, &swapped);
  ReferenceOptumPolicy reference(profiles, config);
  const SimResult expected =
      RunWithObservation(workload, sim_config, reference, swap_tick, &swapped);
  ExpectIdenticalResults(scheduler, expected);
  EXPECT_GT(scheduler.scheduled_pods, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CacheEquivalenceTest,
    ::testing::Values(std::make_tuple(ScoreMode::kPaperAbsolute, false),
                      std::make_tuple(ScoreMode::kPaperAbsolute, true),
                      std::make_tuple(ScoreMode::kMarginal, false),
                      std::make_tuple(ScoreMode::kMarginal, true)));

// --- Predictor-level equivalence under mutation ------------------------------

TEST(IncrementalPredictorTest, MatchesRescanUnderPlacementAndEroChurn) {
  const Workload workload = MakeWorkload(8, kTicksPerHour, 11);
  for (const auto grouping : {ResourceUsagePredictor::Grouping::kPairwise,
                              ResourceUsagePredictor::Grouping::kTripleWise}) {
    OptumProfiles profiles;
    ClusterState cluster(8, kUnitResources, 16);
    ResourceUsagePredictor cached(&profiles, grouping);

    Rng rng(123);
    std::vector<PodRuntime*> placed;
    size_t next_spec = 0;
    for (int step = 0; step < 400; ++step) {
      // Interleave placements, removals, and online ERO observations —
      // exactly the mutations the cache must invalidate on.
      const double roll = rng.NextDouble();
      if (roll < 0.55 && next_spec < workload.pods.size()) {
        const PodSpec& spec = workload.pods[next_spec++];
        const HostId host = static_cast<HostId>(rng.NextBelow(8));
        placed.push_back(cluster.Place(spec, &AppOf(workload, spec.app), host, 0));
      } else if (roll < 0.75 && !placed.empty()) {
        const size_t victim = rng.NextBelow(placed.size());
        cluster.Remove(placed[victim]);
        placed[victim] = placed.back();
        placed.pop_back();
      } else {
        const AppId a = static_cast<AppId>(rng.NextBelow(12));
        const AppId b = static_cast<AppId>(rng.NextBelow(12));
        profiles.ero.Observe(a, b, rng.NextDouble());
        if (grouping == ResourceUsagePredictor::Grouping::kTripleWise) {
          profiles.ero.ObserveTriple(a, b, static_cast<AppId>(rng.NextBelow(12)),
                                     rng.NextDouble());
        }
      }
      // Every host, as-is and with a hypothetical incoming pod: the cached
      // prediction must be bit-identical to the full rescan.
      const PodSpec& probe = workload.pods[rng.NextBelow(workload.pods.size())];
      for (const Host& host : cluster.hosts()) {
        const Resources base_cached = cached.PredictHost(host, nullptr);
        const Resources base_rescan = cached.PredictHostRescan(host, nullptr);
        EXPECT_DOUBLE_EQ(base_cached.cpu, base_rescan.cpu);
        EXPECT_DOUBLE_EQ(base_cached.mem, base_rescan.mem);
        const Resources inc_cached = cached.PredictHost(host, &probe);
        const Resources inc_rescan = cached.PredictHostRescan(host, &probe);
        EXPECT_DOUBLE_EQ(inc_cached.cpu, inc_rescan.cpu);
        EXPECT_DOUBLE_EQ(inc_cached.mem, inc_rescan.mem);
      }
    }
  }
}

TEST(IncrementalPredictorTest, InvalidateAllPicksUpProfileSwaps) {
  OptumProfiles profiles;
  ClusterState cluster(1, kUnitResources, 16);
  const Workload workload = MakeWorkload(1, kTicksPerHour, 3);
  const PodSpec& spec = workload.pods.front();
  cluster.Place(spec, &AppOf(workload, spec.app), 0, 0);

  ResourceUsagePredictor predictor(&profiles);
  const Resources before = predictor.PredictHost(cluster.host(0), nullptr);

  // Mutate the memory profile behind the predictor's back (what
  // ReplaceProfiles does wholesale) — the cache must be told.
  core::AppModel model;
  model.stats.mem_profile = 0.25;
  profiles.apps.emplace(spec.app, std::move(model));
  predictor.InvalidateAll();
  const Resources after = predictor.PredictHost(cluster.host(0), nullptr);
  EXPECT_DOUBLE_EQ(after.mem, 0.25 * spec.request.mem);
  EXPECT_NE(before.mem, after.mem);
  EXPECT_DOUBLE_EQ(after.cpu, predictor.PredictHostRescan(cluster.host(0), nullptr).cpu);
}

// --- Parallel tick determinism ----------------------------------------------

TEST(ParallelTickTest, BitIdenticalToSerial) {
  const Workload workload = MakeWorkload(96, 2 * kTicksPerHour, 17);
  SimConfig serial_config = MakeSimConfig();
  serial_config.num_threads = 0;
  SimConfig parallel_config = MakeSimConfig();
  parallel_config.num_threads = 4;

  AlibabaBaseline policy_serial;
  AlibabaBaseline policy_parallel;
  const SimResult serial = Simulator(workload, serial_config, policy_serial).Run();
  const SimResult parallel =
      Simulator(workload, parallel_config, policy_parallel).Run();
  ExpectIdenticalResults(serial, parallel);

  // Per-pod state must match too, not just aggregates.
  ASSERT_EQ(serial.trace.pod_usage.size(), parallel.trace.pod_usage.size());
  for (size_t i = 0; i < serial.trace.pod_usage.size(); ++i) {
    EXPECT_EQ(serial.trace.pod_usage[i].pod_id, parallel.trace.pod_usage[i].pod_id);
    EXPECT_DOUBLE_EQ(serial.trace.pod_usage[i].cpu_usage,
                     parallel.trace.pod_usage[i].cpu_usage);
    EXPECT_DOUBLE_EQ(serial.trace.pod_usage[i].cpu_psi_60,
                     parallel.trace.pod_usage[i].cpu_psi_60);
  }
}

// --- Incremental host-state maintenance --------------------------------------

TEST(HostStateMaintenanceTest, AppCountsAndBeMassMatchRebuild) {
  const Workload workload = MakeWorkload(6, kTicksPerHour, 5);
  ClusterState cluster(6, kUnitResources, 16);
  Rng rng(9);
  std::vector<PodRuntime*> placed;
  size_t next_spec = 0;
  for (int step = 0; step < 300; ++step) {
    if ((rng.NextDouble() < 0.6 && next_spec < workload.pods.size()) ||
        placed.empty()) {
      if (next_spec >= workload.pods.size()) {
        break;
      }
      const PodSpec& spec = workload.pods[next_spec++];
      placed.push_back(cluster.Place(spec, &AppOf(workload, spec.app),
                                     static_cast<HostId>(rng.NextBelow(6)), 0));
    } else {
      const size_t victim = rng.NextBelow(placed.size());
      cluster.Remove(placed[victim]);
      placed[victim] = placed.back();
      placed.pop_back();
    }

    size_t hosts_with_be_expected = 0;
    for (const Host& host : cluster.hosts()) {
      // Rebuild app counts from the pod list and compare.
      std::vector<HostAppCount> rebuilt;
      double be_cpu = 0.0;
      int be_count = 0;
      for (const PodRuntime* pod : host.pods) {
        auto it = std::find_if(rebuilt.begin(), rebuilt.end(), [&](const auto& c) {
          return c.app == pod->spec.app;
        });
        if (it == rebuilt.end()) {
          rebuilt.push_back(HostAppCount{pod->spec.app, pod->spec.slo, 1});
        } else {
          ++it->count;
        }
        if (pod->spec.slo == SloClass::kBe) {
          be_cpu += pod->spec.request.cpu;
          ++be_count;
        }
      }
      ASSERT_EQ(host.app_counts.size(), rebuilt.size()) << "host " << host.id;
      for (const auto& expected : rebuilt) {
        auto it = std::find_if(
            host.app_counts.begin(), host.app_counts.end(),
            [&](const auto& c) { return c.app == expected.app; });
        ASSERT_NE(it, host.app_counts.end());
        EXPECT_EQ(it->count, expected.count);
      }
      // Sorted-by-app invariant (interference sums rely on a canonical
      // iteration order).
      for (size_t i = 1; i < host.app_counts.size(); ++i) {
        EXPECT_LT(host.app_counts[i - 1].app, host.app_counts[i].app);
      }
      EXPECT_EQ(host.be_pod_count, be_count);
      EXPECT_NEAR(host.be_request_cpu, be_cpu, 1e-12);
      if (be_count > 0) {
        ++hosts_with_be_expected;
        EXPECT_NE(std::find(cluster.hosts_with_be().begin(),
                            cluster.hosts_with_be().end(), host.id),
                  cluster.hosts_with_be().end());
      }
    }
    EXPECT_EQ(cluster.hosts_with_be().size(), hosts_with_be_expected);
  }
}

// --- Wait-reason classification (single-computation restructure) -------------

TEST(WaitReasonTest, ClassifiesShortfallAndAffinity) {
  // One tiny host; profiles empty so predictions fall back to full requests
  // (ERO = 1.0, mem_profile = 1.0) and classification is exact.
  OptumProfiles profiles;
  OptumConfig config;
  config.min_candidates = 1;
  OptumScheduler optum(std::move(profiles), config);
  ClusterState cluster(1, Resources{1.0, 1.0}, 16);

  AppProfile app;
  app.id = 4;
  app.slo = SloClass::kLs;

  auto decide = [&](Resources request) {
    PodSpec pod;
    pod.id = 1;
    pod.app = app.id;
    pod.slo = app.slo;
    pod.request = request;
    pod.limit = request;
    return optum.Place(pod, app, cluster);
  };

  EXPECT_EQ(decide({1.5, 0.1}).reason, WaitReason::kInsufficientCpu);
  EXPECT_EQ(decide({0.1, 0.95}).reason, WaitReason::kInsufficientMem);  // > 0.8 cap
  EXPECT_EQ(decide({1.5, 0.95}).reason, WaitReason::kInsufficientCpuAndMem);
  EXPECT_TRUE(decide({0.3, 0.3}).placed());

  // Anti-affinity with room left on the host: reason must be kOther.
  PodSpec limited;
  limited.id = 2;
  limited.app = app.id;
  limited.slo = app.slo;
  limited.request = {0.1, 0.1};
  limited.limit = {0.1, 0.1};
  limited.max_pods_per_host = 1;
  const PodSpec first = limited;
  cluster.Place(first, &app, 0, 0);
  EXPECT_EQ(optum.Place(limited, app, cluster).reason, WaitReason::kOther);
}

}  // namespace
}  // namespace optum

// Property and stress tests for the scoring-cache layer:
//  - PredictionCache against a reference map under randomized
//    Insert/Find/Clear interleavings that force Grow() rehashes;
//  - the by-value Find() contract: lookups stay valid across inserts (the
//    old pointer-returning API dangled across an Insert-triggered Grow);
//  - InterferencePredictor history independence: Predict and
//    MarginalInterference return the same bits cold, warmed in shuffled
//    order, and after ClearCache();
//  - the epoch-keyed host-baseline cache: randomized Place/Remove/Observe/
//    InvalidateAll interleavings must never let a stale prediction survive
//    a Host::change_epoch or EroTable::version bump.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/interference_predictor.h"
#include "src/core/prediction_cache.h"
#include "src/core/resource_usage_predictor.h"
#include "src/ml/regressor.h"
#include "src/stats/rng.h"
#include "src/trace/app_model.h"
#include "src/trace/workload_generator.h"

namespace optum::core {
namespace {

// Keys mimic the real packing: AppId in the high word (never all-ones).
uint64_t RandomKey(Rng& rng) {
  const uint64_t app = rng.NextBelow(1u << 20);
  const uint64_t bucket = rng.NextBelow(1u << 24);
  return (app << 32) | bucket;
}

TEST(PredictionCachePropertyTest, MatchesReferenceMapUnderRandomOps) {
  Rng rng(1234);
  PredictionCache cache;
  std::unordered_map<uint64_t, double> reference;
  std::vector<uint64_t> inserted;

  for (int step = 0; step < 60000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.55) {
      // Insert a fresh key (the documented find-miss-compute-insert use).
      uint64_t key = RandomKey(rng);
      while (reference.count(key) != 0) {
        key = RandomKey(rng);
      }
      const double value = rng.NextDouble();
      cache.Insert(key, value);
      reference.emplace(key, value);
      inserted.push_back(key);
    } else if (roll < 0.9 && !inserted.empty()) {
      // Find a known key: must hit with the exact stored value.
      const uint64_t key = inserted[rng.NextBelow(inserted.size())];
      const auto found = cache.Find(key);
      ASSERT_TRUE(found.has_value());
      ASSERT_EQ(*found, reference.at(key));
    } else if (roll < 0.98) {
      // Find a key that was never inserted: must miss.
      uint64_t key = RandomKey(rng);
      while (reference.count(key) != 0) {
        key = RandomKey(rng);
      }
      ASSERT_FALSE(cache.Find(key).has_value());
    } else if (step < 20000) {
      // Clears only in the first third: the long tail of uninterrupted
      // inserts then has to push the table through several Grow() rehashes.
      cache.Clear();
      reference.clear();
      inserted.clear();
    }
    ASSERT_EQ(cache.size(), reference.size());
  }
  // The op mix must have grown the table at least once for the test to have
  // covered rehashing (55% of 60k steps >> the 4096-slot initial capacity).
  EXPECT_GT(cache.capacity(), 4096u);
  // Post-run sweep: every surviving key still maps to its exact value.
  for (const auto& [key, value] : reference) {
    const auto found = cache.Find(key);
    ASSERT_TRUE(found.has_value());
    ASSERT_EQ(*found, value);
  }
}

TEST(PredictionCachePropertyTest, FindResultsSurviveInsertTriggeredGrow) {
  // The old API returned a pointer into the table; Insert() can Grow() and
  // relocate every slot, leaving that pointer dangling. Find() now returns
  // by value, so a lookup taken before an arbitrary number of inserts must
  // stay exact — this pins the contract (and ASan would catch a regression
  // to reference-returning semantics).
  PredictionCache cache;
  cache.Insert(42, 0.125);
  const auto before_grow = cache.Find(42);
  ASSERT_TRUE(before_grow.has_value());

  const size_t capacity_before = cache.capacity();
  for (uint64_t i = 0; i < 8192; ++i) {
    cache.Insert((i << 32) | 7u, static_cast<double>(i));
  }
  ASSERT_GT(cache.capacity(), capacity_before);  // Grow() really happened.

  EXPECT_EQ(*before_grow, 0.125);
  const auto after_grow = cache.Find(42);
  ASSERT_TRUE(after_grow.has_value());
  EXPECT_EQ(*after_grow, 0.125);
}

TEST(PredictionCachePropertyTest, ClearKeepsCapacityAndForgetsKeys) {
  PredictionCache cache;
  for (uint64_t i = 0; i < 5000; ++i) {
    cache.Insert(i << 32, static_cast<double>(i));
  }
  const size_t grown = cache.capacity();
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), grown);
  for (uint64_t i = 0; i < 5000; ++i) {
    EXPECT_FALSE(cache.Find(i << 32).has_value());
  }
}

// --- Predictor cache history independence ----------------------------------

// A model that is smooth and nonlinear in both host utilizations, so any
// evaluation that is not snapped to its cache bucket's canonical point gives
// a different value for two queries sharing the bucket (a linear model
// would hide a raw-point slope).
class SmoothContentionModel final : public ml::Regressor {
 public:
  explicit SmoothContentionModel(double scale) : scale_(scale) {}
  void Fit(const ml::Dataset&) override {}
  double Predict(std::span<const double> f) const override {
    const double cpu = f[2];
    const double mem = f[3];
    return scale_ * (0.3 * cpu * cpu + 0.2 * cpu * mem + 0.1 * mem) + 0.05 * f[0];
  }
  std::string name() const override { return "smooth"; }

 private:
  double scale_;
};

constexpr int kHistoryApps = 9;

// Apps 0..7 alternate LS and BE with distinct curves; app 8 has no model
// (the predictor must skip it without disturbing anything else).
OptumProfiles MakeHistoryProfiles() {
  OptumProfiles profiles;
  for (AppId app = 0; app < kHistoryApps; ++app) {
    AppModel m;
    m.stats.slo = app % 2 == 0 ? SloClass::kLs : SloClass::kBe;
    m.stats.max_pod_cpu_util = 0.1 + 0.05 * app;
    m.stats.max_pod_mem_util = 0.3;
    // Fine output grid, so discretization does not mask a wrong input.
    m.discretizer = ml::Discretizer(0.0, 2.5, 1000);
    if (app + 1 < kHistoryApps) {
      m.model = std::make_shared<SmoothContentionModel>(0.5 + 0.1 * app);
    }
    profiles.apps.emplace(app, std::move(m));
  }
  return profiles;
}

AppProfile MakeHistoryApp(AppId id) {
  AppProfile app;
  app.id = id;
  app.slo = id % 2 == 0 ? SloClass::kLs : SloClass::kBe;
  app.request = {0.02, 0.02};
  app.limit = {0.04, 0.04};
  return app;
}

TEST(PredictorHistoryTest, ColdWarmShuffledAndClearedAgreeBitForBit) {
  const OptumProfiles profiles = MakeHistoryProfiles();
  std::vector<AppProfile> apps;
  for (AppId app = 0; app < kHistoryApps; ++app) {
    apps.push_back(MakeHistoryApp(app));
  }
  // Eight hosts, each with pods of several apps (host h holds apps h..h+3,
  // some twice), so MarginalInterference sums several slope terms per host.
  constexpr int kHosts = 8;
  ClusterState cluster(kHosts, kUnitResources, /*history_window=*/8);
  PodId next_id = 0;
  for (HostId h = 0; h < kHosts; ++h) {
    for (int k = 0; k < 6; ++k) {
      const AppProfile& app = apps[static_cast<size_t>((h + k % 4) % kHistoryApps)];
      cluster.Place(MakePodSpec(next_id++, app), &app, h, 0);
    }
  }

  // The fixed query set: clusters of points jittered around cache-bucket
  // centres, so many queries share a Predict or slope bucket with a
  // different raw utilization. Utilizations reach past 2.0 to cover the
  // clamp at the grid's top edge.
  struct Query {
    bool marginal;
    AppId app;
    HostId host;
    double cpu_before, mem_before, cpu_after, mem_after;
  };
  std::vector<Query> queries;
  Rng rng(2718);
  const double bucket = 2.0 / 63.0;  // the predictor's 64-bucket grid
  for (int base = 0; base < 300; ++base) {
    const AppId app = static_cast<AppId>(rng.NextBelow(kHistoryApps));
    const HostId host = static_cast<HostId>(rng.NextBelow(kHosts));
    const double cpu = (static_cast<double>(rng.NextBelow(68)) + 0.5) * bucket;
    const double mem = (static_cast<double>(rng.NextBelow(66)) + 0.5) * bucket;
    for (int jitter = 0; jitter < 4; ++jitter) {
      const double dc = (rng.NextDouble() - 0.5) * 0.9 * bucket;
      const double dm = (rng.NextDouble() - 0.5) * 0.9 * bucket;
      const double delta = 0.005 + 0.02 * rng.NextDouble();
      queries.push_back(Query{base % 2 == 1, app, host, cpu + dc - delta,
                              mem + dm, cpu + dc + delta, mem + dm});
    }
  }

  const auto evaluate = [&](const InterferencePredictor& predictor,
                            const Query& q) {
    if (!q.marginal) {
      return predictor.Predict(q.app, q.cpu_after, q.mem_after);
    }
    const PodSpec incoming = MakePodSpec(1'000'000, apps[static_cast<size_t>(q.app)]);
    return predictor.MarginalInterference(cluster.host(q.host), incoming,
                                          q.cpu_before, q.mem_before, q.cpu_after,
                                          q.mem_after, /*weight_ls=*/0.7,
                                          /*weight_be=*/0.3);
  };

  // Cold: every query answered by a predictor that has seen nothing else.
  std::vector<double> cold(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const InterferencePredictor fresh(&profiles);
    cold[i] = evaluate(fresh, queries[i]);
  }
  size_t nonzero = 0;
  for (const double v : cold) {
    nonzero += v != 0.0 ? 1 : 0;
  }
  ASSERT_GT(nonzero, queries.size() / 2);

  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  const auto shuffle = [&] {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBelow(i)]);
    }
  };
  const auto expect_cold = [&](const InterferencePredictor& predictor,
                               const std::string& phase) {
    for (const size_t i : order) {
      ASSERT_EQ(evaluate(predictor, queries[i]), cold[i])
          << phase << ", query " << i << (queries[i].marginal ? " (marginal)" : "");
    }
  };

  // Warm: one predictor fills its caches in a shuffled order (every bucket
  // is first missed by a random member of its cluster), then answers again
  // in another order, all from the caches.
  InterferencePredictor predictor(&profiles);
  shuffle();
  expect_cold(predictor, "warming pass");
  const uint64_t misses_after_warm = predictor.misses();
  shuffle();
  expect_cold(predictor, "warm pass");
  EXPECT_EQ(predictor.misses(), misses_after_warm);  // all hits
  EXPECT_GT(predictor.cache_stats().slope_hits, 0u);

  // Cleared: ClearCache drops both caches, and refilling them in yet
  // another order still reproduces the cold values.
  predictor.ClearCache();
  EXPECT_EQ(predictor.cache_size(), 0u);
  shuffle();
  expect_cold(predictor, "after ClearCache");
  EXPECT_GT(predictor.misses(), misses_after_warm);
}

// --- Epoch-keyed host-baseline cache -----------------------------------------

TEST(HostBaselineCacheStressTest, NoStaleHitSurvivesEpochOrVersionBumps) {
  WorkloadConfig wconfig;
  wconfig.num_hosts = 6;
  wconfig.horizon = kTicksPerHour;
  wconfig.seed = 19;
  const Workload workload = WorkloadGenerator(wconfig).Generate();

  OptumProfiles profiles;
  ClusterState cluster(6, kUnitResources, 16);
  ResourceUsagePredictor predictor(&profiles);
  ASSERT_TRUE(predictor.cache_enabled());

  Rng rng(4321);
  std::vector<PodRuntime*> placed;
  size_t next_spec = 0;
  uint64_t epoch_bumps = 0;
  uint64_t version_bumps = 0;
  for (int step = 0; step < 1500; ++step) {
    // Warm the cache for every host before mutating, so a broken
    // invalidation check would serve the pre-mutation (stale) baseline.
    for (const Host& host : cluster.hosts()) {
      (void)predictor.PredictHost(host, nullptr);
    }

    const double roll = rng.NextDouble();
    if (roll < 0.45 && next_spec < workload.pods.size()) {
      const PodSpec& spec = workload.pods[next_spec++];
      const HostId host = static_cast<HostId>(rng.NextBelow(6));
      const uint64_t before = cluster.host(host).change_epoch;
      placed.push_back(cluster.Place(spec, &AppOf(workload, spec.app), host, 0));
      ASSERT_GT(cluster.host(host).change_epoch, before);
      ++epoch_bumps;
    } else if (roll < 0.65 && !placed.empty()) {
      const size_t victim = rng.NextBelow(placed.size());
      cluster.Remove(placed[victim]);
      placed[victim] = placed.back();
      placed.pop_back();
      ++epoch_bumps;
    } else if (roll < 0.95) {
      // Online ERO churn; version() bumps only when a coefficient rises.
      const uint64_t before = profiles.ero.version();
      profiles.ero.Observe(static_cast<AppId>(rng.NextBelow(10)),
                           static_cast<AppId>(rng.NextBelow(10)), rng.NextDouble());
      version_bumps += profiles.ero.version() != before ? 1 : 0;
    } else {
      predictor.InvalidateAll();
    }

    // After every mutation, cached predictions must equal a from-scratch
    // rescan for every host, as-is and with a hypothetical incoming pod.
    const PodSpec& probe = workload.pods[rng.NextBelow(workload.pods.size())];
    for (const Host& host : cluster.hosts()) {
      const Resources base_cached = predictor.PredictHost(host, nullptr);
      const Resources base_rescan = predictor.PredictHostRescan(host, nullptr);
      ASSERT_EQ(base_cached.cpu, base_rescan.cpu) << "host " << host.id;
      ASSERT_EQ(base_cached.mem, base_rescan.mem) << "host " << host.id;
      const Resources inc_cached = predictor.PredictHost(host, &probe);
      const Resources inc_rescan = predictor.PredictHostRescan(host, &probe);
      ASSERT_EQ(inc_cached.cpu, inc_rescan.cpu) << "host " << host.id;
      ASSERT_EQ(inc_cached.mem, inc_rescan.mem) << "host " << host.id;
    }
  }
  // The interleaving must actually have exercised both invalidation axes.
  EXPECT_GT(epoch_bumps, 100u);
  EXPECT_GT(version_bumps, 10u);
}

TEST(HostBaselineCacheStressTest, ParallelDistinctHostPredictionsAreSafe) {
  // ResourceUsagePredictor's contract: after ReserveHosts, concurrent
  // PredictHost calls on distinct hosts touch distinct cache slots. Drive
  // that pattern through a real pool (TSan-verifiable) and check values
  // against serial rescans.
  WorkloadConfig wconfig;
  wconfig.num_hosts = 64;
  wconfig.horizon = kTicksPerHour;
  wconfig.seed = 3;
  const Workload workload = WorkloadGenerator(wconfig).Generate();

  OptumProfiles profiles;
  ClusterState cluster(64, kUnitResources, 16);
  size_t next_spec = 0;
  for (HostId h = 0; h < 64; ++h) {
    for (int k = 0; k < 3 && next_spec < workload.pods.size(); ++k) {
      const PodSpec& spec = workload.pods[next_spec++];
      cluster.Place(spec, &AppOf(workload, spec.app), h, 0);
    }
  }

  ResourceUsagePredictor predictor(&profiles);
  predictor.ReserveHosts(cluster.num_hosts());
  const PodSpec& probe = workload.pods.front();
  ThreadPool pool(4);
  std::vector<Resources> predicted(cluster.num_hosts());
  pool.ParallelFor(cluster.num_hosts(), [&](size_t i) {
    predicted[i] = predictor.PredictHost(cluster.host(static_cast<HostId>(i)), &probe);
  });
  for (size_t i = 0; i < cluster.num_hosts(); ++i) {
    const Resources rescan =
        predictor.PredictHostRescan(cluster.host(static_cast<HostId>(i)), &probe);
    ASSERT_EQ(predicted[i].cpu, rescan.cpu) << "host " << i;
    ASSERT_EQ(predicted[i].mem, rescan.mem) << "host " << i;
  }
}

}  // namespace
}  // namespace optum::core

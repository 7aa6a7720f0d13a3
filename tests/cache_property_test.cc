// Property and stress tests for the scoring-cache layer:
//  - InterferencePredictor history independence: Predict and
//    MarginalInterference return the same bits cold, warmed in shuffled
//    order, and after ClearCache(), and each distinct table cell costs
//    exactly one miss per fill;
//  - ResidentInterference against a from-scratch sum over host.pods under
//    placement/removal churn, utilization drift within and across coarse
//    cells, changed weights, profile swaps with ClearCache(), and app ids
//    outside the catalog;
//  - the epoch-keyed host-baseline cache: randomized Place/Remove/Observe/
//    InvalidateAll interleavings must never let a stale prediction survive
//    a Host::change_epoch or EroTable::version bump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/interference_predictor.h"
#include "src/core/resource_usage_predictor.h"
#include "src/ml/regressor.h"
#include "src/stats/rng.h"
#include "src/trace/app_model.h"
#include "src/trace/workload_generator.h"

namespace optum::core {
namespace {

// --- Predictor table history independence ----------------------------------

// A model that is smooth and nonlinear in both host utilizations, so any
// evaluation that is not snapped to its table bucket's canonical point gives
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

  // The fixed query set: clusters of points jittered around table-bucket
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

  // The table cells a query touches, as (table, app, cpu bucket, mem
  // bucket) with table 0 = Predict, 1 = slope: the incoming app's Predict
  // cell at the post-placement point, plus for a marginal query one slope
  // cell per resident app at the CPU midpoint. Apps without a model touch
  // none. Each cell's first touch is the only miss it may cost.
  using CellKey = std::tuple<int, AppId, uint64_t, uint64_t>;
  const auto grid = [](double v) {
    return static_cast<uint64_t>(std::clamp(v, 0.0, 2.0) / 2.0 * 63.0);
  };
  const auto has_model = [](AppId app) { return app + 1 < kHistoryApps; };
  const auto add_cells = [&](const Query& q, std::set<CellKey>* cells) {
    if (has_model(q.app)) {
      cells->emplace(0, q.app, grid(q.cpu_after), grid(q.mem_after));
    }
    if (!q.marginal) {
      return;
    }
    for (const HostAppCount& c : cluster.host(q.host).app_counts) {
      if (has_model(c.app)) {
        cells->emplace(1, c.app, grid(0.5 * (q.cpu_before + q.cpu_after)),
                       grid(q.mem_after));
      }
    }
  };
  std::set<CellKey> all_cells;
  for (const Query& q : queries) {
    add_cells(q, &all_cells);
  }

  // Cold: every query answered by a predictor that has seen nothing else,
  // paying one miss per cell the query touches.
  std::vector<double> cold(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const InterferencePredictor fresh(&profiles);
    cold[i] = evaluate(fresh, queries[i]);
    std::set<CellKey> cells;
    add_cells(queries[i], &cells);
    ASSERT_EQ(fresh.cache_stats().misses(), cells.size()) << "query " << i;
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

  // Warm: one predictor fills its tables in a shuffled order (every bucket
  // is first missed by a random member of its cluster), then answers again
  // in another order, all from the tables.
  InterferencePredictor predictor(&profiles);
  shuffle();
  expect_cold(predictor, "warming pass");
  const uint64_t misses_after_warm = predictor.misses();
  EXPECT_EQ(misses_after_warm, all_cells.size());
  shuffle();
  expect_cold(predictor, "warm pass");
  EXPECT_EQ(predictor.misses(), misses_after_warm);  // all hits
  EXPECT_GT(predictor.cache_stats().slope_hits, 0u);

  // Cleared: ClearCache drops both tables, and refilling them in yet
  // another order still reproduces the cold values.
  predictor.ClearCache();
  EXPECT_EQ(predictor.cache_size(), 0u);
  shuffle();
  expect_cold(predictor, "after ClearCache");
  EXPECT_EQ(predictor.cache_stats().misses(), 2 * all_cells.size());
}

// --- ResidentInterference --------------------------------------------------------

// Centre of a utilization's cell on the coarse 8-bucket grid over [0, 2]
// that ResidentInterference snaps to.
double CoarseCentre(double v) {
  const double cell = std::floor(std::clamp(v, 0.0, 2.0) / 2.0 * 7.0);
  return std::min(2.0, (cell + 0.5) * (2.0 / 7.0));
}

size_t CoarseCell(double v) {
  return static_cast<size_t>(std::clamp(v, 0.0, 2.0) / 2.0 * 7.0);
}

// What ResidentInterference must return, from scratch: each resident pod's
// weighted Predict at the host's coarse cell centre, read from a predictor
// that has answered nothing else, grouped per app (count x value) in app
// order, the order Host::app_counts keeps.
double ExpectedResident(const OptumProfiles& profiles, const Host& host, double cpu,
                        double mem, double w_ls, double w_be) {
  const InterferencePredictor cold(&profiles);
  std::map<AppId, std::pair<SloClass, int>> per_app;
  for (const PodRuntime* pod : host.pods) {
    ++per_app.try_emplace(pod->spec.app, pod->spec.slo, 0).first->second.second;
  }
  double total = 0.0;
  for (const auto& [app, slo_count] : per_app) {
    const double ri = cold.Predict(app, CoarseCentre(cpu), CoarseCentre(mem));
    if (ri == 0.0) {
      continue;
    }
    const SloClass slo = slo_count.first;
    const double weight =
        IsLatencySensitive(slo) ? w_ls : slo == SloClass::kBe ? w_be : 0.0;
    total += weight * ri * static_cast<double>(slo_count.second);
  }
  return total;
}

// The catalog's apps (0..7 with models, 8 without) plus two ids outside
// the catalog: -1 and one past its last id.
std::vector<AppProfile> ResidentApps() {
  std::vector<AppProfile> apps;
  for (AppId app = 0; app < kHistoryApps; ++app) {
    apps.push_back(MakeHistoryApp(app));
  }
  AppProfile negative = MakeHistoryApp(0);
  negative.id = -1;
  AppProfile past_catalog = MakeHistoryApp(1);
  past_catalog.id = kHistoryApps + 40;
  apps.push_back(negative);
  apps.push_back(past_catalog);
  return apps;
}

TEST(ResidentInterferenceTest, MatchesPodSumUnderPlacementAndRemovalChurn) {
  const OptumProfiles profiles = MakeHistoryProfiles();
  const std::vector<AppProfile> apps = ResidentApps();
  const InterferencePredictor predictor(&profiles);
  constexpr int kHosts = 6;
  ClusterState cluster(kHosts, kUnitResources, /*history_window=*/8);
  Rng rng(77);
  std::vector<PodRuntime*> placed;
  PodId next_id = 0;
  for (int step = 0; step < 500; ++step) {
    if (placed.empty() || rng.NextDouble() < 0.6) {
      const AppProfile& app = apps[rng.NextBelow(apps.size())];
      placed.push_back(cluster.Place(MakePodSpec(next_id++, app), &app,
                                     static_cast<HostId>(rng.NextBelow(kHosts)), 0));
    } else {
      const size_t victim = rng.NextBelow(placed.size());
      cluster.Remove(placed[victim]);
      placed[victim] = placed.back();
      placed.pop_back();
    }
    // Each host at a fixed point (so only the pod set moves between steps)
    // and at a fresh one reaching past the grid's top edge.
    for (const Host& host : cluster.hosts()) {
      const double fixed_cpu = 0.3 + 0.2 * host.id;
      const double fixed_mem = 0.5;
      ASSERT_EQ(predictor.ResidentInterference(host, fixed_cpu, fixed_mem, 0.7, 0.3),
                ExpectedResident(profiles, host, fixed_cpu, fixed_mem, 0.7, 0.3))
          << "step " << step << ", host " << host.id;
      const double cpu = 2.2 * rng.NextDouble();
      const double mem = 2.2 * rng.NextDouble();
      ASSERT_EQ(predictor.ResidentInterference(host, cpu, mem, 0.7, 0.3),
                ExpectedResident(profiles, host, cpu, mem, 0.7, 0.3))
          << "step " << step << ", host " << host.id << " at (" << cpu << ", " << mem
          << ")";
    }
  }
}

TEST(ResidentInterferenceTest, UtilizationDriftWithinAndAcrossCoarseCells) {
  const OptumProfiles profiles = MakeHistoryProfiles();
  const std::vector<AppProfile> apps = ResidentApps();
  const InterferencePredictor predictor(&profiles);
  ClusterState cluster(1, kUnitResources, /*history_window=*/8);
  PodId next_id = 0;
  for (const AppProfile& app : apps) {
    for (int k = 0; k <= app.id % 3; ++k) {
      cluster.Place(MakePodSpec(next_id++, app), &app, 0, 0);
    }
  }
  const Host& host = cluster.host(0);
  double previous = 0.0;
  size_t previous_cell = ~size_t{0};
  std::set<double> distinct;
  for (int i = 0; i <= 440; ++i) {
    // CPU sweeps [0, 2.2] in steps far below a coarse cell; memory drifts
    // slowly, crossing cells of its own.
    const double cpu = 0.005 * i;
    const double mem = 0.2 + 0.003 * i;
    const double got = predictor.ResidentInterference(host, cpu, mem, 0.7, 0.3);
    ASSERT_EQ(got, ExpectedResident(profiles, host, cpu, mem, 0.7, 0.3))
        << "at (" << cpu << ", " << mem << ")";
    const size_t cell = CoarseCell(cpu) * 8 + CoarseCell(mem);
    if (cell == previous_cell) {
      ASSERT_EQ(got, previous) << "value moved within one coarse cell at " << cpu;
    }
    previous = got;
    previous_cell = cell;
    distinct.insert(got);
  }
  EXPECT_GT(distinct.size(), 8u);  // crossing cells does change the sum
}

TEST(ResidentInterferenceTest, ChangedWeightsAreHonoured) {
  const OptumProfiles profiles = MakeHistoryProfiles();
  const std::vector<AppProfile> apps = ResidentApps();
  const InterferencePredictor predictor(&profiles);
  ClusterState cluster(1, kUnitResources, /*history_window=*/8);
  PodId next_id = 0;
  for (const AppProfile& app : apps) {
    cluster.Place(MakePodSpec(next_id++, app), &app, 0, 0);
  }
  const Host& host = cluster.host(0);
  const std::vector<std::pair<double, double>> weights = {
      {0.7, 0.3}, {1.0, 0.0}, {0.0, 1.0}, {0.25, 2.0}, {0.7, 0.3}};
  std::vector<double> got;
  for (const auto& [w_ls, w_be] : weights) {
    got.push_back(predictor.ResidentInterference(host, 0.8, 0.6, w_ls, w_be));
    ASSERT_EQ(got.back(), ExpectedResident(profiles, host, 0.8, 0.6, w_ls, w_be))
        << "weights (" << w_ls << ", " << w_be << ")";
  }
  EXPECT_GT(got[1], 0.0);
  EXPECT_GT(got[2], 0.0);
  EXPECT_NE(got[1], got[2]);
  EXPECT_EQ(got[0], got[4]);
}

TEST(ResidentInterferenceTest, ProfileSwapWithClearCacheServesTheNewModels) {
  OptumProfiles profiles = MakeHistoryProfiles();
  const std::vector<AppProfile> apps = ResidentApps();
  InterferencePredictor predictor(&profiles);
  constexpr int kHosts = 4;
  ClusterState cluster(kHosts, kUnitResources, /*history_window=*/8);
  PodId next_id = 0;
  for (HostId h = 0; h < kHosts; ++h) {
    for (int k = 0; k < 5; ++k) {
      const AppProfile& app = apps[static_cast<size_t>(h + 2 * k) % apps.size()];
      cluster.Place(MakePodSpec(next_id++, app), &app, h, 0);
    }
  }
  const auto check_all = [&](const std::string& phase) {
    std::vector<double> values;
    for (const Host& host : cluster.hosts()) {
      for (const double cpu : {0.1, 0.65, 1.3, 2.1}) {
        values.push_back(predictor.ResidentInterference(host, cpu, 0.4, 0.7, 0.3));
        EXPECT_EQ(values.back(), ExpectedResident(profiles, host, cpu, 0.4, 0.7, 0.3))
            << phase << ", host " << host.id << ", cpu " << cpu;
      }
    }
    return values;
  };
  const std::vector<double> before = check_all("before the swap");

  // Swap the models in place (the scheduler's ReplaceProfiles reuses the
  // profiles object the same way): every curve changes, app 3 loses its
  // model and app 8 gains one.
  for (auto& [app, model] : profiles.apps) {
    model.model = app == 3 ? nullptr
                           : std::make_shared<SmoothContentionModel>(1.7 + 0.05 * app);
  }
  predictor.ClearCache();
  EXPECT_EQ(predictor.cache_size(), 0u);
  const std::vector<double> after = check_all("after ClearCache");
  EXPECT_NE(before, after);
  EXPECT_EQ(check_all("warm after ClearCache"), after);
}

TEST(ResidentInterferenceTest, AppsOutsideTheCatalogReadZero) {
  const OptumProfiles profiles = MakeHistoryProfiles();
  const InterferencePredictor predictor(&profiles);
  ClusterState cluster(1, kUnitResources, /*history_window=*/8);
  PodId next_id = 0;
  for (const AppId id : {AppId{-1}, AppId{kHistoryApps - 1}, AppId{kHistoryApps},
                         AppId{kHistoryApps + 40}}) {
    AppProfile app = MakeHistoryApp(id < 0 ? 0 : id);
    app.id = id;
    cluster.Place(MakePodSpec(next_id++, app), &app, 0, 0);
    EXPECT_EQ(predictor.Predict(id, 0.9, 0.9), 0.0) << "app " << id;
  }
  for (const double cpu : {0.0, 0.9, 2.5}) {
    EXPECT_EQ(predictor.ResidentInterference(cluster.host(0), cpu, 0.9, 0.7, 0.3), 0.0)
        << "cpu " << cpu;
  }
  EXPECT_EQ(predictor.cache_stats().misses(), 0u);
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

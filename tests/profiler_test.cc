// Round profiler (DESIGN.md §14): golden optum.profile.v1 renders, the
// critical-path / idle attribution rules, window cadence, and the
// determinism contract — the profile's *count* fields (window ids, rounds,
// shards, per-phase counts) are bit-identical across every
// {pipeline_depth} × {ingest_threads} combination,
// exactly like the placed-pod sets the pipelined serve tests pin. The ns
// fields are wall-clock-derived and excluded. Labeled `observability` so
// the suite also runs under TSan / ASan+UBSan via tools/sanitize_runner.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/offline_profiler.h"
#include "src/obs/json_reader.h"
#include "src/obs/profiler.h"
#include "src/obs/schema.h"
#include "src/sched/baselines.h"
#include "src/serve/placement_service.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"

namespace optum {
namespace {

using obs::ProfileCriticalPathRow;
using obs::ProfileLog;
using obs::ProfilePhase;
using obs::ProfilePhaseRow;
using obs::ProfileWindowRow;
using obs::RoundProfiler;

std::string ReadFileOrDie(const std::string& path) {
  std::string out;
  EXPECT_TRUE(obs::ReadWholeFile(path, &out)) << path;
  return out;
}

// ---------------------------------------------------------- golden renders

TEST(ProfileLogTest, GoldenHeaderAndRows) {
  EXPECT_EQ(ProfileLog::RenderHeader(),
            R"({"schema":"optum.profile.v1","clock":"ns"})");
  EXPECT_EQ(
      ProfileLog::Render(ProfileWindowRow{.window = 3, .rounds = 64,
                                          .shards = 2, .barrier_ns = 12345}),
      R"({"window":3,"rounds":64,"shards":2,"barrier_ns":12345})");
  EXPECT_EQ(
      ProfileLog::Render(ProfilePhaseRow{.window = 3, .shard = 1,
                                         .phase = ProfilePhase::kSpecScore,
                                         .count = 40, .total_ns = 900,
                                         .max_ns = 70}),
      R"({"window":3,"shard":1,"phase":"spec_score","count":40,)"
      R"("total_ns":900,"max_ns":70})");
  EXPECT_EQ(
      ProfileLog::Render(ProfileCriticalPathRow{
          .window = 3, .shard = 0,
          .phase = ProfilePhase::kFinalizeRevalidate, .rounds_bound = 5,
          .bound_ns = 1000, .idle_ns = 250}),
      R"({"window":3,"cp_shard":0,"cp_phase":"finalize_revalidate",)"
      R"("rounds_bound":5,"bound_ns":1000,"idle_ns":250})");
}

TEST(ProfileLogTest, PhaseNamesAreStable) {
  EXPECT_STREQ(ProfilePhaseName(ProfilePhase::kIngestWait), "ingest_wait");
  EXPECT_STREQ(ProfilePhaseName(ProfilePhase::kSpecScore), "spec_score");
  EXPECT_STREQ(ProfilePhaseName(ProfilePhase::kFinalizeRevalidate),
               "finalize_revalidate");
  EXPECT_STREQ(ProfilePhaseName(ProfilePhase::kResolve), "resolve");
  EXPECT_STREQ(ProfilePhaseName(ProfilePhase::kCommit), "commit");
  EXPECT_STREQ(ProfilePhaseName(ProfilePhase::kPressureSweep),
               "pressure_sweep");
  EXPECT_STREQ(ProfilePhaseName(ProfilePhase::kIdle), "idle");
  EXPECT_TRUE(obs::IsBarrierPhase(ProfilePhase::kSpecScore));
  EXPECT_TRUE(obs::IsBarrierPhase(ProfilePhase::kFinalizeRevalidate));
  EXPECT_FALSE(obs::IsBarrierPhase(ProfilePhase::kResolve));
  EXPECT_FALSE(obs::IsBarrierPhase(ProfilePhase::kIdle));
}

// ------------------------------------------------------- attribution rules

TEST(RoundProfilerTest, NullScopeIsANoOp) {
  // The disabled path: scopes against a null profiler must be safe and
  // side-effect free (one branch, no clock read).
  RoundProfiler::Scope outer(nullptr, ProfilePhase::kSpecScore, 7);
  RoundProfiler::Scope inner(nullptr, ProfilePhase::kCommit, 0);
}

TEST(RoundProfilerTest, CriticalPathIdleAndExactFileBytes) {
  const std::string path = ::testing::TempDir() + "/profile_synthetic.jsonl";
  ProfileLog log(path);
  ASSERT_TRUE(log.ok());

  RoundProfiler::Options options;
  options.window_rounds = 1;
  RoundProfiler profiler(options);
  profiler.set_log(&log);
  profiler.set_num_lanes(2);

  // Lane 1's finalize (300ns) bounds the 400ns barrier; lane 0 stalls for
  // 300ns, lane 1 for 100ns, and only lane 0's stall is charged to the
  // bounding row.
  profiler.RecordNs(ProfilePhase::kSpecScore, 0, 100);
  profiler.RecordNs(ProfilePhase::kFinalizeRevalidate, 1, 300);
  profiler.RecordNs(ProfilePhase::kCommit, 0, 50);
  profiler.EndRound(/*barrier_ns=*/400);
  profiler.Finalize();

  EXPECT_EQ(profiler.rounds_profiled(), 1);
  EXPECT_EQ(profiler.windows_flushed(), 1);
  EXPECT_EQ(profiler.barrier_ns_total(), 400);
  EXPECT_EQ(profiler.total_ns(ProfilePhase::kIdle), 400);  // 300 + 100
  EXPECT_EQ(profiler.count(ProfilePhase::kIdle), 2);       // both lanes active
  EXPECT_EQ(profiler.total_ns(ProfilePhase::kCommit), 50);

  const std::string expected =
      R"({"schema":"optum.profile.v1","clock":"ns"})" "\n"
      R"({"window":0,"rounds":1,"shards":2,"barrier_ns":400})" "\n"
      R"({"window":0,"shard":0,"phase":"spec_score","count":1,)"
      R"("total_ns":100,"max_ns":100})" "\n"
      R"({"window":0,"shard":0,"phase":"commit","count":1,)"
      R"("total_ns":50,"max_ns":50})" "\n"
      R"({"window":0,"shard":0,"phase":"idle","count":1,)"
      R"("total_ns":300,"max_ns":300})" "\n"
      R"({"window":0,"shard":1,"phase":"finalize_revalidate","count":1,)"
      R"("total_ns":300,"max_ns":300})" "\n"
      R"({"window":0,"shard":1,"phase":"idle","count":1,)"
      R"("total_ns":100,"max_ns":100})" "\n"
      R"({"window":0,"cp_shard":1,"cp_phase":"finalize_revalidate",)"
      R"("rounds_bound":1,"bound_ns":400,"idle_ns":300})" "\n";
  log.Flush();
  EXPECT_EQ(ReadFileOrDie(path), expected);
  std::remove(path.c_str());

  // The deterministic projection carries counts only — never ns.
  EXPECT_EQ(profiler.RenderCounts(),
            "window 0 rounds 1 shards 2\n"
            "window 0 shard 0 phase spec_score count 1\n"
            "window 0 shard 0 phase commit count 1\n"
            "window 0 shard 0 phase idle count 1\n"
            "window 0 shard 1 phase finalize_revalidate count 1\n"
            "window 0 shard 1 phase idle count 1\n");
  EXPECT_EQ(profiler.RenderCounts().find("_ns"), std::string::npos);
}

TEST(RoundProfilerTest, ZeroBarrierSubstitutesMaxLaneBusy) {
  RoundProfiler::Options options;
  options.window_rounds = 1;
  RoundProfiler profiler(options);
  profiler.set_num_lanes(2);
  profiler.RecordNs(ProfilePhase::kSpecScore, 0, 120);
  profiler.RecordNs(ProfilePhase::kSpecScore, 1, 500);
  profiler.EndRound(/*barrier_ns=*/0);  // simulator path: no measured wall
  profiler.Finalize();
  // Max busy (500) substitutes; lane 0 stalls 380, lane 1 not at all.
  EXPECT_EQ(profiler.barrier_ns_total(), 500);
  EXPECT_EQ(profiler.total_ns(ProfilePhase::kIdle), 380);
}

TEST(RoundProfilerTest, BarrierClampsUpToMaxBusyOnFewCores) {
  // On a time-sliced single core the measured wall can only exceed lane
  // busy; if clock slew ever reports less, idle must not go negative.
  RoundProfiler::Options options;
  options.window_rounds = 1;
  RoundProfiler profiler(options);
  profiler.RecordNs(ProfilePhase::kFinalizeRevalidate, 0, 900);
  profiler.EndRound(/*barrier_ns=*/100);
  profiler.Finalize();
  EXPECT_EQ(profiler.barrier_ns_total(), 900);
  EXPECT_EQ(profiler.total_ns(ProfilePhase::kIdle), 0);
}

TEST(RoundProfilerTest, LanesWithoutBarrierRecordsAreNotStalled) {
  RoundProfiler::Options options;
  options.window_rounds = 1;
  RoundProfiler profiler(options);
  profiler.set_num_lanes(3);
  // Lane 2 had no pod this round: no barrier records, so it is
  // idle-by-design, not stalled — no idle charge, no count.
  profiler.RecordNs(ProfilePhase::kSpecScore, 0, 200);
  profiler.RecordNs(ProfilePhase::kSpecScore, 1, 100);
  profiler.EndRound(/*barrier_ns=*/250);
  profiler.Finalize();
  EXPECT_EQ(profiler.count(ProfilePhase::kIdle), 2);
  EXPECT_EQ(profiler.total_ns(ProfilePhase::kIdle), 50 + 150);
}

TEST(RoundProfilerTest, SerialOnlyRoundHasNoCriticalPath) {
  const std::string path = ::testing::TempDir() + "/profile_serial.jsonl";
  ProfileLog log(path);
  ASSERT_TRUE(log.ok());
  RoundProfiler::Options options;
  options.window_rounds = 1;
  RoundProfiler profiler(options);
  profiler.set_log(&log);
  profiler.RecordNs(ProfilePhase::kCommit, 0, 70);
  profiler.EndRound(/*barrier_ns=*/999);  // no barrier records: wall ignored
  profiler.Finalize();
  EXPECT_EQ(profiler.barrier_ns_total(), 0);
  EXPECT_EQ(profiler.count(ProfilePhase::kIdle), 0);
  log.Flush();
  const std::string text = ReadFileOrDie(path);
  std::remove(path.c_str());
  EXPECT_EQ(text.find("cp_shard"), std::string::npos);
  EXPECT_NE(text.find(R"("phase":"commit","count":1)"), std::string::npos);
}

TEST(RoundProfilerTest, TiesBreakToLowestLaneAndLowerPhase) {
  const std::string path = ::testing::TempDir() + "/profile_ties.jsonl";
  ProfileLog log(path);
  ASSERT_TRUE(log.ok());
  RoundProfiler::Options options;
  options.window_rounds = 1;
  RoundProfiler profiler(options);
  profiler.set_log(&log);
  profiler.set_num_lanes(2);
  // Equal lane busy and, within lane 0, equal spec/finalize time: lane 0
  // bounds (lowest lane) via spec_score (lower enum).
  profiler.RecordNs(ProfilePhase::kSpecScore, 0, 100);
  profiler.RecordNs(ProfilePhase::kFinalizeRevalidate, 0, 100);
  profiler.RecordNs(ProfilePhase::kSpecScore, 1, 200);
  profiler.EndRound(/*barrier_ns=*/200);
  profiler.Finalize();
  log.Flush();
  const std::string text = ReadFileOrDie(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find(R"("cp_shard":0,"cp_phase":"spec_score")"),
            std::string::npos);
}

TEST(RoundProfilerTest, WindowCadenceAndFinalizeIdempotence) {
  RoundProfiler::Options options;
  options.window_rounds = 4;
  RoundProfiler profiler(options);
  for (int round = 0; round < 10; ++round) {
    profiler.RecordNs(ProfilePhase::kSpecScore, 0, 10);
    profiler.EndRound(10);
  }
  EXPECT_EQ(profiler.windows_flushed(), 2);  // rounds 0-3 and 4-7
  EXPECT_EQ(profiler.rounds_profiled(), 10);
  profiler.Finalize();  // flushes the partial 2-round window
  EXPECT_EQ(profiler.windows_flushed(), 3);
  const std::string after_first = profiler.RenderCounts();
  profiler.Finalize();  // idempotent: nothing pending, nothing emitted
  EXPECT_EQ(profiler.windows_flushed(), 3);
  EXPECT_EQ(profiler.RenderCounts(), after_first);
  // Rounds keep working after a finalize (early-exit callers re-finalize).
  profiler.RecordNs(ProfilePhase::kCommit, 0, 5);
  profiler.EndRound(0);
  profiler.Finalize();
  EXPECT_EQ(profiler.windows_flushed(), 4);
  EXPECT_EQ(profiler.count(ProfilePhase::kSpecScore), 10);
}

TEST(RoundProfilerTest, WriteCollapsedEmitsCumulativeStacks) {
  const std::string path = ::testing::TempDir() + "/profile.folded";
  RoundProfiler::Options options;
  options.window_rounds = 1;
  RoundProfiler profiler(options);
  profiler.set_num_lanes(2);
  profiler.RecordNs(ProfilePhase::kSpecScore, 0, 40);
  profiler.RecordNs(ProfilePhase::kResolve, 0, 25);
  profiler.RecordNs(ProfilePhase::kFinalizeRevalidate, 1, 60);
  profiler.EndRound(60);
  profiler.Finalize();
  ASSERT_TRUE(profiler.WriteCollapsed(path));
  const std::string text = ReadFileOrDie(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("round;shard0;spec_score 40\n"), std::string::npos);
  EXPECT_NE(text.find("round;shard0;resolve 25\n"), std::string::npos);
  EXPECT_NE(text.find("round;shard1;finalize_revalidate 60\n"),
            std::string::npos);
  // Idle is a real stack too: lane 0 stalled 20ns behind lane 1.
  EXPECT_NE(text.find("round;shard0;idle 20\n"), std::string::npos);
  EXPECT_FALSE(profiler.WriteCollapsed("/nonexistent-dir/x/profile.folded"));
}

// ------------------------------------------------- serve determinism matrix

Workload MakeWorkload(int hosts, Tick horizon, uint64_t seed) {
  WorkloadConfig config;
  config.num_hosts = hosts;
  config.horizon = horizon;
  config.seed = seed;
  return WorkloadGenerator(config).Generate();
}

struct ServeWorld {
  Workload workload;
  core::OptumProfiles profiles;
};

const ServeWorld& World() {
  static const ServeWorld* world = [] {
    auto* w = new ServeWorld;
    w->workload = MakeWorkload(64, 3 * kTicksPerHour, 23);
    SimConfig sim_config;
    sim_config.pod_usage_period = 5;
    sim_config.max_attempts_per_tick = 1500;
    AlibabaBaseline reference;
    const SimResult ref = Simulator(w->workload, sim_config, reference).Run();
    core::OfflineProfilerConfig prof;
    prof.max_train_samples = 600;
    w->profiles = core::OfflineProfiler(prof).BuildProfiles(ref.trace);
    return w;
  }();
  return *world;
}

struct ProfiledRun {
  std::string counts;           // RoundProfiler::RenderCounts projection
  std::vector<PodId> placed;    // cross-check against the PR-9 invariant
  int64_t windows = 0;
  int64_t rounds = 0;
};

// Mirrors serve_pipeline_test's mild-overload regime, with the profiler
// attached through the Sinks bundle. A small window keeps several windows
// in a 10-round run.
ProfiledRun RunProfiled(size_t pipeline_depth, size_t ingest_threads,
                        ProfileLog* log = nullptr) {
  const ServeWorld& world = World();
  serve::ServeConfig config;
  config.arrival.offered_pods_per_sec = 120.0;
  config.arrival.round_seconds = 1.0;
  config.distributed.num_schedulers = 2;
  config.distributed.max_attempts_per_pod = 8;
  config.queue_capacity_per_shard = 1024;
  config.max_schedule_per_round = 48;
  config.max_requeues = 8;
  config.mean_residency_rounds = 12.0;
  config.pipeline_depth = pipeline_depth;
  config.ingest_threads = ingest_threads;

  RoundProfiler::Options popts;
  popts.window_rounds = 8;
  RoundProfiler profiler(popts);
  profiler.set_log(log);

  ClusterState cluster(300, kUnitResources, /*history_window=*/64);
  serve::PlacementService service(world.workload, world.profiles, &cluster,
                                  config);
  obs::Sinks sinks;
  sinks.profile = &profiler;
  service.AttachSinks(sinks);
  service.RunRounds(10);
  service.Drain();
  profiler.Finalize();

  ProfiledRun out;
  out.counts = profiler.RenderCounts();
  out.placed = service.PlacedPodIds();
  out.windows = profiler.windows_flushed();
  out.rounds = profiler.rounds_profiled();
  return out;
}

// The tentpole invariant: profile count fields are bit-identical across the
// full pipeline/ingest matrix, like every other export.
TEST(ProfilerServeTest, CountsBitIdenticalAcrossPipelineMatrix) {
  const ProfiledRun base = RunProfiled(/*pipeline_depth=*/1,
                                       /*ingest_threads=*/0);
  ASSERT_GT(base.rounds, 0);
  ASSERT_GT(base.windows, 0);
  ASSERT_FALSE(base.counts.empty());
  ASSERT_FALSE(base.placed.empty());
  for (const size_t depth : {size_t{1}, size_t{2}, size_t{3}}) {
    for (const size_t ingest : {size_t{0}, size_t{1}}) {
      if (depth == 1 && ingest == 0) {
        continue;
      }
      const ProfiledRun run = RunProfiled(depth, ingest);
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " ingest=" + std::to_string(ingest));
      EXPECT_EQ(run.placed, base.placed);
      EXPECT_EQ(run.counts, base.counts);
    }
  }
}

TEST(ProfilerServeTest, ProfileFileParsesAndWindowsHaveCriticalPath) {
  const std::string path = ::testing::TempDir() + "/serve_profile.jsonl";
  {
    ProfileLog log(path);
    ASSERT_TRUE(log.ok());
    const ProfiledRun run = RunProfiled(/*pipeline_depth=*/2,
                                        /*ingest_threads=*/1, &log);
    ASSERT_GT(run.windows, 0);
  }
  std::map<int64_t, int64_t> window_barriers;  // window -> barrier_ns
  std::map<int64_t, int64_t> window_cp_rows;
  int64_t phase_rows = 0;
  const std::string err = obs::ForEachJsonlRow(
      path, obs::kProfileSchema, [&](const obs::JsonValue& row) {
        if (const obs::JsonValue* cp = row.Find("cp_shard"); cp != nullptr) {
          ++window_cp_rows[row.Find("window")->AsInt()];
          EXPECT_GT(row.Find("rounds_bound")->AsInt(), 0);
          return;
        }
        if (row.Find("shard") != nullptr) {
          ++phase_rows;
          EXPECT_GT(row.Find("count")->AsInt(), 0);
          return;
        }
        window_barriers[row.Find("window")->AsInt()] =
            row.Find("barrier_ns")->AsInt();
      });
  std::remove(path.c_str());
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_FALSE(window_barriers.empty());
  EXPECT_GT(phase_rows, 0);
  // Every window that saw barrier work has critical-path attribution.
  for (const auto& [window, barrier_ns] : window_barriers) {
    if (barrier_ns > 0) {
      EXPECT_GT(window_cp_rows[window], 0) << "window " << window;
    }
  }
}

// --------------------------------------------------------- simulator ticks

TEST(ProfilerSimTest, TickPhasesProfileThroughSinks) {
  const Workload workload = MakeWorkload(48, kTicksPerHour, 7);
  RoundProfiler::Options popts;
  popts.window_rounds = 64;
  RoundProfiler profiler(popts);

  AlibabaBaseline policy;
  SimConfig sim_config;
  sim_config.pod_usage_period = 5;
  sim_config.sinks.profile = &profiler;
  const SimResult result = Simulator(workload, sim_config, policy).Run();
  ASSERT_GT(result.scheduled_pods, 0);

  // Simulator::Run finalizes at the horizon: one round per tick, every tick
  // scoped through schedule/usage/completion phases.
  EXPECT_GT(profiler.rounds_profiled(), 0);
  EXPECT_GT(profiler.windows_flushed(), 0);
  EXPECT_EQ(profiler.count(ProfilePhase::kSpecScore),
            profiler.rounds_profiled());
  EXPECT_EQ(profiler.count(ProfilePhase::kResolve),
            profiler.rounds_profiled());
  EXPECT_EQ(profiler.count(ProfilePhase::kCommit), profiler.rounds_profiled());
  EXPECT_EQ(profiler.count(ProfilePhase::kIngestWait),
            profiler.rounds_profiled());
  // Single-lane: the scheduling phase substitutes for the barrier wall.
  EXPECT_GT(profiler.barrier_ns_total(), 0);
  EXPECT_EQ(profiler.count(ProfilePhase::kIdle), profiler.rounds_profiled());
  EXPECT_EQ(profiler.total_ns(ProfilePhase::kIdle), 0);
}

}  // namespace
}  // namespace optum

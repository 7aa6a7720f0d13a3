// Failure-injection and robustness tests: malformed trace files, corrupted
// inputs, degenerate configurations, and cross-path consistency checks.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/json_reader.h"
#include "src/optum.h"

namespace optum {
namespace {

namespace fs = std::filesystem;

class TraceIoRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs test processes in parallel, and a shared
    // directory races with other instances' TearDown remove_all.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("optum_robustness_") + info->name() + "_" +
             std::to_string(static_cast<long>(::getpid()))))
               .string();
    WriteValidBundle();
  }
  void TearDown() override { fs::remove_all(dir_); }

  // (Re)writes the valid one-node, one-pod bundle every test starts from.
  void WriteValidBundle() {
    TraceBundle bundle;
    bundle.nodes.push_back(NodeMeta{0, kUnitResources});
    PodMeta pod;
    pod.pod_id = 1;
    pod.app_id = 2;
    pod.slo = SloClass::kBe;
    pod.request = {0.1, 0.05};
    pod.limit = {0.2, 0.1};
    bundle.pods.push_back(pod);
    bundle.node_usage.push_back(NodeUsageRecord{0, 0, 0.5, 0.4, 0, 0});
    ASSERT_TRUE(WriteTraceBundle(bundle, dir_));
  }

  void Corrupt(const std::string& file, const std::string& line) {
    std::ofstream out(dir_ + "/" + file, std::ios::app);
    out << line << "\n";
  }

  std::string dir_;
};

TEST_F(TraceIoRobustnessTest, ValidBundleLoads) {
  TraceBundle loaded;
  EXPECT_TRUE(ReadTraceBundle(dir_, &loaded));
  EXPECT_EQ(loaded.pods.size(), 1u);
}

TEST_F(TraceIoRobustnessTest, WrongColumnCountRejected) {
  Corrupt("pods.csv", "1,2,3");  // 3 fields instead of 9
  TraceBundle loaded;
  EXPECT_FALSE(ReadTraceBundle(dir_, &loaded));
}

TEST_F(TraceIoRobustnessTest, GarbageRowRejected) {
  Corrupt("node_usage.csv", "not,numbers,at,all,xx,yy");
  TraceBundle loaded;
  EXPECT_FALSE(ReadTraceBundle(dir_, &loaded));
}

TEST_F(TraceIoRobustnessTest, MissingFileRejected) {
  fs::remove(dir_ + "/lifecycles.csv");
  TraceBundle loaded;
  EXPECT_FALSE(ReadTraceBundle(dir_, &loaded));
}

TEST_F(TraceIoRobustnessTest, RowLongerThanOldLineBufferLoadsAsOneRow) {
  // A valid pods.csv row padded with leading zeros well past 512 bytes. A
  // fixed-size line buffer would split it into two rows (or cut a number
  // at the boundary); it must load as one row with the right values.
  const std::string pad(700, '0');
  const std::string row = pad + "7," + pad + "3,0,0.25,0.125,0.5,0.25," + pad + "42,0";
  ASSERT_GT(row.size(), 2000u);
  Corrupt("pods.csv", row);
  TraceBundle loaded;
  ASSERT_TRUE(ReadTraceBundle(dir_, &loaded));
  ASSERT_EQ(loaded.pods.size(), 2u);
  const PodMeta& pod = loaded.pods[1];
  EXPECT_EQ(pod.pod_id, 7);
  EXPECT_EQ(pod.app_id, 3);
  EXPECT_EQ(pod.slo, static_cast<SloClass>(0));
  EXPECT_DOUBLE_EQ(pod.request.cpu, 0.25);
  EXPECT_DOUBLE_EQ(pod.request.mem, 0.125);
  EXPECT_DOUBLE_EQ(pod.limit.cpu, 0.5);
  EXPECT_DOUBLE_EQ(pod.limit.mem, 0.25);
  EXPECT_EQ(pod.submit_tick, 42);
  EXPECT_EQ(pod.original_machine_id, 0);
}

// Valid rows the hostile-field tests below corrupt one field at a time.
const std::vector<std::string> kPodRow = {"7",   "3",    "0",  "0.25", "0.125",
                                          "0.5", "0.25", "42", "0"};
const std::vector<std::string> kLifecycleRow = {"7", "3", "1",   "40",  "41", "90",
                                                "0", "15", "40.0", "48.0", "0.2"};

std::string JoinCsv(const std::vector<std::string>& fields) {
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    line += (i > 0 ? "," : "") + fields[i];
  }
  return line;
}

// strtod accepts nan, inf and huge exponents, and converting such a value
// to an integer type is undefined behaviour. Every integer field (ids,
// ticks, host, slo) must make the load fail instead.
TEST_F(TraceIoRobustnessTest, NonFiniteOrOutOfRangeIntegerFieldsRejected) {
  struct Case {
    const char* file;
    const std::vector<std::string>* row;
    std::vector<size_t> integer_fields;
  };
  const Case cases[] = {
      {"pods.csv", &kPodRow, {0, 1, 2, 7, 8}},
      {"lifecycles.csv", &kLifecycleRow, {0, 1, 2, 3, 4, 5, 6}},
  };
  for (const Case& c : cases) {
    // Control: the unmodified row loads, so a failure below is the field's.
    WriteValidBundle();
    Corrupt(c.file, JoinCsv(*c.row));
    TraceBundle loaded;
    ASSERT_TRUE(ReadTraceBundle(dir_, &loaded)) << c.file;
    for (const size_t field : c.integer_fields) {
      for (const char* bad : {"nan", "inf", "1e300", "-1e300"}) {
        std::vector<std::string> row = *c.row;
        row[field] = bad;
        WriteValidBundle();
        Corrupt(c.file, JoinCsv(row));
        EXPECT_FALSE(ReadTraceBundle(dir_, &loaded))
            << c.file << " field " << field << " = " << bad;
      }
    }
  }
}

TEST_F(TraceIoRobustnessTest, SloOutsideEnumRejected) {
  for (const char* file : {"pods.csv", "lifecycles.csv"}) {
    std::vector<std::string> row =
        std::string(file) == "pods.csv" ? kPodRow : kLifecycleRow;
    row[2] = "9";  // SloClass has six enumerators, 0..5
    WriteValidBundle();
    Corrupt(file, JoinCsv(row));
    TraceBundle loaded;
    EXPECT_FALSE(ReadTraceBundle(dir_, &loaded)) << file;
  }
}

TEST_F(TraceIoRobustnessTest, IntegerFieldRangeIsExactAtTheTypeBoundary) {
  // HostId is int32: 2^31 - 1 converts, 2^31 does not.
  std::vector<std::string> row = kPodRow;
  row[8] = "2147483647";
  Corrupt("pods.csv", JoinCsv(row));
  TraceBundle loaded;
  ASSERT_TRUE(ReadTraceBundle(dir_, &loaded));
  EXPECT_EQ(loaded.pods.back().original_machine_id, 2147483647);
  row[8] = "2147483648";
  WriteValidBundle();
  Corrupt("pods.csv", JoinCsv(row));
  EXPECT_FALSE(ReadTraceBundle(dir_, &loaded));
}

TEST_F(TraceIoRobustnessTest, BlankLinesTolerated) {
  Corrupt("pods.csv", "");
  TraceBundle loaded;
  EXPECT_TRUE(ReadTraceBundle(dir_, &loaded));
  EXPECT_EQ(loaded.pods.size(), 1u);
}

// --- Hostile JSON / JSONL input -------------------------------------------------

// Far deeper than any stack: without a nesting limit the recursive parser
// overflows it.
std::string DeeplyNested(size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonRobustnessTest, DeepNestingIsAParseErrorWithOffset) {
  obs::JsonValue doc;
  std::string error;
  EXPECT_FALSE(obs::ParseJson(DeeplyNested(1000000), &doc, &error));
  EXPECT_EQ(error, "nesting too deep at byte " +
                       std::to_string(obs::kMaxJsonDepth));
  // The limit itself still parses.
  EXPECT_TRUE(obs::ParseJson(
      DeeplyNested(static_cast<size_t>(obs::kMaxJsonDepth)), &doc, &error))
      << error;
}

TEST(JsonRobustnessTest, DeepNestingInJsonlRowIsAOneLineError) {
  const std::string path =
      (fs::temp_directory_path() /
       ("optum_deep_" + std::to_string(static_cast<long>(::getpid())) + ".jsonl"))
          .string();
  {
    std::ofstream out(path);
    out << "{\"schema\":\"optum.profile.v1\",\"clock\":\"ns\"}\n"
        << DeeplyNested(1000000) << "\n";
  }
  int rows = 0;
  const std::string error = obs::ForEachJsonlRow(
      path, "optum.profile.v1", [&](const obs::JsonValue&) { ++rows; });
  fs::remove(path);
  EXPECT_EQ(rows, 0);
  EXPECT_NE(error.find("nesting too deep at byte"), std::string::npos) << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << error;
}

TEST(JsonRobustnessTest, NonJsonNumberTokensRejected) {
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                           "-Infinity", "[1,inf]", "{\"tick\":-Infinity}", "+1",
                           ".5", "-"}) {
    obs::JsonValue doc;
    std::string error;
    EXPECT_FALSE(obs::ParseJson(text, &doc, &error)) << text;
  }
  for (const char* text : {"0", "-0", "12", "0.5", "-1e-3", "2E+8"}) {
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(obs::ParseJson(text, &doc, &error)) << text << ": " << error;
    EXPECT_TRUE(doc.is_number()) << text;
  }
}

TEST(JsonRobustnessTest, AsIntFallsBackOutsideInt64Range) {
  const auto as_int = [](const char* text) {
    obs::JsonValue doc;
    std::string error;
    EXPECT_TRUE(obs::ParseJson(text, &doc, &error)) << text << ": " << error;
    return doc.AsInt(/*fallback=*/-7);
  };
  EXPECT_EQ(as_int("1e300"), -7);
  EXPECT_EQ(as_int("-1e300"), -7);
  EXPECT_EQ(as_int("9223372036854775808"), -7);  // 2^63
  // Exact at the boundary: -2^63 and the largest double below 2^63 convert.
  EXPECT_EQ(as_int("-9223372036854775808"), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(as_int("9223372036854774784"), int64_t{9223372036854774784});
  EXPECT_EQ(as_int("-3.9"), -3);
}

// --- Degenerate configurations ------------------------------------------------

TEST(DegenerateConfigTest, ProfilerOnEmptyTrace) {
  core::OfflineProfiler profiler;
  const core::OptumProfiles profiles = profiler.BuildProfiles(TraceBundle{});
  EXPECT_EQ(profiles.apps.size(), 0u);
  EXPECT_EQ(profiles.ero.size(), 0u);
}

TEST(DegenerateConfigTest, OptumWithEmptyProfilesStillSchedules) {
  core::OptumConfig config;
  config.sample_fraction = 1.0;
  config.min_candidates = 2;
  core::OptumScheduler scheduler(core::OptumProfiles{}, config);
  ClusterState cluster(2, kUnitResources, 8);
  AppProfile app;
  app.id = 0;
  app.slo = SloClass::kBe;
  app.request = {0.1, 0.05};
  app.limit = {0.2, 0.1};
  PodSpec pod;
  pod.id = 1;
  pod.app = 0;
  pod.slo = SloClass::kBe;
  pod.request = app.request;
  pod.limit = app.limit;
  const PlacementDecision d = scheduler.Place(pod, app, cluster);
  EXPECT_TRUE(d.placed());
}

TEST(DegenerateConfigTest, SimulatorWithOneHostOnePod) {
  WorkloadConfig config;
  config.num_hosts = 1;
  config.horizon = 20;
  config.num_ls_apps = 1;
  config.num_lsr_apps = 1;
  config.num_be_apps = 1;
  config.num_system_apps = 0;
  config.num_vmenv_apps = 0;
  config.num_unknown_apps = 0;
  config.initial_ls_request_load = 0.1;
  config.seed = 1;
  const Workload workload = WorkloadGenerator(config).Generate();
  AlibabaBaseline scheduler;
  SimConfig sim_config;
  const SimResult result = Simulator(workload, sim_config, scheduler).Run();
  EXPECT_GT(result.scheduled_pods, 0);
}

TEST(DegenerateConfigTest, EmptyBatchDistributedScheduling) {
  core::DistributedCoordinator coordinator(core::OptumProfiles{}, {});
  ClusterState cluster(2, kUnitResources, 8);
  const core::DistributedOutcome outcome = coordinator.ScheduleBatch(
      {}, cluster, [](const core::ScheduleProposal&) { FAIL(); });
  EXPECT_TRUE(outcome.placed.empty());
  EXPECT_TRUE(outcome.unplaced.empty());
  EXPECT_EQ(outcome.rounds_used, 0);
}

// --- Cross-path consistency -----------------------------------------------------

TEST(ConsistencyTest, OnlineAndOfflineEroAgreeOnSameObservations) {
  // Feed identical co-location observations through the offline profiler
  // (trace records) and the online observer (cluster state): the resulting
  // pair values must match.
  const AppId app_a = 0, app_b = 1;
  const double cpu_a = 0.06, cpu_b = 0.03;
  const Resources req_a{0.2, 0.05}, req_b{0.1, 0.05};

  // Offline: one trace sample.
  TraceBundle trace;
  trace.nodes.push_back(NodeMeta{0, kUnitResources});
  for (int p = 0; p < 2; ++p) {
    PodMeta meta;
    meta.pod_id = p;
    meta.app_id = p == 0 ? app_a : app_b;
    meta.slo = SloClass::kBe;
    meta.request = p == 0 ? req_a : req_b;
    meta.limit = meta.request * 2.0;
    trace.pods.push_back(meta);
    PodUsageRecord rec;
    rec.pod_id = p;
    rec.host = 0;
    rec.collect_tick = 0;
    rec.cpu_usage = p == 0 ? cpu_a : cpu_b;
    rec.mem_usage = 0.01;
    trace.pod_usage.push_back(rec);
  }
  const EroTable offline = core::OfflineProfiler().BuildEroTable(trace);

  // Online: equivalent cluster state.
  core::OptumScheduler scheduler(core::OptumProfiles{}, {});
  ClusterState cluster(1, kUnitResources, 8);
  AppProfile profile_a, profile_b;
  profile_a.id = app_a;
  profile_a.slo = SloClass::kBe;
  profile_a.request = req_a;
  profile_b.id = app_b;
  profile_b.slo = SloClass::kBe;
  profile_b.request = req_b;
  PodSpec pod_a, pod_b;
  pod_a.id = 0;
  pod_a.app = app_a;
  pod_a.slo = SloClass::kBe;
  pod_a.request = req_a;
  pod_b.id = 1;
  pod_b.app = app_b;
  pod_b.slo = SloClass::kBe;
  pod_b.request = req_b;
  PodRuntime* rt_a = cluster.Place(pod_a, &profile_a, 0, 0);
  PodRuntime* rt_b = cluster.Place(pod_b, &profile_b, 0, 0);
  rt_a->cpu_usage = cpu_a;
  rt_b->cpu_usage = cpu_b;
  scheduler.ObserveColocation(cluster, 100);

  EXPECT_NEAR(offline.Get(app_a, app_b),
              scheduler.profiles().ero.Get(app_a, app_b), 1e-12);
  EXPECT_NEAR(offline.Get(app_a, app_b), (cpu_a + cpu_b) / (req_a.cpu + req_b.cpu),
              1e-12);
}

TEST(ConsistencyTest, UmbrellaHeaderCompilesAndExposesApi) {
  // Touch one symbol from each major subsystem through the umbrella header.
  EXPECT_STREQ(ToString(SloClass::kBe), "BE");
  EXPECT_STREQ(ToString(Scenario::kCalibrated), "calibrated");
  EXPECT_EQ(MakeBorgLike()->name(), "Borg-like");
  EXPECT_EQ(core::OptumScheduler(core::OptumProfiles{}, {}).name(), "Optum");
}

}  // namespace
}  // namespace optum

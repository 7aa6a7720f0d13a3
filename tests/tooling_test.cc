// Tests for the tooling layer: command-line flag parsing (and every CLI
// tool's closing flag check, run as a subprocess), the trace analysis
// helpers used by tools/trace_summary and tools/runsim, and the shared
// JSONL reader behind slo_report / series_plot / profile_report.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/obs/json_reader.h"
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_stats.h"
#include "src/trace/workload_generator.h"

namespace optum {
namespace {

// --- ForEachJsonlRow -----------------------------------------------------------

std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return path;
}

TEST(ForEachJsonlRowTest, MissingFileIsAnError) {
  const std::string err = obs::ForEachJsonlRow(
      "/nonexistent/rows.jsonl", "optum.series.v1",
      [](const obs::JsonValue&) { FAIL() << "row on missing file"; });
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(ForEachJsonlRowTest, EmptyFileIsAnError) {
  const std::string path = WriteTempFile("jsonl_empty.jsonl", "");
  const std::string err = obs::ForEachJsonlRow(
      path, "optum.series.v1",
      [](const obs::JsonValue&) { FAIL() << "row on empty file"; });
  std::remove(path.c_str());
  EXPECT_NE(err.find("is empty"), std::string::npos) << err;
}

TEST(ForEachJsonlRowTest, SchemaMismatchIsAnError) {
  const std::string path = WriteTempFile(
      "jsonl_wrong_schema.jsonl", "{\"schema\":\"optum.spans.v1\"}\n");
  const std::string err = obs::ForEachJsonlRow(
      path, "optum.series.v1",
      [](const obs::JsonValue&) { FAIL() << "row on wrong schema"; });
  std::remove(path.c_str());
  EXPECT_NE(err.find("is not an optum.series.v1 stream"), std::string::npos)
      << err;
}

TEST(ForEachJsonlRowTest, HeaderOnlyStreamSucceedsWithZeroRows) {
  // Zero data rows is the caller's call: a hotspot stream with no episodes
  // is a valid export, so the reader reports it via stats instead of
  // failing.
  const std::string path = WriteTempFile(
      "jsonl_header_only.jsonl", "{\"schema\":\"optum.hotspot.v1\"}\n");
  obs::JsonlReadStats stats;
  const std::string err = obs::ForEachJsonlRow(
      path, "optum.hotspot.v1",
      [](const obs::JsonValue&) { FAIL() << "row on header-only file"; },
      &stats);
  std::remove(path.c_str());
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(stats.data_rows, 0);
}

TEST(ForEachJsonlRowTest, FinalLineWithoutNewlineIsProcessed) {
  // A complete last line missing its '\n' (writer killed between the line
  // and the newline) must still reach the callback — never a silent drop.
  const std::string path = WriteTempFile(
      "jsonl_no_trailing_newline.jsonl",
      "{\"schema\":\"optum.series.v1\"}\n{\"tick\":0}\n{\"tick\":1}");
  obs::JsonlReadStats stats;
  std::vector<int64_t> ticks;
  const std::string err = obs::ForEachJsonlRow(
      path, "optum.series.v1",
      [&](const obs::JsonValue& row) {
        ticks.push_back(row.Find("tick")->AsInt());
      },
      &stats);
  std::remove(path.c_str());
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(stats.data_rows, 2);
  EXPECT_EQ(ticks, (std::vector<int64_t>{0, 1}));
}

TEST(ForEachJsonlRowTest, TruncatedFinalLineIsAParseError) {
  const std::string path = WriteTempFile(
      "jsonl_truncated.jsonl",
      "{\"schema\":\"optum.series.v1\"}\n{\"tick\":0}\n{\"tick\":1,\"gau");
  obs::JsonlReadStats stats;
  const std::string err = obs::ForEachJsonlRow(
      path, "optum.series.v1", [](const obs::JsonValue&) {}, &stats);
  std::remove(path.c_str());
  EXPECT_FALSE(err.empty());
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_EQ(stats.data_rows, 1);  // the good row before the truncation
}

TEST(ForEachJsonlRowTest, BlankAndCrlfLinesAreTolerated) {
  const std::string path = WriteTempFile(
      "jsonl_crlf.jsonl",
      "{\"schema\":\"optum.series.v1\"}\r\n\r\n{\"tick\":5}\r\n\n");
  obs::JsonlReadStats stats;
  int64_t last_tick = -1;
  const std::string err = obs::ForEachJsonlRow(
      path, "optum.series.v1",
      [&](const obs::JsonValue& row) {
        last_tick = row.Find("tick")->AsInt();
      },
      &stats);
  std::remove(path.c_str());
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(stats.data_rows, 1);
  EXPECT_EQ(last_tick, 5);
}

// --- FlagParser ----------------------------------------------------------------

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return argv;
}

TEST(FlagParserTest, EqualsForm) {
  FlagParser flags;
  const auto argv = Argv({"--hosts=64", "--name=optum"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetInt("hosts", 0), 64);
  EXPECT_EQ(flags.GetString("name", ""), "optum");
}

TEST(FlagParserTest, SpaceForm) {
  FlagParser flags;
  const auto argv = Argv({"--hosts", "128", "--rate", "0.25"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetInt("hosts", 0), 128);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0), 0.25);
}

TEST(FlagParserTest, BooleanSwitches) {
  FlagParser flags;
  const auto argv = Argv({"--verbose", "--dry-run", "--enabled=false"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.GetBool("dry-run", false));
  EXPECT_FALSE(flags.GetBool("enabled", true));
  EXPECT_FALSE(flags.GetBool("absent", false));
  EXPECT_TRUE(flags.GetBool("absent", true));
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser flags;
  const auto argv = Argv({"input.csv", "--out", "dir", "more"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "more");
  EXPECT_EQ(flags.GetString("out", ""), "dir");
}

TEST(FlagParserTest, MalformedNumbersFallBackToDefault) {
  FlagParser flags;
  const auto argv = Argv({"--hosts=abc", "--rate=1.5x"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetInt("hosts", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.5), 0.5);
}

TEST(FlagParserTest, EmptyFlagNameRejected) {
  FlagParser flags;
  const auto argv = Argv({"--"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(FlagParserTest, LastValueWins) {
  FlagParser flags;
  const auto argv = Argv({"--x=1", "--x=2"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetInt("x", 0), 2);
}

TEST(FlagParserTest, ValidateNamesAFlagTheToolNeverRead) {
  FlagParser flags;
  const auto argv = Argv({"--hosts", "50", "--threads", "4", "in.csv"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(flags.GetInt("hosts", 0), 50);
  EXPECT_EQ(flags.Validate(), "unknown flag --threads");
  // Every read counts, including Has() and list reads; a positional the
  // tool never asked for is reported once every flag was read.
  EXPECT_FALSE(flags.Has("absent"));
  EXPECT_EQ(flags.GetStringList("threads").size(), 1u);
  EXPECT_EQ(flags.Validate(), "unexpected argument 'in.csv'");
  EXPECT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.Validate(), "");
}

TEST(FlagParserTest, ValidateNamesAMalformedValue) {
  for (const char* arg : {"--hosts=abc", "--hosts=12x", "--hosts=99999999999999999999",
                          "--rate=1.5x", "--rate=1e999", "--on=maybe"}) {
    FlagParser flags;
    const auto argv = Argv({arg});
    ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(flags.GetInt("hosts", 7), 7);
    EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.5), 0.5);
    EXPECT_TRUE(flags.GetBool("on", true));
    const std::string error = flags.Validate();
    const std::string name = std::string(arg).substr(0, std::string(arg).find('='));
    const std::string value = std::string(arg).substr(name.size() + 1);
    EXPECT_NE(error.find(name + ": malformed"), std::string::npos) << error;
    EXPECT_NE(error.find("'" + value + "'"), std::string::npos) << error;
  }
  FlagParser well_formed;
  const auto argv = Argv({"--hosts=-3", "--rate=2.5e-3", "--on=no"});
  ASSERT_TRUE(well_formed.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(well_formed.GetInt("hosts", 0), -3);
  EXPECT_DOUBLE_EQ(well_formed.GetDouble("rate", 0), 2.5e-3);
  EXPECT_FALSE(well_formed.GetBool("on", true));
  EXPECT_EQ(well_formed.Validate(), "");
}

// --- Every tool's closing flag check ---------------------------------------------

struct ToolRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

ToolRun RunTool(const std::string& tool, const std::string& args) {
  const std::string command =
      std::string(OPTUM_TOOL_DIR) + "/" + tool + " " + args + " 2>&1";
  ToolRun run;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    run.output += buffer;
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

// Each tool with otherwise valid, tiny arguments: an unknown flag, then a
// malformed number for a flag the tool does read, must each stop the tool
// before it does any work, with exit code 2 and a one-line error naming
// the flag.
TEST(ToolFlagCheckTest, UnknownFlagAndMalformedNumberExitNonZero) {
  struct Case {
    std::string tool;
    std::string args;
    std::string numeric_flag;
    std::string type;  // as the error message names it
  };
  const Case cases[] = {
      {"runsim", "--scheduler alibaba --hosts 4 --hours 1", "--ls-load", "number"},
      {"serve_bench", "--hosts 50 --shards 2 --rounds 2 --offered 20", "--offered",
       "number"},
      {"trace_summary", "/nonexistent/trace", "--hosts", "integer"},
      {"series_plot", "/nonexistent/series.jsonl", "--width", "integer"},
      {"slo_report", "--slo /nonexistent/slo.json", "--top", "integer"},
      {"profile_report", "/nonexistent/profile.jsonl", "--top", "integer"},
      {"bench_diff", "/nonexistent/a.json /nonexistent/b.json", "--threshold",
       "number"},
  };
  for (const Case& c : cases) {
    const ToolRun unknown = RunTool(c.tool, c.args + " --threads 4");
    EXPECT_EQ(unknown.exit_code, 2) << c.tool << ": " << unknown.output;
    EXPECT_EQ(unknown.output, c.tool + ": unknown flag --threads\n");

    const ToolRun malformed = RunTool(c.tool, c.args + " " + c.numeric_flag + " 12abc");
    EXPECT_EQ(malformed.exit_code, 2) << c.tool << ": " << malformed.output;
    EXPECT_EQ(malformed.output,
              c.tool + ": " + c.numeric_flag + ": malformed " + c.type + " '12abc'\n");
  }
}

// A tool that takes no positional arguments must reject a stray one rather
// than run with it dropped (`runsim --hosts 4 8` with a flag name missing).
TEST(ToolFlagCheckTest, StrayPositionalExitsNonZero) {
  const std::pair<std::string, std::string> cases[] = {
      {"runsim", "--scheduler alibaba --hosts 4 --hours 1"},
      {"serve_bench", "--hosts 50 --shards 2 --rounds 2 --offered 20"},
      {"slo_report", "--slo /nonexistent/slo.json"},
  };
  for (const auto& [tool, args] : cases) {
    const ToolRun stray = RunTool(tool, args + " stray_positional");
    EXPECT_EQ(stray.exit_code, 2) << tool << ": " << stray.output;
    EXPECT_EQ(stray.output, tool + ": unexpected argument 'stray_positional'\n");
  }
}

// --- Trace stats ----------------------------------------------------------------

class TraceStatsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.num_hosts = 16;
    config.horizon = 240;
    config.seed = 5;
    workload_ = new Workload(WorkloadGenerator(config).Generate());
    AlibabaBaseline scheduler;
    SimConfig sim_config;
    sim_config.pod_usage_period = 4;
    result_ = new SimResult(Simulator(*workload_, sim_config, scheduler).Run());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete workload_;
    result_ = nullptr;
    workload_ = nullptr;
  }
  static Workload* workload_;
  static SimResult* result_;
};

Workload* TraceStatsTest::workload_ = nullptr;
SimResult* TraceStatsTest::result_ = nullptr;

TEST_F(TraceStatsTest, PodIndexResolvesEveryPod) {
  const PodIndex index(result_->trace);
  for (const PodMeta& meta : result_->trace.pods) {
    const PodMeta* found = index.Find(meta.pod_id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->app_id, meta.app_id);
    EXPECT_EQ(index.SloOf(meta.pod_id), meta.slo);
  }
  EXPECT_EQ(index.Find(999999), nullptr);
  EXPECT_EQ(index.SloOf(999999), SloClass::kUnknown);
}

TEST_F(TraceStatsTest, HostUsageIndexMatchesRecords) {
  const HostUsageIndex index(result_->trace);
  int checked = 0;
  for (const NodeUsageRecord& rec : result_->trace.node_usage) {
    const NodeUsageRecord* found = index.Find(rec.machine_id, rec.collect_tick);
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->cpu_usage, rec.cpu_usage);
    if (++checked > 500) {
      break;
    }
  }
  EXPECT_EQ(index.Find(0, 999999), nullptr);
}

TEST_F(TraceStatsTest, SummaryCountsConsistent) {
  const TraceSummary summary = Summarize(result_->trace);
  EXPECT_EQ(summary.hosts, 16);
  int64_t class_pods = 0;
  for (const ClassSummary& c : summary.classes) {
    class_pods += c.pods;
    EXPECT_GE(c.pods, c.scheduled >= c.pods ? c.pods : 0);  // sched <= pods
    EXPECT_LE(c.finished, c.scheduled);
  }
  EXPECT_EQ(class_pods, summary.pods);
  EXPECT_GE(summary.max_host_cpu, summary.mean_host_cpu);
  EXPECT_GT(summary.last_tick, summary.first_tick);
}

TEST_F(TraceStatsTest, RenderSummaryMentionsEveryActiveClass) {
  const std::string report = RenderSummary(Summarize(result_->trace));
  EXPECT_NE(report.find("BE"), std::string::npos);
  EXPECT_NE(report.find("LS"), std::string::npos);
  EXPECT_NE(report.find("host utilization"), std::string::npos);
}

TEST_F(TraceStatsTest, WaitingTimeCdfPerClass) {
  const EmpiricalCdf be = WaitingTimeCdf(result_->trace, SloClass::kBe);
  EXPECT_FALSE(be.empty());
  EXPECT_GE(be.min(), 0.0);
  const EmpiricalCdf system_cdf = WaitingTimeCdf(result_->trace, SloClass::kSystem);
  // System pods exist in the workload, so they have lifecycle records.
  EXPECT_FALSE(system_cdf.empty());
}

}  // namespace
}  // namespace optum

// slo_report: joins the sensor layer's exports — the optum.slo.v1 per-class
// violation document, the optum.hotspot.v1 episode stream, and optionally an
// optum.latency.v1 row file and an optum.series.v1 gauge stream — into one
// human-readable report: per-class SLO-violation-seconds, the top-k hotspot
// hosts by hot time, and the run's placement-latency percentiles.
//
// Usage:
//   slo_report --slo slo.json [--hotspots hotspots.jsonl]
//              [--latency latency.jsonl] [--series series.jsonl] [--top N]
//
// Exit codes: 0 ok, 1 I/O or schema error, 2 usage error.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/obs/json_reader.h"
#include "src/obs/schema.h"

using optum::obs::JsonValue;

namespace {

struct HostHotness {
  int64_t host = -1;
  int64_t episodes = 0;
  int64_t hot_ticks = 0;
  double peak_pressure = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  optum::FlagParser flags;
  if (!flags.Parse(argc, argv) || !flags.Has("slo")) {
    std::fprintf(stderr,
                 "usage: slo_report --slo slo.json [--hotspots hotspots.jsonl] "
                 "[--latency latency.jsonl] [--series series.jsonl] [--top N]\n");
    return 2;
  }
  const std::string slo_path = flags.GetString("slo", "");
  const std::string hotspots_path = flags.GetString("hotspots", "");
  const std::string latency_path = flags.GetString("latency", "");
  const std::string series_path = flags.GetString("series", "");
  const size_t top_k = static_cast<size_t>(flags.GetInt("top", 5));
  if (const std::string error = flags.Validate(); !error.empty()) {
    std::fprintf(stderr, "slo_report: %s\n", error.c_str());
    return 2;
  }

  // --- optum.slo.v1: per-class violation table ---
  std::string slo_text;
  if (!optum::obs::ReadWholeFile(slo_path, &slo_text)) {
    std::fprintf(stderr, "slo_report: cannot open %s\n", slo_path.c_str());
    return 1;
  }
  JsonValue slo_doc;
  std::string error;
  if (!optum::obs::ParseJson(slo_text, &slo_doc, &error)) {
    std::fprintf(stderr, "slo_report: %s: %s\n", slo_path.c_str(), error.c_str());
    return 1;
  }
  const JsonValue* tag = slo_doc.Find("schema");
  if (tag == nullptr || !tag->is_string() ||
      tag->string_value != optum::obs::kSloSchema) {
    std::fprintf(stderr, "slo_report: %s is not an %s document\n",
                 slo_path.c_str(), optum::obs::kSloSchema);
    return 1;
  }
  const JsonValue* classes = slo_doc.Find("classes");
  if (classes == nullptr || !classes->is_array() || classes->items.empty()) {
    std::fprintf(stderr, "slo_report: %s has no classes\n", slo_path.c_str());
    return 1;
  }
  std::printf("SLO violation accounting (%s)\n", slo_path.c_str());
  std::printf("  %-8s %16s %16s %10s\n", "class", "observed_s", "violation_s",
              "violation");
  double total_observed_s = 0.0, total_violation_s = 0.0;
  for (const JsonValue& row : classes->items) {
    const JsonValue* name = row.Find("class");
    const double observed_s =
        row.Find("observed_seconds") != nullptr
            ? row.Find("observed_seconds")->AsNumber()
            : 0.0;
    const double violation_s =
        row.Find("violation_seconds") != nullptr
            ? row.Find("violation_seconds")->AsNumber()
            : 0.0;
    total_observed_s += observed_s;
    total_violation_s += violation_s;
    std::printf("  %-8s %16.1f %16.1f %9.2f%%\n",
                name != nullptr && name->is_string() ? name->string_value.c_str()
                                                     : "?",
                observed_s, violation_s,
                observed_s > 0.0 ? 100.0 * violation_s / observed_s : 0.0);
  }
  std::printf("  %-8s %16.1f %16.1f %9.2f%%\n", "total", total_observed_s,
              total_violation_s,
              total_observed_s > 0.0
                  ? 100.0 * total_violation_s / total_observed_s
                  : 0.0);

  // --- optum.hotspot.v1: episode roll-up and top-k hosts ---
  if (!hotspots_path.empty()) {
    std::map<int64_t, HostHotness> by_host;
    int64_t episodes = 0, open_episodes = 0, total_hot_ticks = 0;
    double peak = 0.0;
    // Zero data rows is a valid hotspot stream: a calm run has no episodes.
    const std::string err = optum::obs::ForEachJsonlRow(
        hotspots_path, optum::obs::kHotspotSchema, [&](const JsonValue& row) {
          const int64_t host =
              row.Find("host") != nullptr ? row.Find("host")->AsInt() : -1;
          const int64_t duration =
              row.Find("duration") != nullptr ? row.Find("duration")->AsInt() : 0;
          const double p = row.Find("peak_pressure") != nullptr
                               ? row.Find("peak_pressure")->AsNumber()
                               : 0.0;
          const JsonValue* open = row.Find("open");
          ++episodes;
          if (open != nullptr && open->bool_value) {
            ++open_episodes;
          }
          total_hot_ticks += duration;
          peak = std::max(peak, p);
          HostHotness& h = by_host[host];
          h.host = host;
          ++h.episodes;
          h.hot_ticks += duration;
          h.peak_pressure = std::max(h.peak_pressure, p);
        });
    if (!err.empty()) {
      std::fprintf(stderr, "slo_report: %s\n", err.c_str());
      return 1;
    }
    std::printf("\nhotspots (%s)\n", hotspots_path.c_str());
    std::printf("  episodes %lld (open at end: %lld), hot hosts %zu, "
                "hot ticks %lld, peak pressure %.4f\n",
                static_cast<long long>(episodes),
                static_cast<long long>(open_episodes), by_host.size(),
                static_cast<long long>(total_hot_ticks), peak);
    std::vector<HostHotness> ranked;
    ranked.reserve(by_host.size());
    for (const auto& [host, h] : by_host) {
      ranked.push_back(h);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const HostHotness& a, const HostHotness& b) {
                if (a.hot_ticks != b.hot_ticks) {
                  return a.hot_ticks > b.hot_ticks;
                }
                return a.host < b.host;
              });
    if (!ranked.empty()) {
      std::printf("  %-8s %10s %10s %14s\n", "host", "episodes", "hot_ticks",
                  "peak_pressure");
      for (size_t i = 0; i < std::min(top_k, ranked.size()); ++i) {
        std::printf("  %-8lld %10lld %10lld %14.4f\n",
                    static_cast<long long>(ranked[i].host),
                    static_cast<long long>(ranked[i].episodes),
                    static_cast<long long>(ranked[i].hot_ticks),
                    ranked[i].peak_pressure);
      }
    }
  }

  // --- optum.latency.v1: echo the run's placement-latency percentiles ---
  if (!latency_path.empty()) {
    std::printf("\nplacement latency (%s)\n", latency_path.c_str());
    optum::obs::JsonlReadStats stats;
    const std::string err = optum::obs::ForEachJsonlRow(
        latency_path, optum::obs::kLatencySchema,
        [&](const JsonValue& row) {
          auto num = [&row](const char* key) {
            const JsonValue* v = row.Find(key);
            return v != nullptr ? v->AsNumber() : 0.0;
          };
          std::printf("  hosts %-6.0f offered %-8.1f placed %-8.0f "
                      "p50 %.4gs p99 %.4gs p999 %.4gs\n",
                      num("hosts"), num("offered_pods_per_sec"), num("placed"),
                      num("latency_s_p50"), num("latency_s_p99"),
                      num("latency_s_p999"));
        },
        &stats);
    if (!err.empty()) {
      std::fprintf(stderr, "slo_report: %s\n", err.c_str());
      return 1;
    }
    if (stats.data_rows == 0) {
      std::fprintf(stderr, "slo_report: no latency rows in %s\n",
                   latency_path.c_str());
      return 1;
    }
  }

  // --- optum.series.v1: pressure-column summary ---
  if (!series_path.empty()) {
    std::map<std::string, std::pair<double, double>> pressure_cols;  // last, max
    optum::obs::JsonlReadStats stats;
    const std::string err = optum::obs::ForEachJsonlRow(
        series_path, optum::obs::kSeriesSchema,
        [&](const JsonValue& row) {
          const JsonValue* gauges = row.Find("gauges");
          if (gauges == nullptr || !gauges->is_object()) {
            return;
          }
          for (const auto& [name, value] : gauges->members) {
            if (!value.is_number() ||
                name.find(".pressure.") == std::string::npos) {
              continue;
            }
            auto& [last, max] = pressure_cols[name];
            last = value.number;
            max = std::max(max, value.number);
          }
        },
        &stats);
    if (!err.empty()) {
      std::fprintf(stderr, "slo_report: %s\n", err.c_str());
      return 1;
    }
    if (stats.data_rows == 0) {
      std::fprintf(stderr, "slo_report: no series rows in %s\n",
                   series_path.c_str());
      return 1;
    }
    if (!pressure_cols.empty()) {
      std::printf("\npressure series (%s)\n", series_path.c_str());
      for (const auto& [name, lm] : pressure_cols) {
        std::printf("  %-36s last %.4f  max %.4f\n", name.c_str(), lm.first,
                    lm.second);
      }
    }
  }
  return 0;
}

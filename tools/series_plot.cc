// series_plot: renders an optum.series.v1 JSONL export (`runsim
// --series-json`, `serve_bench --series-json`) as a terminal chart or an
// SVG polyline. Repeating --col (or giving a comma-separated list) overlays
// the columns in one chart on a shared value axis — pressure vs.
// utilization side-by-side is the canonical use.
//
// Usage:
//   series_plot series.jsonl                  # list available columns
//   series_plot --col sim.pending_pods series.jsonl
//   series_plot --col serve.pressure.mean --col serve.pressure.max \
//               --svg out.svg series.jsonl
//
// Columns are gauge names from the header'd JSONL stream; gauges that
// appear mid-run simply have shorter series. Exit codes: 0 ok, 1 I/O or
// unknown column, 2 usage/parse error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/obs/json_reader.h"
#include "src/obs/schema.h"

using optum::obs::JsonValue;

namespace {

struct Series {
  std::string column;
  std::vector<int64_t> ticks;
  std::vector<double> values;
};

// Overlay glyphs (terminal) and stroke colors (SVG), by series index.
constexpr char kGlyphs[] = {'#', '*', '+', 'o', 'x', '@'};
constexpr const char* kColors[] = {"#1f77b4", "#d62728", "#2ca02c",
                                   "#9467bd", "#ff7f0e", "#8c564b"};
constexpr size_t kMaxOverlay = sizeof(kGlyphs) / sizeof(kGlyphs[0]);

// Loads the requested columns from the JSONL stream in one pass; `columns`
// collects every gauge name seen (with sample counts) for the no-column
// listing. ForEachJsonlRow processes the final line even without a trailing
// newline, so a truncated export is a loud parse error rather than a
// silently shortened series.
bool LoadSeries(const std::string& path, std::vector<Series>* series,
                std::vector<std::pair<std::string, int64_t>>* columns) {
  optum::obs::JsonlReadStats stats;
  const std::string err = optum::obs::ForEachJsonlRow(
      path, optum::obs::kSeriesSchema,
      [&](const JsonValue& doc) {
        const JsonValue* tick = doc.Find("tick");
        const JsonValue* gauges = doc.Find("gauges");
        if (tick == nullptr || gauges == nullptr || !gauges->is_object()) {
          return;
        }
        for (const auto& [name, value] : gauges->members) {
          auto it = std::find_if(columns->begin(), columns->end(),
                                 [&](const auto& c) { return c.first == name; });
          if (it == columns->end()) {
            columns->emplace_back(name, 1);
          } else {
            ++it->second;
          }
          if (!value.is_number()) {
            continue;
          }
          for (Series& s : *series) {
            if (name == s.column) {
              s.ticks.push_back(tick->AsInt());
              s.values.push_back(value.number);
            }
          }
        }
      },
      &stats);
  if (!err.empty()) {
    std::fprintf(stderr, "series_plot: %s\n", err.c_str());
    return false;
  }
  if (stats.data_rows == 0) {
    std::fprintf(stderr, "series_plot: no series rows in %s\n", path.c_str());
    return false;
  }
  return true;
}

// Shared [lo, hi] across every overlaid series, so the chart has one axis.
void ValueRange(const std::vector<Series>& series, double* lo, double* hi) {
  *lo = series[0].values[0];
  *hi = series[0].values[0];
  for (const Series& s : series) {
    for (const double v : s.values) {
      *lo = std::min(*lo, v);
      *hi = std::max(*hi, v);
    }
  }
  if (*hi - *lo < 1e-12) {
    *hi = *lo + 1.0;  // flat series still renders as a line
  }
}

void RenderTerminal(const std::vector<Series>& series, int width, int height) {
  double lo, hi;
  ValueRange(series, &lo, &hi);
  for (size_t k = 0; k < series.size(); ++k) {
    const Series& s = series[k];
    std::printf("%c %s  (%zu samples, ticks %lld..%lld)\n", kGlyphs[k],
                s.column.c_str(), s.values.size(),
                static_cast<long long>(s.ticks.front()),
                static_cast<long long>(s.ticks.back()));
  }
  std::printf("shared axis [%.6g .. %.6g]\n", lo, hi);
  // Downsample each series into `width` buckets by mean.
  std::vector<std::vector<double>> cols(series.size());
  std::vector<std::vector<int>> counts(series.size());
  for (size_t k = 0; k < series.size(); ++k) {
    cols[k].assign(static_cast<size_t>(width), 0.0);
    counts[k].assign(static_cast<size_t>(width), 0);
    const Series& s = series[k];
    for (size_t i = 0; i < s.values.size(); ++i) {
      const size_t c = std::min<size_t>(
          static_cast<size_t>(width) - 1,
          i * static_cast<size_t>(width) / s.values.size());
      cols[k][c] += s.values[i];
      ++counts[k][c];
    }
  }
  for (int row = height - 1; row >= 0; --row) {
    const double row_lo = lo + (hi - lo) * row / height;
    std::string line(static_cast<size_t>(width), ' ');
    // Later series overdraw earlier ones where they overlap.
    for (size_t k = 0; k < series.size(); ++k) {
      for (int c = 0; c < width; ++c) {
        if (counts[k][static_cast<size_t>(c)] == 0) {
          continue;
        }
        const double v = cols[k][static_cast<size_t>(c)] /
                         counts[k][static_cast<size_t>(c)];
        if (v >= row_lo) {
          line[static_cast<size_t>(c)] = kGlyphs[k];
        }
      }
    }
    std::printf("%10.4g |%s\n", row_lo, line.c_str());
  }
  std::printf("%10s +%s\n", "", std::string(static_cast<size_t>(width), '-').c_str());
}

bool RenderSvg(const std::string& path, const std::vector<Series>& series,
               int width, int height) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "series_plot: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  double lo, hi;
  ValueRange(series, &lo, &hi);
  const int margin = 40;
  const int legend = 16 * static_cast<int>(series.size());
  std::fprintf(f,
               "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" "
               "height=\"%d\" viewBox=\"0 0 %d %d\">\n",
               width + 2 * margin, height + 2 * margin + legend,
               width + 2 * margin, height + 2 * margin + legend);
  for (size_t k = 0; k < series.size(); ++k) {
    std::fprintf(f,
                 "<text x=\"%d\" y=\"%d\" font-family=\"monospace\" "
                 "font-size=\"13\" fill=\"%s\">%s</text>\n",
                 margin, 20 + 16 * static_cast<int>(k), kColors[k],
                 series[k].column.c_str());
  }
  std::fprintf(f,
               "<text x=\"%d\" y=\"%d\" font-family=\"monospace\" "
               "font-size=\"11\">[%.6g .. %.6g]</text>\n",
               margin, 14 + legend, lo, hi);
  std::fprintf(f,
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" "
               "fill=\"none\" stroke=\"#999\"/>\n",
               margin, margin + legend, width, height);
  for (size_t k = 0; k < series.size(); ++k) {
    const Series& s = series[k];
    std::fprintf(f,
                 "<polyline fill=\"none\" stroke=\"%s\" "
                 "stroke-width=\"1.5\" points=\"",
                 kColors[k]);
    const int64_t t0 = s.ticks.front();
    const int64_t t1 = std::max(s.ticks.back(), t0 + 1);
    for (size_t i = 0; i < s.values.size(); ++i) {
      const double x =
          margin + static_cast<double>(s.ticks[i] - t0) /
                       static_cast<double>(t1 - t0) * width;
      const double y =
          margin + legend + height - (s.values[i] - lo) / (hi - lo) * height;
      std::fprintf(f, "%.1f,%.1f ", x, y);
    }
    std::fprintf(f, "\"/>\n");
  }
  std::fprintf(f, "</svg>\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  optum::FlagParser flags;
  if (!flags.Parse(argc, argv) || flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: series_plot [--col GAUGE]... [--svg OUT.svg] "
                 "[--width N] [--height N] series.jsonl\n");
    return 2;
  }
  const std::vector<std::string> wanted = flags.GetStringList("col");
  const std::string svg = flags.GetString("svg", "");
  const int width = static_cast<int>(flags.GetInt("width", 72));
  const int height = static_cast<int>(flags.GetInt("height", 16));
  if (const std::string error = flags.Validate(); !error.empty()) {
    std::fprintf(stderr, "series_plot: %s\n", error.c_str());
    return 2;
  }
  if (wanted.size() > kMaxOverlay) {
    std::fprintf(stderr, "series_plot: at most %zu overlaid columns\n",
                 kMaxOverlay);
    return 2;
  }

  std::vector<Series> series;
  for (const std::string& column : wanted) {
    series.push_back(Series{column, {}, {}});
  }
  std::vector<std::pair<std::string, int64_t>> columns;
  if (!LoadSeries(flags.positional()[0], &series, &columns)) {
    return 1;
  }

  if (series.empty()) {
    std::printf("columns in %s:\n", flags.positional()[0].c_str());
    for (const auto& [name, count] : columns) {
      std::printf("  %-40s %lld samples\n", name.c_str(),
                  static_cast<long long>(count));
    }
    std::printf("pick one or more with --col GAUGE\n");
    return 0;
  }
  size_t total_samples = 0;
  for (const Series& s : series) {
    if (s.values.empty()) {
      std::fprintf(stderr, "series_plot: no samples for column %s\n",
                   s.column.c_str());
      return 1;
    }
    total_samples += s.values.size();
  }
  if (!svg.empty()) {
    if (!RenderSvg(svg, series, std::max(width * 8, 320),
                   std::max(height * 12, 160))) {
      return 1;
    }
    std::printf("wrote %s (%zu samples)\n", svg.c_str(), total_samples);
    return 0;
  }
  RenderTerminal(series, width, height);
  return 0;
}

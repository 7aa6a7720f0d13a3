#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

namespace optbench {

int32_t SpanRecorder::Open(const char* name, int64_t step, int64_t units) {
  Span span;
  span.name = name;
  span.step = step;
  span.units = units;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  // Read the clock last so span bookkeeping is not charged to the span.
  spans_[static_cast<size_t>(index)].start_ns = NowNs();
  return index;
}

void SpanRecorder::Close(int32_t index) {
  const int64_t end = NowNs();
  if (open_.empty() || open_.back() != index) {
    std::fprintf(stderr, "optbench: span %d closed out of order\n", index);
    std::abort();
  }
  open_.pop_back();
  spans_[static_cast<size_t>(index)].end_ns = end;
}

int32_t SpanRecorder::Wrap(const char* name, int64_t start_ns, int64_t end_ns,
                           int64_t step, size_t first_child) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.step = step;
  spans_.push_back(span);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  for (size_t i = first_child; i + 1 < spans_.size(); ++i) {
    if (spans_[i].parent == parent) {
      spans_[i].parent = index;
    }
  }
  return index;
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"step\":%lld,\"units\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.step),
                 static_cast<long long>(s.units));
  }
  return std::fclose(file) == 0;
}

LayerTable BuildLayerTable(const SpanRecorder& recorder,
                           const char* timed_root) {
  const std::vector<Span>& spans = recorder.spans();
  const std::vector<int64_t> self = recorder.SelfTimes();
  // A span's timed root: walk parents up to a root. Parents are not always
  // recorded before children (Wrap), so resolve lazily with memoization.
  std::vector<int32_t> root(spans.size(), -2);
  auto find_root = [&](size_t i) {
    std::vector<size_t> chain;
    size_t at = i;
    while (root[at] == -2 && spans[at].parent >= 0) {
      chain.push_back(at);
      at = static_cast<size_t>(spans[at].parent);
    }
    const int32_t r = root[at] == -2 ? static_cast<int32_t>(at) : root[at];
    root[at] = r;
    for (size_t c : chain) {
      root[c] = r;
    }
    return r;
  };

  LayerTable table;
  std::map<std::string, LayerRow> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const size_t r = static_cast<size_t>(find_root(i));
    if (std::strcmp(spans[r].name, timed_root) != 0) {
      continue;
    }
    if (r == i) {
      table.timed_wall_ns += spans[i].end_ns - spans[i].start_ns;
      table.unattributed_ns += self[i];
      continue;
    }
    LayerRow& row = by_name[spans[i].name];
    row.name = spans[i].name;
    ++row.spans;
    row.units += spans[i].units;
    row.total_ns += spans[i].end_ns - spans[i].start_ns;
    row.self_ns += self[i];
  }
  for (auto& [name, row] : by_name) {
    table.rows.push_back(row);
  }
  std::sort(table.rows.begin(), table.rows.end(),
            [](const LayerRow& a, const LayerRow& b) {
              return a.self_ns > b.self_ns;
            });
  return table;
}

void PrintLayerTable(const LayerTable& table, double trace_overhead_pct) {
  const double wall = static_cast<double>(table.timed_wall_ns);
  std::printf("%-22s %10s %12s %14s %10s %8s\n", "layer", "spans", "units",
              "ns/unit", "self_s", "share");
  for (const LayerRow& row : table.rows) {
    std::printf("%-22s %10lld %12lld %14.1f %10.4f %7.2f%%\n", row.name.c_str(),
                static_cast<long long>(row.spans),
                static_cast<long long>(row.units),
                row.units > 0 ? static_cast<double>(row.total_ns) /
                                    static_cast<double>(row.units)
                              : 0.0,
                static_cast<double>(row.self_ns) * 1e-9,
                wall > 0 ? 100.0 * static_cast<double>(row.self_ns) / wall
                         : 0.0);
  }
  std::printf("%-22s %10s %12s %14s %10.4f %7.2f%%\n", "(unattributed)", "-",
              "-", "-", static_cast<double>(table.unattributed_ns) * 1e-9,
              wall > 0 ? 100.0 * static_cast<double>(table.unattributed_ns) /
                             wall
                       : 0.0);
  std::printf("%-22s %10s %12s %14s %10.4f %7.2f%%\n", "timed-phase wall", "-",
              "-", "-", wall * 1e-9, 100.0);
  std::printf("proc.trace_overhead_pct %.2f\n", trace_overhead_pct);
}

}  // namespace optbench

#include "src/trace/trace_io.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

namespace optum {
namespace {

struct FileCloser {
  void operator()(FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<FILE, FileCloser>;

FilePtr OpenFor(const std::string& dir, const char* name, const char* mode) {
  const std::string path = dir + "/" + name;
  return FilePtr(std::fopen(path.c_str(), mode));
}

// Parses one CSV line of doubles into `out`; returns number of fields.
size_t ParseRow(const char* line, std::vector<double>& out) {
  out.clear();
  const char* p = line;
  char* end = nullptr;
  while (*p != '\0' && *p != '\n') {
    const double v = std::strtod(p, &end);
    if (end == p) {
      break;
    }
    out.push_back(v);
    p = end;
    if (*p == ',') {
      ++p;
    }
  }
  return out.size();
}

// Converts a parsed field to integer type T as static_cast would (the
// fraction is truncated), but only where that conversion is defined: NaN,
// infinities and values whose integer part lies outside T's range return
// false. The upper bound max() + 1.0 is exact in double for 32- and 64-bit
// T (for int64 max() already rounds up to 2^63), so the test is too.
template <typename T>
bool ToInteger(double v, T* out) {
  const double t = std::trunc(v);
  if (!(t >= static_cast<double>(std::numeric_limits<T>::min()) &&
        t < static_cast<double>(std::numeric_limits<T>::max()) + 1.0)) {
    return false;
  }
  *out = static_cast<T>(t);
  return true;
}

// As ToInteger, and the code must name a SloClass enumerator.
bool ToSloClass(double v, SloClass* out) {
  int code = 0;
  if (!ToInteger(v, &code) || code < 0 || code >= kNumSloClasses) {
    return false;
  }
  *out = static_cast<SloClass>(code);
  return true;
}

// Reads whole lines of any length (getline grows the buffer), so a long row
// is never split into two. `fn` returns false to reject a row, which fails
// the whole file.
bool ForEachRow(FILE* f, size_t expected_fields,
                const std::function<bool(const std::vector<double>&)>& fn) {
  struct LineBuffer {
    char* data = nullptr;
    size_t capacity = 0;
    ~LineBuffer() { std::free(data); }
  } line;
  std::vector<double> fields;
  bool first = true;
  while (getline(&line.data, &line.capacity, f) != -1) {
    if (first) {
      first = false;  // Skip the header row.
      continue;
    }
    if (line.data[0] == '\n' || line.data[0] == '\0') {
      continue;
    }
    if (ParseRow(line.data, fields) != expected_fields || !fn(fields)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool WriteTraceBundle(const TraceBundle& bundle, const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return false;
  }

  {
    FilePtr f = OpenFor(directory, "nodes.csv", "w");
    if (!f) return false;
    std::fprintf(f.get(), "machine_id,cpu_capacity,mem_capacity\n");
    for (const auto& n : bundle.nodes) {
      std::fprintf(f.get(), "%d,%.9g,%.9g\n", n.machine_id, n.capacity.cpu, n.capacity.mem);
    }
  }
  {
    FilePtr f = OpenFor(directory, "pods.csv", "w");
    if (!f) return false;
    std::fprintf(f.get(),
                 "pod_id,app_id,slo,cpu_request,mem_request,cpu_limit,mem_limit,"
                 "submit_tick,original_machine_id\n");
    for (const auto& p : bundle.pods) {
      std::fprintf(f.get(), "%lld,%d,%d,%.9g,%.9g,%.9g,%.9g,%lld,%d\n",
                   static_cast<long long>(p.pod_id), p.app_id, static_cast<int>(p.slo),
                   p.request.cpu, p.request.mem, p.limit.cpu, p.limit.mem,
                   static_cast<long long>(p.submit_tick), p.original_machine_id);
    }
  }
  {
    FilePtr f = OpenFor(directory, "node_usage.csv", "w");
    if (!f) return false;
    std::fprintf(f.get(), "machine_id,tick,cpu,mem,disk,net\n");
    for (const auto& r : bundle.node_usage) {
      std::fprintf(f.get(), "%d,%lld,%.6g,%.6g,%.6g,%.6g\n", r.machine_id,
                   static_cast<long long>(r.collect_tick), r.cpu_usage, r.mem_usage,
                   r.disk_usage, r.net_usage);
    }
  }
  {
    FilePtr f = OpenFor(directory, "pod_usage.csv", "w");
    if (!f) return false;
    std::fprintf(f.get(),
                 "pod_id,host,tick,cpu,mem,disk,cpu_psi_10,cpu_psi_60,cpu_psi_300,"
                 "mem_psi_some_60,mem_psi_full_60,qps,response_time\n");
    for (const auto& r : bundle.pod_usage) {
      std::fprintf(f.get(),
                   "%lld,%d,%lld,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n",
                   static_cast<long long>(r.pod_id), r.host,
                   static_cast<long long>(r.collect_tick),
                   r.cpu_usage, r.mem_usage, r.disk_usage, r.cpu_psi_10, r.cpu_psi_60,
                   r.cpu_psi_300, r.mem_psi_some_60, r.mem_psi_full_60, r.qps,
                   r.response_time);
    }
  }
  {
    FilePtr f = OpenFor(directory, "lifecycles.csv", "w");
    if (!f) return false;
    std::fprintf(f.get(),
                 "pod_id,app_id,slo,submit_tick,schedule_tick,finish_tick,host,"
                 "waiting_seconds,ideal_ct,actual_ct,max_cpu_psi\n");
    for (const auto& r : bundle.lifecycles) {
      std::fprintf(f.get(), "%lld,%d,%d,%lld,%lld,%lld,%d,%.6g,%.6g,%.6g,%.6g\n",
                   static_cast<long long>(r.pod_id), r.app_id, static_cast<int>(r.slo),
                   static_cast<long long>(r.submit_tick),
                   static_cast<long long>(r.schedule_tick),
                   static_cast<long long>(r.finish_tick), r.host, r.waiting_seconds,
                   r.ideal_completion_ticks, r.actual_completion_ticks, r.max_cpu_psi);
    }
  }
  return true;
}

bool ReadTraceBundle(const std::string& directory, TraceBundle* out) {
  *out = TraceBundle{};
  {
    FilePtr f = OpenFor(directory, "nodes.csv", "r");
    if (!f) return false;
    if (!ForEachRow(f.get(), 3, [&](const std::vector<double>& v) {
          NodeMeta n;
          if (!ToInteger(v[0], &n.machine_id)) {
            return false;
          }
          n.capacity = {v[1], v[2]};
          out->nodes.push_back(n);
          return true;
        })) {
      return false;
    }
  }
  {
    FilePtr f = OpenFor(directory, "pods.csv", "r");
    if (!f) return false;
    if (!ForEachRow(f.get(), 9, [&](const std::vector<double>& v) {
          PodMeta p;
          if (!ToInteger(v[0], &p.pod_id) || !ToInteger(v[1], &p.app_id) ||
              !ToSloClass(v[2], &p.slo) || !ToInteger(v[7], &p.submit_tick) ||
              !ToInteger(v[8], &p.original_machine_id)) {
            return false;
          }
          p.request = {v[3], v[4]};
          p.limit = {v[5], v[6]};
          out->pods.push_back(p);
          return true;
        })) {
      return false;
    }
  }
  {
    FilePtr f = OpenFor(directory, "node_usage.csv", "r");
    if (!f) return false;
    if (!ForEachRow(f.get(), 6, [&](const std::vector<double>& v) {
          NodeUsageRecord r;
          if (!ToInteger(v[0], &r.machine_id) || !ToInteger(v[1], &r.collect_tick)) {
            return false;
          }
          r.cpu_usage = v[2];
          r.mem_usage = v[3];
          r.disk_usage = v[4];
          r.net_usage = v[5];
          out->node_usage.push_back(r);
          return true;
        })) {
      return false;
    }
  }
  {
    FilePtr f = OpenFor(directory, "pod_usage.csv", "r");
    if (!f) return false;
    if (!ForEachRow(f.get(), 13, [&](const std::vector<double>& v) {
          PodUsageRecord r;
          if (!ToInteger(v[0], &r.pod_id) || !ToInteger(v[1], &r.host) ||
              !ToInteger(v[2], &r.collect_tick)) {
            return false;
          }
          r.cpu_usage = v[3];
          r.mem_usage = v[4];
          r.disk_usage = v[5];
          r.cpu_psi_10 = v[6];
          r.cpu_psi_60 = v[7];
          r.cpu_psi_300 = v[8];
          r.mem_psi_some_60 = v[9];
          r.mem_psi_full_60 = v[10];
          r.qps = v[11];
          r.response_time = v[12];
          out->pod_usage.push_back(r);
          return true;
        })) {
      return false;
    }
  }
  {
    FilePtr f = OpenFor(directory, "lifecycles.csv", "r");
    if (!f) return false;
    if (!ForEachRow(f.get(), 11, [&](const std::vector<double>& v) {
          PodLifecycleRecord r;
          if (!ToInteger(v[0], &r.pod_id) || !ToInteger(v[1], &r.app_id) ||
              !ToSloClass(v[2], &r.slo) || !ToInteger(v[3], &r.submit_tick) ||
              !ToInteger(v[4], &r.schedule_tick) || !ToInteger(v[5], &r.finish_tick) ||
              !ToInteger(v[6], &r.host)) {
            return false;
          }
          r.waiting_seconds = v[7];
          r.ideal_completion_ticks = v[8];
          r.actual_completion_ticks = v[9];
          r.max_cpu_psi = v[10];
          out->lifecycles.push_back(r);
          return true;
        })) {
      return false;
    }
  }
  return true;
}

}  // namespace optum

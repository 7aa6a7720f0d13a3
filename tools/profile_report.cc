// profile_report: renders an optum.profile.v1 phase-profile export
// (`serve_bench --profile-json`, `runsim --profile-json`) as a per-phase
// wall-time table plus the top-k critical-path offenders. The wall is
// reconstructed as barrier_ns (the measured Submit..Wait wall) plus the
// serial phases (ingest_wait, resolve, commit, pressure_sweep); the barrier
// phases and idle are normalized onto the barrier wall so the attributed
// column sums to the reconstruction even when shard lanes overlap.
//
// Usage:
//   profile_report profile.jsonl [--top N] [--diff other.jsonl]
//
// --diff prints per-phase total/avg deltas of `other` relative to the
// primary profile (baseline first, candidate under --diff).
//
// Exit codes: 0 ok, 1 I/O / schema / empty-profile error, 2 usage error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/obs/json_reader.h"
#include "src/obs/profiler.h"
#include "src/obs/schema.h"

using optum::obs::JsonValue;

namespace {

constexpr size_t kNumPhases = optum::obs::kNumProfilePhases;

const char* PhaseName(size_t p) {
  return optum::obs::ProfilePhaseName(
      static_cast<optum::obs::ProfilePhase>(p));
}

int PhaseIndex(const std::string& name) {
  for (size_t p = 0; p < kNumPhases; ++p) {
    if (name == PhaseName(p)) {
      return static_cast<int>(p);
    }
  }
  return -1;
}

struct PhaseTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;
};

struct CpTotals {
  int64_t rounds_bound = 0;
  int64_t bound_ns = 0;
  int64_t idle_ns = 0;
};

// One parsed profile: everything the table and the diff need.
struct Profile {
  int64_t windows = 0;
  int64_t rounds = 0;
  int64_t shards = 0;      // max over window rows
  int64_t barrier_ns = 0;  // summed barrier wall
  PhaseTotals phases[optum::obs::kNumProfilePhases];
  std::map<std::pair<int64_t, int64_t>, CpTotals> cp;  // (shard, phase)
  int64_t cp_windows = 0;  // windows with at least one critical-path row

  // Serial phases run outside the barrier; barrier phases and idle are
  // alternative attributions of the barrier wall itself.
  int64_t SerialNs() const {
    using optum::obs::ProfilePhase;
    int64_t serial = 0;
    for (size_t p = 0; p < kNumPhases; ++p) {
      const auto phase = static_cast<ProfilePhase>(p);
      if (!optum::obs::IsBarrierPhase(phase) && phase != ProfilePhase::kIdle) {
        serial += phases[p].total_ns;
      }
    }
    return serial;
  }
  int64_t WallNs() const { return barrier_ns + SerialNs(); }
  // Summed lane-time inside the barrier (busy + idle); the normalization
  // base for attributing the barrier wall across barrier phases and idle.
  int64_t BarrierLaneNs() const {
    using optum::obs::ProfilePhase;
    int64_t lane = 0;
    for (size_t p = 0; p < kNumPhases; ++p) {
      const auto phase = static_cast<ProfilePhase>(p);
      if (optum::obs::IsBarrierPhase(phase) || phase == ProfilePhase::kIdle) {
        lane += phases[p].total_ns;
      }
    }
    return lane;
  }
};

// Loads one optum.profile.v1 file; returns false after printing a one-line
// error. Row kinds are distinguished by key presence, matching ProfileLog's
// renderers: "cp_shard" → critical path, "shard" → phase, otherwise window.
bool LoadProfile(const std::string& path, Profile* out) {
  int64_t last_window = -1;
  bool bad_phase = false;
  const std::string err = optum::obs::ForEachJsonlRow(
      path, optum::obs::kProfileSchema, [&](const JsonValue& row) {
        auto get = [&row](const char* key) {
          const JsonValue* v = row.Find(key);
          return v != nullptr ? v->AsInt() : int64_t{0};
        };
        if (const JsonValue* cp_shard = row.Find("cp_shard");
            cp_shard != nullptr) {
          const JsonValue* name = row.Find("cp_phase");
          const int p = name != nullptr && name->is_string()
                            ? PhaseIndex(name->string_value)
                            : -1;
          if (p < 0) {
            bad_phase = true;
            return;
          }
          CpTotals& cp = out->cp[{cp_shard->AsInt(), p}];
          cp.rounds_bound += get("rounds_bound");
          cp.bound_ns += get("bound_ns");
          cp.idle_ns += get("idle_ns");
          if (get("window") != last_window || out->cp_windows == 0) {
            last_window = get("window");
            ++out->cp_windows;
          }
          return;
        }
        if (row.Find("shard") != nullptr) {
          const JsonValue* name = row.Find("phase");
          const int p = name != nullptr && name->is_string()
                            ? PhaseIndex(name->string_value)
                            : -1;
          if (p < 0) {
            bad_phase = true;
            return;
          }
          PhaseTotals& t = out->phases[p];
          t.count += get("count");
          t.total_ns += get("total_ns");
          t.max_ns = std::max(t.max_ns, get("max_ns"));
          return;
        }
        ++out->windows;
        out->rounds += get("rounds");
        out->shards = std::max(out->shards, get("shards"));
        out->barrier_ns += get("barrier_ns");
      });
  if (!err.empty()) {
    std::fprintf(stderr, "profile_report: %s\n", err.c_str());
    return false;
  }
  if (bad_phase) {
    std::fprintf(stderr, "profile_report: %s has rows with unknown phases\n",
                 path.c_str());
    return false;
  }
  if (out->windows == 0) {
    std::fprintf(stderr, "profile_report: no profile windows in %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

void PrintTable(const std::string& path, const Profile& p, size_t top_k) {
  std::printf("phase profile (%s)\n", path.c_str());
  std::printf(
      "  windows %lld  rounds %lld  shards %lld  barrier %.3f ms  "
      "wall %.6f s\n",
      static_cast<long long>(p.windows), static_cast<long long>(p.rounds),
      static_cast<long long>(p.shards), Ms(p.barrier_ns),
      static_cast<double>(p.WallNs()) * 1e-9);
  std::printf("  %-20s %10s %12s %10s %10s %8s\n", "phase", "count",
              "total_ms", "avg_us", "max_us", "wall%");
  const int64_t wall = std::max<int64_t>(p.WallNs(), 1);
  const int64_t lane = std::max<int64_t>(p.BarrierLaneNs(), 1);
  for (size_t i = 0; i < kNumPhases; ++i) {
    const PhaseTotals& t = p.phases[i];
    if (t.count == 0 && t.total_ns == 0) {
      continue;
    }
    const auto phase = static_cast<optum::obs::ProfilePhase>(i);
    // Barrier phases and idle split the barrier wall pro rata by lane time,
    // so the wall% column sums to 100 despite lanes overlapping.
    const double attributed =
        optum::obs::IsBarrierPhase(phase) ||
                phase == optum::obs::ProfilePhase::kIdle
            ? static_cast<double>(t.total_ns) *
                  static_cast<double>(p.barrier_ns) / static_cast<double>(lane)
            : static_cast<double>(t.total_ns);
    std::printf("  %-20s %10lld %12.3f %10.2f %10.2f %7.2f%%\n", PhaseName(i),
                static_cast<long long>(t.count), Ms(t.total_ns),
                t.count > 0 ? Ms(t.total_ns) * 1e3 / static_cast<double>(t.count)
                            : 0.0,
                Ms(t.max_ns) * 1e3,
                100.0 * attributed / static_cast<double>(wall));
  }

  std::printf("\ncritical path: %lld of %lld windows have attribution\n",
              static_cast<long long>(p.cp_windows),
              static_cast<long long>(p.windows));
  std::vector<std::pair<std::pair<int64_t, int64_t>, CpTotals>> ranked(
      p.cp.begin(), p.cp.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.bound_ns != b.second.bound_ns) {
      return a.second.bound_ns > b.second.bound_ns;
    }
    return a.first < b.first;
  });
  if (!ranked.empty()) {
    std::printf("  %-8s %-20s %12s %12s %12s\n", "shard", "phase",
                "rounds_bound", "bound_ms", "stall_ms");
    for (size_t i = 0; i < std::min(top_k, ranked.size()); ++i) {
      const auto& [key, cp] = ranked[i];
      std::printf("  %-8lld %-20s %12lld %12.3f %12.3f\n",
                  static_cast<long long>(key.first),
                  PhaseName(static_cast<size_t>(key.second)),
                  static_cast<long long>(cp.rounds_bound), Ms(cp.bound_ns),
                  Ms(cp.idle_ns));
    }
  }
}

void PrintDiff(const std::string& base_path, const Profile& base,
               const std::string& cand_path, const Profile& cand) {
  std::printf("\nphase diff: %s -> %s\n", base_path.c_str(),
              cand_path.c_str());
  std::printf("  %-20s %12s %12s %9s %10s %10s\n", "phase", "base_ms",
              "cand_ms", "delta", "base_us", "cand_us");
  for (size_t i = 0; i < kNumPhases; ++i) {
    const PhaseTotals& b = base.phases[i];
    const PhaseTotals& c = cand.phases[i];
    if (b.count == 0 && c.count == 0 && b.total_ns == 0 && c.total_ns == 0) {
      continue;
    }
    const double delta =
        b.total_ns > 0 ? 100.0 * (static_cast<double>(c.total_ns) /
                                      static_cast<double>(b.total_ns) -
                                  1.0)
                       : 0.0;
    std::printf("  %-20s %12.3f %12.3f %+8.1f%% %10.2f %10.2f\n", PhaseName(i),
                Ms(b.total_ns), Ms(c.total_ns), delta,
                b.count > 0 ? Ms(b.total_ns) * 1e3 / static_cast<double>(b.count)
                            : 0.0,
                c.count > 0 ? Ms(c.total_ns) * 1e3 / static_cast<double>(c.count)
                            : 0.0);
  }
  std::printf("  %-20s %12.6f %12.6f\n", "wall_s",
              static_cast<double>(base.WallNs()) * 1e-9,
              static_cast<double>(cand.WallNs()) * 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  optum::FlagParser flags;
  if (!flags.Parse(argc, argv) || flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: profile_report profile.jsonl [--top N] "
                 "[--diff other.jsonl]\n");
    return 2;
  }
  const std::string path = flags.positional()[0];
  const size_t top_k = static_cast<size_t>(flags.GetInt("top", 5));
  const std::string diff_path = flags.GetString("diff", "");
  if (const std::string error = flags.Validate(); !error.empty()) {
    std::fprintf(stderr, "profile_report: %s\n", error.c_str());
    return 2;
  }

  Profile profile;
  if (!LoadProfile(path, &profile)) {
    return 1;
  }
  PrintTable(path, profile, top_k);

  if (!diff_path.empty()) {
    Profile other;
    if (!LoadProfile(diff_path, &other)) {
      return 1;
    }
    PrintDiff(path, profile, diff_path, other);
  }
  return 0;
}

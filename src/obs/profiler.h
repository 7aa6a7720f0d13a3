// Phase-level round profiler with critical-path and stall attribution
// (observability layer, DESIGN.md §14).
//
// A RoundProfiler answers "where does wall-clock time go inside one
// scheduling round?" for the pipelined serve loop and the simulator tick:
// each instrumented phase is timed by an RAII Scope into a lane-sharded
// fixed slot (one slot per shard, alignas(64), same discipline as the
// MetricRegistry shards and ScopedTimer — one branch and no clock read when
// detached), and the serial reduction path folds the per-round scratch into
// per-window accumulators via EndRound(). Every `window_rounds` rounds a
// window is flushed as bit-renderable optum.profile.v1 JSONL rows:
//
//   {"schema":"optum.profile.v1","clock":"ns"}             header
//   {"window":W,"rounds":R,"shards":S,"barrier_ns":B}      window summary
//   {"window":W,"shard":k,"phase":"spec_score",
//    "count":C,"total_ns":T,"max_ns":M}                    per-shard phase
//   {"window":W,"cp_shard":k,"cp_phase":"spec_score",
//    "rounds_bound":N,"bound_ns":B,"idle_ns":I}            critical path
//
// Determinism contract (pinned by tests/profiler_test): the *count* fields
// — window ids, rounds per window, shard ids, phase names, and per-phase
// counts — are bit-identical across pipeline_depth × ingest on/off, exactly
// like placed-pod sets and latency rows. The ns fields
// (total_ns/max_ns/barrier_ns/idle_ns) and the critical-path
// *identity* (which shard/phase bounded a round) are wall-clock-derived and
// excluded, mirroring the serve_wall_s carve-out.
//
// Critical-path rule: only the phases that run inside the shard barrier
// (spec_score, finalize_revalidate) contribute to a lane's per-round busy
// time. The serial caller measures the barrier wall around Submit..Wait and
// passes it to EndRound(barrier_ns); the lane with the largest busy time is
// the round's bounding lane, its largest barrier phase the bounding phase,
// and every active lane is charged idle = barrier_ns - busy (its
// steal-wait / time-slice stall). With barrier_ns == 0 (simulator path,
// single lane) the max lane busy substitutes for the wall.
#ifndef OPTUM_SRC_OBS_PROFILER_H_
#define OPTUM_SRC_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace optum::obs {

// Phases of one scheduling round / simulator tick. Order is the emission
// order inside a (window, shard) group and the tie-break order for
// critical-path attribution (lower enum wins).
enum class ProfilePhase : uint8_t {
  kIngestWait = 0,          // arrivals: ingest hand-off barrier or inline emit
  kSpecScore = 1,           // speculative top-up scoring (barrier phase)
  kFinalizeRevalidate = 2,  // settle the head pod: revalidate+finalize the
                            // staged speculation, or score fresh when none
                            // is staged — the only mode at depth 1
                            // (barrier phase)
  kResolve = 3,             // serial conflict resolution over shard proposals
  kCommit = 4,              // serial commit + counters + requeue + departures
  kPressureSweep = 5,       // pressure/SLO sweep + series sampling
  kIdle = 6,                // barrier_ns - busy, charged per active lane
};

inline constexpr size_t kNumProfilePhases = 7;

const char* ProfilePhaseName(ProfilePhase phase);

// True for phases that run inside the shard barrier and therefore count
// toward a lane's per-round busy time.
constexpr bool IsBarrierPhase(ProfilePhase phase) {
  return phase == ProfilePhase::kSpecScore ||
         phase == ProfilePhase::kFinalizeRevalidate;
}

// One flushed window's header row.
struct ProfileWindowRow {
  int64_t window = 0;
  int64_t rounds = 0;
  int64_t shards = 0;
  int64_t barrier_ns = 0;  // summed barrier wall over the window's rounds
};

// Per-(window, shard, phase) aggregate; emitted only when count > 0.
struct ProfilePhaseRow {
  int64_t window = 0;
  int64_t shard = 0;
  ProfilePhase phase = ProfilePhase::kIngestWait;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;  // largest single scope duration in the window
};

// Per-(window, shard, phase) critical-path aggregate: how many rounds this
// (shard, phase) bounded the barrier, the barrier wall of those rounds, and
// the idle time the *other* active lanes spent waiting on it.
struct ProfileCriticalPathRow {
  int64_t window = 0;
  int64_t shard = 0;
  ProfilePhase phase = ProfilePhase::kSpecScore;
  int64_t rounds_bound = 0;
  int64_t bound_ns = 0;
  int64_t idle_ns = 0;
};

// JSONL sink for profile windows: one header line carrying the
// optum.profile.v1 schema tag, then window / phase / critical-path rows.
// Same buffered std::to_chars rendering and serial-path contract as
// HotspotLog; row kinds are distinguished by key presence ("cp_shard" →
// critical path, "shard" → phase, otherwise window summary).
class ProfileLog {
 public:
  explicit ProfileLog(const std::string& path);
  ~ProfileLog();

  ProfileLog(const ProfileLog&) = delete;
  ProfileLog& operator=(const ProfileLog&) = delete;

  bool ok() const { return file_ != nullptr; }
  int64_t rows_written() const { return rows_written_; }

  void Append(const ProfileWindowRow& row);
  void Append(const ProfilePhaseRow& row);
  void Append(const ProfileCriticalPathRow& row);
  void Flush();

  // Exact line formats (no trailing newline), pinned by the golden schema
  // test. Deterministic: integers via std::to_chars.
  static std::string Render(const ProfileWindowRow& row);
  static std::string Render(const ProfilePhaseRow& row);
  static std::string Render(const ProfileCriticalPathRow& row);
  static std::string RenderHeader();

 private:
  void AppendLine(const std::string& line);

  std::FILE* file_ = nullptr;
  std::string buffer_;
  int64_t rows_written_ = 0;
};

class RoundProfiler {
 public:
  struct Options {
    // EndRound() calls per flushed window.
    size_t window_rounds = 64;
  };

  RoundProfiler() : RoundProfiler(Options()) {}
  explicit RoundProfiler(Options options);

  RoundProfiler(const RoundProfiler&) = delete;
  RoundProfiler& operator=(const RoundProfiler&) = delete;

  // Optional JSONL sink for flushed windows; nullptr detaches. Attach
  // before the first round so window 0 is not dropped.
  void set_log(ProfileLog* log) { log_ = log; }

  // Grow-only, like MetricRegistry::set_num_lanes. Callable only while no
  // parallel recorders are running (attach time / between rounds).
  void set_num_lanes(size_t n);
  size_t num_lanes() const { return lanes_.size(); }

  // Hot path: fold one measured scope of `phase` into lane `lane`'s
  // current-round scratch. Parallel callers must each own a distinct lane
  // (the shard task writes lane == shard index); serial phases record into
  // lane 0. `lane` must be < num_lanes().
  void RecordNs(ProfilePhase phase, size_t lane, int64_t ns);

  // RAII phase scope mirroring ScopedTimer: with a null profiler the
  // constructor and destructor reduce to one branch each — no clock reads.
  class Scope {
   public:
    Scope(RoundProfiler* profiler, ProfilePhase phase, size_t lane)
        : profiler_(profiler), phase_(phase), lane_(lane) {
      if (profiler_ != nullptr) {
        start_ = std::chrono::steady_clock::now();
      }
    }

    ~Scope() {
      if (profiler_ != nullptr) {
        profiler_->RecordNs(
            phase_, lane_,
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
      }
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RoundProfiler* profiler_;
    ProfilePhase phase_;
    size_t lane_;
    std::chrono::steady_clock::time_point start_;
  };

  // Serial reduction path, after the barrier: merges every lane's round
  // scratch into the window accumulators, computes the round's critical
  // path and per-lane idle, and flushes a window every window_rounds
  // rounds. `barrier_ns` is the caller-measured wall of the parallel
  // section; 0 substitutes the max lane busy (single-lane callers).
  void EndRound(int64_t barrier_ns = 0);

  // Folds any trailing scratch (recorded after the last EndRound), flushes
  // the partial window if it holds anything, and flushes the log. Safe to
  // call more than once; later rounds keep working.
  void Finalize();

  // Collapsed-stack export for flamegraph tooling: one
  // "round;shard<k>;<phase> <total_ns>" line per (lane, phase) with
  // cumulative total_ns > 0, lane-major. Returns false if the file cannot
  // be opened.
  bool WriteCollapsed(const std::string& path) const;

  // Deterministic projection of everything flushed so far — window ids,
  // round counts, and per-(window, shard, phase) counts, ns fields
  // excluded. The determinism tests compare these strings across the
  // pipeline/thread/ingest matrix.
  const std::string& RenderCounts() const { return counts_projection_; }

  int64_t windows_flushed() const { return windows_flushed_; }
  int64_t rounds_profiled() const { return rounds_profiled_; }

  // Cumulative over all flushed windows, summed across lanes.
  int64_t total_ns(ProfilePhase phase) const;
  int64_t count(ProfilePhase phase) const;
  // Cumulative barrier wall over all flushed windows.
  int64_t barrier_ns_total() const { return barrier_ns_flushed_; }

 private:
  // One shard's slot. The round_* scratch is written by that shard's task
  // inside the barrier (and by the serial phases for lane 0); everything
  // else is touched only on the serial path while lanes are quiescent.
  // alignas(64) keeps parallel writers off each other's cache line.
  struct alignas(64) LaneSlot {
    // Current-round scratch, merged and reset by EndRound.
    int64_t round_ns[kNumProfilePhases] = {};
    int64_t round_count[kNumProfilePhases] = {};
    // Current-window accumulators, emitted and reset by FlushWindow.
    int64_t win_count[kNumProfilePhases] = {};
    int64_t win_total_ns[kNumProfilePhases] = {};
    int64_t win_max_ns[kNumProfilePhases] = {};
    // Current-window critical-path aggregates (serial path only).
    int64_t cp_rounds[kNumProfilePhases] = {};
    int64_t cp_bound_ns[kNumProfilePhases] = {};
    int64_t cp_idle_ns[kNumProfilePhases] = {};
    // Cumulative over flushed windows (WriteCollapsed / accessors).
    int64_t all_count[kNumProfilePhases] = {};
    int64_t all_total_ns[kNumProfilePhases] = {};
  };

  // Folds round scratch into window accumulators without closing a round
  // (no critical-path pass). Used by Finalize for trailing scopes.
  void MergeScratch();
  void FlushWindow();

  Options options_;
  std::vector<LaneSlot> lanes_;
  ProfileLog* log_ = nullptr;
  int64_t window_ = 0;         // id of the window being accumulated
  int64_t win_rounds_ = 0;     // EndRound calls in the current window
  int64_t win_barrier_ns_ = 0;
  int64_t windows_flushed_ = 0;
  int64_t rounds_profiled_ = 0;
  int64_t barrier_ns_flushed_ = 0;
  std::string counts_projection_;
};

}  // namespace optum::obs

#endif  // OPTUM_SRC_OBS_PROFILER_H_

// Pod-lifecycle span tracing (observability layer, DESIGN.md §11).
//
// Every pod moving through the stack traces a Dapper-style span chain of
// phase transitions, each stamped with the monotonic simulation tick it
// happened on:
//
//   submitted → queued* → sampled → scored → placed
//                                          ↘ conflict-retried (distributed)
//   placed → finished | evicted
//
// The log is a JSONL stream: one header line carrying the optum.spans.v1
// schema tag, then one line per transition. Only deterministic fields are
// rendered (ticks, ids, counts, Eq. 11 scores) — never wall-clock readings —
// so the byte stream reproduces exactly from run to run
// (tests/concurrency_test pins this). Wall-time phase latencies flow into
// MetricRegistry histograms instead, where nondeterminism is expected.
//
// Concurrency contract (same as DecisionLog): Append runs on a serial path
// only — the scheduler's serial reduction phase, the simulator tick loop, or
// the distributed coordinator's resolution phase. Distinct schedulers must
// use distinct logs. A null SpanLog* disables tracing at the cost of one
// branch per site.
//
// The hot path is PlaceScored emitting two small records per pod, so Append
// renders with std::to_chars into an owned buffer (no snprintf, no per-event
// heap traffic) and flushes in 64 KiB chunks; the measured overhead lives in
// BENCH_hotpath.json's observability[].spans section and must stay within
// the ≤2% metrics-on budget.
#ifndef OPTUM_SRC_OBS_SPAN_LOG_H_
#define OPTUM_SRC_OBS_SPAN_LOG_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/common/types.h"

namespace optum::obs {

class Counter;
class Histogram;
class MetricRegistry;

// One phase transition in a pod's lifecycle. Order matters: kSubmitted..
// kEvicted is the rendering/metric order used for the per-phase counters.
enum class SpanPhase : uint8_t {
  kSubmitted = 0,     // pod entered a pending queue
  kQueued,            // placement failed; pod re-queued with a reason
  kSampled,           // candidate hosts drawn (count = candidates)
  kScored,            // candidates scored (count = feasible, score = best)
  kPlaced,            // committed to `host` (wait_ticks = submit → now)
  kConflictRetried,   // lost distributed conflict resolution on `host`
  kFinished,          // completed on `host`
  kEvicted,           // killed on `host` (reason = OOM | Preempt)
};
inline constexpr int kNumSpanPhases = 8;

const char* ToString(SpanPhase phase);

struct SpanEvent {
  Tick tick = 0;                 // when the transition happened
  PodId pod = -1;
  SpanPhase phase = SpanPhase::kSubmitted;
  HostId host = kInvalidHostId;  // placed/conflict-retried/finished/evicted
  int64_t count = -1;            // sampled: candidates; scored: feasible
  Tick wait_ticks = -1;          // placed: ticks since submission
  bool has_score = false;        // scored: best feasible Eq. 11 score
  double score = 0.0;
  const char* reason = nullptr;  // queued: WaitReason; evicted: OOM|Preempt
};

class SpanLog {
 public:
  // Opens `path` for writing (truncating) through the shared checked JSON
  // sink and writes the schema header line. top-of-file header:
  //   {"schema":"optum.spans.v1","clock":"ticks"}
  explicit SpanLog(const std::string& path);
  ~SpanLog();

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool ok() const { return file_ != nullptr; }
  int64_t records_written() const { return records_written_; }

  // Appends one transition as a single JSON line (serial path only). Also
  // feeds the attached per-phase metrics, when any.
  void Append(const SpanEvent& event);

  // Flushes the owned buffer to the file (called by the destructor; exposed
  // so exports can sync before reading the file back).
  void Flush();

  // The exact line format (without trailing newline); the golden schema
  // test pins it. Deterministic: integers and shortest-round-trip doubles
  // via std::to_chars, no locale, no wall-clock fields.
  static std::string Render(const SpanEvent& event);
  static std::string RenderHeader();

  // Publishes span metrics into `registry` under "spans." (nullptr
  // detaches): spans.<phase> event counters and the spans.queue_wait_seconds
  // histogram (submission → placement delay, the Fig. 8 waiting-time
  // distribution, recorded from kPlaced events' tick arithmetic — still
  // deterministic). `lane` is the registry shard all updates use.
  void AttachMetrics(MetricRegistry* registry, size_t lane = 0);

 private:
  static void RenderTo(std::string* out, const SpanEvent& event);

  std::FILE* file_ = nullptr;
  std::string buffer_;
  int64_t records_written_ = 0;

  // Nullable metric sinks (single branch when detached).
  size_t metrics_lane_ = 0;
  Counter* phase_counters_[kNumSpanPhases] = {};
  Histogram* queue_wait_seconds_ = nullptr;
};

}  // namespace optum::obs

#endif  // OPTUM_SRC_OBS_SPAN_LOG_H_

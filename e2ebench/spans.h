// In-memory span recording for the benchmark's traced run.
//
// The benchmark times each layer from outside: it wraps its own calls into
// the library's public functions in spans. A span records name, start, end,
// parent span and step id; spans live in memory and are written as JSONL
// once the run ends. A layer's self time is its span's duration minus the
// time its direct child spans cover. All spans are recorded on the
// benchmark's main thread (the library calls it wraps are made there), so
// nesting is a simple stack.
#ifndef OPTUM_E2EBENCH_SPANS_H_
#define OPTUM_E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace optbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the recorder's spans; -1 = root
  int64_t step = -1;    // step id; -1 outside the timed steps
  int64_t units = 1;    // work items the span covers (calls, rows, pods)
};

class SpanRecorder {
 public:
  // Opens a span nested in the innermost open span; returns its index.
  int32_t Open(const char* name, int64_t step, int64_t units);
  // Closes the innermost open span, which must be `index`.
  void Close(int32_t index);
  void Rename(int32_t index, const char* name) {
    spans_[static_cast<size_t>(index)].name = name;
  }

  // Records an already finished span [start_ns, end_ns] under the innermost
  // open span and re-parents to it every span recorded at index
  // `first_child` or later that hangs directly off that same open span. The
  // simulator's tick loop runs inside the library, so a tick span can only
  // be drawn after the fact, around the Place and hook spans it contained.
  int32_t Wrap(const char* name, int64_t start_ns, int64_t end_ns,
               int64_t step, size_t first_child);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  // Self time of every span: duration minus the duration of its children.
  std::vector<int64_t> SelfTimes() const;

  // One JSON object per span: id, name, start/end (ns, steady clock),
  // parent id (-1 = root), step id, units.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a null recorder makes it a no-op (the untraced runs).
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name, int64_t step = -1,
        int64_t units = 1)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name, step, units) : -1) {}
  ~Scope() {
    if (recorder_ != nullptr) {
      recorder_->Close(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void Rename(const char* name) {
    if (recorder_ != nullptr) {
      recorder_->Rename(index_, name);
    }
  }

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

// Per-layer totals over the spans nested (at any depth) under root spans
// named `timed_root`: the traced run's one-screen table.
struct LayerRow {
  std::string name;
  int64_t spans = 0;
  int64_t units = 0;
  int64_t total_ns = 0;  // inclusive
  int64_t self_ns = 0;
};
struct LayerTable {
  std::vector<LayerRow> rows;  // sorted by self time, largest first
  int64_t timed_wall_ns = 0;   // sum of the timed root spans
  int64_t unattributed_ns = 0; // self time of the timed root spans
};
LayerTable BuildLayerTable(const SpanRecorder& recorder, const char* timed_root);
void PrintLayerTable(const LayerTable& table, double trace_overhead_pct);

}  // namespace optbench

#endif  // OPTUM_E2EBENCH_SPANS_H_

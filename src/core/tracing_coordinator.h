// Tracing Coordinator (paper Fig. 17, component ❶): collects OS-level and
// application-level metrics from all pods and hosts into a centralized
// store the Offline Profiler can train from. Here the store is a rolling
// in-memory TraceBundle bounded to a configurable window (the paper's
// profilers use "the running data of pods in the first seven days"; a
// deployed system re-profiles from a trailing window).
//
// Per-pod state lives in persistent flat slots, found through an
// open-addressing index keyed by pod id, so a tick costs O(running pods)
// and allocates only for new records (DESIGN.md §8, "Tracing coordinator").
#ifndef OPTUM_SRC_CORE_TRACING_COORDINATOR_H_
#define OPTUM_SRC_CORE_TRACING_COORDINATOR_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "src/sim/cluster.h"
#include "src/trace/schema.h"

namespace optum::core {

struct TracingConfig {
  // Sampling cadences, matching the trace's 30 s OS-level interval by
  // default (1 tick = 30 s).
  Tick node_sample_period = 2;
  Tick pod_sample_period = 5;
  // Records older than this are evicted.
  Tick window = 8 * kTicksPerHour;
};

class TracingCoordinator {
 public:
  explicit TracingCoordinator(TracingConfig config = {});

  // Records the current cluster state; call once per tick (e.g. from the
  // simulator's on_tick_end hook), with strictly increasing `now`. Calls
  // may skip ticks: a pod that ran at the previous call and is gone now
  // finishes at `now`. Pod ids must be non-negative; they need not be
  // dense.
  void OnTick(const ClusterState& cluster, Tick now);

  // Materializes the current window as a TraceBundle for profiling, in a
  // canonical order that does not depend on hashing:
  //   * pods — ascending pod id; one entry per pod sampled in the window;
  //   * lifecycles — by finish tick, ascending pod id within a tick;
  //   * node_usage / pod_usage — collection order (tick, then host order,
  //     then the host's pod order).
  TraceBundle Snapshot() const;

  size_t node_records() const { return node_usage_.size(); }
  size_t pod_records() const { return pod_usage_.size(); }
  size_t lifecycle_records() const { return lifecycles_.size(); }
  // Pods with state held: running at the last call, or sampled in the window.
  size_t tracked_pods() const { return slots_.size() - free_slots_.size(); }
  // Entries reserved for per-pod state (slots plus index buckets). Grows
  // with the peak of tracked_pods(), never with the magnitude of pod ids.
  size_t pod_storage_entries() const { return slots_.size() + index_.size(); }

 private:
  static constexpr Tick kNever = std::numeric_limits<Tick>::min();
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  struct PodSlot {
    PodId id = kInvalidPodId;
    // Tick of the last call that saw the pod running; the lifecycle record
    // below is open while this equals the previous call's tick.
    Tick running_at = kNever;
    // Tick of the pod's newest pod_usage_ sample; kNever when no metadata
    // is held.
    Tick sampled_at = kNever;
    PodLifecycleRecord open;
    PodMeta meta;
  };
  struct IndexEntry {
    PodId id = kInvalidPodId;  // kInvalidPodId marks an empty bucket
    uint32_t slot = kNoSlot;
  };

  // Index lookups (linear probing over a power-of-two table). Probe returns
  // the bucket holding `id`, or the empty bucket ending its probe run.
  size_t Bucket(PodId id) const;
  size_t Probe(PodId id) const;
  uint32_t FindSlot(PodId id) const;
  uint32_t FindOrAddSlot(PodId id);
  void GrowIndex();
  // Frees a slot holding neither an open record nor metadata.
  void ReleaseSlot(uint32_t slot);

  void Evict(Tick now);

  TracingConfig config_;
  std::deque<NodeUsageRecord> node_usage_;
  std::deque<PodUsageRecord> pod_usage_;
  // Ordered by (finish_tick, pod_id).
  std::deque<PodLifecycleRecord> lifecycles_;
  std::vector<NodeMeta> nodes_;

  std::vector<PodSlot> slots_;
  std::vector<uint32_t> free_slots_;
  // One entry per tracked pod.
  std::vector<IndexEntry> index_;
  // Slots of the pods running at the previous call, and scratch buffers
  // reused across calls.
  std::vector<uint32_t> running_;
  std::vector<uint32_t> next_running_;
  std::vector<uint32_t> departed_;
  Tick last_tick_ = -1;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_TRACING_COORDINATOR_H_

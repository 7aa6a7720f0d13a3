#include "src/core/tracing_coordinator.h"

#include <algorithm>

#include "src/common/check.h"

namespace optum::core {
namespace {

constexpr size_t kMinIndexBuckets = 64;

}  // namespace

TracingCoordinator::TracingCoordinator(TracingConfig config)
    : config_(config), index_(kMinIndexBuckets) {
  OPTUM_CHECK_GT(config_.window, 0);
}

size_t TracingCoordinator::Bucket(PodId id) const {
  // Multiplicative mixing spreads dense and widely strided ids alike.
  uint64_t x = static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 32;
  return static_cast<size_t>(x) & (index_.size() - 1);
}

size_t TracingCoordinator::Probe(PodId id) const {
  const size_t mask = index_.size() - 1;
  size_t b = Bucket(id);
  while (index_[b].id != id && index_[b].id != kInvalidPodId) {
    b = (b + 1) & mask;
  }
  return b;
}

uint32_t TracingCoordinator::FindSlot(PodId id) const {
  const IndexEntry& e = index_[Probe(id)];
  return e.id == id ? e.slot : kNoSlot;
}

uint32_t TracingCoordinator::FindOrAddSlot(PodId id) {
  OPTUM_CHECK_MSG(id >= 0, "TracingCoordinator: pod ids must be non-negative");
  size_t b = Probe(id);
  if (index_[b].id == id) {
    return index_[b].slot;
  }
  // Keep the load factor at or below 1/2 so probe runs stay short.
  if (2 * (tracked_pods() + 1) > index_.size()) {
    GrowIndex();
    b = Probe(id);
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = PodSlot{};
  } else {
    OPTUM_CHECK_LT(slots_.size(), static_cast<size_t>(kNoSlot));
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].id = id;
  index_[b] = IndexEntry{id, slot};
  return slot;
}

void TracingCoordinator::GrowIndex() {
  std::vector<IndexEntry> old(index_.size() * 2);
  old.swap(index_);
  for (const IndexEntry& e : old) {
    if (e.id != kInvalidPodId) {
      index_[Probe(e.id)] = e;
    }
  }
}

void TracingCoordinator::ReleaseSlot(uint32_t slot) {
  const size_t mask = index_.size() - 1;
  size_t hole = Probe(slots_[slot].id);
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole whenever the hole lies between their home bucket and where they
  // sit, so every remaining key stays reachable without tombstones.
  for (size_t next = (hole + 1) & mask; index_[next].id != kInvalidPodId;
       next = (next + 1) & mask) {
    const size_t home = Bucket(index_[next].id);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = IndexEntry{};
  slots_[slot].id = kInvalidPodId;
  free_slots_.push_back(slot);
}

void TracingCoordinator::Evict(Tick now) {
  const Tick cutoff = now - config_.window;
  while (!node_usage_.empty() && node_usage_.front().collect_tick < cutoff) {
    node_usage_.pop_front();
  }
  // A pod's metadata leaves the window with its newest sample; the slot goes
  // with it unless the pod is still running.
  while (!pod_usage_.empty() && pod_usage_.front().collect_tick < cutoff) {
    const PodUsageRecord& rec = pod_usage_.front();
    const uint32_t s = FindSlot(rec.pod_id);
    if (s != kNoSlot && slots_[s].sampled_at == rec.collect_tick) {
      slots_[s].sampled_at = kNever;
      if (slots_[s].running_at != now) {
        ReleaseSlot(s);
      }
    }
    pod_usage_.pop_front();
  }
  while (!lifecycles_.empty() && lifecycles_.front().finish_tick < cutoff) {
    lifecycles_.pop_front();
  }
}

void TracingCoordinator::OnTick(const ClusterState& cluster, Tick now) {
  OPTUM_CHECK_GT(now, last_tick_);
  if (nodes_.empty()) {
    nodes_.reserve(cluster.num_hosts());
    for (const Host& host : cluster.hosts()) {
      nodes_.push_back(NodeMeta{host.id, host.capacity});
    }
  }

  const bool sample_nodes =
      config_.node_sample_period > 0 && now % config_.node_sample_period == 0;
  const bool sample_pods =
      config_.pod_sample_period > 0 && now % config_.pod_sample_period == 0;

  next_running_.clear();
  for (const Host& host : cluster.hosts()) {
    if (sample_nodes && !host.IsIdle()) {
      node_usage_.push_back(NodeUsageRecord{host.id, now,
                                            host.usage.cpu / host.capacity.cpu,
                                            host.usage.mem / host.capacity.mem, 0.0, 0.0});
    }
    for (const PodRuntime* pod : host.pods) {
      const uint32_t s = FindOrAddSlot(pod->spec.id);
      PodSlot& slot = slots_[s];
      if (slot.running_at != now) {
        // Lifecycle bookkeeping: a pod not running at the previous call
        // starts a new record.
        if (slot.running_at != last_tick_) {
          PodLifecycleRecord& rec = slot.open;
          rec = PodLifecycleRecord{};
          rec.pod_id = pod->spec.id;
          rec.app_id = pod->spec.app;
          rec.slo = pod->spec.slo;
          rec.submit_tick = pod->spec.submit_tick;
          rec.schedule_tick = pod->scheduled_at;
          rec.host = host.id;
          rec.waiting_seconds =
              static_cast<double>(pod->scheduled_at - pod->spec.submit_tick) *
              kSecondsPerTick;
          rec.ideal_completion_ticks = pod->spec.behavior.work_ticks;
        }
        slot.running_at = now;
        next_running_.push_back(s);
      }
      slot.open.max_cpu_psi = std::max(slot.open.max_cpu_psi, pod->psi60);

      if (sample_pods) {
        // Refresh metadata.
        PodMeta& meta = slot.meta;
        meta.pod_id = pod->spec.id;
        meta.app_id = pod->spec.app;
        meta.slo = pod->spec.slo;
        meta.request = pod->spec.request;
        meta.limit = pod->spec.limit;
        meta.submit_tick = pod->spec.submit_tick;
        meta.original_machine_id = host.id;
        slot.sampled_at = now;

        PodUsageRecord usage;
        usage.pod_id = pod->spec.id;
        usage.host = host.id;
        usage.collect_tick = now;
        usage.cpu_usage = pod->cpu_usage;
        usage.mem_usage = pod->mem_usage;
        usage.cpu_psi_60 = pod->psi60;
        usage.cpu_psi_10 = pod->psi60;  // 10 s window unavailable here
        usage.cpu_psi_300 = pod->psi300;
        usage.qps = pod->qps;
        pod_usage_.push_back(usage);
      }
    }
  }

  // Pods that were running at the previous call but are gone now have
  // completed (or were killed/preempted — indistinguishable from the
  // tracing layer, as in a real cluster where the coordinator sees container
  // exit events). They are recorded in ascending pod id.
  departed_.clear();
  for (const uint32_t s : running_) {
    if (slots_[s].running_at != now) {
      departed_.push_back(s);
    }
  }
  std::sort(departed_.begin(), departed_.end(),
            [&](uint32_t a, uint32_t b) { return slots_[a].id < slots_[b].id; });
  for (const uint32_t s : departed_) {
    PodLifecycleRecord done = slots_[s].open;
    done.finish_tick = now;
    done.actual_completion_ticks = static_cast<double>(now - done.schedule_tick);
    lifecycles_.push_back(done);
    if (slots_[s].sampled_at == kNever) {
      ReleaseSlot(s);
    }
  }
  running_.swap(next_running_);
  last_tick_ = now;
  Evict(now);
}

TraceBundle TracingCoordinator::Snapshot() const {
  TraceBundle out;
  out.nodes = nodes_;
  out.pods.reserve(tracked_pods());
  for (const PodSlot& slot : slots_) {
    if (slot.id != kInvalidPodId && slot.sampled_at != kNever) {
      out.pods.push_back(slot.meta);
    }
  }
  std::sort(out.pods.begin(), out.pods.end(),
            [](const PodMeta& a, const PodMeta& b) { return a.pod_id < b.pod_id; });
  out.node_usage.assign(node_usage_.begin(), node_usage_.end());
  out.pod_usage.assign(pod_usage_.begin(), pod_usage_.end());
  out.lifecycles.assign(lifecycles_.begin(), lifecycles_.end());
  return out;
}

}  // namespace optum::core

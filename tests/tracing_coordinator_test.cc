// Differential and resource tests for the Tracing Coordinator (paper Fig.
// 17 ❶). ReferenceCoordinator below is the original hash-map algorithm —
// per tick it rebuilds a map of running pods and rescans every pod seen in
// the window — kept here as the specification the flat-slot coordinator
// must reproduce: identical usage streams, identical pod metadata as a set,
// identical lifecycle records once sorted into the canonical order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/tracing_coordinator.h"
#include "src/sched/baselines.h"
#include "src/sim/simulator.h"
#include "src/trace/workload_generator.h"

// Global allocation counter, armed only around the calls under test. Every
// unaligned new/delete form is replaced, all with malloc/free, so no
// allocation made by one family is released by the other.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocations{0};

void* CountedMalloc(std::size_t size) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* CountedNew(std::size_t size) {
  if (void* p = CountedMalloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace optum::core {
namespace {

class ReferenceCoordinator {
 public:
  explicit ReferenceCoordinator(TracingConfig config) : config_(config) {}

  void OnTick(const ClusterState& cluster, Tick now) {
    if (nodes_.empty()) {
      for (const Host& host : cluster.hosts()) {
        nodes_.push_back(NodeMeta{host.id, host.capacity});
      }
    }
    std::unordered_map<PodId, PodLifecycleRecord> now_running;
    const bool sample_nodes =
        config_.node_sample_period > 0 && now % config_.node_sample_period == 0;
    const bool sample_pods =
        config_.pod_sample_period > 0 && now % config_.pod_sample_period == 0;
    for (const Host& host : cluster.hosts()) {
      if (sample_nodes && !host.IsIdle()) {
        node_usage_.push_back(NodeUsageRecord{host.id, now,
                                              host.usage.cpu / host.capacity.cpu,
                                              host.usage.mem / host.capacity.mem, 0.0, 0.0});
      }
      for (const PodRuntime* pod : host.pods) {
        auto running_it = running_.find(pod->spec.id);
        if (running_it == running_.end()) {
          PodLifecycleRecord rec;
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
          now_running.emplace(pod->spec.id, rec);
        } else {
          now_running.emplace(pod->spec.id, running_it->second);
        }
        PodLifecycleRecord& rec = now_running[pod->spec.id];
        rec.max_cpu_psi = std::max(rec.max_cpu_psi, pod->psi60);
        if (sample_pods) {
          PodMeta meta;
          meta.pod_id = pod->spec.id;
          meta.app_id = pod->spec.app;
          meta.slo = pod->spec.slo;
          meta.request = pod->spec.request;
          meta.limit = pod->spec.limit;
          meta.submit_tick = pod->spec.submit_tick;
          meta.original_machine_id = host.id;
          pods_[pod->spec.id] = meta;
          pod_last_seen_[pod->spec.id] = now;

          PodUsageRecord usage;
          usage.pod_id = pod->spec.id;
          usage.host = host.id;
          usage.collect_tick = now;
          usage.cpu_usage = pod->cpu_usage;
          usage.mem_usage = pod->mem_usage;
          usage.cpu_psi_60 = pod->psi60;
          usage.cpu_psi_10 = pod->psi60;
          usage.cpu_psi_300 = pod->psi300;
          usage.qps = pod->qps;
          pod_usage_.push_back(usage);
        }
      }
    }
    for (const auto& [pod_id, rec] : running_) {
      if (now_running.find(pod_id) != now_running.end()) {
        continue;
      }
      PodLifecycleRecord done = rec;
      done.finish_tick = now;
      done.actual_completion_ticks = static_cast<double>(now - done.schedule_tick);
      lifecycles_.push_back(done);
    }
    running_ = std::move(now_running);

    const Tick cutoff = now - config_.window;
    while (!node_usage_.empty() && node_usage_.front().collect_tick < cutoff) {
      node_usage_.pop_front();
    }
    while (!pod_usage_.empty() && pod_usage_.front().collect_tick < cutoff) {
      pod_usage_.pop_front();
    }
    while (!lifecycles_.empty() && lifecycles_.front().finish_tick < cutoff) {
      lifecycles_.pop_front();
    }
    for (auto it = pod_last_seen_.begin(); it != pod_last_seen_.end();) {
      if (it->second < cutoff) {
        pods_.erase(it->first);
        it = pod_last_seen_.erase(it);
      } else {
        ++it;
      }
    }
  }

  TraceBundle Snapshot() const {
    TraceBundle out;
    out.nodes = nodes_;
    for (const auto& [id, meta] : pods_) {
      out.pods.push_back(meta);
    }
    out.node_usage.assign(node_usage_.begin(), node_usage_.end());
    out.pod_usage.assign(pod_usage_.begin(), pod_usage_.end());
    out.lifecycles.assign(lifecycles_.begin(), lifecycles_.end());
    return out;
  }

  size_t pods_in_window() const { return pods_.size(); }

 private:
  TracingConfig config_;
  std::deque<NodeUsageRecord> node_usage_;
  std::deque<PodUsageRecord> pod_usage_;
  std::deque<PodLifecycleRecord> lifecycles_;
  std::unordered_map<PodId, PodMeta> pods_;
  std::unordered_map<PodId, Tick> pod_last_seen_;
  std::unordered_map<PodId, PodLifecycleRecord> running_;
  std::vector<NodeMeta> nodes_;
};

auto Key(const NodeUsageRecord& r) {
  return std::tie(r.machine_id, r.collect_tick, r.cpu_usage, r.mem_usage, r.disk_usage,
                  r.net_usage);
}
auto Key(const PodUsageRecord& r) {
  return std::tie(r.pod_id, r.host, r.collect_tick, r.cpu_usage, r.mem_usage, r.disk_usage,
                  r.cpu_psi_10, r.cpu_psi_60, r.cpu_psi_300, r.mem_psi_some_60,
                  r.mem_psi_full_60, r.qps, r.response_time);
}
auto Key(const PodMeta& m) {
  return std::tie(m.pod_id, m.app_id, m.slo, m.request.cpu, m.request.mem, m.limit.cpu,
                  m.limit.mem, m.submit_tick, m.original_machine_id);
}
auto Key(const PodLifecycleRecord& r) {
  return std::tie(r.pod_id, r.app_id, r.slo, r.submit_tick, r.schedule_tick, r.finish_tick,
                  r.host, r.waiting_seconds, r.ideal_completion_ticks,
                  r.actual_completion_ticks, r.max_cpu_psi);
}

template <typename T>
void ExpectSameSequence(const std::vector<T>& want, const std::vector<T>& got,
                        const char* what, Tick at) {
  ASSERT_EQ(want.size(), got.size()) << what << " at tick " << at;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(Key(want[i]) == Key(got[i])) << what << " row " << i << " at tick " << at;
  }
}

bool CanonicalLifecycleOrder(const PodLifecycleRecord& a, const PodLifecycleRecord& b) {
  return std::tie(a.finish_tick, a.pod_id) < std::tie(b.finish_tick, b.pod_id);
}

// Compares the flat coordinator's snapshot with the reference's: usage
// streams in order, pods as a set keyed by id, lifecycles after sorting the
// reference into the canonical (finish tick, pod id) order — which the flat
// coordinator must already emit.
void ExpectEquivalent(const ReferenceCoordinator& reference,
                      const TracingCoordinator& coordinator, Tick at) {
  const TraceBundle want = reference.Snapshot();
  const TraceBundle got = coordinator.Snapshot();
  ASSERT_EQ(want.nodes.size(), got.nodes.size());
  ExpectSameSequence(want.node_usage, got.node_usage, "node_usage", at);
  ExpectSameSequence(want.pod_usage, got.pod_usage, "pod_usage", at);

  std::vector<PodMeta> want_pods = want.pods;
  std::sort(want_pods.begin(), want_pods.end(),
            [](const PodMeta& a, const PodMeta& b) { return a.pod_id < b.pod_id; });
  ExpectSameSequence(want_pods, got.pods, "pods (ascending id)", at);

  std::vector<PodLifecycleRecord> want_lifecycles = want.lifecycles;
  std::stable_sort(want_lifecycles.begin(), want_lifecycles.end(), CanonicalLifecycleOrder);
  ExpectSameSequence(want_lifecycles, got.lifecycles, "lifecycles (canonical)", at);

  EXPECT_EQ(coordinator.node_records(), got.node_usage.size());
  EXPECT_EQ(coordinator.pod_records(), got.pod_usage.size());
  EXPECT_EQ(coordinator.lifecycle_records(), got.lifecycles.size());
}

struct DiffRun {
  int64_t calls = 0;
  int64_t comparisons = 0;
  int64_t max_lifecycles_per_pod = 0;
  int64_t lifecycles_total = 0;
  Tick last_call = -1;
  Tick first_finish_tick = -1;
  size_t peak_pods_in_window = 0;
  size_t final_pods_in_window = 0;
  int64_t distinct_pods_seen = 0;
  SimResult result;
};

// Runs one simulation feeding both coordinators from on_tick_end (on every
// `call_every`-th tick) and compares their snapshots every `compare_every`
// calls and at the end.
DiffRun RunDifferential(const Workload& workload, TracingConfig tracing, Tick call_every,
                        int64_t compare_every) {
  ReferenceCoordinator reference(tracing);
  TracingCoordinator coordinator(tracing);
  DiffRun run;
  std::unordered_map<PodId, int64_t> lifecycles_per_pod;
  std::unordered_set<PodId> seen;
  SimConfig sim_config;
  Tick last_call = -1;
  sim_config.on_tick_end = [&](const ClusterState& cluster, Tick now) {
    if (now % call_every != 0) {
      return;
    }
    reference.OnTick(cluster, now);
    coordinator.OnTick(cluster, now);
    last_call = now;
    ++run.calls;
    for (const Host& host : cluster.hosts()) {
      for (const PodRuntime* pod : host.pods) {
        seen.insert(pod->spec.id);
      }
    }
    run.peak_pods_in_window = std::max(run.peak_pods_in_window, reference.pods_in_window());
    if (run.calls % compare_every == 0) {
      ExpectEquivalent(reference, coordinator, now);
      ++run.comparisons;
    }
  };
  AlibabaBaseline scheduler;
  run.result = Simulator(workload, sim_config, scheduler).Run();
  ExpectEquivalent(reference, coordinator, last_call);
  ++run.comparisons;
  for (const PodLifecycleRecord& rec : coordinator.Snapshot().lifecycles) {
    run.max_lifecycles_per_pod =
        std::max(run.max_lifecycles_per_pod, ++lifecycles_per_pod[rec.pod_id]);
  }
  run.lifecycles_total = static_cast<int64_t>(coordinator.lifecycle_records());
  run.last_call = last_call;
  if (run.lifecycles_total > 0) {
    run.first_finish_tick = coordinator.Snapshot().lifecycles.front().finish_tick;
  }
  run.final_pods_in_window = reference.pods_in_window();
  run.distinct_pods_seen = static_cast<int64_t>(seen.size());
  return run;
}

Workload ChurnWorkload() {
  // Tight capacity: the LS/LSR fleet fills most of four hosts and BE demand
  // is three times the cluster, so arriving LSR pods preempt BE pods, which
  // are resubmitted and later run again under the same pod id.
  WorkloadConfig config;
  config.num_hosts = 4;
  config.horizon = 360;
  config.num_ls_apps = 4;
  config.num_lsr_apps = 3;
  config.num_be_apps = 8;
  config.num_system_apps = 1;
  config.num_vmenv_apps = 0;
  config.num_unknown_apps = 1;
  config.initial_ls_request_load = 0.85;
  config.ls_arrivals_per_tick_per_100_hosts = 2.0;
  config.be_target_request_load = 3.0;
  config.seed = 29;
  return WorkloadGenerator(config).Generate();
}

TEST(TracingCoordinatorDiffTest, PreemptionChurnReplacesPodIds) {
  const Workload workload = ChurnWorkload();
  TracingConfig tracing;
  tracing.node_sample_period = 2;
  tracing.pod_sample_period = 3;
  tracing.window = 100000;  // keep everything: every re-placement stays visible
  const DiffRun run = RunDifferential(workload, tracing, 1, 25);
  EXPECT_GT(run.result.preemptions, 0);
  // The same pod id ran, departed and ran again.
  EXPECT_GE(run.max_lifecycles_per_pod, 2);
  EXPECT_GT(run.lifecycles_total, 0);
  EXPECT_GT(run.comparisons, 10);
}

TEST(TracingCoordinatorDiffTest, EveryThirdTickCallsCountDeparturesFromPreviousCall) {
  const Workload workload = ChurnWorkload();
  TracingConfig tracing;
  tracing.node_sample_period = 2;
  tracing.pod_sample_period = 5;
  tracing.window = 100000;
  const DiffRun run = RunDifferential(workload, tracing, 3, 10);
  EXPECT_EQ(run.calls, 120);
  EXPECT_GT(run.lifecycles_total, 0);
  EXPECT_GE(run.max_lifecycles_per_pod, 2);
}

TEST(TracingCoordinatorDiffTest, SmallWindowEvictsMetadataAndRecordsMidRun) {
  const Workload workload = ChurnWorkload();
  TracingConfig tracing;
  tracing.node_sample_period = 2;
  tracing.pod_sample_period = 3;
  tracing.window = 24;
  const DiffRun run = RunDifferential(workload, tracing, 1, 7);
  // Metadata of departed pods left the window: far fewer pods are held at
  // the end than were ever seen.
  EXPECT_LT(static_cast<int64_t>(run.final_pods_in_window), run.distinct_pods_seen);
  EXPECT_LT(run.final_pods_in_window, run.peak_pods_in_window + 1);
  // Lifecycle records finished before the window were dropped too.
  ASSERT_GT(run.lifecycles_total, 0);
  EXPECT_GE(run.first_finish_tick, run.last_call - tracing.window);
  EXPECT_GT(run.comparisons, 40);
}

// --- Sparse ids, negative ids, allocation-free steady state -----------------

AppProfile TinyBeApp() {
  AppProfile app;
  app.id = 0;
  app.slo = SloClass::kBe;
  app.request = {0.01, 0.01};
  app.limit = {0.02, 0.02};
  return app;
}

TEST(TracingCoordinatorStorageTest, SparseIdsKeepStorageProportionalToPodsInWindow) {
  constexpr PodId kStride = 1'000'000'000'000;  // ids ~1e12 apart
  constexpr int kHosts = 8;
  constexpr Tick kResidency = 6;
  constexpr int kArrivalsPerTick = 5;
  constexpr int kBlipsPerOddTick = 2;
  const AppProfile app = TinyBeApp();
  ClusterState cluster(kHosts, kUnitResources, 8);
  TracingConfig tracing;
  tracing.node_sample_period = 1;
  tracing.pod_sample_period = 2;
  tracing.window = 10;
  TracingCoordinator coordinator(tracing);
  ReferenceCoordinator reference(tracing);

  // (expiry tick, pod). Every tick places long-lived pods; odd ticks also
  // place blips that leave before the next call and so are never sampled.
  std::vector<std::pair<Tick, PodRuntime*>> live;
  PodId serial = 1;
  size_t peak_tracked = 0;
  for (Tick now = 0; now < 400; ++now) {
    std::erase_if(live, [&](const std::pair<Tick, PodRuntime*>& entry) {
      if (entry.first > now) {
        return false;
      }
      cluster.Remove(entry.second);
      return true;
    });
    const int arrivals = kArrivalsPerTick + (now % 2 == 1 ? kBlipsPerOddTick : 0);
    for (int i = 0; i < arrivals; ++i) {
      const PodSpec spec = MakePodSpec(serial++ * kStride, app, now);
      const auto host = static_cast<HostId>(serial % kHosts);
      const Tick residency = i < kArrivalsPerTick ? kResidency : 1;
      live.emplace_back(now + residency, cluster.Place(spec, &app, host, now));
    }
    coordinator.OnTick(cluster, now);
    reference.OnTick(cluster, now);
    // Held pods: those running now plus those sampled within the window.
    EXPECT_LE(coordinator.tracked_pods(), live.size() + reference.pods_in_window());
    peak_tracked = std::max(peak_tracked, coordinator.tracked_pods());
  }
  ExpectEquivalent(reference, coordinator, 399);
  // 2,400 pods were seen with ids up to 2.4e15; storage follows the ~100 pods
  // held at any time (index at most 4x the peak, rounded up to a power of
  // two; slots at most the peak).
  EXPECT_GT(peak_tracked, 0u);
  EXPECT_LE(peak_tracked, 200u);
  EXPECT_LE(coordinator.pod_storage_entries(), 5 * peak_tracked + 64);
}

TEST(TracingCoordinatorStorageTest, NegativePodIdFailsCheck) {
  const AppProfile app = TinyBeApp();
  ClusterState cluster(1, kUnitResources, 8);
  cluster.Place(MakePodSpec(-5, app), &app, 0, 0);
  TracingCoordinator coordinator;
  EXPECT_DEATH(coordinator.OnTick(cluster, 0), "pod ids must be non-negative");
}

TEST(TracingCoordinatorStorageTest, SteadyTicksAllocateNothingForTrackedPods) {
  const AppProfile app = TinyBeApp();
  ClusterState cluster(16, kUnitResources, 8);
  for (PodId id = 0; id < 400; ++id) {
    cluster.Place(MakePodSpec(id * 7919, app), &app, static_cast<HostId>(id % 16), 0);
  }
  TracingConfig tracing;
  tracing.node_sample_period = 0;
  tracing.pod_sample_period = 10;
  tracing.window = 50;
  TracingCoordinator coordinator(tracing);
  for (Tick now = 0; now < 12; ++now) {
    coordinator.OnTick(cluster, now);  // warm-up: slots, index, buffers
  }
  g_allocations.store(0);
  g_count_allocations.store(true);
  for (Tick now = 12; now < 60; ++now) {
    if (now % tracing.pod_sample_period != 0) {
      coordinator.OnTick(cluster, now);
    }
  }
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocations.load(), 0);
  EXPECT_EQ(coordinator.tracked_pods(), 400u);
}

}  // namespace
}  // namespace optum::core

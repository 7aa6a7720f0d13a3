// Long-lived open-loop placement service (DESIGN.md §12): the layer that
// turns the batch-oriented DistributedCoordinator into a running service.
//
//   ArrivalDriver → AdmissionQueue → coordinator shards → §4.4 conflict
//   round → commit into ClusterState → latency percentiles + span log
//
// Time advances in *rounds*: one round = ArrivalConfig::round_seconds of
// model time, and the cluster clock ticks once per round (in this layer one
// tick == one round, unlike the simulator's fixed 30 s ticks). Every
// latency is derived from round arithmetic — placement latency of a pod is
// (placed_round - submit_round) * round_seconds — so all exported rows are
// bit-deterministic for a given config: independent of wall-clock, of how
// the coordinator's shard tasks interleave (each shard scores serially on
// its own task and conflicts resolve serially), and of the
// shard-histogram merge order.
//
// Each service round:
//   1. arrivals  — the open-loop driver emits this round's pods; each is
//      offered to the bounded admission queue (rejection = backpressure,
//      counted, never blocks the driver — that is what keeps the loop open).
//      Arrivals run inline on the round loop, which is serial.
//   2. schedule  — up to max_schedule_per_round pods pop round-robin across
//      queue shards and go through one DistributedCoordinator batch
//      (parallel shard decisions, serial conflict resolution). Winners
//      commit into the cluster and record their latency; losers requeue
//      until their cross-round requeue budget runs out, then drop. With
//      ServeConfig::pipeline_depth > 1 each shard additionally keeps its
//      next head pods speculatively scored against an epoch-snapshotted
//      host view (DESIGN.md §12) — bit-identical decisions, fewer fresh
//      evaluations per round.
//   3. departures — pods whose exponential residency expired free their
//      hosts. Residency is drawn from a per-pod-id-seeded stream, so depart
//      rounds are identical regardless of placement order or shard count.
#ifndef OPTUM_SRC_SERVE_PLACEMENT_SERVICE_H_
#define OPTUM_SRC_SERVE_PLACEMENT_SERVICE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "src/core/distributed.h"
#include "src/obs/pressure.h"
#include "src/obs/timeseries.h"
#include "src/serve/admission_queue.h"
#include "src/serve/arrival_driver.h"
#include "src/serve/latency.h"
#include "src/sim/cluster.h"

namespace optum::serve {

struct ServeConfig {
  ArrivalConfig arrival;
  // Shard fleet: distributed.num_schedulers is also the admission-queue
  // shard count, so queue partitioning matches scheduler ownership.
  core::DistributedConfig distributed;
  // Conflict-round pipelining depth (DESIGN.md §12): with depth D > 1 each
  // coordinator shard keeps up to D-1 future head pods speculatively scored
  // against an epoch-snapshotted host view while the serial resolver
  // commits the current round. Rows, placed sets, and SLO counters are
  // bit-identical for every depth; depth 1 is the classic serial loop.
  // Passed to the DistributedCoordinator constructor.
  size_t pipeline_depth = 1;
  // Bounded ingest: Offer() rejects once a shard's sub-queue holds this many.
  size_t queue_capacity_per_shard = 4096;
  // Service-rate cap: pods handed to the coordinator per round. Offered
  // load above this builds queue depth — the regime where tail latency
  // becomes interesting.
  size_t max_schedule_per_round = 512;
  // Cross-round retries for a pod the coordinator returned unplaced (its
  // own intra-batch attempts are separate); exhausted ⇒ dropped.
  int max_requeues = 8;
  // Mean pod residency in rounds (exponential); 0 = pods never depart.
  double mean_residency_rounds = 0.0;
  uint64_t residency_seed = 97;
  // Streaming estimator shape (one histogram per shard, merged on export).
  LatencyHistogram::Options latency;
  // Side-by-side exact ring for tests; leave off for long runs.
  bool keep_exact_latencies = false;
  size_t exact_capacity = 1 << 16;
};

struct ServeCounters {
  int64_t rounds = 0;
  int64_t arrivals = 0;         // pods emitted by the driver
  int64_t placed = 0;
  int64_t dropped = 0;          // requeue budget exhausted
  int64_t departed = 0;
  int64_t conflicts = 0;        // §4.4 re-dispatches across all batches
  int64_t schedule_rounds = 0;  // coordinator conflict rounds used
};

class PlacementService {
 public:
  // `workload` supplies the application population (the same one `profiles`
  // was trained on); `cluster` is the fleet the service places into. Both
  // must outlive the service.
  PlacementService(const Workload& workload, const core::OptumProfiles& profiles,
                   ClusterState* cluster, ServeConfig config);

  // Runs `rounds` full service rounds (arrivals + scheduling + departures).
  void RunRounds(int64_t rounds);

  // Runs arrival-free rounds until the admission queue is empty (shutdown
  // semantics: stop ingesting, finish or drop everything in flight).
  // Terminates because the requeue budget bounds every pod's retries.
  // Returns the number of drain rounds used.
  int64_t Drain();

  const ServeCounters& counters() const { return counters_; }
  AdmissionStats admission_stats() const { return queue_.stats(); }
  int64_t round() const { return round_; }
  size_t queue_depth() const { return queue_.depth(); }

  // Per-shard streaming estimators (shard = pod id % num_shards) and their
  // merge. Merging is commutative/associative integer addition, so the
  // merged percentiles are identical for every shard order.
  const LatencyHistogram& shard_latency(size_t shard) const {
    return shard_latency_[shard];
  }
  size_t num_shards() const { return shard_latency_.size(); }
  LatencyHistogram MergedLatency() const;
  // Non-null only with ServeConfig::keep_exact_latencies.
  const ExactLatencyRing* exact_latencies() const { return exact_.get(); }

  // Ids of every pod placed so far, ascending. The cross-thread/shard
  // invariance tests compare these sets directly.
  std::vector<PodId> PlacedPodIds() const;

  // One optum.latency.v1 row describing the run so far.
  LatencyRow MakeLatencyRow() const;

  // Unified sink attach (obs::Sinks contract). Adopts:
  //   * sinks.metrics — serve.* counters (arrivals/admitted/rejected/
  //     placed/dropped/departed, lane 0 — the round loop is serial) plus
  //     the coordinator's dist.* and per-shard metrics.
  //   * sinks.span_log — the service appends submitted spans for arrivals
  //     and finished spans for departures; the coordinator appends placed
  //     (with wait_ticks in rounds) and conflict_retried. All of them are
  //     appended on the serial round loop, honoring the SpanLog contract.
  //   * sinks.series — streaming gauge series, sampled once per round after
  //     the pressure gauges update (requires sinks.metrics).
  //   * sinks.profile — phase-level round profiler (DESIGN.md §14). The
  //     round loop times arrivals (ingest_wait — the whole emit-and-offer
  //     step, one scope per arrivals round), departures (folded
  //     into commit), and the pressure/series sweep (pressure_sweep), all
  //     at lane 0; the coordinator times the barrier phases per shard lane
  //     and closes each conflict round. The caller owns the profiler and
  //     calls Finalize() on it after the last round.
  // Other fields are ignored here (attach a decision log per shard via
  // coordinator().shard(i) — which also disables that shard's speculation —
  // and a hotspot log via the pressure monitor). Fields left nullptr
  // detach.
  void AttachSinks(const obs::Sinks& sinks);

  // Host-pressure monitor (DESIGN.md §13; nullptr detaches). At the end of
  // every round the service feeds each host — in id order, on the serial
  // round loop — its request-based utilization, the shard-0 predictor's
  // resident-interference estimate (mean RI per LS/LSR pod; key-pure caches
  // make it independent of the predictor's cache history), and the resident
  // class counts. serve.pressure.* / serve.slo.* gauges come from the
  // monitor's AttachSinks; the caller owns the monitor and calls Finalize()
  // on it after the last round.
  void set_pressure_monitor(obs::HostPressureMonitor* monitor) {
    pressure_ = monitor;
  }

  core::DistributedCoordinator& coordinator() { return coordinator_; }

  const ArrivalDriver& driver() const { return driver_; }

 private:
  void RunRound(bool with_arrivals);
  void RecordPlacement(const core::ScheduleProposal& winner);
  void ProcessDepartures();
  void SamplePressure();
  // Registers one round's arrivals: pod storage, submitted spans, queue
  // offers, counters.
  void ApplyArrivals(int64_t round, const std::vector<PodSpec>& specs);

  const Workload& workload_;
  ClusterState* cluster_;
  ServeConfig config_;
  ArrivalDriver driver_;
  core::DistributedCoordinator coordinator_;
  AdmissionQueue queue_;

  // Pod storage: deque keeps addresses stable; ids are dense from 0, so
  // pods_by_id_[id] is the lookup the commit callback uses.
  std::deque<ServePod> pods_;
  std::vector<ServePod*> pods_by_id_;

  // Departure schedule ordered by (depart_round, pod id) — deterministic.
  using Departure = std::pair<int64_t, PodId>;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures_;

  std::vector<LatencyHistogram> shard_latency_;
  std::unique_ptr<ExactLatencyRing> exact_;
  double latency_seconds_sum_ = 0.0;

  ServeCounters counters_;
  int64_t round_ = -1;  // last completed round; first RunRound executes 0

  // Scratch reused across rounds.
  std::vector<PodSpec> arrival_scratch_;
  std::vector<ServePod*> batch_scratch_;
  std::vector<const PodSpec*> spec_scratch_;

  obs::Sinks sinks_;
  obs::SpanLog* span_log_ = nullptr;
  obs::HostPressureMonitor* pressure_ = nullptr;
  obs::TimeSeriesRecorder* series_ = nullptr;
  obs::RoundProfiler* profiler_ = nullptr;
  obs::Counter* arrivals_counter_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* placed_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* departed_counter_ = nullptr;
};

}  // namespace optum::serve

#endif  // OPTUM_SRC_SERVE_PLACEMENT_SERVICE_H_

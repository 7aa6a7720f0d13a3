#include "src/serve/placement_service.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "src/common/check.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/span_log.h"

namespace optum::serve {
namespace {

// Per-pod residency stream: seeded by pod id alone, so a pod's departure
// round is a pure function of (seed, id, placed_round) — identical across
// shard counts, thread counts, and placement order.
double ResidencyRounds(uint64_t seed, PodId id, double mean_rounds) {
  Rng rng(seed + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(id) + 1));
  return rng.Exponential(1.0 / mean_rounds);
}

// ServeConfig::pipeline_depth is the serve-level knob for the coordinator's
// conflict-round pipelining; the larger of it and the embedded distributed
// config wins, so either surface can request depth.
core::DistributedConfig EffectiveDistributed(const ServeConfig& config) {
  core::DistributedConfig distributed = config.distributed;
  distributed.pipeline_depth =
      std::max(distributed.pipeline_depth, config.pipeline_depth);
  return distributed;
}

}  // namespace

PlacementService::PlacementService(const Workload& workload,
                                   const core::OptumProfiles& profiles,
                                   ClusterState* cluster, ServeConfig config)
    : workload_(workload),
      cluster_(cluster),
      config_(config),
      driver_(workload, config.arrival),
      coordinator_(profiles, EffectiveDistributed(config)),
      queue_(config.queue_capacity_per_shard,
             std::max<size_t>(1, config.distributed.num_schedulers)) {
  OPTUM_CHECK(cluster != nullptr);
  OPTUM_CHECK_GT(config_.max_schedule_per_round, 0u);
  OPTUM_CHECK_GE(config_.max_requeues, 0);
  // The arrival stream is one serial rng; more producers would have to
  // split it, changing the stream (and every row) — so cap at one.
  OPTUM_CHECK_MSG(config_.ingest_threads <= 1,
                  "serve: at most one ingest thread is supported");
  shard_latency_.reserve(queue_.num_shards());
  for (size_t s = 0; s < queue_.num_shards(); ++s) {
    shard_latency_.emplace_back(config_.latency);
  }
  if (config_.keep_exact_latencies) {
    exact_ = std::make_unique<ExactLatencyRing>(config_.exact_capacity);
  }
}

void PlacementService::AttachSinks(const obs::Sinks& sinks) {
  sinks_ = sinks;
  span_log_ = sinks.span_log;
  series_ = sinks.series;
  profiler_ = sinks.profile;
  // The coordinator adopts metrics + span_log and ignores the rest
  // (shard-level logs are attached via shard(i) directly, per its
  // contract).
  coordinator_.AttachSinks(sinks);
  obs::MetricRegistry* registry = sinks.metrics;
  if (registry == nullptr) {
    arrivals_counter_ = nullptr;
    admitted_counter_ = nullptr;
    rejected_counter_ = nullptr;
    placed_counter_ = nullptr;
    dropped_counter_ = nullptr;
    departed_counter_ = nullptr;
    return;
  }
  arrivals_counter_ = registry->counter("serve.arrivals");
  admitted_counter_ = registry->counter("serve.admitted");
  rejected_counter_ = registry->counter("serve.rejected_full");
  placed_counter_ = registry->counter("serve.placed");
  dropped_counter_ = registry->counter("serve.dropped");
  departed_counter_ = registry->counter("serve.departed");
}

void PlacementService::RunRounds(int64_t rounds) {
  if (config_.ingest_threads == 0 || rounds <= 0) {
    for (int64_t i = 0; i < rounds; ++i) {
      RunRound(/*with_arrivals=*/true);
    }
    return;
  }
  // Pipelined ingest: one producer thread generates round r+1's arrivals
  // while the round loop schedules round r, and applies them only at the
  // hand-off barrier inside RunRound — shared state is never touched
  // concurrently (ApplyArrivals runs while the consumer is parked), so the
  // run is bit-identical to inline ingest. The producer covers exactly this
  // call's rounds and is joined before returning; Drain() and later calls
  // are unaffected.
  const int64_t first = round_ + 1;
  const int64_t last = round_ + rounds;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ingest_allow_ = round_;
    ingest_ready_ = round_;
  }
  ingest_active_ = true;
  std::thread producer([this, first, last] { IngestLoop(first, last); });
  for (int64_t i = 0; i < rounds; ++i) {
    RunRound(/*with_arrivals=*/true);
  }
  producer.join();
  ingest_active_ = false;
}

void PlacementService::IngestLoop(int64_t first, int64_t last) {
  std::vector<PodSpec> specs;
  for (int64_t r = first; r <= last; ++r) {
    specs.clear();
    // Pre-generate round r while the consumer is still scheduling r-1; the
    // driver's rng/pod-id stream is producer-owned for the whole run, so
    // the emitted sequence matches the inline one draw for draw.
    driver_.EmitRound(r, &specs);
    {
      std::unique_lock<std::mutex> lock(ingest_mu_);
      ingest_cv_.wait(lock, [&] { return ingest_allow_ >= r; });
    }
    // The consumer is parked waiting for ingest_ready_ >= r; every mutation
    // below is exclusive and ordered before its wake-up.
    ApplyArrivals(r, specs);
    {
      std::lock_guard<std::mutex> lock(ingest_mu_);
      ingest_ready_ = r;
    }
    ingest_cv_.notify_all();
  }
}

int64_t PlacementService::Drain() {
  // Every queued pod is scheduled at least once per ceil(depth / batch)
  // rounds and survives at most max_requeues failures, so this bound is
  // generous; hitting it means the service stopped making progress.
  const int64_t limit =
      static_cast<int64_t>(queue_.depth() / config_.max_schedule_per_round + 2) *
      (config_.max_requeues + 2);
  int64_t used = 0;
  while (!queue_.empty()) {
    OPTUM_CHECK_MSG(used < limit, "serve: Drain() is not making progress");
    RunRound(/*with_arrivals=*/false);
    ++used;
  }
  return used;
}

void PlacementService::RunRound(bool with_arrivals) {
  ++round_;
  ++counters_.rounds;
  cluster_->set_now(static_cast<Tick>(round_));

  // 1. Arrivals: open-loop — emitted regardless of queue state; the bounded
  // queue answers with backpressure, never by blocking the driver. With an
  // ingest thread, this round's pods were pre-generated during the previous
  // round; open the barrier so the producer applies them, then wait for the
  // hand-off — the application itself runs exclusively while we are parked.
  if (with_arrivals) {
    // One ingest_wait scope per arrivals round, covering both the hand-off
    // barrier wait and the inline emit path — the scope count is invariant
    // across ingest_threads; only the measured ns differ.
    obs::RoundProfiler::Scope ingest_scope(profiler_,
                                           obs::ProfilePhase::kIngestWait, 0);
    if (ingest_active_) {
      {
        std::lock_guard<std::mutex> lock(ingest_mu_);
        ingest_allow_ = round_;
      }
      ingest_cv_.notify_all();
      {
        std::unique_lock<std::mutex> lock(ingest_mu_);
        ingest_cv_.wait(lock, [&] { return ingest_ready_ >= round_; });
      }
    } else {
      arrival_scratch_.clear();
      driver_.EmitRound(round_, &arrival_scratch_);
      ApplyArrivals(round_, arrival_scratch_);
    }
  }

  // 2. Scheduling: one coordinator batch (parallel shard decisions, serial
  // §4.4 conflict resolution) over this round's service-rate slice.
  batch_scratch_.clear();
  spec_scratch_.clear();
  queue_.PopBatch(config_.max_schedule_per_round, &batch_scratch_);
  if (!batch_scratch_.empty()) {
    for (const ServePod* pod : batch_scratch_) {
      spec_scratch_.push_back(&pod->spec);
    }
    const core::DistributedOutcome outcome = coordinator_.ScheduleBatch(
        spec_scratch_, *cluster_,
        [this](const core::ScheduleProposal& winner) { RecordPlacement(winner); });
    counters_.conflicts += outcome.conflicts_resolved;
    counters_.schedule_rounds += outcome.rounds_used;
    for (const auto& [spec, reason] : outcome.unplaced) {
      (void)reason;
      ServePod* pod = pods_by_id_[static_cast<size_t>(spec->id)];
      if (pod->requeues >= config_.max_requeues) {
        ++counters_.dropped;
        if (dropped_counter_ != nullptr) {
          dropped_counter_->Inc();
        }
        continue;
      }
      ++pod->requeues;
      queue_.Requeue(pod);
    }
  }

  // 3. Departures scheduled for this round or earlier (profiled as part of
  // the commit phase: both mutate cluster residency on the serial path).
  {
    obs::RoundProfiler::Scope depart_scope(profiler_,
                                           obs::ProfilePhase::kCommit, 0);
    ProcessDepartures();
  }

  // 4. Pressure sensing + series sampling on the settled end-of-round state
  // (serial; all sinks honor their serial-path contracts).
  {
    obs::RoundProfiler::Scope sweep_scope(profiler_,
                                          obs::ProfilePhase::kPressureSweep, 0);
    SamplePressure();
    if (series_ != nullptr) {
      series_->Sample(static_cast<Tick>(round_));
    }
  }
}

void PlacementService::ApplyArrivals(int64_t round,
                                     const std::vector<PodSpec>& specs) {
  counters_.arrivals += static_cast<int64_t>(specs.size());
  if (arrivals_counter_ != nullptr) {
    arrivals_counter_->Inc(0, specs.size());
  }
  for (const PodSpec& spec : specs) {
    pods_.push_back(ServePod{spec, round});
    ServePod* pod = &pods_.back();
    OPTUM_CHECK_EQ(static_cast<size_t>(spec.id), pods_by_id_.size());
    pods_by_id_.push_back(pod);
    if (span_log_ != nullptr) {
      span_log_->Append({.tick = static_cast<Tick>(round),
                         .pod = spec.id,
                         .phase = obs::SpanPhase::kSubmitted});
    }
    const bool admitted = queue_.Offer(pod);
    if (admitted_counter_ != nullptr) {
      (admitted ? admitted_counter_ : rejected_counter_)->Inc();
    }
  }
}

void PlacementService::SamplePressure() {
  if (pressure_ == nullptr) {
    return;
  }
  // Utilization basis: the Eq. 6 predicted-usage model, not raw request
  // sums — requests oversubscribe capacity ~2.5x by design (overcommit is
  // the point of the paper), so request_sum/capacity reads as permanently
  // saturated. Predicted usage is the measure the feasibility gate bounds,
  // which makes its ceiling (~1.0, drifting slightly above as colocation
  // context shifts) the natural pressure scale.
  const core::OptumScheduler& shard0 = coordinator_.shard(0);
  const core::InterferencePredictor& predictor = shard0.interference_predictor();
  const core::ResourceUsagePredictor& usage = shard0.usage_predictor();
  pressure_->BeginTick(static_cast<Tick>(round_));
  for (const Host& host : cluster_->hosts()) {
    obs::HostPressureInput in;
    const Resources predicted = usage.PredictHost(host, /*incoming=*/nullptr);
    in.cpu_util = host.capacity.cpu > 0.0 ? predicted.cpu / host.capacity.cpu
                                          : 0.0;
    in.mem_util = host.capacity.mem > 0.0 ? predicted.mem / host.capacity.mem
                                          : 0.0;
    int32_t counts[kNumSloClasses];
    CountPodsBySlo(host, counts);
    in.pods_be = counts[static_cast<size_t>(SloClass::kBe)];
    in.pods_ls = counts[static_cast<size_t>(SloClass::kLs)];
    in.pods_lsr = counts[static_cast<size_t>(SloClass::kLsr)];
    const int32_t ls_pods = in.pods_ls + in.pods_lsr;
    if (ls_pods > 0) {
      in.interference =
          predictor.ResidentInterference(host, in.cpu_util, in.mem_util,
                                         /*weight_ls=*/1.0, /*weight_be=*/0.0) /
          static_cast<double>(ls_pods);
    }
    pressure_->ObserveHost(host.id, in);
  }
  pressure_->EndTick();
}

void PlacementService::RecordPlacement(const core::ScheduleProposal& winner) {
  ServePod* pod = pods_by_id_[static_cast<size_t>(winner.pod)];
  pod->placed_round = round_;
  pod->runtime = cluster_->Place(pod->spec, &AppOf(workload_, pod->spec.app),
                                 winner.host, static_cast<Tick>(round_));
  ++counters_.placed;
  if (placed_counter_ != nullptr) {
    placed_counter_->Inc();
  }

  const double latency_s = static_cast<double>(round_ - pod->submit_round) *
                           config_.arrival.round_seconds;
  latency_seconds_sum_ += latency_s;
  shard_latency_[static_cast<size_t>(pod->spec.id) % queue_.num_shards()].Record(
      latency_s);
  if (exact_ != nullptr) {
    exact_->Record(latency_s);
  }

  if (config_.mean_residency_rounds > 0.0) {
    const double residency = ResidencyRounds(
        config_.residency_seed, pod->spec.id, config_.mean_residency_rounds);
    pod->depart_round = round_ + 1 + static_cast<int64_t>(residency);
    departures_.emplace(pod->depart_round, pod->spec.id);
  }
}

void PlacementService::ProcessDepartures() {
  while (!departures_.empty() && departures_.top().first <= round_) {
    const PodId id = departures_.top().second;
    departures_.pop();
    ServePod* pod = pods_by_id_[static_cast<size_t>(id)];
    cluster_->Remove(pod->runtime);
    pod->runtime = nullptr;
    ++counters_.departed;
    if (departed_counter_ != nullptr) {
      departed_counter_->Inc();
    }
    if (span_log_ != nullptr) {
      span_log_->Append({.tick = static_cast<Tick>(round_),
                         .pod = id,
                         .phase = obs::SpanPhase::kFinished});
    }
  }
}

LatencyHistogram PlacementService::MergedLatency() const {
  LatencyHistogram merged(config_.latency);
  for (const LatencyHistogram& shard : shard_latency_) {
    merged.Merge(shard);
  }
  return merged;
}

std::vector<PodId> PlacementService::PlacedPodIds() const {
  std::vector<PodId> ids;
  ids.reserve(static_cast<size_t>(counters_.placed));
  for (const ServePod& pod : pods_) {
    if (pod.placed_round >= 0) {
      ids.push_back(pod.spec.id);
    }
  }
  return ids;
}

LatencyRow PlacementService::MakeLatencyRow() const {
  LatencyRow row;
  row.hosts = static_cast<int>(cluster_->num_hosts());
  row.shards = queue_.num_shards();
  row.offered_pods_per_sec = config_.arrival.offered_pods_per_sec;
  row.process = ToString(config_.arrival.process);
  row.rounds = counters_.rounds;
  row.round_seconds = config_.arrival.round_seconds;
  row.arrivals = counters_.arrivals;
  row.admitted = queue_.stats().admitted;
  row.rejected_full = queue_.stats().rejected_full;
  row.placed = counters_.placed;
  row.dropped = counters_.dropped;
  row.conflicts = counters_.conflicts;
  const double mean = counters_.placed > 0
                          ? latency_seconds_sum_ / static_cast<double>(counters_.placed)
                          : 0.0;
  FillLatencyPercentiles(MergedLatency(), mean, &row);
  return row;
}

}  // namespace optum::serve

// Bounded, sharded admission queue for the placement service
// (DESIGN.md §12).
//
// Arrivals are partitioned across per-shard FIFO sub-queues by pod id, one
// sub-queue per scheduler shard, each with its own capacity — so a burst
// aimed at one shard backpressures that shard without starving the others.
// Offer() is the backpressure point: when the target sub-queue is at
// capacity the pod is rejected (counted, never silently dropped), which is
// the open-loop driver's signal that the fleet is past saturation.
// PopBatch() drains shards round-robin, one pod per shard per step, so a
// deep shard cannot monopolize a scheduling round.
//
// The queue stores raw ServePod pointers; PlacementService owns the pods
// (append-only deque, so addresses are stable for the service's lifetime).
//
// Threading: PlacementService calls every method from its one serial round
// loop, which is what keeps admitted/rejected counts and peak depth
// bit-deterministic. The queue is nonetheless safe for concurrent
// producers: each sub-queue is guarded by its own mutex and every statistic
// is an atomic, so concurrent Offer()/Requeue() calls and depth()/stats()
// readers never lose or double-count an offer. PopBatch() keeps a single
// consumer: it is safe against concurrent Offer() but must not race another
// PopBatch() (the rotation cursor is consumer-owned).
#ifndef OPTUM_SRC_SERVE_ADMISSION_QUEUE_H_
#define OPTUM_SRC_SERVE_ADMISSION_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "src/trace/app_model.h"

namespace optum {
struct PodRuntime;
}  // namespace optum

namespace optum::serve {

// One pod moving through the service: the spec handed to the schedulers
// plus the lifecycle bookkeeping the service layers on top.
struct ServePod {
  PodSpec spec;
  int64_t submit_round = 0;
  int64_t placed_round = -1;
  int64_t depart_round = -1;  // -1 = still running (or never placed)
  int requeues = 0;           // cross-round placement retries consumed
  PodRuntime* runtime = nullptr;
};

// Point-in-time snapshot of the queue's counters (plain values, safe to
// copy around; taken with relaxed loads — exact once producer and consumer
// are quiesced, e.g. at a round barrier or after a run).
struct AdmissionStats {
  int64_t offered = 0;        // Offer() calls
  int64_t admitted = 0;       // accepted into a sub-queue
  int64_t rejected_full = 0;  // backpressure: target sub-queue at capacity
  int64_t requeued = 0;       // placement retries re-entering the queue
  size_t peak_depth = 0;      // max total depth ever observed
};

class AdmissionQueue {
 public:
  AdmissionQueue(size_t capacity_per_shard, size_t num_shards);

  // Admits the pod into its shard's sub-queue (shard = pod id modulo shard
  // count — deterministic, so replays shard identically). Returns false and
  // counts a rejection when that sub-queue is full. Thread-safe.
  bool Offer(ServePod* pod);

  // Re-enqueues a pod whose placement attempt failed (rejection or lost
  // conflict). Retries are already-admitted work, so they bypass the
  // capacity check — backpressure applies at the front door only; the
  // service bounds retries with its requeue budget instead. Thread-safe.
  void Requeue(ServePod* pod);

  // Pops up to max_pods, round-robin one pod per non-empty shard per step,
  // appending to *out. Returns the number popped. The rotation cursor
  // persists across calls so no shard is structurally favored.
  // Single-consumer: safe against concurrent Offer(), not against a second
  // PopBatch().
  size_t PopBatch(size_t max_pods, std::vector<ServePod*>* out);

  size_t depth() const { return depth_.load(std::memory_order_relaxed); }
  size_t shard_depth(size_t shard) const;
  size_t num_shards() const { return shards_.size(); }
  size_t capacity_per_shard() const { return capacity_per_shard_; }
  bool empty() const { return depth() == 0; }
  AdmissionStats stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::deque<ServePod*> queue;
  };

  size_t ShardOf(const ServePod& pod) const {
    return static_cast<size_t>(pod.spec.id) % shards_.size();
  }
  void NotePeak(size_t depth_now);

  // Constructed once to the shard count and never resized (Shard holds a
  // mutex, so the vector must not reallocate).
  std::vector<Shard> shards_;
  size_t capacity_per_shard_;
  size_t cursor_ = 0;  // PopBatch rotation; consumer-owned

  std::atomic<size_t> depth_{0};
  std::atomic<int64_t> offered_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> rejected_full_{0};
  std::atomic<int64_t> requeued_{0};
  std::atomic<size_t> peak_depth_{0};
};

}  // namespace optum::serve

#endif  // OPTUM_SRC_SERVE_ADMISSION_QUEUE_H_

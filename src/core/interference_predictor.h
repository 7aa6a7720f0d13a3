// Optum's Interference Predictor (paper §4.3.3, Eq. 9-10): estimates, for
// every pod on a candidate host, the interference it would suffer after a
// new pod is placed there — the profiled PSI for LS pods, the profiled
// normalized completion time for BE pods. Predictions depend only on the
// pod's application and the host's predicted utilization, so they are
// cached per (app, utilization bucket).
//
// Every cached value is a pure function of its cache key: the model is
// evaluated at the bucket's canonical point, not at the raw utilization
// that happened to trigger the miss. That makes predictions independent of
// cache history (warm vs cold, cleared vs not), which the scheduler's
// evaluation memo and speculative scoring rely on.
//
// Not internally synchronized: one predictor serves one scheduler, and a
// scheduler scores its candidates serially (DESIGN.md §8).
#ifndef OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_
#define OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/prediction_cache.h"
#include "src/core/profiles.h"
#include "src/obs/metrics.h"
#include "src/sim/cluster.h"

namespace optum::core {

class InterferencePredictor {
 public:
  // `profiles` must outlive the predictor.
  //
  // use_host_app_counts selects how the per-host application histogram is
  // obtained: true reads Host::app_counts (maintained incrementally by
  // ClusterState); false rebuilds it from Host::pods on every call — the
  // pre-incremental behaviour, kept as the benchmark baseline and for
  // equivalence testing against the incremental structures.
  explicit InterferencePredictor(const OptumProfiles* profiles,
                                 bool use_host_app_counts = true);

  // RI for one pod of application `app` on a host whose predicted CPU/mem
  // utilizations (POC/Cap, POM/Cap) are given. Returns 0 when the app has
  // no usable model (no interference information, paper §5.2 optimizes only
  // apps with accurate profiles).
  double Predict(AppId app, double host_cpu_util, double host_mem_util) const;

  // Sum of RI over all pods currently on `host` plus the incoming pod, at
  // the given post-placement utilization (paper Eq. 11, literal form).
  // Pods of the same application share one prediction (their Eq. 9/10
  // features are identical), so cost is O(#distinct apps).
  double TotalInterference(const Host& host, const PodSpec& incoming,
                           double host_cpu_util, double host_mem_util,
                           double weight_ls, double weight_be) const;

  // Sum of RI over the pods already resident on `host` — no incoming pod —
  // at the host's *current* utilization, snapped to a coarse 8-bucket grid
  // (the signal rides an EWMA; candidate-scoring resolution would buy
  // nothing but cache misses). The pressure sensor (DESIGN.md §13) feeds
  // this into the per-host pressure signal; a per-host memo keyed on
  // (change_epoch, coarse buckets, weights) makes repeated sweeps O(1) per
  // unchanged host, and every computed value comes from the key-pure
  // Predict cache, so results are independent of cache history.
  double ResidentInterference(const Host& host, double host_cpu_util,
                              double host_mem_util, double weight_ls,
                              double weight_be) const;

  // Marginal form: the increase in interference the incoming pod causes to
  // the pods already on the host (RI at post-placement utilization minus RI
  // at current utilization), plus the incoming pod's own absolute RI. This
  // is the exact greedy step for the global objective of Eq. 6 — the
  // literal Eq. 11 sum adds a per-pod constant that double-counts
  // pre-existing interference across candidate hosts.
  //
  // A single pod shifts host utilization by ~1%, below both the tree
  // granularity of the forest and the output discretization, so the delta
  // is estimated as a finite-difference slope over a wider utilization span
  // on the raw (undiscretized) model output.
  double MarginalInterference(const Host& host, const PodSpec& incoming,
                              double cpu_util_before, double mem_util_before,
                              double cpu_util_after, double mem_util_after,
                              double weight_ls, double weight_be) const;

  // Drops all cached predictions and re-syncs the AppId-indexed model
  // table; call after the profiles object is replaced wholesale.
  void ClearCache();
  size_t cache_size() const { return cache_.size(); }

  // Hit/miss tallies of the two caches, maintained unconditionally (one
  // non-atomic increment on an already-hot line each). They survive
  // ClearCache() — they count work over the predictor's lifetime, not
  // cache contents.
  struct CacheStats {
    uint64_t predict_hits = 0, predict_misses = 0;
    uint64_t slope_hits = 0, slope_misses = 0;
    // Forest rows evaluated: one per Predict miss, two (both slope
    // endpoints) per slope miss.
    uint64_t forest_evals() const { return predict_misses + 2 * slope_misses; }
    uint64_t misses() const { return predict_misses + slope_misses; }
  };
  const CacheStats& cache_stats() const { return stats_; }
  // Predict + slope misses so far; the scheduler uses before/after deltas
  // to tag decision-log candidates with their cache-miss cost.
  uint64_t misses() const { return stats_.misses(); }

  // Attaches the forest-evaluation timer: slope-cache misses (two raw-model
  // evaluations each) record their latency into `sink` at registry lane
  // `lane`; nullptr (the default) disables timing entirely.
  void set_forest_timer(obs::Histogram* sink, size_t lane = 0) {
    forest_timer_ = sink;
    forest_timer_lane_ = lane;
  }

 private:
  // Side of the Predict and slope caches' utilization grids: kCacheBuckets
  // buckets over [0, 2] per axis. The slope is flat between tree splits, so
  // a finer slope grid would only multiply cold misses, and each miss costs
  // two forest evaluations.
  static constexpr size_t kCacheBuckets = 64;
  // Fine grid (8x the coarse one) the slope endpoints are evaluated on, so
  // the finite difference sees real variation.
  static constexpr size_t kFineBuckets = 8 * kCacheBuckets;

  // Bucket index of a utilization value on a `buckets`-wide grid over [0, 2]
  // (the packing the cache keys use).
  static uint64_t UtilBucket(double v, size_t buckets);
  // Canonical evaluation point of a bucket: its center, clamped to [0, 2].
  // All cache misses for the bucket evaluate the model here, making the
  // stored value key-pure.
  static double BucketPoint(uint64_t bucket, size_t buckets);

  double PredictImpl(const AppModel& model, double host_cpu_util,
                     double host_mem_util) const;
  // Both endpoints of a finite-difference slope: raw model output (no
  // output discretization) at the fine-grid points of (cpu_lo, mem) and
  // (cpu_hi, mem), evaluated with one two-row PredictBatch.
  void PredictRawSpan(const AppModel& model, double cpu_lo, double cpu_hi,
                      double mem_util, double* out_lo, double* out_hi) const;
  // Flat-index lookup; AppIds are dense, so this replaces a hash find on
  // the scoring hot path. Null when the app has no profile.
  const AppModel* FindModel(AppId app) const {
    return app >= 0 && static_cast<size_t>(app) < by_app_.size()
               ? by_app_[static_cast<size_t>(app)]
               : nullptr;
  }
  void RebuildAppIndex();

  // Per-host memo for ResidentInterference (the DESIGN.md §13 pressure
  // sweep). The weighted sum is a pure function of the host's app_counts
  // histogram — versioned by Host::change_epoch — and the coarse
  // utilization buckets Predict quantizes its inputs to, so a sweep only
  // pays the per-app cache walk for hosts that changed since the last one.
  // Callers are the serial pressure paths (simulator tick, placement-service
  // round, bench mirror), matching the serial-emission contract of the
  // monitor this feeds.
  struct ResidentMemo {
    uint64_t epoch = std::numeric_limits<uint64_t>::max();  // never a real epoch
    uint64_t cpu_bucket = 0;
    uint64_t mem_bucket = 0;
    double weight_ls = 0.0;
    double weight_be = 0.0;
    double value = 0.0;
  };

  // Side of the coarse utilization grid ResidentInterference snaps its
  // inputs to (see the .cc): kResidentBuckets^2 cells over [0, 2]^2.
  static constexpr size_t kResidentBuckets = 8;

  const OptumProfiles* profiles_;
  bool use_host_app_counts_;
  // Pointers into profiles_->apps values; valid until the map is mutated
  // (profile replacement calls ClearCache, which rebuilds the index).
  std::vector<const AppModel*> by_app_;
  // Discretized Predict values, keyed on (app, cpu bucket, mem bucket).
  mutable PredictionCache cache_;
  // Finite-difference slopes for MarginalInterference, keyed on (app,
  // coarse CPU-midpoint and memory buckets); shared by both histogram paths
  // so the incremental and rebuild modes stay numerically identical.
  mutable PredictionCache slope_cache_;
  mutable CacheStats stats_;
  // Indexed by host id, grown on demand; dropped by ClearCache() with the
  // caches (model replacement invalidates every stored sum).
  mutable std::vector<ResidentMemo> resident_memo_;
  // Flat per-app cache over the coarse resident grid: cell
  // [app * 64 + cpu_bucket * 8 + mem_bucket] holds exactly what
  // Predict(app, cell center) returns (filled through Predict on first
  // touch, so values stay bit-identical to the Predict-cache path). Turns
  // the per-app walk for a changed host into direct loads instead of hash
  // probes. Serial pressure callers only; sized by RebuildAppIndex, cleared
  // with the caches.
  mutable std::vector<double> resident_grid_;
  mutable std::vector<uint8_t> resident_grid_valid_;
  // Nullable observability sink (see set_forest_timer).
  obs::Histogram* forest_timer_ = nullptr;
  size_t forest_timer_lane_ = 0;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_

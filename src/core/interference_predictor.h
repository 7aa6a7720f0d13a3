// Optum's Interference Predictor (paper §4.3.3, Eq. 9-10): estimates, for
// every pod on a candidate host, the interference it would suffer after a
// new pod is placed there — the profiled PSI for LS pods, the profiled
// normalized completion time for BE pods. Predictions depend only on the
// pod's application and the host's predicted utilization, so they are
// tabulated per (app, utilization bucket).
//
// Every tabulated value is a pure function of its cell: the model is
// evaluated at the bucket's canonical point, not at the raw utilization
// that happened to fill the cell. That makes predictions independent of
// table history (warm vs cold, cleared vs not), which the scheduler's
// evaluation memo and speculative scoring rely on.
//
// Not internally synchronized: one predictor serves one scheduler, and a
// scheduler scores its candidates serially (DESIGN.md §8).
#ifndef OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_
#define OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_

#include <cstdint>
#include <vector>

#include "src/core/profiles.h"
#include "src/obs/metrics.h"
#include "src/sim/cluster.h"

namespace optum::core {

class InterferencePredictor {
 public:
  // `profiles` must outlive the predictor. Per-host application
  // histograms are read from Host::app_counts (maintained incrementally by
  // ClusterState).
  explicit InterferencePredictor(const OptumProfiles* profiles);

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
  // nothing but table fills). The pressure sensor (DESIGN.md §13) feeds
  // this into the per-host pressure signal. Each per-app term is read from
  // the Predict table at the snapped point, so the sum equals
  // sum over host.pods of weight * Predict(app, coarse cell centre).
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

  // Drops every tabulated value and rebuilds the tables over the current
  // usable apps; call after the profiles object is replaced wholesale.
  void ClearCache();
  // Filled cells of the Predict table (a scan; for tests and diagnostics).
  size_t cache_size() const;

  // Hit/miss tallies of the two tables, maintained unconditionally (one
  // non-atomic increment on an already-hot line each). A miss is a cell's
  // first touch since construction or the last ClearCache(); the tallies
  // themselves survive ClearCache() — they count work over the predictor's
  // lifetime, not table contents.
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

  // Attaches the forest-evaluation timer: slope-table misses (two raw-model
  // evaluations each) record their latency into `sink` at registry lane
  // `lane`; nullptr (the default) disables timing entirely.
  void set_forest_timer(obs::Histogram* sink, size_t lane = 0) {
    forest_timer_ = sink;
    forest_timer_lane_ = lane;
  }

 private:
  // Side of the Predict and slope tables' utilization grids: kCacheBuckets
  // buckets over [0, 2] per axis. The slope is flat between tree splits, so
  // a finer slope grid would only multiply cold misses, and each miss costs
  // two forest evaluations.
  static constexpr size_t kCacheBuckets = 64;
  static constexpr size_t kCellsPerApp = kCacheBuckets * kCacheBuckets;
  // Fine grid (8x the coarse one) the slope endpoints are evaluated on, so
  // the finite difference sees real variation.
  static constexpr size_t kFineBuckets = 8 * kCacheBuckets;
  // Side of the coarse utilization grid ResidentInterference snaps its
  // inputs to (see the .cc): kResidentBuckets^2 cells over [0, 2]^2.
  static constexpr size_t kResidentBuckets = 8;
  static constexpr uint32_t kNoSlot = ~0u;

  // Bucket index of a utilization value on a `buckets`-wide grid over [0, 2]
  // (the packing the table cells use).
  static uint64_t UtilBucket(double v, size_t buckets);
  // Canonical evaluation point of a bucket: its center, clamped to [0, 2].
  // Every fill of a cell evaluates the model here, making the stored value
  // a pure function of the cell.
  static double BucketPoint(uint64_t bucket, size_t buckets);

  double PredictImpl(const AppModel& model, double host_cpu_util,
                     double host_mem_util) const;
  // Both endpoints of a finite-difference slope: raw model output (no
  // output discretization) at the fine-grid points of (cpu_lo, mem) and
  // (cpu_hi, mem), evaluated with one two-row PredictBatch.
  void PredictRawSpan(const AppModel& model, double cpu_lo, double cpu_hi,
                      double mem_util, double* out_lo, double* out_hi) const;
  // Table slot of `app`: dense over the apps with a usable model, kNoSlot
  // for every other id (no profile, no model, negative, past the catalog).
  uint32_t SlotOf(AppId app) const {
    return app >= 0 && static_cast<size_t>(app) < slot_by_app_.size()
               ? slot_by_app_[static_cast<size_t>(app)]
               : kNoSlot;
  }
  static size_t Cell(uint32_t slot, uint64_t cpu_bucket, uint64_t mem_bucket) {
    return static_cast<size_t>(slot) * kCellsPerApp +
           static_cast<size_t>(cpu_bucket * kCacheBuckets + mem_bucket);
  }
  double SlopeAt(uint32_t slot, uint64_t mid_bucket, uint64_t mem_bucket) const;

  const OptumProfiles* profiles_;
  // AppId -> table slot, and slot -> model (pointers into profiles_->apps
  // values; valid until the map is mutated, and profile replacement calls
  // ClearCache, which rebuilds both).
  std::vector<uint32_t> slot_by_app_;
  std::vector<const AppModel*> models_;
  // Lazily filled tables, [slot][cpu bucket][mem bucket]: discretized
  // Predict values, and finite-difference slopes for MarginalInterference
  // (cpu axis = bucket of the before/after CPU midpoint). Unfilled cells
  // hold kUnfilled, a NaN payload no model evaluation produces.
  mutable std::vector<double> predict_table_;
  mutable std::vector<double> slope_table_;
  mutable CacheStats stats_;
  // Nullable observability sink (see set_forest_timer).
  obs::Histogram* forest_timer_ = nullptr;
  size_t forest_timer_lane_ = 0;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_INTERFERENCE_PREDICTOR_H_

#include "src/core/interference_predictor.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/obs/timer.h"

namespace optum::core {

namespace {

// Per-host application histogram rebuilt from the pod list — the
// pre-incremental path, retained verbatim so benchmarks can measure the
// baseline cost and equivalence tests can compare against Host::app_counts.
struct RebuiltAppCount {
  AppId app;
  SloClass slo;
  int count;
};

std::vector<RebuiltAppCount> RebuildCounts(const Host& host) {
  std::vector<RebuiltAppCount> counts;
  counts.reserve(host.pods.size() + 1);
  for (const PodRuntime* pod : host.pods) {
    bool merged = false;
    for (auto& c : counts) {
      if (c.app == pod->spec.app) {
        ++c.count;
        merged = true;
        break;
      }
    }
    if (!merged) {
      counts.push_back(RebuiltAppCount{pod->spec.app, pod->spec.slo, 1});
    }
  }
  return counts;
}

double WeightOf(SloClass slo, double weight_ls, double weight_be) {
  return IsLatencySensitive(slo) ? weight_ls : slo == SloClass::kBe ? weight_be : 0.0;
}

// Writes the Eq. 9/10 feature row for `model` at the given host utilizations
// into `row` (sized for kLsFeatureCount) and returns the row width. LS adds
// QPS as the app's maximum, i.e. 1.0 after normalization.
size_t FillFeatures(const AppModel& model, double host_cpu_util, double host_mem_util,
                    double* row) {
  const AppStats& s = model.stats;
  row[0] = s.max_pod_cpu_util;
  row[1] = s.max_pod_mem_util;
  row[2] = host_cpu_util;
  row[3] = host_mem_util;
  if (IsLatencySensitive(s.slo)) {
    row[4] = 1.0;
    return kLsFeatureCount;
  }
  return kBeFeatureCount;
}

}  // namespace

InterferencePredictor::InterferencePredictor(const OptumProfiles* profiles,
                                             bool use_host_app_counts)
    : profiles_(profiles), use_host_app_counts_(use_host_app_counts) {
  OPTUM_CHECK(profiles != nullptr);
  RebuildAppIndex();
}

void InterferencePredictor::RebuildAppIndex() {
  by_app_.clear();
  for (const auto& [app, model] : profiles_->apps) {
    if (app < 0) {
      continue;
    }
    if (static_cast<size_t>(app) >= by_app_.size()) {
      by_app_.resize(static_cast<size_t>(app) + 1, nullptr);
    }
    by_app_[static_cast<size_t>(app)] = &model;
  }
  const size_t cells = by_app_.size() * kResidentBuckets * kResidentBuckets;
  resident_grid_.assign(cells, 0.0);
  resident_grid_valid_.assign(cells, 0);
}

void InterferencePredictor::ClearCache() {
  cache_.Clear();
  slope_cache_.Clear();
  resident_memo_.clear();  // stored sums embed predictions from the old models
  RebuildAppIndex();
}

uint64_t InterferencePredictor::UtilBucket(double v, size_t buckets) {
  const double clamped = std::clamp(v, 0.0, 2.0) / 2.0;
  return static_cast<uint64_t>(clamped * static_cast<double>(buckets - 1));
}

double InterferencePredictor::BucketPoint(uint64_t bucket, size_t buckets) {
  const double width = 2.0 / static_cast<double>(buckets - 1);
  return std::min(2.0, (static_cast<double>(bucket) + 0.5) * width);
}

double InterferencePredictor::PredictImpl(const AppModel& model, double host_cpu_util,
                                          double host_mem_util) const {
  // Eq. 9: f_S(C^m_p, M^m_p, POC/Cap, POM/Cap, Q^m) for LS; Eq. 10:
  // f_B(C^m_q, M^m_q, POC/Cap, POM/Cap) for BE. Evaluated through the batch
  // interface so forest models dispatch to the compiled SoA engine
  // (bit-identical to pointer-tree Predict) even for a single row.
  double row[kLsFeatureCount];
  const size_t width = FillFeatures(model, host_cpu_util, host_mem_util, row);
  double out;
  model.model->PredictBatch(std::span<const double>(row, width), width,
                            std::span<double>(&out, 1));
  return out;
}

void InterferencePredictor::PredictRawSpan(const AppModel& model, double cpu_lo,
                                           double cpu_hi, double mem_util,
                                           double* out_lo, double* out_hi) const {
  // Both rows come from one model, so the first fill's feature width is the
  // packing stride. Each endpoint is snapped to its fine-grid bucket's
  // canonical point, so the pair is a pure function of the three buckets.
  const double mem_point = BucketPoint(UtilBucket(mem_util, kFineBuckets), kFineBuckets);
  double rows[2 * kLsFeatureCount];
  const size_t width = FillFeatures(
      model, BucketPoint(UtilBucket(cpu_hi, kFineBuckets), kFineBuckets), mem_point,
      rows);
  FillFeatures(model, BucketPoint(UtilBucket(cpu_lo, kFineBuckets), kFineBuckets),
               mem_point, rows + width);
  double out[2];
  model.model->PredictBatch(std::span<const double>(rows, 2 * width), width,
                            std::span<double>(out, 2));
  *out_hi = out[0];
  *out_lo = out[1];
}

double InterferencePredictor::Predict(AppId app, double host_cpu_util,
                                      double host_mem_util) const {
  const AppModel* model = FindModel(app);
  if (model == nullptr || !model->usable()) {
    return 0.0;
  }
  const uint64_t cpu_bucket = UtilBucket(host_cpu_util, kCacheBuckets);
  const uint64_t mem_bucket = UtilBucket(host_mem_util, kCacheBuckets);
  const uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(app)) << 32) |
                       (cpu_bucket << 16) | mem_bucket;
  if (const auto cached = cache_.Find(key)) {
    ++stats_.predict_hits;
    return *cached;
  }
  ++stats_.predict_misses;
  const double prediction = model->discretizer.ToUpperBound(
      PredictImpl(*model, BucketPoint(cpu_bucket, kCacheBuckets),
                  BucketPoint(mem_bucket, kCacheBuckets)));
  cache_.Insert(key, prediction);
  return prediction;
}

double InterferencePredictor::TotalInterference(const Host& host, const PodSpec& incoming,
                                                double host_cpu_util, double host_mem_util,
                                                double weight_ls,
                                                double weight_be) const {
  if (!use_host_app_counts_) {
    // Baseline path: rebuild the histogram from the pod list per call.
    std::vector<RebuiltAppCount> counts = RebuildCounts(host);
    bool merged = false;
    for (auto& c : counts) {
      if (c.app == incoming.app) {
        ++c.count;
        merged = true;
        break;
      }
    }
    if (!merged) {
      counts.push_back(RebuiltAppCount{incoming.app, incoming.slo, 1});
    }
    double total = 0.0;
    for (const auto& c : counts) {
      const double ri = Predict(c.app, host_cpu_util, host_mem_util);
      if (ri == 0.0) {
        continue;
      }
      total += WeightOf(c.slo, weight_ls, weight_be) * ri * static_cast<double>(c.count);
    }
    return total;
  }

  // One prediction per application; the per-host per-app counts are
  // maintained incrementally by ClusterState, so no per-candidate rebuild.
  double total = 0.0;
  bool incoming_merged = false;
  for (const HostAppCount& c : host.app_counts) {
    int count = c.count;
    if (c.app == incoming.app) {
      ++count;
      incoming_merged = true;
    }
    const double ri = Predict(c.app, host_cpu_util, host_mem_util);
    if (ri == 0.0) {
      continue;
    }
    total += WeightOf(c.slo, weight_ls, weight_be) * ri * static_cast<double>(count);
  }
  if (!incoming_merged) {
    const double ri = Predict(incoming.app, host_cpu_util, host_mem_util);
    if (ri != 0.0) {
      total += WeightOf(incoming.slo, weight_ls, weight_be) * ri;
    }
  }
  return total;
}

double InterferencePredictor::ResidentInterference(const Host& host,
                                                   double host_cpu_util,
                                                   double host_mem_util,
                                                   double weight_ls,
                                                   double weight_be) const {
  // The resident sum feeds a per-host pressure signal that rides an EWMA,
  // so it needs far less utilization resolution than candidate scoring.
  // Inputs are snapped to a deliberately coarse grid (cell centers over
  // [0, 2]) before prediction: the sweep can then only ever touch
  // #apps x kResidentBuckets^2 distinct cache keys, so forest evaluations
  // saturate after a short warmup instead of firing on every utilization
  // drift, and the memo below keeps hitting while a host's utilization
  // moves within one cell.
  const uint64_t cpu_bucket = UtilBucket(host_cpu_util, kResidentBuckets);
  const uint64_t mem_bucket = UtilBucket(host_mem_util, kResidentBuckets);
  const double cpu_q = BucketPoint(cpu_bucket, kResidentBuckets);
  const double mem_q = BucketPoint(mem_bucket, kResidentBuckets);
  // Per-(app, cell) value via the flat grid; cold cells go through Predict
  // once, so every stored value matches the Predict-cache path bit for bit.
  const auto resident_ri = [&](AppId app) {
    if (app < 0 || static_cast<size_t>(app) >= by_app_.size()) {
      return 0.0;  // no profile -> Predict would return 0 anyway
    }
    const size_t cell =
        (static_cast<size_t>(app) * kResidentBuckets + cpu_bucket) *
            kResidentBuckets +
        mem_bucket;
    if (resident_grid_valid_[cell]) {
      return resident_grid_[cell];
    }
    const double ri = Predict(app, cpu_q, mem_q);
    resident_grid_[cell] = ri;
    resident_grid_valid_[cell] = 1;
    return ri;
  };
  double total = 0.0;
  if (!use_host_app_counts_) {
    for (const auto& c : RebuildCounts(host)) {
      const double ri = resident_ri(c.app);
      if (ri == 0.0) {
        continue;
      }
      total += WeightOf(c.slo, weight_ls, weight_be) * ri *
               static_cast<double>(c.count);
    }
    return total;
  }
  // Pressure sweeps revisit every host each sampled tick, but only the
  // handful that placed or evicted pods since the last sweep can produce a
  // different sum: (change_epoch, coarse buckets, weights) fully determines
  // the result. Memo hits skip the per-app cache walk entirely and are
  // bit-identical to recomputation by key-purity.
  ResidentMemo* memo = nullptr;
  if (host.id >= 0) {
    if (static_cast<size_t>(host.id) >= resident_memo_.size()) {
      resident_memo_.resize(static_cast<size_t>(host.id) + 1);
    }
    memo = &resident_memo_[static_cast<size_t>(host.id)];
    if (memo->epoch == host.change_epoch && memo->cpu_bucket == cpu_bucket &&
        memo->mem_bucket == mem_bucket && memo->weight_ls == weight_ls &&
        memo->weight_be == weight_be) {
      return memo->value;
    }
  }
  for (const HostAppCount& c : host.app_counts) {
    const double ri = resident_ri(c.app);
    if (ri == 0.0) {
      continue;
    }
    total += WeightOf(c.slo, weight_ls, weight_be) * ri *
             static_cast<double>(c.count);
  }
  if (memo != nullptr) {
    *memo = ResidentMemo{host.change_epoch, cpu_bucket, mem_bucket,
                         weight_ls,         weight_be,  total};
  }
  return total;
}

double InterferencePredictor::MarginalInterference(
    const Host& host, const PodSpec& incoming, double cpu_util_before,
    double mem_util_before, double cpu_util_after, double mem_util_after,
    double weight_ls, double weight_be) const {
  // Wide-span finite difference: a single pod's utilization delta is far
  // below tree granularity, so the slope is sampled over +-kSlopeSpan and
  // rescaled to the actual delta.
  constexpr double kSlopeSpan = 0.06;
  (void)mem_util_before;  // memory barely moves per placement; see below
  const double cpu_delta = std::max(0.0, cpu_util_after - cpu_util_before);

  // The slope itself is cached per (app, CPU midpoint, memory) on a coarse
  // grid: evaluating the forest twice per (app, candidate) dominated scoring
  // cost, and the slope varies on the scale of tree splits, far coarser than
  // this grid. The finite difference is centered on the before/after CPU
  // midpoint; memory moves far less than a bucket per placement, so the
  // post-placement value stands in for both endpoints. Both the midpoint
  // and the memory value are snapped to their buckets' canonical points
  // before sampling, so the cached slope — like every other cached value —
  // is a pure function of its key.
  const double cpu_mid = 0.5 * (cpu_util_before + cpu_util_after);
  const uint64_t mid_bucket = UtilBucket(cpu_mid, kCacheBuckets);
  const uint64_t mem_bucket = UtilBucket(mem_util_after, kCacheBuckets);
  const uint64_t util_key = (mid_bucket << 8) | mem_bucket;
  const double mid_point = BucketPoint(mid_bucket, kCacheBuckets);
  const double mem_point = BucketPoint(mem_bucket, kCacheBuckets);

  const auto slope_term = [&](AppId app, SloClass slo, int count) {
    const double weight = WeightOf(slo, weight_ls, weight_be);
    if (weight == 0.0) {
      return 0.0;
    }
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(app)) << 32) | util_key;
    double slope;
    if (const auto cached = slope_cache_.Find(key)) {
      ++stats_.slope_hits;
      slope = *cached;
    } else {
      ++stats_.slope_misses;
      // The slope-miss path is where forest evaluations concentrate after
      // the caches warm up; time it when a sink is attached. One
      // PredictRawSpan call hands the compiled forest both rows at once.
      obs::ScopedTimer timer(forest_timer_, forest_timer_lane_);
      slope = 0.0;
      const AppModel* model = FindModel(app);
      if (model != nullptr && model->usable()) {
        const double lo_cpu = std::max(0.0, mid_point - kSlopeSpan);
        const double hi_cpu = mid_point + kSlopeSpan;
        double lo, hi;
        PredictRawSpan(*model, lo_cpu, hi_cpu, mem_point, &lo, &hi);
        const double span = hi_cpu - lo_cpu;
        slope = span > 1e-9 ? std::max(0.0, (hi - lo) / span) : 0.0;
      }
      slope_cache_.Insert(key, slope);
    }
    return weight * slope * cpu_delta * static_cast<double>(count);
  };

  double total = 0.0;
  if (!use_host_app_counts_) {
    // Baseline path: rebuild the histogram from the pod list per call.
    for (const auto& c : RebuildCounts(host)) {
      total += slope_term(c.app, c.slo, c.count);
    }
  } else {
    for (const HostAppCount& c : host.app_counts) {
      // Skipping profile-less apps adds exactly 0.0 to the sum, so this
      // fast path cannot change the result.
      const AppModel* model = FindModel(c.app);
      if (model == nullptr || !model->usable()) {
        continue;
      }
      total += slope_term(c.app, c.slo, c.count);
    }
  }
  // The incoming pod's own interference is its absolute prediction (§4.3.3).
  total += WeightOf(incoming.slo, weight_ls, weight_be) *
           Predict(incoming.app, cpu_util_after, mem_util_after);
  return total;
}

}  // namespace optum::core

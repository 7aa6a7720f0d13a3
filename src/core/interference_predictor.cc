#include "src/core/interference_predictor.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/check.h"
#include "src/obs/timer.h"

namespace optum::core {

namespace {

// Marks a table cell no query has filled yet: a quiet NaN whose payload no
// arithmetic produces (a NaN result carries the default payload or an
// input's). Compared by bit pattern, so even a NaN model output is stored
// and served like any other value.
constexpr uint64_t kUnfilledBits = 0x7ff8'0000'0bad'ce11ULL;
constexpr double kUnfilled = std::bit_cast<double>(kUnfilledBits);

bool Unfilled(double v) { return std::bit_cast<uint64_t>(v) == kUnfilledBits; }

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

InterferencePredictor::InterferencePredictor(const OptumProfiles* profiles)
    : profiles_(profiles) {
  OPTUM_CHECK(profiles != nullptr);
  ClearCache();
}

void InterferencePredictor::ClearCache() {
  slot_by_app_.clear();
  models_.clear();
  for (const auto& [app, model] : profiles_->apps) {
    if (app < 0 || !model.usable()) {
      continue;
    }
    if (static_cast<size_t>(app) >= slot_by_app_.size()) {
      slot_by_app_.resize(static_cast<size_t>(app) + 1, kNoSlot);
    }
    slot_by_app_[static_cast<size_t>(app)] = static_cast<uint32_t>(models_.size());
    models_.push_back(&model);
  }
  predict_table_.assign(models_.size() * kCellsPerApp, kUnfilled);
  slope_table_.assign(models_.size() * kCellsPerApp, kUnfilled);
}

size_t InterferencePredictor::cache_size() const {
  size_t filled = 0;
  for (const double v : predict_table_) {
    filled += Unfilled(v) ? 0 : 1;
  }
  return filled;
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
  const uint32_t slot = SlotOf(app);
  if (slot == kNoSlot) {
    return 0.0;
  }
  const uint64_t cpu_bucket = UtilBucket(host_cpu_util, kCacheBuckets);
  const uint64_t mem_bucket = UtilBucket(host_mem_util, kCacheBuckets);
  double& cell = predict_table_[Cell(slot, cpu_bucket, mem_bucket)];
  if (!Unfilled(cell)) {
    ++stats_.predict_hits;
    return cell;
  }
  ++stats_.predict_misses;
  const AppModel& model = *models_[slot];
  cell = model.discretizer.ToUpperBound(
      PredictImpl(model, BucketPoint(cpu_bucket, kCacheBuckets),
                  BucketPoint(mem_bucket, kCacheBuckets)));
  return cell;
}

double InterferencePredictor::TotalInterference(const Host& host, const PodSpec& incoming,
                                                double host_cpu_util, double host_mem_util,
                                                double weight_ls,
                                                double weight_be) const {
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
  // [0, 2]) before the Predict-table read: the sweep can then only ever
  // touch #apps x kResidentBuckets^2 distinct cells, so forest evaluations
  // saturate after a short warmup instead of firing on every utilization
  // drift.
  const double cpu_q = BucketPoint(UtilBucket(host_cpu_util, kResidentBuckets),
                                   kResidentBuckets);
  const double mem_q = BucketPoint(UtilBucket(host_mem_util, kResidentBuckets),
                                   kResidentBuckets);
  double total = 0.0;
  for (const HostAppCount& c : host.app_counts) {
    const double ri = Predict(c.app, cpu_q, mem_q);
    if (ri == 0.0) {
      continue;
    }
    total += WeightOf(c.slo, weight_ls, weight_be) * ri *
             static_cast<double>(c.count);
  }
  return total;
}

double InterferencePredictor::SlopeAt(uint32_t slot, uint64_t mid_bucket,
                                      uint64_t mem_bucket) const {
  double& cell = slope_table_[Cell(slot, mid_bucket, mem_bucket)];
  if (!Unfilled(cell)) {
    ++stats_.slope_hits;
    return cell;
  }
  ++stats_.slope_misses;
  // The slope-miss path is where forest evaluations concentrate after the
  // tables warm up; time it when a sink is attached. One PredictRawSpan
  // call hands the compiled forest both rows at once. The wide span
  // (+-kSlopeSpan around the bucket's midpoint) is there because a single
  // pod's utilization delta is far below tree granularity.
  constexpr double kSlopeSpan = 0.06;
  obs::ScopedTimer timer(forest_timer_, forest_timer_lane_);
  const double mid_point = BucketPoint(mid_bucket, kCacheBuckets);
  const double lo_cpu = std::max(0.0, mid_point - kSlopeSpan);
  const double hi_cpu = mid_point + kSlopeSpan;
  double lo, hi;
  PredictRawSpan(*models_[slot], lo_cpu, hi_cpu, BucketPoint(mem_bucket, kCacheBuckets),
                 &lo, &hi);
  const double span = hi_cpu - lo_cpu;
  cell = span > 1e-9 ? std::max(0.0, (hi - lo) / span) : 0.0;
  return cell;
}

double InterferencePredictor::MarginalInterference(
    const Host& host, const PodSpec& incoming, double cpu_util_before,
    double mem_util_before, double cpu_util_after, double mem_util_after,
    double weight_ls, double weight_be) const {
  (void)mem_util_before;  // memory barely moves per placement; see below
  const double cpu_delta = std::max(0.0, cpu_util_after - cpu_util_before);

  // The slope is tabulated per (app, CPU midpoint, memory) on the coarse
  // grid: evaluating the forest twice per (app, candidate) dominated scoring
  // cost, and the slope varies on the scale of tree splits, far coarser than
  // this grid. The finite difference is centered on the before/after CPU
  // midpoint; memory moves far less than a bucket per placement, so the
  // post-placement value stands in for both endpoints. SlopeAt samples at
  // the buckets' canonical points, so each slope — like every other
  // tabulated value — is a pure function of its cell.
  const uint64_t mid_bucket =
      UtilBucket(0.5 * (cpu_util_before + cpu_util_after), kCacheBuckets);
  const uint64_t mem_bucket = UtilBucket(mem_util_after, kCacheBuckets);

  double total = 0.0;
  for (const HostAppCount& c : host.app_counts) {
    // Apps without a usable model have no slope: they add exactly 0.0.
    const uint32_t slot = SlotOf(c.app);
    const double weight = WeightOf(c.slo, weight_ls, weight_be);
    if (slot == kNoSlot || weight == 0.0) {
      continue;
    }
    total += weight * SlopeAt(slot, mid_bucket, mem_bucket) * cpu_delta *
             static_cast<double>(c.count);
  }
  // The incoming pod's own interference is its absolute prediction (§4.3.3).
  total += WeightOf(incoming.slo, weight_ls, weight_be) *
           Predict(incoming.app, cpu_util_after, mem_util_after);
  return total;
}

}  // namespace optum::core

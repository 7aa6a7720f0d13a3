// Optum's Resource Usage Predictor (paper §4.3.2, Eq. 7-8).
//
// CPU: pods on a host are paired in scheduling order; each pair's usage is
// estimated as ERO(A_{2i-1}, A_{2i}) * (Cr_{2i-1} + Cr_{2i}), the odd pod
// out contributing its full request:
//     POC_h = sum_i EC(p_{2i-1}, p_{2i}) + ((n+1) mod 2) * Cr_{n+1}.
// Memory: the sum over pods of mem_profile(A_i) * Mr_i (conservative).
//
// Scoring a candidate host evaluates PredictHost(host, &pod) for every
// sampled candidate, so the predictor keeps a per-host baseline cache: the
// full-group CPU sum, the trailing incomplete group (the only part an
// appended pod can change), and the memory sum. A cached prediction is the
// baseline plus an O(1) final-group delta and is bit-identical to a full
// rescan. Entries are validated against Host::change_epoch (pod placement /
// removal) and EroTable::version() (online ERO observations); profile swaps
// must call InvalidateAll().
#ifndef OPTUM_SRC_CORE_RESOURCE_USAGE_PREDICTOR_H_
#define OPTUM_SRC_CORE_RESOURCE_USAGE_PREDICTOR_H_

#include <cstdint>
#include <vector>

#include "src/core/profiles.h"
#include "src/predict/usage_predictor.h"
#include "src/sim/cluster.h"

namespace optum::core {

class ResourceUsagePredictor {
 public:
  // Grouping arity for the CPU estimate: pairs (the paper's deployed
  // configuration) or triples (the §4.2.2 extension; falls back to the
  // pairwise bound for unobserved triples).
  enum class Grouping { kPairwise, kTripleWise };

  // `profiles` must outlive the predictor.
  explicit ResourceUsagePredictor(const OptumProfiles* profiles,
                                  Grouping grouping = Grouping::kPairwise);

  // Predicted (CPU, mem) usage of `host` if `incoming` (optional) were
  // appended to its pod list. Pass nullptr to predict the host as-is.
  // Amortized O(1) per call; hosts with a negative id (detached Host
  // objects) take the PredictHostRescan path. Once ReserveHosts() covers
  // every host id, PredictHost allocates nothing, and calls on *distinct*
  // hosts touch distinct slots.
  Resources PredictHost(const Host& host, const PodSpec* incoming) const;

  // The uncached reference path: rebuilds the full Eq. 8 pairing. Exposed
  // so equivalence tests can compare.
  Resources PredictHostRescan(const Host& host, const PodSpec* incoming) const;

  // Pre-sizes the per-host cache so PredictHost never reallocates; the
  // scheduler calls it once per pod instead of growing slot by slot.
  void ReserveHosts(size_t num_hosts) const;

  // Drops every cached baseline (profile swap: ERO table and memory
  // profiles may both have changed wholesale).
  void InvalidateAll();

  Grouping grouping() const { return grouping_; }

 private:
  // Cached baseline for one host: POC split into the full-group sum plus
  // the trailing incomplete group (at most grouping-arity - 1 pods), POM as
  // a running sum. An appended pod can only extend the trailing group, so
  // the incremental prediction reuses everything else untouched.
  struct HostBaseline {
    static constexpr uint64_t kNeverComputed = ~0ULL;
    uint64_t host_epoch = kNeverComputed;
    uint64_t ero_version = 0;
    uint64_t generation = 0;
    double poc_groups = 0.0;  // CPU estimate over full groups, in order
    double pom = 0.0;         // memory estimate over all pods
    double tail_poc = 0.0;    // baseline CPU contribution of the tail pods
    int tail_count = 0;       // pods in the trailing incomplete group (0..2)
    AppId tail_app[2] = {kInvalidAppId, kInvalidAppId};
    double tail_cpu[2] = {0.0, 0.0};
  };

  double MemEstimate(AppId app, const Resources& request) const;
  // Tightest estimate for three pods: the observed triple ERO when
  // available, otherwise min over pairings of ERO(x,y)*(rx+ry) + rz.
  double TripleCpuEstimate(AppId a, double ra, AppId b, double rb, AppId c,
                           double rc) const;

  void RecomputeBaseline(const Host& host, HostBaseline* slot) const;

  const OptumProfiles* profiles_;
  Grouping grouping_;
  uint64_t generation_ = 0;
  mutable std::vector<HostBaseline> cache_;
};

// Adapter so the fig11 bench can score Optum's predictor alongside the
// industry baselines through the common UsagePredictor interface.
class OptumUsagePredictorAdapter : public UsagePredictor {
 public:
  explicit OptumUsagePredictorAdapter(const OptumProfiles* profiles)
      : impl_(profiles) {}

  double PredictHostCpu(const Host& host) const override {
    return impl_.PredictHost(host, nullptr).cpu;
  }
  double PredictHostMem(const Host& host) const override {
    return impl_.PredictHost(host, nullptr).mem;
  }
  std::string name() const override { return "Optum"; }

 private:
  ResourceUsagePredictor impl_;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_RESOURCE_USAGE_PREDICTOR_H_

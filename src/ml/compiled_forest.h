// Compiled-forest inference engine: flattens a trained RandomForestRegressor
// into contiguous structure-of-arrays node layouts and evaluates blocks of
// rows with the node arrays hot in cache. The exact (double) layout is
// bit-identical to the pointer-tree forest (see DESIGN.md §10), so swapping
// it onto the scoring hot path cannot perturb placements or the
// prediction tables' key-purity.
//
// Layout: all trees' nodes live in parallel arrays, emitted per tree in
// preorder so an internal node's left child is the next node. Leaves are
// made self-looping — feature 0, a NaN threshold (every comparison is
// false), and a right link pointing at the node itself — so the descent
// step `node = row[f] <= thresh ? node + 1 : right[node]` is a no-op at a
// leaf. That lets PredictBatch interleave the descents of kInterleave rows
// per tree with no per-lane leaf branching: lanes that reach their leaf
// simply idle in place while the others keep descending, the independent
// feature/threshold/right loads of all lanes overlap (the single-row
// load-to-load dependency chain no longer serializes the core), and the
// per-level compare/select across lanes is a fixed-trip-count loop the
// compiler can vectorize. Leaf values live in a separate array read once
// per (row, tree) after descent.
#ifndef OPTUM_SRC_ML_COMPILED_FOREST_H_
#define OPTUM_SRC_ML_COMPILED_FOREST_H_

#include <cstdint>
#include <vector>

#include "src/ml/regressor.h"

namespace optum::ml {

class RandomForestRegressor;

class CompiledForest final : public Regressor {
 public:
  // Empty engine; Predict/PredictBatch require a Compile()d one.
  CompiledForest() = default;

  // Flattens a fitted forest. The compiled engine is self-contained: the
  // source forest may be destroyed afterwards.
  static CompiledForest Compile(const RandomForestRegressor& forest);

  // Inference-only engine: Fit always CHECK-fails. Train a
  // RandomForestRegressor and Compile() it instead.
  void Fit(const Dataset& data) override;

  double Predict(std::span<const double> features) const override;
  void PredictBatch(std::span<const double> rows, size_t stride,
                    std::span<double> out) const override;
  std::string name() const override { return "RF(compiled)"; }

  bool compiled() const { return !roots_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return feature_.size(); }

 private:
  // Rows interleaved per descent kernel call: enough independent
  // feature/threshold/right load chains to cover L2 latency, small enough
  // that the lane state stays in registers. Tails of kHalfInterleave rows
  // still get an interleaved descent before the scalar fallback.
  static constexpr size_t kInterleave = 16;
  static constexpr size_t kHalfInterleave = kInterleave / 2;

  // Scalar descent from `root` for one row; returns the leaf node index.
  int32_t DescendExact(int32_t root, const double* row) const;

  // Interleaved descent of W rows (row i at rows + i * stride) down the
  // tree at `root`, accumulating each row's leaf value into acc[i].
  // Instantiated for kInterleave and kHalfInterleave in the .cc.
  template <size_t W>
  void DescendExactBlock(int32_t root, const double* rows, size_t stride,
                         double* acc) const;

  // SoA node arrays across all trees (see file comment). Internal node n:
  // feature_[n] >= 0 is the split feature, thresh_[n] the threshold, left
  // child n + 1, right child right_[n] (absolute). Leaf n: feature_[n] = 0,
  // threshold NaN, right link = n (self-loop), value_[n] the leaf value.
  std::vector<int32_t> feature_;
  std::vector<double> thresh_;
  std::vector<int32_t> right_;
  std::vector<double> value_;
  std::vector<int32_t> roots_;  // root node index of each tree, in tree order
};

}  // namespace optum::ml

#endif  // OPTUM_SRC_ML_COMPILED_FOREST_H_

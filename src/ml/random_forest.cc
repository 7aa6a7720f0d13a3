#include "src/ml/random_forest.h"

#include <cmath>
#include <numeric>

#include "src/common/check.h"

namespace optum::ml {

RandomForestRegressor::RandomForestRegressor(ForestParams params, uint64_t seed)
    : params_(params), rng_(seed) {
  OPTUM_CHECK_GT(params_.num_trees, 0u);
}

void RandomForestRegressor::Fit(const Dataset& data) {
  OPTUM_CHECK(!data.empty());
  trees_.clear();
  trees_.reserve(params_.num_trees);

  TreeParams tree_params = params_.tree;
  if (tree_params.max_features == 0) {
    // Default to the classic ~d/3 heuristic for regression forests.
    tree_params.max_features =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(data.num_features() / 3.0)));
  }

  for (size_t t = 0; t < params_.num_trees; ++t) {
    auto tree = std::make_unique<DecisionTreeRegressor>(tree_params, rng_.NextU64());
    if (params_.bootstrap) {
      std::vector<size_t> indices(data.size());
      for (auto& idx : indices) {
        idx = rng_.NextBelow(data.size());
      }
      tree->FitOnIndices(data, std::move(indices));
    } else {
      tree->Fit(data);
    }
    trees_.push_back(std::move(tree));
  }
  compiled_ = CompiledForest::Compile(*this);
}

double RandomForestRegressor::Predict(std::span<const double> features) const {
  OPTUM_CHECK(!trees_.empty());
  double acc = 0.0;
  for (const auto& tree : trees_) {
    acc += tree->Predict(features);
  }
  return acc / static_cast<double>(trees_.size());
}

void RandomForestRegressor::PredictBatch(std::span<const double> rows, size_t stride,
                                         std::span<double> out) const {
  OPTUM_CHECK(compiled_.compiled());
  compiled_.PredictBatch(rows, stride, out);
}

}  // namespace optum::ml

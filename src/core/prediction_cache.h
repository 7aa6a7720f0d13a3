// Flat open-addressing map from packed uint64 keys to double values,
// specialized for the interference-prediction caches: insert-only (no
// erase), Clear() keeps capacity, and a lookup is a multiply-shift probe
// into contiguous storage — several times faster than unordered_map on the
// scheduler's candidate-scoring hot path, where every candidate costs a
// handful of cache probes.
//
// Not internally synchronized: a cache instance must only be touched by one
// thread at a time. Each scheduler owns its predictor's caches and scores
// its candidates serially, so distributed shards never share one.
#ifndef OPTUM_SRC_CORE_PREDICTION_CACHE_H_
#define OPTUM_SRC_CORE_PREDICTION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace optum::core {

class PredictionCache {
 public:
  PredictionCache() { Rebuild(kInitialCapacity); }

  // Returns the cached value, or nullopt on a miss. The value is returned
  // by copy, never by reference into the table: Insert() can Grow() the
  // backing storage and relocate every slot, so a pointer held across an
  // insertion would dangle (the footgun the previous pointer-returning API
  // left open).
  std::optional<double> Find(uint64_t key) const {
    size_t i = Slot(key);
    while (true) {
      if (keys_[i] == key) {
        return values_[i];
      }
      if (keys_[i] == kEmpty) {
        return std::nullopt;
      }
      i = (i + 1) & mask_;
    }
  }

  // Inserts a new key; the caller guarantees it is absent (the usual
  // find-miss-compute-insert pattern).
  void Insert(uint64_t key, double value) {
    if ((size_ + 1) * 4 > keys_.size() * 3) {
      Grow();
    }
    size_t i = Slot(key);
    while (keys_[i] != kEmpty) {
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    values_[i] = value;
    ++size_;
  }

  void Clear() {
    keys_.assign(keys_.size(), kEmpty);
    size_ = 0;
  }

  size_t size() const { return size_; }
  // Current slot count; doubles when the load factor would exceed 3/4.
  size_t capacity() const { return keys_.size(); }

 private:
  // All real keys pack a non-negative 32-bit AppId in the high word, so the
  // all-ones sentinel can never collide with one.
  static constexpr uint64_t kEmpty = ~0ULL;
  static constexpr size_t kInitialCapacity = 1u << 12;

  size_t Slot(uint64_t key) const {
    return static_cast<size_t>(key * 0x9e3779b97f4a7c15ULL) & mask_;
  }

  void Rebuild(size_t capacity) {
    keys_.assign(capacity, kEmpty);
    values_.assign(capacity, 0.0);
    mask_ = capacity - 1;
  }

  void Grow() {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<double> old_values = std::move(values_);
    Rebuild(old_keys.size() * 2);
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) {
        continue;
      }
      size_t j = Slot(old_keys[i]);
      while (keys_[j] != kEmpty) {
        j = (j + 1) & mask_;
      }
      keys_[j] = old_keys[i];
      values_[j] = old_values[i];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<double> values_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace optum::core

#endif  // OPTUM_SRC_CORE_PREDICTION_CACHE_H_

// Minimal JSON parser for the repo's own exported documents — the inverse
// of json_writer.h, used by tools that read exports back (bench_diff
// compares BENCH_hotpath.json files; series_plot reads optum.series.v1
// JSONL lines). Recursive-descent into a small DOM; objects keep member
// order (a vector of pairs, not a map) so column order in series lines is
// preserved. Not a general-purpose parser (no \uXXXX surrogate pairs), but
// safe on hostile input: the files it reads are user-supplied paths, so
// nesting deeper than kMaxJsonDepth and non-JSON number tokens (nan, inf,
// Infinity) are parse errors with a byte offset, never a crash or UB.
#ifndef OPTUM_SRC_OBS_JSON_READER_H_
#define OPTUM_SRC_OBS_JSON_READER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace optum::obs {

// Deepest array/object nesting ParseJson accepts; the repo's own exports
// nest at most a few levels.
inline constexpr int kMaxJsonDepth = 256;

struct JsonValue {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;                              // kArray
  std::vector<std::pair<std::string, JsonValue>> members;    // kObject

  bool is_null() const { return kind == Kind::kNull; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  // Member lookup by key; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const {
    if (kind != Kind::kObject) {
      return nullptr;
    }
    for (const auto& [name, value] : members) {
      if (name == key) {
        return &value;
      }
    }
    return nullptr;
  }

  // Number coercions with defaults, for optional fields. AsInt truncates
  // toward zero and returns `fallback` for numbers outside int64_t's range
  // [-2^63, 2^63), where the cast would be undefined.
  double AsNumber(double fallback = 0.0) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  int64_t AsInt(int64_t fallback = 0) const {
    constexpr double kTwoPow63 = 9223372036854775808.0;
    if (kind != Kind::kNumber || !(number >= -kTwoPow63 && number < kTwoPow63)) {
      return fallback;
    }
    return static_cast<int64_t>(number);
  }
};

// Parses `text` (one complete JSON document; trailing whitespace allowed)
// into `out`. On failure returns false and describes the problem in `error`
// (with a byte offset). `out` is unspecified on failure.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

// Slurps `path` into `out` (appended). Returns false only when the file
// cannot be opened; the caller owns the error message.
bool ReadWholeFile(const std::string& path, std::string* out);

// Row accounting for ForEachJsonlRow, so callers can make "header but no
// data" an error (or not — a hotspot stream with zero episodes is valid).
struct JsonlReadStats {
  int64_t data_rows = 0;
};

// Walks a header'd JSONL export: verifies that the first non-empty line's
// "schema" member equals `schema`, then hands every later non-empty line to
// `row`. The final line is processed even without a trailing newline — a
// truncated tail is a parse error, never a silent drop. Returns "" on
// success, otherwise a one-line message (no trailing newline) naming the
// path, ready for `fprintf(stderr, "tool: %s\n", ...)`.
std::string ForEachJsonlRow(const std::string& path, const char* schema,
                            const std::function<void(const JsonValue&)>& row,
                            JsonlReadStats* stats = nullptr);

}  // namespace optum::obs

#endif  // OPTUM_SRC_OBS_JSON_READER_H_

#pragma once
// Minimal JSON reader plus a number formatter: enough for the benchmark
// spec (BENCHMARK.json), the per-rep records children send to the parent,
// and the results files `hwbench compare` reads.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hwbench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind{Kind::kNull};
  bool boolean{false};
  double number{0.0};
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// Member `key` of an object, or nullptr (also for non-objects).
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
};

/// Parses one JSON document; throws std::runtime_error on malformed input.
[[nodiscard]] Json parse_json(std::string_view text);

/// Reads and parses a file; throws std::runtime_error when unreadable.
[[nodiscard]] Json read_json_file(const std::string& path);

/// Shortest round-trip rendering of a double; "null" when not finite.
[[nodiscard]] std::string json_number(double v);

/// Quotes and escapes a string.
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace hwbench

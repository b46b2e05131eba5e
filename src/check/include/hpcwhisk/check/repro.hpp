#pragma once
// Replayable repro files. A failing (shrunk) scenario serializes to a
// small JSON document; `simcheck --replay file.json` parses it back and
// re-runs the exact same experiment — all times in integer microsecond
// ticks, doubles printed with round-trip precision, so the replay is
// bit-identical on every platform. Format: DESIGN.md §12.

#include <cstdint>
#include <string>
#include <string_view>

#include "hpcwhisk/check/scenario.hpp"

namespace hpcwhisk::check {

/// Written format. v2 carries every ScenarioSpec field, the per-stream
/// seeds included; v1 files (no seed streams, the reservation window as
/// a share of the horizon) still parse and replay.
inline constexpr std::string_view kReproFormat = "hpcwhisk-simcheck-repro-v2";
inline constexpr std::string_view kReproFormatV1 = "hpcwhisk-simcheck-repro-v1";

struct Repro {
  std::string invariant;       ///< violated invariant name
  std::string message;         ///< first violation message
  std::uint64_t decision_hash{0};  ///< FNV-1a of the spec's decision log
  ScenarioSpec spec;
};

[[nodiscard]] std::string write_repro(const Repro& repro);

/// Throws std::invalid_argument on malformed input or a format mismatch.
[[nodiscard]] Repro parse_repro(std::string_view json);

}  // namespace hpcwhisk::check

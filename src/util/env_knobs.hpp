// Central registry for every ONEPORT_* runtime environment knob.
//
// The repo's rule (enforced by tools/lint/check_env_knobs.py): this
// registry's .cpp file is the ONLY place in src/, tests/, bench/ and
// examples/ allowed to call getenv.  Everything else names its knob
// through the `Knob` enum, which buys three properties:
//   * one catalog -- name, default, consumer and one-line summary live
//     in a single table, and docs/KNOBS.md is cross-checked against it
//     by the lint, so an undocumented or ghost knob fails CI;
//   * consistent parsing -- "set, non-empty, not 0" boolean semantics
//     and integer parsing are implemented once;
//   * greppability -- every consumer of a knob is a reference to
//     env::Knob::k<Name>, not a scattered string literal.
//
// Knob values are read from the process environment; reads are
// thread-safe as long as nothing calls setenv after threads start
// (tests that need to flip behavior mid-process use the programmatic
// setters on the subsystem, e.g. prof::set_enabled, never setenv).
#pragma once

#include <cstddef>

namespace oneport::env {

/// Every runtime ONEPORT_* knob.  Keep the catalog table in
/// env_knobs.cpp and docs/KNOBS.md in sync (the lint checks both).
enum class Knob : std::size_t {
  kProfile = 0,         ///< ONEPORT_PROFILE: enable the per-thread profiler
  kSweepSeeds,          ///< ONEPORT_SWEEP_SEEDS: extra property-sweep seeds
  kCount,
};

inline constexpr std::size_t kNumKnobs = static_cast<std::size_t>(Knob::kCount);

/// One catalog row.  `fallback` is the documented default as a string
/// (what docs/KNOBS.md shows), `consumer` the file that acts on it.
struct KnobInfo {
  const char* name;
  const char* fallback;
  const char* consumer;
  const char* summary;
};

/// Catalog row for one knob.
[[nodiscard]] const KnobInfo& info(Knob knob) noexcept;

/// Raw environment value: nullptr when unset.  Prefer the typed
/// accessors below.
[[nodiscard]] const char* raw(Knob knob) noexcept;

/// True when the knob is set to a non-empty value other than "0"
/// (the repo-wide boolean convention, e.g. ONEPORT_PROFILE=1).
[[nodiscard]] bool flag(Knob knob) noexcept;

/// Integer value, or `fallback` when unset/unparsable.
[[nodiscard]] long integer(Knob knob, long fallback) noexcept;

}  // namespace oneport::env

#include "util/env_knobs.hpp"

#include <array>
#include <cstdlib>
#include <cstring>

namespace oneport::env {

namespace {

// The knob catalog.  tools/lint/check_env_knobs.py parses this table
// (rigid one-row-per-line format) and cross-checks it against
// docs/KNOBS.md, so keep each entry on its own line:
//   {"NAME", "default", "consumer", "summary"},
constexpr std::array<KnobInfo, kNumKnobs> kCatalog = {{
    {"ONEPORT_PROFILE", "0", "src/util/profiler.cpp", "enable the per-thread scalability profiler (counters surface in bench JSON and sweep_cli --json)"},
    {"ONEPORT_SWEEP_SEEDS", "0", "tests/property_sweep_test.cpp", "extra seeded property-sweep repetitions for CI/nightly deepening"},
}};

}  // namespace

const KnobInfo& info(Knob knob) noexcept {
  return kCatalog[static_cast<std::size_t>(knob)];
}

const char* raw(Knob knob) noexcept {
  // The single getenv call site in the tree (lint-enforced).  All knobs
  // are read-only configuration set before the process starts, so the
  // thread-unsafety of getenv (vs. concurrent setenv) cannot bite here.
  return std::getenv(info(knob).name);  // NOLINT(concurrency-mt-unsafe)
}

bool flag(Knob knob) noexcept {
  const char* value = raw(knob);
  return value != nullptr && value[0] != '\0' && std::strcmp(value, "0") != 0;
}

long integer(Knob knob, long fallback) noexcept {
  const char* value = raw(knob);
  if (value == nullptr || value[0] == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  return end == value ? fallback : parsed;
}

}  // namespace oneport::env

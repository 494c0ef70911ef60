// Frozen-oracle schedule pin.
//
// One row per (scenario, scheduler[, event trace]) over five rotations:
// the static property-sweep rotation (random, edge-case, routed and
// workload-family scenarios under every registered heuristic), the
// dynamic rotation (the same heuristics replayed through
// dyn::run_dynamic under the four named fault traces), the
// heterogeneous routed STENCIL cases, the routed one-port instances
// at the scale EFT pruning targets (16-64 processors, wide fan-in), and
// the fixed-allocation rebuild on the static rotation ("fixed/" rows:
// reschedule_fixed_allocation of HEFT's allocation and of a round-robin
// one, and ilha with reschedule_comms, alone and with single_comm_scan,
// under both models).  Each row holds the makespan and a
// 64-bit FNV-1a digest over the bit pattern of every placement and
// message field; a dynamic row's digest also covers every epoch's
// schedule and the stale-message list.
//
// The committed table (frozen_schedules.inc) was recorded with the
// reference sorted-busy-vector timeline -- now the test oracle in
// reference_timeline.hpp -- and it matched bit for bit under every other
// timeline implementation and graph layout the library carried at the
// time.  The "scale/" rows came later: they were recorded with the
// library while routed candidates still got only the plain
// finish + data x distance bound, before the routed one-port pruning
// bounds landed.  The "fixed/" rows were recorded with the library while
// CPOP and the rebuild still ran ready loops of their own, before both
// became HEFT's priority loop with pinned tasks.  Recomputing the table
// with production code and demanding exact equality is the same pin a
// run-time differential against the oracle would give, without keeping a
// second implementation in the library.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "support/scenario.hpp"

namespace oneport::testsupport {

struct FrozenRow {
  std::string key;
  double makespan = 0.0;
  std::uint64_t digest = 0;

  friend bool operator==(const FrozenRow&, const FrozenRow&) = default;
};

/// The static rotation behind the table's "static/" rows, in table
/// order: scenario_sweep(8087, 8), the edge cases,
/// routed_scenario_sweep(9091, 10) and workload_scenario_sweep(9191, 4).
[[nodiscard]] std::vector<Scenario> frozen_static_scenarios();

/// The routed rotation behind the table's "scale/" rows, in table order:
/// MICROSVC 40 and 80, MLTRAIN 10 and LU 16 at the paper's
/// communication ratio, each on mesh8x8:het0.5:swp, fattree3x3,
/// torus4x4:alt and ring over the paper platform's speeds.  The table
/// runs heft-oneport and ilha-oneport on each under the default registry
/// settings.
[[nodiscard]] std::vector<Scenario> routed_scale_scenarios();

/// The 11-heuristic registry the table runs on `scenario`.
[[nodiscard]] std::vector<SchedulerEntry> frozen_registry(
    const Scenario& scenario);

/// Recomputes every row with the library as built.
[[nodiscard]] std::vector<FrozenRow> compute_frozen_rows();

/// The committed table.
[[nodiscard]] std::span<const FrozenRow> frozen_rows();

/// Renders rows in the committed table's source form, one initializer
/// per line, so a deliberate schedule change is re-pinned by pasting the
/// output over frozen_schedules.inc.
[[nodiscard]] std::string format_frozen_rows(std::span<const FrozenRow> rows);

}  // namespace oneport::testsupport

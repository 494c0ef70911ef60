// Heterogeneous per-link costs + pluggable routing policies (ISSUE-5).
//
// Covers the three layers of the tentpole: the seeded link-cost
// generators (linkcost::jitter/hotspot/anisotropy and custom LinkCostFn
// injection), the RoutingPolicy axis (dimension-ordered XY, alternating
// XY-YX load spreading, cost-aware shortest-weighted-path), and the
// ':'-suffix topology-name grammar that makes both sweep axes --
// including the process_topology_cache keys that must never alias
// across policy/heterogeneity suffixes.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/topology_cache.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "platform/routing.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

std::vector<double> unit_cycles(int n) {
  return std::vector<double>(static_cast<std::size_t>(n), 1.0);
}

/// Per-item cost of the route from q to r, folded from the table's next
/// hops and the platform's links.
double route_cost(const RoutedPlatform& routed, ProcId q, ProcId r) {
  return fold_route_costs(routed.routing, routed.platform)
      .route(static_cast<std::size_t>(q), static_cast<std::size_t>(r));
}

// ---------------------------------------------------------------------
// Link-cost generators.

TEST(LinkCostGenerators, JitterIsDeterministicSymmetricAndBounded) {
  const LinkCostFn jitter = linkcost::jitter(0.5, 42);
  const RoutedPlatform a = make_mesh2d_platform(unit_cycles(9), 3, 3,
                                                /*wrap=*/false, 1.0, jitter);
  const RoutedPlatform b = make_mesh2d_platform(unit_cycles(9), 3, 3,
                                                /*wrap=*/false, 1.0, jitter);
  bool saw_non_unit = false;
  for (ProcId q = 0; q < 9; ++q) {
    for (ProcId r = 0; r < 9; ++r) {
      const double l = a.platform.link(q, r);
      // Same seed => bit-identical matrix; symmetric because the draw
      // hashes the canonical (min, max) endpoint pair.
      EXPECT_EQ(l, b.platform.link(q, r));
      EXPECT_EQ(l, a.platform.link(r, q));
      if (q != r && std::isfinite(l)) {
        EXPECT_GE(l, 0.5);
        EXPECT_LT(l, 1.5);
        if (l != 1.0) saw_non_unit = true;
      }
    }
  }
  EXPECT_TRUE(saw_non_unit) << "jitter left every link at the base cost";

  // A different seed draws a different network.
  const RoutedPlatform c = make_mesh2d_platform(
      unit_cycles(9), 3, 3, /*wrap=*/false, 1.0, linkcost::jitter(0.5, 43));
  bool differs = false;
  for (ProcId q = 0; q < 9 && !differs; ++q) {
    for (ProcId r = 0; r < 9 && !differs; ++r) {
      differs = a.platform.link(q, r) != c.platform.link(q, r);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(LinkCostGenerators, HotspotScalesSelectedLinks) {
  // Probability 1 makes every physical link hot: cost = base * factor.
  const RoutedPlatform hot = make_mesh2d_platform(
      unit_cycles(4), 2, 2, /*wrap=*/false, 1.0,
      linkcost::hotspot(/*probability=*/1.0, /*factor=*/8.0, 7));
  for (ProcId q = 0; q < 4; ++q) {
    for (ProcId r = 0; r < 4; ++r) {
      if (q != r && std::isfinite(hot.platform.link(q, r))) {
        EXPECT_DOUBLE_EQ(hot.platform.link(q, r), 8.0);
      }
    }
  }
}

TEST(LinkCostGenerators, AnisotropyPricesColumnLinks) {
  // 3x3 mesh, row-major ids: 0-1 is a row (dimension-0) link, 0-3 a
  // column (dimension-1) link.
  const RoutedPlatform mesh = make_mesh2d_platform(
      unit_cycles(9), 3, 3, /*wrap=*/false, 1.0, linkcost::anisotropy(3.0));
  EXPECT_DOUBLE_EQ(mesh.platform.link(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(mesh.platform.link(0, 3), 3.0);
  EXPECT_DOUBLE_EQ(mesh.platform.link(4, 5), 1.0);
  EXPECT_DOUBLE_EQ(mesh.platform.link(4, 7), 3.0);
  // XY route costs sum the actual link costs: 0 -> 4 is one row link plus
  // one column link whatever the order.
  EXPECT_DOUBLE_EQ(route_cost(mesh, 0, 4), 4.0);
}

TEST(LinkCostGenerators, ComposeAppliesLeftToRight) {
  std::vector<LinkCostFn> fns;
  fns.push_back(linkcost::anisotropy(3.0));
  fns.push_back(linkcost::hotspot(1.0, 8.0, 1));
  const RoutedPlatform mesh =
      make_mesh2d_platform(unit_cycles(4), 2, 2, /*wrap=*/false, 1.0,
                           linkcost::compose(std::move(fns)));
  EXPECT_DOUBLE_EQ(mesh.platform.link(0, 1), 8.0);   // row: 1 * 8
  EXPECT_DOUBLE_EQ(mesh.platform.link(0, 2), 24.0);  // column: 3 * 8
}

TEST(LinkCostGenerators, GeneratorMustReturnPositiveFiniteCosts) {
  const LinkCostFn zero = [](ProcId, ProcId, int, double) { return 0.0; };
  EXPECT_THROW(make_mesh2d_platform(unit_cycles(4), 2, 2, false, 1.0, zero),
               std::invalid_argument);
  const LinkCostFn inf = [](ProcId, ProcId, int, double) { return kNoLink; };
  EXPECT_THROW(
      make_fat_tree_platform(unit_cycles(3), 1, 2, 2.0, 1.0, inf),
      std::invalid_argument);
}

// ---------------------------------------------------------------------
// Routing policies.  Golden hop sequences on hand-buildable networks.

TEST(RoutingPolicies, WeightedShortestRoutesAroundExpensiveLink) {
  // 3x3 mesh where only the 1 <-> 2 link costs 10 (everything else 1):
  // XY insists on the dimension-ordered walk through it, swp provably
  // deviates around it.  Same physical platform in both cases.
  const LinkCostFn expensive = [](ProcId u, ProcId v, int, double base) {
    return (u == 1 && v == 2) ? 10.0 : base;
  };
  const RoutedPlatform xy =
      make_mesh2d_platform(unit_cycles(9), 3, 3, /*wrap=*/false, 1.0,
                           expensive, RoutingPolicy::kDimensionOrdered);
  const RoutedPlatform swp =
      make_mesh2d_platform(unit_cycles(9), 3, 3, /*wrap=*/false, 1.0,
                           expensive, RoutingPolicy::kWeightedShortest);
  for (ProcId q = 0; q < 9; ++q) {
    for (ProcId r = 0; r < 9; ++r) {
      EXPECT_EQ(xy.platform.link(q, r), swp.platform.link(q, r));
    }
  }
  EXPECT_EQ(xy.routing.path(0, 2), (std::vector<ProcId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(route_cost(xy, 0, 2), 11.0);
  // The cheap detour: ties broken fewer-hops-then-smallest-next-hop.
  EXPECT_EQ(swp.routing.path(0, 2), (std::vector<ProcId>{0, 1, 4, 5, 2}));
  EXPECT_DOUBLE_EQ(route_cost(swp, 0, 2), 4.0);
  EXPECT_EQ(swp.routing.path(1, 2), (std::vector<ProcId>{1, 4, 5, 2}));
  EXPECT_DOUBLE_EQ(route_cost(swp, 1, 2), 3.0);
  // swp never pays more than the dimension-ordered walk.
  for (ProcId q = 0; q < 9; ++q) {
    for (ProcId r = 0; r < 9; ++r) {
      EXPECT_LE(route_cost(swp, q, r), route_cost(xy, q, r));
    }
  }
}

TEST(RoutingPolicies, AlternatingSpreadsDimensionOrderByParity) {
  // Each forwarding node picks its own dimension order: even id =
  // column first (XY), odd id = row first (YX).  Every hop still
  // shortens the Manhattan distance, so paths stay hop-minimal.
  const RoutedPlatform alt =
      make_mesh2d_platform(unit_cycles(9), 3, 3, /*wrap=*/false, 1.0, {},
                           RoutingPolicy::kAlternating);
  // 0 (even, column first) -> 1 (odd, row first) -> 4 (even) -> 5 -> 8:
  // the staircase, where pure XY walks {0, 1, 2, 5, 8}.
  EXPECT_EQ(alt.routing.path(0, 8), (std::vector<ProcId>{0, 1, 4, 5, 8}));
  // Odd source goes row-first where XY would go column-first via 4.
  EXPECT_EQ(alt.routing.path(3, 1), (std::vector<ProcId>{3, 0, 1}));
  EXPECT_EQ(alt.routing.path(7, 2), (std::vector<ProcId>{7, 4, 5, 2}));
  EXPECT_EQ(alt.routing.path(8, 0), (std::vector<ProcId>{8, 7, 4, 3, 0}));
  // Hop-minimality: |path| - 1 == Manhattan distance for every pair.
  for (ProcId q = 0; q < 9; ++q) {
    for (ProcId r = 0; r < 9; ++r) {
      const int manhattan =
          std::abs(q / 3 - r / 3) + std::abs(q % 3 - r % 3);
      EXPECT_EQ(alt.routing.path(q, r).size(),
                static_cast<std::size_t>(manhattan) + 1u)
          << "P" << q << " -> P" << r;
      EXPECT_DOUBLE_EQ(route_cost(alt, q, r),
                       static_cast<double>(manhattan));
    }
  }
}

TEST(RoutingPolicies, AlternatingOnTorusStaysLoopFreeAndMinimal) {
  const RoutedPlatform alt = make_topology_platform(
      "torus3x3:alt", unit_cycles(9), 1.0);
  for (ProcId q = 0; q < 9; ++q) {
    for (ProcId r = 0; r < 9; ++r) {
      // Each 3-ring dimension is one hop either way, so every pair is
      // at most 2 hops; path_into would throw on a routing loop.
      const std::vector<ProcId> path = alt.routing.path(q, r);
      EXPECT_LE(path.size(), 3u) << "P" << q << " -> P" << r;
    }
  }
}

TEST(RoutingPolicies, PolicyShapeMismatchesAreRejected) {
  EXPECT_THROW(make_mesh2d_platform(unit_cycles(4), 2, 2, false, 1.0, {},
                                    RoutingPolicy::kUpDown),
               std::invalid_argument);
  EXPECT_THROW(make_fat_tree_platform(unit_cycles(3), 1, 2, 2.0, 1.0, {},
                                      RoutingPolicy::kDimensionOrdered),
               std::invalid_argument);
  EXPECT_THROW(make_fat_tree_platform(unit_cycles(3), 1, 2, 2.0, 1.0, {},
                                      RoutingPolicy::kAlternating),
               std::invalid_argument);
}

TEST(RoutingPolicies, SwpOnFatTreeMatchesUpDownPaths) {
  // A tree has one simple path per pair: the cost-aware table must pick
  // exactly the up-down hops (with bit-equal route costs), just
  // through the Floyd-Warshall construction.
  const RoutedPlatform updown =
      make_fat_tree_platform(unit_cycles(7), 2, 2, 2.0, 1.0);
  const RoutedPlatform swp =
      make_fat_tree_platform(unit_cycles(7), 2, 2, 2.0, 1.0, {},
                             RoutingPolicy::kWeightedShortest);
  for (ProcId q = 0; q < 7; ++q) {
    for (ProcId r = 0; r < 7; ++r) {
      EXPECT_EQ(updown.routing.path(q, r), swp.routing.path(q, r));
      EXPECT_EQ(route_cost(updown, q, r), route_cost(swp, q, r));
    }
  }
}

TEST(RoutingPolicies, PolicyNamesAreStable) {
  EXPECT_STREQ(routing_policy_name(RoutingPolicy::kDimensionOrdered), "xy");
  EXPECT_STREQ(routing_policy_name(RoutingPolicy::kAlternating), "alt");
  EXPECT_STREQ(routing_policy_name(RoutingPolicy::kUpDown), "updown");
  EXPECT_STREQ(routing_policy_name(RoutingPolicy::kWeightedShortest), "swp");
}

// ---------------------------------------------------------------------
// Topology-name suffix grammar.

TEST(TopologyNameGrammar, AcceptsTheNewAxes) {
  for (const char* name :
       {"mesh3x3:het0.5", "mesh4x4:het0.5:swp", "mesh3x3:hot0.2",
        "mesh3x3:aniso2", "mesh3x3:het0.25:hot0.5:aniso0.5:alt",
        "torus2x5:alt", "torus3x3:swp", "torus2x2:xy", "fattree2x2:swp",
        "fattree2x2:updown", "fattree2x3:het0.75"}) {
    SCOPED_TRACE(name);
    EXPECT_NO_THROW(validate_topology_name(name));
    EXPECT_NO_THROW(make_topology_platform(name, unit_cycles(4), 1.0, 3));
  }
}

TEST(TopologyNameGrammar, RejectsMalformedAndIncompatibleSuffixes) {
  const std::vector<double> cycles = unit_cycles(4);
  for (const char* name :
       {"ring:swp",            // unstructured names take no suffixes
        "random:het0.5",       // ditto
        "mesh3x3:updown",      // up-down needs a tree
        "fattree2x2:xy",       // xy/alt need a mesh
        "fattree2x2:alt",      //
        "fattree2x2:aniso2",   // no second dimension on a tree
        "mesh3x3:het",         // missing value
        "mesh3x3:het1.5",      // amplitude must stay below 1
        "mesh3x3:het0",        // and above 0
        "mesh3x3:hot1.5",      // probability above 1
        "mesh3x3:aniso0",      // factor must be positive
        "mesh3x3:aniso-2",     //
        "mesh3x3:swp:xy",      // one policy only
        "mesh3x3:het0.5:het0.25",  // duplicate cost suffix
        "mesh3x3:aniso1:aniso8",   // duplicate even when the first value
                                   // equals the neutral factor 1
        "mesh3x3:",            // empty suffix
        "mesh3x3:turbo"}) {    // unknown suffix
    SCOPED_TRACE(name);
    EXPECT_THROW(validate_topology_name(name), std::invalid_argument);
    // The builder and the cheap gate share one parser: same verdicts.
    EXPECT_THROW(make_topology_platform(name, cycles), std::invalid_argument);
  }
}

TEST(TopologyNameGrammar, SeedDistinguishesHeterogeneousInstances) {
  const std::vector<double> cycles = unit_cycles(9);
  const RoutedPlatform a =
      make_topology_platform("mesh3x3:het0.5", cycles, 1.0, 1);
  const RoutedPlatform b =
      make_topology_platform("mesh3x3:het0.5", cycles, 1.0, 1);
  const RoutedPlatform c =
      make_topology_platform("mesh3x3:het0.5", cycles, 1.0, 2);
  bool differs = false;
  for (ProcId q = 0; q < 9; ++q) {
    for (ProcId r = 0; r < 9; ++r) {
      EXPECT_EQ(a.platform.link(q, r), b.platform.link(q, r));
      differs = differs || a.platform.link(q, r) != c.platform.link(q, r);
    }
  }
  EXPECT_TRUE(differs) << "seed must reshuffle the ':het' draws";
}

// Golden-route regression (ISSUE-5): on the seeded heterogeneous mesh
// the cost-aware policy provably deviates from XY -- pinned hop
// sequences and route costs, and the same physical platform under both
// policies.
TEST(TopologyNameGrammar, GoldenHetMeshSwpDeviatesFromXY) {
  const std::vector<double> cycles = unit_cycles(9);
  const RoutedPlatform xy =
      make_topology_platform("mesh3x3:het0.75", cycles, 1.0, 1);
  const RoutedPlatform swp =
      make_topology_platform("mesh3x3:het0.75:swp", cycles, 1.0, 1);
  for (ProcId q = 0; q < 9; ++q) {
    for (ProcId r = 0; r < 9; ++r) {
      EXPECT_EQ(xy.platform.link(q, r), swp.platform.link(q, r));
      EXPECT_LE(route_cost(swp, q, r), route_cost(xy, q, r) + 1e-12);
    }
  }
  // XY walks the dimension-ordered staircase; swp takes the column
  // first because this seed priced link 0-1 high and 0-3 low.
  EXPECT_EQ(xy.routing.path(0, 4), (std::vector<ProcId>{0, 1, 4}));
  EXPECT_EQ(swp.routing.path(0, 4), (std::vector<ProcId>{0, 3, 4}));
  EXPECT_NEAR(route_cost(xy, 0, 4), 2.8480863420577505, 1e-9);
  EXPECT_NEAR(route_cost(swp, 0, 4), 0.61125481827767802, 1e-9);
  EXPECT_EQ(xy.routing.path(3, 1), (std::vector<ProcId>{3, 4, 1}));
  EXPECT_EQ(swp.routing.path(3, 1), (std::vector<ProcId>{3, 0, 1}));
  EXPECT_NEAR(route_cost(swp, 3, 1), 1.5819345773807185, 1e-9);
}

// ---------------------------------------------------------------------
// Cache-key correctness: policy/heterogeneity suffixes (and the seed
// behind ':het') must never alias in the process-wide sweep cache.

TEST(SharedTopologyCache, PolicyAndHetKeysNeverAlias) {
  const std::vector<double> cycles{1.0, 2.0, 1.0, 2.0, 3.0};
  analysis::TopologyCacheShard& cache = analysis::process_topology_cache();
  const auto base = cache.get("mesh3x3", cycles);
  const auto swp = cache.get("mesh3x3:swp", cycles);
  const auto alt = cache.get("mesh3x3:alt", cycles);
  const auto het = cache.get("mesh3x3:het0.5", cycles);
  const auto het_swp = cache.get("mesh3x3:het0.5:swp", cycles);
  const auto het_seed2 = cache.get("mesh3x3:het0.5", cycles, 1.0, 2);
  const std::vector<const void*> instances{
      base.get(), swp.get(), alt.get(), het.get(), het_swp.get(),
      het_seed2.get()};
  for (std::size_t i = 0; i < instances.size(); ++i) {
    for (std::size_t j = i + 1; j < instances.size(); ++j) {
      EXPECT_NE(instances[i], instances[j])
          << "cache keys " << i << " and " << j << " alias";
    }
  }
  // Same suffixed name + seed still hits the cache ...
  EXPECT_EQ(het_swp.get(), cache.get("mesh3x3:het0.5:swp", cycles).get());
  // ... and the cached instance is bit-equal to a fresh build (equal
  // paths over equal links cost the same).
  const RoutedPlatform fresh =
      make_topology_platform("mesh3x3:het0.5:swp", cycles, 1.0, 1);
  for (ProcId q = 0; q < 9; ++q) {
    for (ProcId r = 0; r < 9; ++r) {
      EXPECT_EQ(het_swp->platform.link(q, r), fresh.platform.link(q, r));
      EXPECT_EQ(het_swp->routing.path(q, r), fresh.routing.path(q, r));
    }
  }
}

// ---------------------------------------------------------------------
// End to end: heterogeneous costs and non-default policies schedule and
// validate under the one-port rules.  Their exact schedules are pinned
// by the frozen-oracle table (tests/support/frozen_oracle.hpp).

TEST(HeterogeneousRoutedScheduling, SchedulesValidate) {
  const TaskGraph g = testbeds::make_stencil(8, 4.0);
  for (const char* name : {"mesh3x3:het0.5:swp", "mesh3x3:het0.5:hot0.25",
                           "torus2x4:alt", "fattree2x2:swp",
                           "mesh2x3:aniso2.5"}) {
    SCOPED_TRACE(name);
    const RoutedPlatform routed = make_topology_platform(
        name, {1.0, 1.0, 2.0, 2.0, 3.0, 3.0}, 1.0, 5);
    const Schedule hs = heft(g, routed.platform,
                             {.model = CommModel::kOnePort,
                              .routing = &routed.routing});
    const ValidationResult hc = validate_one_port(hs, g, routed.platform);
    EXPECT_TRUE(hc.ok()) << hc.message();

    const Schedule is = ilha(g, routed.platform,
                             {.model = CommModel::kOnePort,
                              .chunk_size = 8,
                              .routing = &routed.routing});
    const ValidationResult ic = validate_one_port(is, g, routed.platform);
    EXPECT_TRUE(ic.ok()) << ic.message();
  }
}

}  // namespace
}  // namespace oneport

// Heterogeneous per-link costs and routing policies, both reached
// through make_topology_platform's ':'-suffix grammar: the seeded cost
// suffixes (:het, :hot, :aniso), the routing policies (dimension-ordered
// XY, alternating XY-YX load spreading, up-down, cost-aware
// shortest-weighted-path), the recorded bits of every network the names
// build, and the process_topology_cache keys that must never alias
// across policy/heterogeneity suffixes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/topology_cache.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "platform/platform.hpp"
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
// Cost suffixes.

TEST(LinkCostGenerators, JitterIsDeterministicSymmetricAndBounded) {
  const RoutedPlatform a =
      make_topology_platform("mesh3x3:het0.5", unit_cycles(9), 1.0, 42);
  const RoutedPlatform b =
      make_topology_platform("mesh3x3:het0.5", unit_cycles(9), 1.0, 42);
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
  const RoutedPlatform c =
      make_topology_platform("mesh3x3:het0.5", unit_cycles(9), 1.0, 43);
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
  const RoutedPlatform hot =
      make_topology_platform("mesh2x2:hot1", unit_cycles(4), 1.0, 7);
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
  const RoutedPlatform mesh =
      make_topology_platform("mesh3x3:aniso3", unit_cycles(9), 1.0);
  EXPECT_DOUBLE_EQ(mesh.platform.link(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(mesh.platform.link(0, 3), 3.0);
  EXPECT_DOUBLE_EQ(mesh.platform.link(4, 5), 1.0);
  EXPECT_DOUBLE_EQ(mesh.platform.link(4, 7), 3.0);
  // XY route costs sum the actual link costs: 0 -> 4 is one row link plus
  // one column link whatever the order.
  EXPECT_DOUBLE_EQ(route_cost(mesh, 0, 4), 4.0);
}

TEST(LinkCostGenerators, ComposeAppliesLeftToRight) {
  // Cost suffixes multiply in the fixed order het, hot, aniso, whatever
  // their order in the name.
  const RoutedPlatform mesh =
      make_topology_platform("mesh2x2:aniso3:hot1", unit_cycles(4), 1.0);
  EXPECT_DOUBLE_EQ(mesh.platform.link(0, 1), 8.0);   // row: 1 * 8
  EXPECT_DOUBLE_EQ(mesh.platform.link(0, 2), 24.0);  // column: 8 * 3
}

TEST(LinkCostGenerators, GeneratorMustReturnPositiveFiniteCosts) {
  // Column links cost 1 * 8 * 1e308 = inf.
  EXPECT_THROW(
      make_topology_platform("mesh2x2:hot1:aniso1e308", unit_cycles(4), 1.0),
      std::invalid_argument);
  // A leaf link costs 1e308 * 8 = inf.
  EXPECT_THROW(make_topology_platform("fattree1x2:hot1", unit_cycles(3), 1e308),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Routing policies.  Golden hop sequences on hand-buildable networks.

TEST(RoutingPolicies, WeightedShortestRoutesAroundExpensiveLink) {
  // 3x3 mesh where only the 1 <-> 2 link costs 10 (everything else 1):
  // XY insists on the dimension-ordered walk through it, swp provably
  // deviates around it.  Same physical platform in both cases.
  const RoutedPlatform mesh = make_topology_platform("mesh3x3", unit_cycles(9));
  Matrix<double> links = mesh.platform.link_matrix();
  links(1, 2) = links(2, 1) = 10.0;
  const Platform platform(unit_cycles(9), std::move(links));
  const RoutingTable& xy = mesh.routing;
  const RoutingTable swp = RoutingTable::shortest_paths(platform);
  const RouteCosts xy_costs = fold_route_costs(xy, platform);
  const RouteCosts swp_costs = fold_route_costs(swp, platform);
  EXPECT_EQ(xy.path(0, 2), (std::vector<ProcId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(xy_costs.route(0, 2), 11.0);
  // The cheap detour: ties broken fewer-hops-then-smallest-next-hop.
  EXPECT_EQ(swp.path(0, 2), (std::vector<ProcId>{0, 1, 4, 5, 2}));
  EXPECT_DOUBLE_EQ(swp_costs.route(0, 2), 4.0);
  EXPECT_EQ(swp.path(1, 2), (std::vector<ProcId>{1, 4, 5, 2}));
  EXPECT_DOUBLE_EQ(swp_costs.route(1, 2), 3.0);
  // swp never pays more than the dimension-ordered walk.
  for (std::size_t q = 0; q < 9; ++q) {
    for (std::size_t r = 0; r < 9; ++r) {
      EXPECT_LE(swp_costs.route(q, r), xy_costs.route(q, r));
    }
  }
}

TEST(RoutingPolicies, AlternatingSpreadsDimensionOrderByParity) {
  // Each forwarding node picks its own dimension order: even id =
  // column first (XY), odd id = row first (YX).  Every hop still
  // shortens the Manhattan distance, so paths stay hop-minimal.
  const RoutedPlatform alt =
      make_topology_platform("mesh3x3:alt", unit_cycles(9));
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

TEST(RoutingPolicies, SwpOnFatTreeMatchesUpDownPaths) {
  // A tree has one simple path per pair: the cost-aware table must pick
  // exactly the up-down hops (with bit-equal route costs), just
  // through the Floyd-Warshall construction.
  const RoutedPlatform updown =
      make_topology_platform("fattree2x2", unit_cycles(7));
  const RoutedPlatform swp =
      make_topology_platform("fattree2x2:swp", unit_cycles(7));
  for (ProcId q = 0; q < 7; ++q) {
    for (ProcId r = 0; r < 7; ++r) {
      EXPECT_EQ(updown.routing.path(q, r), swp.routing.path(q, r));
      EXPECT_EQ(route_cost(updown, q, r), route_cost(swp, q, r));
    }
  }
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

// Every link is finite, but a route of two huge hops sums to +inf: the
// input is at fault, so the rejection is typed and says so, on the
// structural tables and on shortest paths alike.
TEST(TopologyNameGrammar, RejectsRouteCostOverflow) {
  const std::vector<double> paper = make_paper_platform().cycle_times();
  const struct {
    const char* name;
    double link;
  } cases[] = {{"mesh3x3:aniso1e308", 1.0},
               {"mesh3x3:aniso1e308:swp", 1.0},
               {"torus4x4:aniso1e308:alt", 1.0},
               {"ring", 1e308}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    try {
      (void)make_topology_platform(c.name, paper, c.link);
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("overflows a double"),
                std::string::npos)
          << e.what();
    }
  }
  // Column routes of up to seven hops at 1e307 still fit.
  EXPECT_NO_THROW(make_topology_platform("mesh8x8:aniso1e307", paper));
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
// Bit pin of every network the names build: one FNV-1a digest per name
// over its builds on the paper platform's cycle times and on {1, 2, 3},
// at links 1.0 and 0.5 and seeds 1 and 9173.  Each build adds its
// processor count, cycle-time bits, link-matrix bits, next hops and
// route order.  The literals were recorded with the library that still
// exported the per-shape builders and the link-cost generators.

/// 64-bit FNV-1a over little-endian 8-byte words.
class Fnv1a {
 public:
  void word(std::uint64_t w) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (w >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void real(double x) noexcept { word(std::bit_cast<std::uint64_t>(x)); }
  void id(std::int64_t v) noexcept { word(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t network_digest(const std::string& name) {
  const std::vector<std::vector<double>> cycle_sets{
      make_paper_platform().cycle_times(), {1.0, 2.0, 3.0}};
  Fnv1a h;
  for (const std::vector<double>& cycles : cycle_sets) {
    for (const double link : {1.0, 0.5}) {
      for (const std::uint64_t seed : {1u, 9173u}) {
        const RoutedPlatform routed =
            make_topology_platform(name, cycles, link, seed);
        const auto p = static_cast<std::size_t>(
            routed.platform.num_processors());
        h.word(p);
        for (const double t : routed.platform.cycle_times()) h.real(t);
        const double* const links = routed.platform.link_matrix().data();
        const int* const next = routed.routing.next_hops().data();
        const int* const order = routed.routing.route_order().data();
        for (std::size_t k = 0; k < p * p; ++k) {
          h.real(links[k]);
          h.id(next[k]);
          h.id(order[k]);
        }
      }
    }
  }
  return h.value();
}

TEST(TopologyNameGrammar, NetworksMatchRecordedDigests) {
  struct Pinned {
    const char* name;
    std::uint64_t digest;
  };
  static constexpr Pinned kPinned[] = {
      {"ring", 0x43dd0fb3f3a627adULL},
      {"star", 0x8ea891808663b505ULL},
      {"line", 0x0eb7fc8aad1fb615ULL},
      {"random", 0xfcbfae4219055635ULL},
      {"mesh3x3", 0x208007bbf2d47e35ULL},
      {"mesh3x3:xy", 0x208007bbf2d47e35ULL},
      {"mesh3x3:alt", 0x7bb37aab1afceb55ULL},
      {"mesh3x3:swp", 0xece47b10e1f6f43dULL},
      {"mesh3x3:het0.5", 0xa91442f4b322bcc5ULL},
      {"mesh3x3:hot0.3", 0xb5e981ef1b839235ULL},
      {"mesh3x3:aniso2.5", 0x613fd19fca05e26dULL},
      {"mesh3x3:het0.5:hot0.3:aniso2.5", 0x308fccef9c7d2fa5ULL},
      {"mesh3x3:het0.5:hot0.3:aniso2.5:xy", 0x308fccef9c7d2fa5ULL},
      {"mesh3x3:het0.5:hot0.3:aniso2.5:alt", 0x073d44d32cef8cddULL},
      {"mesh3x3:het0.5:hot0.3:aniso2.5:swp", 0x4a0b4f9e84e41afdULL},
      {"mesh1x5", 0xd6ef95136b29ece5ULL},
      {"mesh1x5:xy", 0xd6ef95136b29ece5ULL},
      {"mesh1x5:alt", 0xd6ef95136b29ece5ULL},
      {"mesh1x5:swp", 0xd6ef95136b29ece5ULL},
      {"mesh1x5:het0.5", 0x79279730f267ed15ULL},
      {"mesh1x5:hot0.3", 0xed0912f661a76525ULL},
      {"mesh1x5:aniso2.5", 0xd6ef95136b29ece5ULL},
      {"mesh1x5:het0.5:hot0.3:aniso2.5", 0xc2ee0f61700207a5ULL},
      {"mesh1x5:het0.5:hot0.3:aniso2.5:xy", 0xc2ee0f61700207a5ULL},
      {"mesh1x5:het0.5:hot0.3:aniso2.5:alt", 0xc2ee0f61700207a5ULL},
      {"mesh1x5:het0.5:hot0.3:aniso2.5:swp", 0xc2ee0f61700207a5ULL},
      {"mesh5x1", 0xd6ef95136b29ece5ULL},
      {"mesh5x1:xy", 0xd6ef95136b29ece5ULL},
      {"mesh5x1:alt", 0xd6ef95136b29ece5ULL},
      {"mesh5x1:swp", 0xd6ef95136b29ece5ULL},
      {"mesh5x1:het0.5", 0x79279730f267ed15ULL},
      {"mesh5x1:hot0.3", 0xed0912f661a76525ULL},
      {"mesh5x1:aniso2.5", 0x488ecfed1006b0b5ULL},
      {"mesh5x1:het0.5:hot0.3:aniso2.5", 0xafbe840d24cadc5dULL},
      {"mesh5x1:het0.5:hot0.3:aniso2.5:xy", 0xafbe840d24cadc5dULL},
      {"mesh5x1:het0.5:hot0.3:aniso2.5:alt", 0xafbe840d24cadc5dULL},
      {"mesh5x1:het0.5:hot0.3:aniso2.5:swp", 0xafbe840d24cadc5dULL},
      {"mesh2x2", 0x14f7f7944f8b6fc5ULL},
      {"mesh2x2:xy", 0x14f7f7944f8b6fc5ULL},
      {"mesh2x2:alt", 0x30216eec86716725ULL},
      {"mesh2x2:swp", 0xbf87464a2ed08e85ULL},
      {"mesh2x2:het0.5", 0xb0dcfa2b5a22b065ULL},
      {"mesh2x2:hot0.3", 0x52414595468aff05ULL},
      {"mesh2x2:aniso2.5", 0x233b72e4fec9b2b5ULL},
      {"mesh2x2:het0.5:hot0.3:aniso2.5", 0xc644b62faa286e0dULL},
      {"mesh2x2:het0.5:hot0.3:aniso2.5:xy", 0xc644b62faa286e0dULL},
      {"mesh2x2:het0.5:hot0.3:aniso2.5:alt", 0x6b8a3823dc3332b5ULL},
      {"mesh2x2:het0.5:hot0.3:aniso2.5:swp", 0x8772523a4c4b474dULL},
      {"mesh3x4", 0xe51ea2e35fafc9a5ULL},
      {"mesh3x4:xy", 0xe51ea2e35fafc9a5ULL},
      {"mesh3x4:alt", 0x06bed50b8ac7e3d5ULL},
      {"mesh3x4:swp", 0x2b679868b5e3ba35ULL},
      {"mesh3x4:het0.5", 0xb6b3591b746ddc85ULL},
      {"mesh3x4:hot0.3", 0x547b28342d7ef1b5ULL},
      {"mesh3x4:aniso2.5", 0x22119ca68da1d155ULL},
      {"mesh3x4:het0.5:hot0.3:aniso2.5", 0x6d69bca902908345ULL},
      {"mesh3x4:het0.5:hot0.3:aniso2.5:xy", 0x6d69bca902908345ULL},
      {"mesh3x4:het0.5:hot0.3:aniso2.5:alt", 0x43e57127acb801b5ULL},
      {"mesh3x4:het0.5:hot0.3:aniso2.5:swp", 0x64c553a1e3ac4c35ULL},
      {"torus1x4", 0x20ad1c7f4e77e945ULL},
      {"torus1x4:xy", 0x20ad1c7f4e77e945ULL},
      {"torus1x4:alt", 0x20ad1c7f4e77e945ULL},
      {"torus1x4:swp", 0x1c843866ce23c7c5ULL},
      {"torus1x4:het0.5", 0x513215fa100cc8a5ULL},
      {"torus1x4:hot0.3", 0x9070ac5ae097d595ULL},
      {"torus1x4:aniso2.5", 0x20ad1c7f4e77e945ULL},
      {"torus1x4:het0.5:hot0.3:aniso2.5", 0x8c17b5a357f966b5ULL},
      {"torus1x4:het0.5:hot0.3:aniso2.5:xy", 0x8c17b5a357f966b5ULL},
      {"torus1x4:het0.5:hot0.3:aniso2.5:alt", 0x8c17b5a357f966b5ULL},
      {"torus1x4:het0.5:hot0.3:aniso2.5:swp", 0x83828e26889a9525ULL},
      {"torus3x3", 0x3e649b7d8ac2a6f5ULL},
      {"torus3x3:xy", 0x3e649b7d8ac2a6f5ULL},
      {"torus3x3:alt", 0x4da66d29bcfe2845ULL},
      {"torus3x3:swp", 0x2da6e57978e4a205ULL},
      {"torus3x3:het0.5", 0xf6aa833b3f7b68a5ULL},
      {"torus3x3:hot0.3", 0x39671b73d2c9e785ULL},
      {"torus3x3:aniso2.5", 0x840cb16333cff405ULL},
      {"torus3x3:het0.5:hot0.3:aniso2.5", 0x752badac260d1c65ULL},
      {"torus3x3:het0.5:hot0.3:aniso2.5:xy", 0x752badac260d1c65ULL},
      {"torus3x3:het0.5:hot0.3:aniso2.5:alt", 0xd84c5b0f66f94045ULL},
      {"torus3x3:het0.5:hot0.3:aniso2.5:swp", 0xb9ca7eb6f7f6c6fdULL},
      {"torus2x5", 0xe940dfd038ad1f75ULL},
      {"torus2x5:xy", 0xe940dfd038ad1f75ULL},
      {"torus2x5:alt", 0x21879314f97d46b5ULL},
      {"torus2x5:swp", 0x30a59bb06c4da525ULL},
      {"torus2x5:het0.5", 0xff3380c3b3ebc235ULL},
      {"torus2x5:hot0.3", 0x6efb2c33b18ddc95ULL},
      {"torus2x5:aniso2.5", 0x29782dcf406535adULL},
      {"torus2x5:het0.5:hot0.3:aniso2.5", 0x48208a1ad71fd6d5ULL},
      {"torus2x5:het0.5:hot0.3:aniso2.5:xy", 0x48208a1ad71fd6d5ULL},
      {"torus2x5:het0.5:hot0.3:aniso2.5:alt", 0x2935badb9edc0305ULL},
      {"torus2x5:het0.5:hot0.3:aniso2.5:swp", 0xee5f1340bb436dd5ULL},
      {"torus3x5", 0x1624ebaa003acc4dULL},
      {"torus3x5:xy", 0x1624ebaa003acc4dULL},
      {"torus3x5:alt", 0x17d059d7eb2c455dULL},
      {"torus3x5:swp", 0x52405348d2682fcdULL},
      {"torus3x5:het0.5", 0x4a05e8cb381150fdULL},
      {"torus3x5:hot0.3", 0x3dc3f20e15b2e8edULL},
      {"torus3x5:aniso2.5", 0xf77480300b3bcc3dULL},
      {"torus3x5:het0.5:hot0.3:aniso2.5", 0xe9e0ee908e15c755ULL},
      {"torus3x5:het0.5:hot0.3:aniso2.5:xy", 0xe9e0ee908e15c755ULL},
      {"torus3x5:het0.5:hot0.3:aniso2.5:alt", 0xb79bc9b9b2ca215dULL},
      {"torus3x5:het0.5:hot0.3:aniso2.5:swp", 0xa321639330dd9365ULL},
      {"torus4x4", 0x441114b5b2856f45ULL},
      {"torus4x4:xy", 0x441114b5b2856f45ULL},
      {"torus4x4:alt", 0xcc71f8740ae358c5ULL},
      {"torus4x4:swp", 0x7752087f4304a865ULL},
      {"torus4x4:het0.5", 0x0eef18c8f4334925ULL},
      {"torus4x4:hot0.3", 0xca5bd8d2dc70b865ULL},
      {"torus4x4:aniso2.5", 0xddee73144ce0e835ULL},
      {"torus4x4:het0.5:hot0.3:aniso2.5", 0x779ec2b08fee144dULL},
      {"torus4x4:het0.5:hot0.3:aniso2.5:xy", 0x779ec2b08fee144dULL},
      {"torus4x4:het0.5:hot0.3:aniso2.5:alt", 0xb8993338c31409fdULL},
      {"torus4x4:het0.5:hot0.3:aniso2.5:swp", 0x58ebb5b50e1c1c1dULL},
      {"mesh3x3:aniso1", 0x208007bbf2d47e35ULL},
      {"mesh3x3:hot1:aniso3", 0x50272b56b0839755ULL},
      {"mesh3x3:swp:aniso0.5:het0.75", 0xb2f192e157f35c05ULL},
      {"fattree2x2", 0x7166563d9aa662a5ULL},
      {"fattree2x2:updown", 0x7166563d9aa662a5ULL},
      {"fattree2x2:swp", 0x7166563d9aa662a5ULL},
      {"fattree2x2:het0.5", 0xf8874f73d51cd5c5ULL},
      {"fattree2x2:hot0.3", 0x632c9017920bdaf5ULL},
      {"fattree2x2:het0.5:hot0.3", 0xf4278816063c0465ULL},
      {"fattree2x2:het0.5:hot0.3:updown", 0xf4278816063c0465ULL},
      {"fattree2x2:het0.5:hot0.3:swp", 0xf4278816063c0465ULL},
      {"fattree1x4", 0xe3fef8a1bc986ba5ULL},
      {"fattree1x4:updown", 0xe3fef8a1bc986ba5ULL},
      {"fattree1x4:swp", 0xe3fef8a1bc986ba5ULL},
      {"fattree1x4:het0.5", 0xc0b346d9ec157725ULL},
      {"fattree1x4:hot0.3", 0x61d0a898f1386f25ULL},
      {"fattree1x4:het0.5:hot0.3", 0x106a8c157f60b815ULL},
      {"fattree1x4:het0.5:hot0.3:updown", 0x106a8c157f60b815ULL},
      {"fattree1x4:het0.5:hot0.3:swp", 0x106a8c157f60b815ULL},
      {"fattree2x3", 0x0187f4206c82d485ULL},
      {"fattree2x3:updown", 0x0187f4206c82d485ULL},
      {"fattree2x3:swp", 0x0187f4206c82d485ULL},
      {"fattree2x3:het0.5", 0x383c2019db561945ULL},
      {"fattree2x3:hot0.3", 0xfa7a22ac2a4d7405ULL},
      {"fattree2x3:het0.5:hot0.3", 0xc42f601fa8d6a225ULL},
      {"fattree2x3:het0.5:hot0.3:updown", 0xc42f601fa8d6a225ULL},
      {"fattree2x3:het0.5:hot0.3:swp", 0xc42f601fa8d6a225ULL},
      {"fattree1x5", 0xc96ae4ec781fc8e5ULL},
      {"fattree1x5:updown", 0xc96ae4ec781fc8e5ULL},
      {"fattree1x5:swp", 0xc96ae4ec781fc8e5ULL},
      {"fattree1x5:het0.5", 0x93891511d0a0ef05ULL},
      {"fattree1x5:hot0.3", 0x50cd32ae1045c0b5ULL},
      {"fattree1x5:het0.5:hot0.3", 0x68b4f87ffd96a4d5ULL},
      {"fattree1x5:het0.5:hot0.3:updown", 0x68b4f87ffd96a4d5ULL},
      {"fattree1x5:het0.5:hot0.3:swp", 0x68b4f87ffd96a4d5ULL},
  };
  std::ostringstream table;
  bool all_match = true;
  for (const Pinned& pinned : kPinned) {
    const std::uint64_t digest = network_digest(pinned.name);
    all_match = all_match && digest == pinned.digest;
    EXPECT_EQ(digest, pinned.digest) << pinned.name;
    table << "      {\"" << pinned.name << "\", 0x" << std::hex
          << std::setw(16) << std::setfill('0') << digest << std::dec
          << "ULL},\n";
  }
  EXPECT_TRUE(all_match) << "recomputed table:\n" << table.str();
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

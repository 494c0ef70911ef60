// Static routing over sparse interconnects -- the extension sketched in
// §4.3: "if there is no direct link from P2 to P1, we redo the previous
// step for all intermediate messages between adjacent processors".
//
// A sparse network is a Platform whose link matrix contains
// +infinity for absent links.  A RoutingTable is computed once
// (Floyd-Warshall over the per-item link costs, ties toward the
// lexicographically smallest next hop) and handed to the schedulers;
// messages between non-adjacent processors become store-and-forward
// chains of per-hop messages, each occupying the hop sender's send port
// and the hop receiver's receive port under the one-port rules.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace oneport {

/// Marker for "no direct link" in a Platform's link matrix.
inline constexpr double kNoLink = std::numeric_limits<double>::infinity();

// ------------------------------------------------ per-link cost generators

/// Deterministic per-link cost generator for the structured topology
/// builders.  Called exactly once per undirected physical link with the
/// canonical endpoint pair (u < v), the link's dimension tag (0 = row/X
/// links and fat-tree edges, 1 = column/Y links) and the base cost the
/// uniform builder would have used (which already encodes the fat-tree
/// taper); returns the final per-item cost, which must be positive and
/// finite.  Costs are a pure function of (u, v), never of construction
/// order, so heterogeneous networks reproduce bit-identically.
using LinkCostFn =
    std::function<double(ProcId u, ProcId v, int dim, double base)>;

/// Named seeded generators behind the ':het' / ':hot' / ':aniso' topology
/// name suffixes (see make_topology_platform).  All of them hash the
/// canonical (u, v) pair with the seed, so two links never share a draw
/// and the result is independent of link enumeration order.
namespace linkcost {

/// base * U[1 - amplitude, 1 + amplitude); requires amplitude in (0, 1)
/// so costs stay positive.  The ':het<A>' suffix.
[[nodiscard]] LinkCostFn jitter(double amplitude, std::uint64_t seed);

/// Each link independently becomes a hotspot with `probability`, costing
/// base * factor; requires probability in (0, 1] and factor > 0.  The
/// ':hot<P>' suffix (factor 8).
[[nodiscard]] LinkCostFn hotspot(double probability, double factor,
                                 std::uint64_t seed);

/// Dimension-1 (column/Y) links cost base * factor, dimension-0 links
/// are untouched; requires factor > 0 and finite.  The ':aniso<F>'
/// suffix (mesh/torus only -- fat-tree edges are all dimension 0).
[[nodiscard]] LinkCostFn anisotropy(double factor);

/// Applies `fns` left to right, each transforming the previous cost, so
/// e.g. jitter-then-hotspot composes multiplicatively.
[[nodiscard]] LinkCostFn compose(std::vector<LinkCostFn> fns);

}  // namespace linkcost

// ----------------------------------------------------- routing policies

/// How a structured topology turns its link matrix into a next-hop
/// table.  The structural defaults (XY, up-down) ignore link costs; the
/// cost-aware and load-spreading alternatives exercise
/// RoutingTable::from_tables with genuinely different tables on the same
/// physical network.  Selected through the ':xy'/':alt'/':updown'/':swp'
/// topology name suffixes.
enum class RoutingPolicy {
  /// Dimension-ordered XY (mesh/torus default): correct the column
  /// first, then the row; each torus dimension takes the shorter way
  /// around, antipode ties toward the increasing index.
  kDimensionOrdered,
  /// Deterministic load-spreading variant of XY (O1-turn style): each
  /// node forwards column-first when its id is even and row-first when
  /// odd, so traffic spreads over both dimension orders while every hop
  /// still shortens the Manhattan/ring distance (loop-free, minimal).
  kAlternating,
  /// Up-down through the lowest common ancestor (fat-tree default) --
  /// the unique tree path.
  kUpDown,
  /// Cost-aware shortest weighted path: Floyd-Warshall over the actual
  /// (possibly heterogeneous) link costs via RoutingTable::shortest_paths,
  /// with its exact-compare fewer-hops/smallest-next-hop tie-break.  On a
  /// heterogeneous mesh this deviates from XY whenever a detour is
  /// cheaper than the dimension-ordered walk.
  kWeightedShortest,
};

/// Stable lower-case name ("xy", "alt", "updown", "swp") for diagnostics
/// and the topology-name grammar.
[[nodiscard]] const char* routing_policy_name(RoutingPolicy policy);

class RoutingTable {
 public:
  /// All-pairs shortest paths over the finite entries of
  /// `platform.link()`.  Throws std::invalid_argument if some processor
  /// pair is unreachable.
  ///
  /// Comparisons are exact; equal-cost routes are broken deterministically
  /// by (fewer hops, then smallest next hop), so the chosen paths do not
  /// depend on floating-point accumulation order.
  static RoutingTable shortest_paths(const Platform& platform);

  /// Unchecked construction from precomputed tables -- for externally
  /// supplied routing policies and for tests that need to exercise the
  /// defensive checks.  `dist(i,j)` is the per-item cost and `next(i,j)`
  /// the first hop from i toward j (with next(i,i) == i).  Nothing is
  /// validated here; path_into() throws on holes and routing loops.
  /// `dist` is reported by distance() but trusted by no scheduler or
  /// bound: the EFT engine and the branch-and-bound search derive every
  /// route's cost from `next` and the platform's link matrix
  /// (fold_route_costs), so a `dist` that disagrees with the hop sums
  /// cannot make their bounds unsound.
  static RoutingTable from_tables(int p, Matrix<double> dist,
                                  Matrix<int> next);

  /// Full processor path from `from` to `to`, both endpoints included
  /// (so path(q, q) == {q} and adjacent pairs give {q, r}).
  [[nodiscard]] std::vector<ProcId> path(ProcId from, ProcId to) const;

  /// Allocation-free variant for hot loops: clears `out` and appends the
  /// path, recycling the vector's capacity across calls.
  void path_into(ProcId from, ProcId to, std::vector<ProcId>& out) const;

  /// True when the direct link is the routed path (single hop).
  [[nodiscard]] bool direct(ProcId from, ProcId to) const;

  /// End-to-end per-data-item cost along the routed path (the sum of hop
  /// link costs; a lower bound on the actual transfer latency since hops
  /// are store-and-forward).
  [[nodiscard]] double distance(ProcId from, ProcId to) const;

  [[nodiscard]] int num_processors() const noexcept { return p_; }

  /// The full p x p per-item distance table, for hot loops that validate
  /// processor ids once and then read rows unchecked via Matrix::data().
  [[nodiscard]] const Matrix<double>& distances() const noexcept {
    return dist_;
  }

  /// The next-hop table as given: next_hops()(i, j) is the first hop
  /// from i toward j.  from_tables does not check it, so only the pairs
  /// route_order() reaches are known to be well formed.
  [[nodiscard]] const Matrix<int>& next_hops() const noexcept {
    return next_;
  }

  /// Row j lists every processor whose route to j is well formed (no
  /// hole, no loop), j first and each processor after its next hop
  /// toward j -- a breadth-first order of the tree the next hops form
  /// toward j.  The rest of the row is -1.  Built once per table, so a
  /// per-route quantity for all p^2 pairs is one pass over the rows,
  /// each pair folding its next hop's already-final value, with no path
  /// walk.
  [[nodiscard]] const Matrix<int>& route_order() const noexcept {
    return order_;
  }

 private:
  RoutingTable(int p, Matrix<double> dist, Matrix<int> next);

  int p_ = 0;
  Matrix<double> dist_;  // shortest per-item cost
  Matrix<int> next_;     // next hop on the shortest path
  Matrix<int> order_;    // per destination: well-formed sources, BFS order
};

/// Per-item route costs derived from a table's next hops and a
/// platform's link matrix, never from RoutingTable::distances(), which
/// from_tables does not check.  Both are p x p: `route(i, j)` is the sum
/// of the hop costs from i to j, `last_hop(i, j)` the cost of the last
/// hop, into j.  A pair whose route has a hole or a loop keeps +inf in
/// both; the diagonal is 0.
struct RouteCosts {
  Matrix<double> last_hop;
  Matrix<double> route;
};

/// Folds RouteCosts along RoutingTable::route_order(): each pair adds
/// its first hop's link cost to its next hop's already-final entry, so
/// the cost is summed from the destination end in O(p^2) loads with no
/// path walk, and a one-hop route costs exactly its link.
[[nodiscard]] RouteCosts fold_route_costs(const RoutingTable& routing,
                                          const Platform& platform);

/// A sparse platform plus its routing table, built together.
struct RoutedPlatform {
  Platform platform;
  RoutingTable routing;
};

/// Ring of `p` processors: processor i links to (i±1) mod p at cost
/// `link`; everything else is routed.
[[nodiscard]] RoutedPlatform make_ring_platform(std::vector<double> cycle_times,
                                                double link = 1.0);

/// Star: processor 0 is the hub; spokes only connect through it.
[[nodiscard]] RoutedPlatform make_star_platform(std::vector<double> cycle_times,
                                                double link = 1.0);

/// Line (path graph): processor i links only to i-1 and i+1 -- the
/// sparsest connected topology; the 2-processor case is the degenerate
/// "one cable" network.
[[nodiscard]] RoutedPlatform make_line_platform(std::vector<double> cycle_times,
                                                double link = 1.0);

/// Random connected network: a random spanning tree (so every pair is
/// reachable) plus each remaining undirected edge independently with
/// probability `edge_probability`; symmetric link costs are drawn
/// uniformly from [link_lo, link_hi).  Deterministic in `seed`.
[[nodiscard]] RoutedPlatform make_random_connected_platform(
    std::vector<double> cycle_times, double edge_probability,
    std::uint64_t seed, double link_lo = 1.0, double link_hi = 1.0);

/// 2D mesh of rows x cols processors (row-major ids: (r, c) is
/// r*cols + c), every grid neighbour linked at cost `link`; `wrap` adds
/// the wrap-around links in each dimension of size >= 3, turning the
/// mesh into a torus.  `cost` (empty = uniform) rewrites every physical
/// link's per-item cost -- row links are dimension 0, column links
/// dimension 1 -- and `policy` picks the next-hop construction
/// (kDimensionOrdered, kAlternating, or kWeightedShortest; kUpDown is
/// rejected).  The structural policies express the table through
/// RoutingTable::from_tables with distances derived by walking the hop
/// chain over the actual link costs, so the hop-by-hop invariant
/// checkers apply to every policy unchanged.  Requires
/// cycle_times.size() == rows * cols.
[[nodiscard]] RoutedPlatform make_mesh2d_platform(
    std::vector<double> cycle_times, int rows, int cols, bool wrap,
    double link = 1.0, const LinkCostFn& cost = {},
    RoutingPolicy policy = RoutingPolicy::kDimensionOrdered);

/// Complete fat tree of `levels` levels below the root with fan-out
/// `arity`: node 0 is the root, level k holds arity^k nodes in
/// breadth-first id order, and every node links only to its parent.
/// Links taper toward the root: an edge at depth d (child side) costs
/// link / taper^(levels - d), so leaf links cost `link` and each level
/// up is `taper` times fatter (taper = 1 gives a plain tree).  `cost`
/// (empty = uniform) rewrites each tree edge's tapered cost (all edges
/// are dimension 0); `policy` is kUpDown -- up to the lowest common
/// ancestor, then down, the unique tree path -- or kWeightedShortest
/// (identical hop sequences on a tree, but the table comes from the
/// cost-aware Floyd-Warshall instead of the structural construction).
/// Requires cycle_times.size() == (arity^(levels+1) - 1) / (arity - 1).
[[nodiscard]] RoutedPlatform make_fat_tree_platform(
    std::vector<double> cycle_times, int levels, int arity,
    double taper = 2.0, double link = 1.0, const LinkCostFn& cost = {},
    RoutingPolicy policy = RoutingPolicy::kUpDown);

/// Name-based factory for sweep axes: "ring", "star", "line", "random"
/// (spanning tree + 35% extra edges, costs in [0.5, 1.5)*link, seeded
/// by `seed`), plus the parameterized structured networks
/// "mesh<R>x<C>", "torus<R>x<C>" (e.g. "mesh3x3", "torus2x5") and
/// "fattree<L>x<A>" (<L> levels, fan-out <A>, taper 2).  Structured
/// names fix the processor count (R*C or the full tree); `cycle_times`
/// is recycled cyclically to that length, so any base platform's speeds
/// map onto any network shape.  Fully-connected sweeps should bypass
/// routing instead of asking for a "full" topology here.
///
/// Structured names additionally take ':'-separated suffixes making link
/// heterogeneity and routing policy sweep axes (e.g. "mesh4x4:het0.5:swp"):
///   :het<A>    seeded multiplicative jitter, cost *= U[1-A, 1+A), 0<A<1
///   :hot<P>    seeded hotspot links: probability P in (0, 1], cost *= 8
///   :aniso<F>  column links cost F x row links (mesh/torus only), F > 0
///   :xy | :alt | :swp | :updown   routing policy (RoutingPolicy above);
///              :xy/:alt are mesh/torus-only, :updown fat-tree-only,
///              :swp anywhere structured
/// At most one policy and one suffix of each cost kind; the seeded
/// suffixes draw from `seed`, which therefore distinguishes two
/// heterogeneous instances of the same shape.  Unstructured names
/// (ring/star/line/random) reject suffixes.
[[nodiscard]] RoutedPlatform make_topology_platform(
    const std::string& topology, std::vector<double> cycle_times,
    double link = 1.0, std::uint64_t seed = 1);

/// Comma-separated human-readable registry of the topology names
/// make_topology_platform accepts (patterns shown as "mesh<R>x<C>"),
/// including the ':het'/':hot'/':aniso'/policy suffix grammar.
[[nodiscard]] const std::string& known_topology_names();

/// Validates `topology` against the registry without building anything:
/// throws std::invalid_argument listing known_topology_names() for
/// unknown names, and a specific message for malformed dimensions
/// (e.g. "mesh3" or "fattree0x2") or suffixes (unknown tokens, values
/// out of range, a policy the shape does not support, duplicates).
/// Lets CLI drivers reject a typo up front instead of deep inside a
/// sweep; verdicts match make_topology_platform exactly because both
/// run the same parser.
void validate_topology_name(const std::string& topology);

}  // namespace oneport

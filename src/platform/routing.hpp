// Static routing over sparse interconnects -- the extension sketched in
// §4.3: "if there is no direct link from P2 to P1, we redo the previous
// step for all intermediate messages between adjacent processors".
//
// A sparse network is a Platform whose link matrix contains
// +infinity for absent links.  A RoutingTable is computed once
// (Floyd-Warshall over the per-item link costs, ties toward the
// lexicographically smallest next hop, or one of the structural
// policies of make_topology_platform) and handed to the schedulers;
// messages between non-adjacent processors become store-and-forward
// chains of per-hop messages, each occupying the hop sender's send port
// and the hop receiver's receive port under the one-port rules.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "platform/platform.hpp"

namespace oneport {

/// Marker for "no direct link" in a Platform's link matrix.
inline constexpr double kNoLink = std::numeric_limits<double>::infinity();

class RoutingTable {
 public:
  /// All-pairs shortest paths over the finite entries of
  /// `platform.link()`.  Throws std::invalid_argument if some processor
  /// pair is unreachable, or if links join a pair but every route
  /// between them costs more than a double holds.
  ///
  /// Comparisons are exact; equal-cost routes are broken deterministically
  /// by (fewer hops, then smallest next hop), so the chosen paths do not
  /// depend on floating-point accumulation order.
  static RoutingTable shortest_paths(const Platform& platform);

  /// Unchecked construction from a precomputed next-hop table -- for
  /// externally supplied routing policies and for tests that need to
  /// exercise the defensive checks.  `next(i,j)` is the first hop from i
  /// toward j (with next(i,i) == i).  Nothing is validated here;
  /// path_into() throws on holes and routing loops.  A route's cost is
  /// never stored: it is the sum of its hops' link costs in whichever
  /// platform the table is used with (fold_route_costs).
  static RoutingTable from_tables(int p, Matrix<int> next);

  /// Full processor path from `from` to `to`, both endpoints included
  /// (so path(q, q) == {q} and adjacent pairs give {q, r}).
  [[nodiscard]] std::vector<ProcId> path(ProcId from, ProcId to) const;

  /// Allocation-free variant for hot loops: clears `out` and appends the
  /// path, recycling the vector's capacity across calls.
  void path_into(ProcId from, ProcId to, std::vector<ProcId>& out) const;

  [[nodiscard]] int num_processors() const noexcept { return p_; }

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
  RoutingTable(int p, Matrix<int> next);

  int p_ = 0;
  Matrix<int> next_;   // next hop toward each destination
  Matrix<int> order_;  // per destination: well-formed sources, BFS order
};

/// Per-item route costs derived from a table's next hops and a
/// platform's link matrix -- the only record of what a route costs.
/// Both are p x p: `route(i, j)` is the sum of the hop costs from i to j
/// (a lower bound on the store-and-forward transfer latency), and
/// `last_hop(i, j)` the cost of the last hop, into j.  A pair whose
/// route has a hole or a loop keeps +inf in both, one whose route
/// crosses a missing link sums to +inf in `route`, and the diagonal is
/// 0.
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

/// Builds the routed network `topology` names over `cycle_times` -- the
/// one way to build a routed network.  `link` is the per-item cost of a
/// plain link and must be positive and finite.
///
/// Unstructured names take one processor per cycle time (at least two)
/// and route every pair on RoutingTable::shortest_paths:
///   ring            processor i links to (i +- 1) mod p, at cost `link`
///   star            processor 0 is the hub, linked to every other one
///   line            processor i links to i - 1 and i + 1 only
///   random          a random spanning tree plus each other pair with
///                   probability 0.35, every link costing U[0.5, 1.5) x
///                   `link`; the whole network is a function of `seed`
///
/// Structured names fix the processor count (at most 2048) and recycle
/// `cycle_times` cyclically to that length:
///   mesh<R>x<C>     R x C grid, ids row-major ((r, c) is r*C + c); row
///                   links are dimension 0, column links dimension 1
///   torus<R>x<C>    the mesh plus the wrap-around link of every row and
///                   column of size >= 3
///   fattree<L>x<A>  complete A-ary tree, L >= 1 levels below root 0,
///                   ids breadth first, each node linked to its parent;
///                   the link above a depth-d node costs link / 2^(L - d),
///                   so leaf links cost `link` and each level up is twice
///                   as fat
/// and take ':'-separated suffixes, each at most once.  A routing policy:
///   :xy      (mesh/torus default) dimension ordered: correct the column
///            first, then the row; each torus dimension goes the shorter
///            way round, an antipode toward the increasing index
///   :alt     (mesh/torus) each node forwards column first when its id is
///            even and row first when odd; every hop still shortens the
///            distance, so routes stay minimal and loop-free
///   :updown  (fattree default) up to the lowest common ancestor, then
///            down -- the unique tree path
///   :swp     (any structured name) RoutingTable::shortest_paths over the
///            links as priced below
/// Cost suffixes, applied to each physical link's base cost c (`link`, or
/// the fat tree's tapered cost) in the fixed order het, hot, aniso.  The
/// seeded draws are SplitMix64 values in [0, 1) keyed by `seed` and the
/// link's canonical endpoint pair (u < v), so a link's cost never
/// depends on the order links are built in:
///   :het<A>   c = c * (1 - A + 2A * draw),  0 < A < 1
///   :hot<P>   c = c * 8 when a second draw, keyed by `seed` xor a fixed
///             salt, is below P,  0 < P <= 1
///   :aniso<F> c = c * F on column links (mesh/torus only),  F > 0
/// A suffixed cost must come out positive and finite.
///
/// Throws std::invalid_argument for anything validate_topology_name
/// rejects, for too few cycle times, for a `link` or a suffixed cost that
/// is not positive and finite, and for a route whose cost overflows a
/// double.
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

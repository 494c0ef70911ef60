#include "platform/routing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace oneport {

namespace {

/// True when a chain of existing (finite) links joins `from` to `to`.
/// Only an error path asks: it tells a disconnected network from one
/// whose every route between a pair costs more than a double holds.
bool linked(const Platform& platform, ProcId from, ProcId to) {
  const int p = platform.num_processors();
  std::vector<char> seen(static_cast<std::size_t>(p), 0);
  std::vector<ProcId> stack{from};
  seen[static_cast<std::size_t>(from)] = 1;
  while (!stack.empty()) {
    const ProcId q = stack.back();
    stack.pop_back();
    if (q == to) return true;
    for (ProcId r = 0; r < p; ++r) {
      if (seen[static_cast<std::size_t>(r)] == 0 &&
          std::isfinite(platform.link(q, r))) {
        seen[static_cast<std::size_t>(r)] = 1;
        stack.push_back(r);
      }
    }
  }
  return false;
}

}  // namespace

RoutingTable::RoutingTable(int p, Matrix<int> next)
    : p_(p),
      next_(std::move(next)),
      order_(static_cast<std::size_t>(p), static_cast<std::size_t>(p), -1) {
  // Per destination j, every i != j hangs under its next hop next(i, j),
  // so a processor sits in at most one child list and j in none.  A
  // breadth-first walk down from j therefore appends each processor at
  // most once (a row never overflows) and reaches exactly those whose
  // hop chain ends at j.  One with a hole (an out-of-range hop) or a
  // loop not through j is never reached: its row entry stays -1 and
  // path_into() still raises on it.  O(p) per destination.
  const auto n = static_cast<std::size_t>(p);
  const int* const next_hop = next_.data();
  std::vector<int> first_child(n);
  std::vector<int> sibling(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::fill(first_child.begin(), first_child.end(), -1);
    for (std::size_t i = n; i-- > 0;) {
      const int hop = next_hop[i * n + j];
      if (i == j || hop < 0 || hop >= p) continue;
      sibling[i] = first_child[static_cast<std::size_t>(hop)];
      first_child[static_cast<std::size_t>(hop)] = static_cast<int>(i);
    }
    int* const row = order_.data() + j * n;
    std::size_t size = 0;
    row[size++] = static_cast<int>(j);
    for (std::size_t head = 0; head < size; ++head) {
      for (int c = first_child[static_cast<std::size_t>(row[head])]; c >= 0;
           c = sibling[static_cast<std::size_t>(c)]) {
        row[size++] = c;
      }
    }
  }
}

RoutingTable RoutingTable::shortest_paths(const Platform& platform) {
  const int p = platform.num_processors();
  const auto n = static_cast<std::size_t>(p);
  Matrix<double> dist(n, n, kNoLink);
  Matrix<int> next(n, n, -1);
  Matrix<int> hops(n, n, 0);
  for (int q = 0; q < p; ++q) {
    dist(static_cast<std::size_t>(q), static_cast<std::size_t>(q)) = 0.0;
    next(static_cast<std::size_t>(q), static_cast<std::size_t>(q)) = q;
    for (int r = 0; r < p; ++r) {
      if (q == r) continue;
      const double l = platform.link(q, r);
      if (std::isfinite(l)) {
        dist(static_cast<std::size_t>(q), static_cast<std::size_t>(r)) = l;
        next(static_cast<std::size_t>(q), static_cast<std::size_t>(r)) = r;
        hops(static_cast<std::size_t>(q), static_cast<std::size_t>(r)) = 1;
      }
    }
  }
  // Floyd-Warshall with exact cost comparisons.  An epsilon-strict test
  // here would silently keep a stale route when a genuinely shorter one
  // is within the tolerance, making route choice depend on accumulation
  // order.  Equal-cost routes are broken explicitly and deterministically:
  // fewer hops first (store-and-forward latency grows with the hop
  // count), then the smallest next hop.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == k || !std::isfinite(dist(i, k))) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || j == k || !std::isfinite(dist(k, j))) continue;
        const double via = dist(i, k) + dist(k, j);
        const int via_hops = hops(i, k) + hops(k, j);
        const bool improves =
            via < dist(i, j) ||
            (via == dist(i, j) &&
             (via_hops < hops(i, j) ||
              (via_hops == hops(i, j) && next(i, k) < next(i, j))));
        if (improves) {
          dist(i, j) = via;
          hops(i, j) = via_hops;
          next(i, j) = next(i, k);
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      OP_REQUIRE(std::isfinite(dist(i, j)) ||
                     !linked(platform, static_cast<ProcId>(i),
                             static_cast<ProcId>(j)),
                 "the cost of the route P" << i << " -> P" << j
                                           << " overflows a double");
      OP_REQUIRE(std::isfinite(dist(i, j)),
                 "network is disconnected: no route P" << i << " -> P" << j);
    }
  }
  return RoutingTable(p, std::move(next));
}

RoutingTable RoutingTable::from_tables(int p, Matrix<int> next) {
  const auto n = static_cast<std::size_t>(p);
  OP_REQUIRE(p > 0, "need at least one processor");
  OP_REQUIRE(next.rows() == n && next.cols() == n,
             "table shape does not match the processor count");
  return RoutingTable(p, std::move(next));
}

std::vector<ProcId> RoutingTable::path(ProcId from, ProcId to) const {
  std::vector<ProcId> out;
  path_into(from, to, out);
  return out;
}

void RoutingTable::path_into(ProcId from, ProcId to,
                             std::vector<ProcId>& out) const {
  OP_REQUIRE(from >= 0 && from < p_ && to >= 0 && to < p_,
             "processor out of range");
  out.clear();
  out.push_back(from);
  ProcId cur = from;
  while (cur != to) {
    // A loop-free path visits each processor at most once, so a valid
    // route has at most p_ entries; checked *before* pushing so a cyclic
    // table can never emit more than p_ hops.
    OP_ASSERT(out.size() < static_cast<std::size_t>(p_),
              "routing loop detected");
    cur = next_(static_cast<std::size_t>(cur), static_cast<std::size_t>(to));
    OP_ASSERT(cur >= 0, "routing table has a hole");
    out.push_back(cur);
  }
}

RouteCosts fold_route_costs(const RoutingTable& routing,
                            const Platform& platform) {
  OP_REQUIRE(routing.num_processors() == platform.num_processors(),
             "routing table does not match the platform");
  const auto np = static_cast<std::size_t>(platform.num_processors());
  RouteCosts costs{Matrix<double>(np, np, kNoLink),
                   Matrix<double>(np, np, kNoLink)};
  double* const last = costs.last_hop.data();
  double* const route = costs.route.data();
  const double* const link = platform.link_matrix().data();
  const int* const next = routing.next_hops().data();
  const int* const order = routing.route_order().data();
  for (std::size_t j = 0; j < np; ++j) {
    last[j * np + j] = 0.0;
    route[j * np + j] = 0.0;
    for (std::size_t k = 1; k < np && order[j * np + k] >= 0; ++k) {
      const auto i = static_cast<std::size_t>(order[j * np + k]);
      const auto hop = static_cast<std::size_t>(next[i * np + j]);
      const double cost = link[i * np + hop];
      last[i * np + j] = hop == j ? cost : last[hop * np + j];
      route[i * np + j] = cost + route[hop * np + j];
    }
  }
  return costs;
}

namespace {

/// Node-count ceiling for the parameterized structured topologies.  The
/// link, next-hop and route-order tables are all p x p, so the footprint
/// grows with the SQUARE of the node count: 2048 nodes ~ 64 MB of tables,
/// which is the most a sweep axis can reasonably want; "mesh9999x9999"
/// must fail fast with this error instead of dying in a ~2 TB allocation.
constexpr long long kMaxTopologyNodes = 2048;

/// True when the route from `from` to `to` reaches `to` within p hops
/// and crosses only existing links.
bool route_linked(const RoutingTable& routing, const Platform& platform,
                  ProcId from, ProcId to) {
  const int p = routing.num_processors();
  ProcId cur = from;
  for (int hops = 0; cur != to; ++hops) {
    const int hop = routing.next_hops()(static_cast<std::size_t>(cur),
                                        static_cast<std::size_t>(to));
    if (hops == p || hop < 0 || hop >= p ||
        !std::isfinite(platform.link(cur, hop))) {
      return false;
    }
    cur = hop;
  }
  return true;
}

/// Wraps a structural policy's next-hop table and checks it with one
/// fold over the platform's links: every route must end at its
/// destination and cross only existing links, so every route cost comes
/// out finite.  A route that does both and still sums to +inf overflows
/// a double, which huge link costs in the input can cause; any other
/// failure is a bug in the builder, not in its input.
RoutingTable checked_structural_table(const Platform& platform,
                                      Matrix<int> next) {
  RoutingTable routing =
      RoutingTable::from_tables(platform.num_processors(), std::move(next));
  const Matrix<double> route = fold_route_costs(routing, platform).route;
  for (std::size_t i = 0; i < route.rows(); ++i) {
    for (std::size_t j = 0; j < route.cols(); ++j) {
      if (std::isfinite(route(i, j))) continue;
      OP_REQUIRE(!route_linked(routing, platform, static_cast<ProcId>(i),
                               static_cast<ProcId>(j)),
                 "the cost of the route P" << i << " -> P" << j
                                           << " overflows a double");
      OP_ASSERT(false,
                "structural routing table has a hole, a loop or a missing "
                "link");
    }
  }
  return routing;
}

struct TopologyDims {
  int a = 0;
  int b = 0;
};

bool parse_positive_int(const std::string& text, int& out) {
  if (text.empty() || text.size() > 7) return false;
  int value = 0;
  for (const char ch : text) {
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + (ch - '0');
  }
  if (value < 1) return false;
  out = value;
  return true;
}

/// Parses "<prefix><A>x<B>" (e.g. "mesh3x3").  Returns false when `name`
/// does not start with `prefix`; throws on a malformed suffix so a typo
/// like "mesh3" reports the expected pattern instead of "unknown".
bool parse_dims(const std::string& name, const std::string& prefix,
                TopologyDims& out) {
  if (!name.starts_with(prefix)) return false;
  const std::string rest = name.substr(prefix.size());
  const std::size_t x = rest.find('x');
  const bool ok = x != std::string::npos &&
                  parse_positive_int(rest.substr(0, x), out.a) &&
                  parse_positive_int(rest.substr(x + 1), out.b);
  OP_REQUIRE(ok, "malformed dimensions in topology '"
                     << name << "'; expected " << prefix
                     << "<A>x<B> with positive integers");
  return true;
}

/// (arity^(levels+1) - 1) / (arity - 1), guarded against runaway sizes.
long long fat_tree_node_count(int levels, int arity) {
  long long total = 0;
  long long width = 1;
  for (int k = 0; k <= levels; ++k) {
    total += width;
    OP_REQUIRE(total <= kMaxTopologyNodes,
               "fat tree exceeds " << kMaxTopologyNodes << " nodes");
    width *= arity;
  }
  return total;
}

/// The structured names fix the processor count; the caller's cycle
/// times are recycled cyclically to that length.
std::vector<double> recycle_cycles(const std::vector<double>& cycle,
                                   std::size_t n) {
  OP_REQUIRE(!cycle.empty(), "need at least one cycle time");
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = cycle[i % cycle.size()];
  return out;
}

/// Parsed form of a topology name with its ':' suffixes; the single
/// source of truth shared by make_topology_platform and
/// validate_topology_name, so the cheap up-front gate and the builder
/// can never disagree on a verdict.
struct TopologySpec {
  enum class Kind { kRing, kStar, kLine, kRandom, kMesh, kTorus, kFatTree };
  /// How the next-hop table is built (see make_topology_platform): the
  /// structural policies, or shortest weighted paths, which the
  /// unstructured names always use.
  enum class Policy {
    kDimensionOrdered,
    kAlternating,
    kUpDown,
    kWeightedShortest
  };
  Kind kind = Kind::kRing;
  TopologyDims dims;     ///< rows x cols / levels x arity (structured only)
  std::size_t nodes = 0;  ///< processor count (structured only)
  double jitter = 0.0;   ///< :het<A> amplitude (0 = uniform)
  double hot = 0.0;      ///< :hot<P> probability (0 = no hotspots)
  double aniso = 1.0;    ///< :aniso<F> column-link factor (1 = isotropic)
  /// ':aniso1' is legal and equals the sentinel, so presence needs its
  /// own flag for the duplicate-suffix check.
  bool has_aniso = false;
  bool has_policy = false;
  Policy policy = Policy::kWeightedShortest;

  [[nodiscard]] bool structured() const {
    return kind == Kind::kMesh || kind == Kind::kTorus ||
           kind == Kind::kFatTree;
  }
  [[nodiscard]] bool mesh_like() const {
    return kind == Kind::kMesh || kind == Kind::kTorus;
  }
  /// Whether a cost suffix reprices the links.  ':aniso1' does not: it
  /// equals the neutral factor.
  [[nodiscard]] bool priced() const {
    return jitter > 0.0 || hot > 0.0 || aniso != 1.0;
  }
};

/// Strictly parses a positive finite double covering the whole string
/// ("0.5", "2", "1e-1"); rejects empty/trailing garbage/inf/nan.
bool parse_positive_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  if (!(value > 0.0) || !std::isfinite(value)) return false;
  out = value;
  return true;
}

TopologySpec parse_topology_spec(const std::string& topology) {
  // Split "<base>[:<suffix>]..." -- the base names the shape, the
  // suffixes add link heterogeneity and a routing policy.
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = topology.find(':', start);
    tokens.push_back(topology.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  const std::string& base = tokens.front();

  TopologySpec spec;
  if (base == "ring") {
    spec.kind = TopologySpec::Kind::kRing;
  } else if (base == "star") {
    spec.kind = TopologySpec::Kind::kStar;
  } else if (base == "line") {
    spec.kind = TopologySpec::Kind::kLine;
  } else if (base == "random") {
    spec.kind = TopologySpec::Kind::kRandom;
  } else if (parse_dims(base, "mesh", spec.dims)) {
    spec.kind = TopologySpec::Kind::kMesh;
    spec.policy = TopologySpec::Policy::kDimensionOrdered;
  } else if (parse_dims(base, "torus", spec.dims)) {
    spec.kind = TopologySpec::Kind::kTorus;
    spec.policy = TopologySpec::Policy::kDimensionOrdered;
  } else if (parse_dims(base, "fattree", spec.dims)) {
    spec.kind = TopologySpec::Kind::kFatTree;
    spec.policy = TopologySpec::Policy::kUpDown;
  } else {
    OP_REQUIRE(false, "unknown topology '" << topology
                                           << "'; known: "
                                           << known_topology_names());
  }

  // Shape sanity (the cap must run before any node-count-sized
  // allocation, so it lives here rather than in the builders alone).
  if (spec.mesh_like()) {
    const long long nodes = static_cast<long long>(spec.dims.a) * spec.dims.b;
    OP_REQUIRE(nodes >= 2, "'" << base << "' needs at least two processors");
    OP_REQUIRE(nodes <= kMaxTopologyNodes,
               "'" << base << "' exceeds " << kMaxTopologyNodes << " nodes");
    spec.nodes = static_cast<std::size_t>(nodes);
  } else if (spec.kind == TopologySpec::Kind::kFatTree) {
    OP_REQUIRE(spec.dims.b >= 2,
               "'" << base << "' needs an arity of at least 2");
    spec.nodes = static_cast<std::size_t>(
        fat_tree_node_count(spec.dims.a, spec.dims.b));  // throws over the cap
  }

  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    OP_REQUIRE(spec.structured(),
               "topology '" << base << "' does not take ':' suffixes; "
                            << "heterogeneity/policy axes need a "
                               "mesh/torus/fattree name");
    OP_REQUIRE(!tok.empty(), "empty suffix in topology '" << topology << "'");
    if (tok == "xy" || tok == "alt" || tok == "updown" || tok == "swp") {
      OP_REQUIRE(!spec.has_policy, "duplicate routing policy suffix ':"
                                       << tok << "' in '" << topology << "'");
      spec.has_policy = true;
      using Policy = TopologySpec::Policy;
      if (tok == "xy") {
        spec.policy = Policy::kDimensionOrdered;
      } else if (tok == "alt") {
        spec.policy = Policy::kAlternating;
      } else if (tok == "updown") {
        spec.policy = Policy::kUpDown;
      } else {
        spec.policy = Policy::kWeightedShortest;
      }
      const bool compatible =
          spec.policy == Policy::kWeightedShortest ||
          (spec.policy == Policy::kUpDown
               ? spec.kind == TopologySpec::Kind::kFatTree
               : spec.mesh_like());
      OP_REQUIRE(compatible, "policy ':" << tok << "' does not apply to '"
                                         << base
                                         << "' (xy/alt need a mesh/torus, "
                                            "updown a fattree)");
    } else if (tok.starts_with("het")) {
      OP_REQUIRE(spec.jitter == 0.0, "duplicate ':het' suffix in '"
                                         << topology << "'");
      double a = 0.0;
      OP_REQUIRE(parse_positive_double(tok.substr(3), a) && a < 1.0,
                 "malformed suffix ':" << tok << "' in '" << topology
                                       << "'; expected :het<A> with A in "
                                          "(0, 1)");
      spec.jitter = a;
    } else if (tok.starts_with("hot")) {
      OP_REQUIRE(spec.hot == 0.0, "duplicate ':hot' suffix in '" << topology
                                                                 << "'");
      double p = 0.0;
      OP_REQUIRE(parse_positive_double(tok.substr(3), p) && p <= 1.0,
                 "malformed suffix ':" << tok << "' in '" << topology
                                       << "'; expected :hot<P> with P in "
                                          "(0, 1]");
      spec.hot = p;
    } else if (tok.starts_with("aniso")) {
      OP_REQUIRE(spec.mesh_like(),
                 "':aniso' needs the two dimensions of a mesh/torus, not '"
                     << base << "'");
      OP_REQUIRE(!spec.has_aniso, "duplicate ':aniso' suffix in '"
                                      << topology << "'");
      spec.has_aniso = true;
      double f = 0.0;
      OP_REQUIRE(parse_positive_double(tok.substr(5), f),
                 "malformed suffix ':" << tok << "' in '" << topology
                                       << "'; expected :aniso<F> with "
                                          "F > 0");
      spec.aniso = f;
    } else {
      OP_REQUIRE(false, "unknown suffix ':"
                            << tok << "' in topology '" << topology
                            << "'; suffixes: het<A>, hot<P>, aniso<F>, and "
                               "a policy xy|alt|swp|updown");
    }
  }
  return spec;
}

/// One SplitMix64 draw keyed by (seed, canonical endpoint pair): every
/// link gets its own independent stream position, so costs are a pure
/// function of the endpoints regardless of link enumeration order.
double edge_uniform01(std::uint64_t seed, ProcId u, ProcId v) {
  const auto a = static_cast<std::uint64_t>(u < v ? u : v);
  const auto b = static_cast<std::uint64_t>(u < v ? v : u);
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL +
                 b * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL);
  return rng.uniform01();
}

/// Salts the ':hot' draw, so a link's hotspot toss is independent of its
/// ':het' draw under the same topology seed.
constexpr std::uint64_t kHotSalt = 0xD1B54A32D192ED03ULL;

/// Per-item cost of the physical link u <-> v of dimension `dim` (1 =
/// column links): `base` under the cost suffixes, in the fixed order
/// het, hot, aniso.  A repriced cost must stay a valid link cost.
double suffixed_cost(const TopologySpec& spec, std::uint64_t seed, ProcId u,
                     ProcId v, int dim, double base) {
  if (!spec.priced()) return base;
  double c = base;
  if (spec.jitter > 0.0) {
    c = c * (1.0 - spec.jitter +
             2.0 * spec.jitter * edge_uniform01(seed, u, v));
  }
  if (spec.hot > 0.0 && edge_uniform01(seed ^ kHotSalt, u, v) < spec.hot) {
    c = c * 8.0;
  }
  if (dim == 1) c = c * spec.aniso;
  OP_REQUIRE(c > 0.0 && std::isfinite(c),
             "link cost generator returned " << c << " for link P" << u
                                             << " <-> P" << v
                                             << "; costs must be positive "
                                                "and finite");
  return c;
}

/// Ring, star or line links, each at `link`: every processor i > 0
/// links to the hub 0 on a star and to i - 1 otherwise; a ring also
/// links the last processor to the first.
void add_uniform_links(TopologySpec::Kind kind, double link,
                       Matrix<double>& m) {
  const auto connect = [&](std::size_t u, std::size_t v) {
    m(u, v) = link;
    m(v, u) = link;
  };
  const std::size_t n = m.rows();
  for (std::size_t i = 1; i < n; ++i) {
    connect(i, kind == TopologySpec::Kind::kStar ? 0 : i - 1);
  }
  if (kind == TopologySpec::Kind::kRing) connect(n - 1, 0);
}

/// Random connected network: a seeded random spanning tree (so every
/// pair is reachable), then each remaining pair with probability 0.35;
/// every link costs U[0.5, 1.5) x link.
void add_random_links(double link, std::uint64_t seed, Matrix<double>& m) {
  const double lo = 0.5 * link;
  const double hi = 1.5 * link;
  OP_REQUIRE(lo > 0.0 && std::isfinite(hi),
             "link cost range must be positive and finite");
  const std::size_t n = m.rows();
  SplitMix64 rng(seed * 0x2545F4914F6CDD1DULL + 0x9E3779B97F4A7C15ULL);
  // Random spanning tree first (connectivity), extra edges second.
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t parent = rng.below(i);
    const double cost = rng.uniform(lo, hi);
    m(i, parent) = cost;
    m(parent, i) = cost;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Always consume one draw per pair so the topology of edge (i, j)
      // does not shift every later cost when the spanning tree changes.
      const double toss = rng.uniform01();
      if (std::isfinite(m(i, j)) || toss >= 0.35) continue;
      const double cost = rng.uniform(lo, hi);
      m(i, j) = cost;
      m(j, i) = cost;
    }
  }
}

/// Row (dimension-0) and column (dimension-1) links of a mesh, plus a
/// torus's wrap-around links, each priced through suffixed_cost.
void add_mesh_links(const TopologySpec& spec, double link, std::uint64_t seed,
                    Matrix<double>& m) {
  const int rows = spec.dims.a;
  const int cols = spec.dims.b;
  const bool wrap = spec.kind == TopologySpec::Kind::kTorus;
  const auto id = [cols](int r, int c) { return r * cols + c; };
  const auto connect = [&](int u, int v, int dim) {
    const double c = suffixed_cost(spec, seed, u, v, dim, link);
    m(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) = c;
    m(static_cast<std::size_t>(v), static_cast<std::size_t>(u)) = c;
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) connect(id(r, c), id(r, c + 1), 0);
      if (r + 1 < rows) connect(id(r, c), id(r + 1, c), 1);
    }
    // Wrap-around links only make a dimension of size >= 3 rounder; for
    // size 2 the wrap edge is the direct edge that already exists.
    if (wrap && cols >= 3) connect(id(r, cols - 1), id(r, 0), 0);
  }
  if (wrap && rows >= 3) {
    for (int c = 0; c < cols; ++c) connect(id(rows - 1, c), id(0, c), 1);
  }
}

/// The dimension-ordered or alternating next hops of a mesh or torus.
/// kDimensionOrdered corrects the column first, then the row;
/// kAlternating spreads load by letting each forwarding node pick its own
/// dimension order by id parity (even = column first, odd = row first)
/// -- every hop still shortens the remaining Manhattan/ring distance by
/// one, so routes stay loop-free and hop-minimal whatever mix of
/// parities a path crosses.  On a torus each dimension takes the shorter
/// way around; exact antipodes tie toward the increasing index, so
/// routes are a pure function of the coordinates.
Matrix<int> mesh_next_hops(const TopologySpec& spec) {
  const int rows = spec.dims.a;
  const int cols = spec.dims.b;
  const bool wrap = spec.kind == TopologySpec::Kind::kTorus;
  const auto id = [cols](int r, int c) { return r * cols + c; };
  const auto step = [wrap](int from, int to, int size) {
    if (!wrap) return from + (to > from ? 1 : -1);
    const int fwd = ((to - from) % size + size) % size;
    const int back = size - fwd;
    return fwd <= back ? (from + 1) % size : (from + size - 1) % size;
  };
  Matrix<int> next(spec.nodes, spec.nodes, -1);
  for (int r1 = 0; r1 < rows; ++r1) {
    for (int c1 = 0; c1 < cols; ++c1) {
      for (int r2 = 0; r2 < rows; ++r2) {
        for (int c2 = 0; c2 < cols; ++c2) {
          const int u = id(r1, c1);
          const int v = id(r2, c2);
          const bool column_first =
              spec.policy == TopologySpec::Policy::kDimensionOrdered ||
              u % 2 == 0;
          int hop = u;
          if (c1 != c2 && (column_first || r1 == r2)) {
            hop = id(r1, step(c1, c2, cols));
          } else if (r1 != r2) {
            hop = id(step(r1, r2, rows), c1);
          }
          next(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) = hop;
        }
      }
    }
  }
  return next;
}

/// Depth and parent (-1 for the root) of every fat-tree node, in
/// breadth-first id order: level k occupies [offset_k, offset_k +
/// arity^k).
struct FatTree {
  std::vector<int> depth;
  std::vector<int> parent;
};

FatTree fat_tree_shape(const TopologySpec& spec) {
  const int levels = spec.dims.a;
  const int arity = spec.dims.b;
  FatTree tree{std::vector<int>(spec.nodes, 0),
               std::vector<int>(spec.nodes, -1)};
  int offset = 0;
  int width = 1;
  for (int k = 0; k <= levels; ++k) {
    for (int i = 0; i < width; ++i) {
      const auto node = static_cast<std::size_t>(offset + i);
      tree.depth[node] = k;
      if (k > 0) tree.parent[node] = offset - (width / arity) + i / arity;
    }
    offset += width;
    width *= arity;
  }
  return tree;
}

/// Tree edges, tapering toward the root: the edge above a depth-d node
/// costs link / 2^(levels - d) before the cost suffixes; tree edges are
/// all dimension 0.
void add_fat_tree_links(const TopologySpec& spec, const FatTree& tree,
                        double link, std::uint64_t seed, Matrix<double>& m) {
  for (std::size_t u = 1; u < spec.nodes; ++u) {
    const double base = link / std::pow(2.0, spec.dims.a - tree.depth[u]);
    const auto v = static_cast<std::size_t>(tree.parent[u]);
    const double c = suffixed_cost(spec, seed, static_cast<ProcId>(u),
                                   tree.parent[u], /*dim=*/0, base);
    m(u, v) = c;
    m(v, u) = c;
  }
}

/// Up-down next hops: climb to the lowest common ancestor, then descend
/// -- the unique tree path.
Matrix<int> up_down_next_hops(const FatTree& tree) {
  const auto at = [](int v) { return static_cast<std::size_t>(v); };
  const auto ancestor_at = [&](int v, int d) {
    while (tree.depth[at(v)] > d) v = tree.parent[at(v)];
    return v;
  };
  const int p = static_cast<int>(tree.depth.size());
  Matrix<int> next(at(p), at(p), -1);
  for (int u = 0; u < p; ++u) {
    for (int v = 0; v < p; ++v) {
      const int du = tree.depth[at(u)];
      int hop;
      if (u == v) {
        hop = u;
      } else if (tree.depth[at(v)] > du && ancestor_at(v, du) == u) {
        hop = ancestor_at(v, du + 1);  // v lives under u: step down
      } else {
        hop = tree.parent[at(u)];  // step up toward the LCA
      }
      next(at(u), at(v)) = hop;
    }
  }
  return next;
}

}  // namespace

RoutedPlatform make_topology_platform(const std::string& topology,
                                      std::vector<double> cycle_times,
                                      double link, std::uint64_t seed) {
  // parse_topology_spec validates the name -- base, dimensions, the node
  // cap (which must run before any node-count-sized allocation), the
  // suffix grammar and which policies a shape takes -- so nothing below
  // checks those again.
  const TopologySpec spec = parse_topology_spec(topology);
  using Kind = TopologySpec::Kind;
  if (spec.structured()) {
    cycle_times = recycle_cycles(cycle_times, spec.nodes);
  } else {
    // An unstructured name takes no suffixes, so it is the bare shape.
    OP_REQUIRE(cycle_times.size() >= 2,
               "a " << topology
                    << (spec.kind == Kind::kRandom ? " network" : "")
                    << " needs at least two processors");
  }
  // Random checks its cost range, U[0.5, 1.5) x link, in its place.
  OP_REQUIRE(spec.kind == Kind::kRandom || (link > 0.0 && std::isfinite(link)),
             "link cost must be finite");

  const std::size_t n = cycle_times.size();
  const bool structural =
      spec.policy != TopologySpec::Policy::kWeightedShortest;
  Matrix<double> links(n, n, kNoLink);
  for (std::size_t i = 0; i < n; ++i) links(i, i) = 0.0;
  Matrix<int> next;  // the structural policies' next hops
  if (spec.mesh_like()) {
    add_mesh_links(spec, link, seed, links);
    if (structural) next = mesh_next_hops(spec);
  } else if (spec.kind == Kind::kFatTree) {
    const FatTree tree = fat_tree_shape(spec);
    add_fat_tree_links(spec, tree, link, seed, links);
    if (structural) next = up_down_next_hops(tree);
  } else if (spec.kind == Kind::kRandom) {
    add_random_links(link, seed, links);
  } else {
    add_uniform_links(spec.kind, link, links);
  }

  // Ring, star, line, random and every ':swp' network route on shortest
  // paths over the links as priced; the others check their structural
  // table with one fold.
  Platform platform(std::move(cycle_times), std::move(links));
  RoutingTable routing =
      structural ? checked_structural_table(platform, std::move(next))
                 : RoutingTable::shortest_paths(platform);
  return {std::move(platform), std::move(routing)};
}

const std::string& known_topology_names() {
  static const std::string names =
      "ring, star, line, random, mesh<R>x<C>, torus<R>x<C>, "
      "fattree<L>x<A>; structured names take ':' suffixes -- "
      ":het<A> (link jitter, 0<A<1), :hot<P> (hotspot links, 0<P<=1), "
      ":aniso<F> (column-link factor, mesh/torus), and a routing policy "
      ":xy|:alt (mesh/torus), :updown (fattree), :swp (cost-aware, any) "
      "-- e.g. mesh4x4:het0.5:swp";
  return names;
}

void validate_topology_name(const std::string& topology) {
  // Same parser as make_topology_platform, so the cheap gate and the
  // builder agree verdict for verdict; nothing is allocated or built.
  (void)parse_topology_spec(topology);
}

}  // namespace oneport

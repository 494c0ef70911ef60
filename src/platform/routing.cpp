#include "platform/routing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace oneport {

namespace linkcost {

namespace {

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

}  // namespace

LinkCostFn jitter(double amplitude, std::uint64_t seed) {
  OP_REQUIRE(amplitude > 0.0 && amplitude < 1.0,
             "jitter amplitude must be in (0, 1), got " << amplitude);
  return [amplitude, seed](ProcId u, ProcId v, int /*dim*/, double base) {
    return base * (1.0 - amplitude +
                   2.0 * amplitude * edge_uniform01(seed, u, v));
  };
}

LinkCostFn hotspot(double probability, double factor, std::uint64_t seed) {
  OP_REQUIRE(probability > 0.0 && probability <= 1.0,
             "hotspot probability must be in (0, 1], got " << probability);
  OP_REQUIRE(factor > 0.0 && std::isfinite(factor),
             "hotspot factor must be positive and finite");
  // Salted so a link's hotspot toss is independent of its jitter draw
  // when both suffixes share the topology seed.
  const std::uint64_t salted = seed ^ 0xD1B54A32D192ED03ULL;
  return [probability, factor, salted](ProcId u, ProcId v, int /*dim*/,
                                       double base) {
    return edge_uniform01(salted, u, v) < probability ? base * factor : base;
  };
}

LinkCostFn anisotropy(double factor) {
  OP_REQUIRE(factor > 0.0 && std::isfinite(factor),
             "anisotropy factor must be positive and finite");
  return [factor](ProcId /*u*/, ProcId /*v*/, int dim, double base) {
    return dim == 1 ? base * factor : base;
  };
}

LinkCostFn compose(std::vector<LinkCostFn> fns) {
  return [fns = std::move(fns)](ProcId u, ProcId v, int dim, double base) {
    for (const LinkCostFn& fn : fns) base = fn(u, v, dim, base);
    return base;
  };
}

}  // namespace linkcost

const char* routing_policy_name(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kDimensionOrdered:
      return "xy";
    case RoutingPolicy::kAlternating:
      return "alt";
    case RoutingPolicy::kUpDown:
      return "updown";
    case RoutingPolicy::kWeightedShortest:
      return "swp";
  }
  return "?";
}

RoutingTable::RoutingTable(int p, Matrix<double> dist, Matrix<int> next)
    : p_(p),
      dist_(std::move(dist)),
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
      OP_REQUIRE(std::isfinite(dist(i, j)),
                 "network is disconnected: no route P" << i << " -> P" << j);
    }
  }
  return RoutingTable(p, std::move(dist), std::move(next));
}

RoutingTable RoutingTable::from_tables(int p, Matrix<double> dist,
                                       Matrix<int> next) {
  const auto n = static_cast<std::size_t>(p);
  OP_REQUIRE(p > 0, "need at least one processor");
  OP_REQUIRE(dist.rows() == n && dist.cols() == n && next.rows() == n &&
                 next.cols() == n,
             "table shape does not match the processor count");
  return RoutingTable(p, std::move(dist), std::move(next));
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

bool RoutingTable::direct(ProcId from, ProcId to) const {
  OP_REQUIRE(from >= 0 && from < p_ && to >= 0 && to < p_,
             "processor out of range");
  if (from == to) return true;
  return next_(static_cast<std::size_t>(from), static_cast<std::size_t>(to)) ==
         to;
}

double RoutingTable::distance(ProcId from, ProcId to) const {
  OP_REQUIRE(from >= 0 && from < p_ && to >= 0 && to < p_,
             "processor out of range");
  return dist_(static_cast<std::size_t>(from), static_cast<std::size_t>(to));
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

RoutedPlatform make_ring_platform(std::vector<double> cycle_times,
                                  double link) {
  const auto n = cycle_times.size();
  OP_REQUIRE(n >= 2, "a ring needs at least two processors");
  OP_REQUIRE(link > 0.0 && std::isfinite(link), "link cost must be finite");
  Matrix<double> m(n, n, kNoLink);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 0.0;
    m(i, (i + 1) % n) = link;
    m((i + 1) % n, i) = link;
  }
  Platform platform(std::move(cycle_times), std::move(m));
  RoutingTable routing = RoutingTable::shortest_paths(platform);
  return {std::move(platform), std::move(routing)};
}

RoutedPlatform make_star_platform(std::vector<double> cycle_times,
                                  double link) {
  const auto n = cycle_times.size();
  OP_REQUIRE(n >= 2, "a star needs at least two processors");
  OP_REQUIRE(link > 0.0 && std::isfinite(link), "link cost must be finite");
  Matrix<double> m(n, n, kNoLink);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 0.0;
    if (i != 0) {
      m(0, i) = link;
      m(i, 0) = link;
    }
  }
  Platform platform(std::move(cycle_times), std::move(m));
  RoutingTable routing = RoutingTable::shortest_paths(platform);
  return {std::move(platform), std::move(routing)};
}

RoutedPlatform make_line_platform(std::vector<double> cycle_times,
                                  double link) {
  const auto n = cycle_times.size();
  OP_REQUIRE(n >= 2, "a line needs at least two processors");
  OP_REQUIRE(link > 0.0 && std::isfinite(link), "link cost must be finite");
  Matrix<double> m(n, n, kNoLink);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 0.0;
    if (i + 1 < n) {
      m(i, i + 1) = link;
      m(i + 1, i) = link;
    }
  }
  Platform platform(std::move(cycle_times), std::move(m));
  RoutingTable routing = RoutingTable::shortest_paths(platform);
  return {std::move(platform), std::move(routing)};
}

RoutedPlatform make_random_connected_platform(std::vector<double> cycle_times,
                                              double edge_probability,
                                              std::uint64_t seed,
                                              double link_lo, double link_hi) {
  const auto n = cycle_times.size();
  OP_REQUIRE(n >= 2, "a random network needs at least two processors");
  OP_REQUIRE(edge_probability >= 0.0 && edge_probability <= 1.0,
             "edge probability must be in [0, 1]");
  OP_REQUIRE(link_lo > 0.0 && link_hi >= link_lo && std::isfinite(link_hi),
             "link cost range must be positive and finite");
  SplitMix64 rng(seed * 0x2545F4914F6CDD1DULL + 0x9E3779B97F4A7C15ULL);
  const auto draw = [&] {
    return link_lo == link_hi ? link_lo : rng.uniform(link_lo, link_hi);
  };
  Matrix<double> m(n, n, kNoLink);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 0.0;
  // Random spanning tree first (connectivity), extra edges second.
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t parent = rng.below(i);
    const double cost = draw();
    m(i, parent) = cost;
    m(parent, i) = cost;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Always consume one draw per pair so the topology of edge (i, j)
      // does not shift every later cost when the spanning tree changes.
      const double toss = rng.uniform01();
      if (std::isfinite(m(i, j)) || toss >= edge_probability) continue;
      const double cost = draw();
      m(i, j) = cost;
      m(j, i) = cost;
    }
  }
  Platform platform(std::move(cycle_times), std::move(m));
  RoutingTable routing = RoutingTable::shortest_paths(platform);
  return {std::move(platform), std::move(routing)};
}

namespace {

/// Node-count ceiling for the parameterized structured topologies.  The
/// link/next/dist tables are all p x p, so the footprint grows with the
/// SQUARE of the node count: 2048 nodes ~ 80 MB of tables, which is the
/// most a sweep axis can reasonably want; "mesh9999x9999" must fail
/// fast with this error instead of dying in a ~2 TB allocation.
constexpr long long kMaxTopologyNodes = 2048;

/// Per-item distance for every pair obtained by *walking* the next-hop
/// table over the platform's direct links.  Computing dist from the hop
/// chain (rather than independently) keeps the table self-consistent by
/// construction for any routing policy, so the hop-by-hop invariant
/// checkers and the distance-based finish lower bound agree exactly.
Matrix<double> dist_from_next(const Platform& platform,
                              const Matrix<int>& next) {
  const int p = platform.num_processors();
  const auto n = static_cast<std::size_t>(p);
  Matrix<double> dist(n, n, 0.0);
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < p; ++j) {
      double cost = 0.0;
      int cur = i;
      int hops = 0;
      while (cur != j) {
        OP_ASSERT(++hops < p, "routing loop while building distances");
        const int nxt =
            next(static_cast<std::size_t>(cur), static_cast<std::size_t>(j));
        OP_ASSERT(nxt >= 0 && nxt < p, "next-hop table has a hole");
        const double hop = platform.link(cur, nxt);
        OP_ASSERT(std::isfinite(hop), "routed hop crosses a missing link");
        cost += hop;
        cur = nxt;
      }
      dist(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) = cost;
    }
  }
  return dist;
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
  Kind kind = Kind::kRing;
  TopologyDims dims;     ///< rows x cols / levels x arity (structured only)
  double jitter = 0.0;   ///< :het<A> amplitude (0 = uniform)
  double hot = 0.0;      ///< :hot<P> probability (0 = no hotspots)
  double aniso = 1.0;    ///< :aniso<F> column-link factor (1 = isotropic)
  /// ':aniso1' is legal and equals the sentinel, so presence needs its
  /// own flag for the duplicate-suffix check.
  bool has_aniso = false;
  bool has_policy = false;
  RoutingPolicy policy = RoutingPolicy::kDimensionOrdered;

  [[nodiscard]] bool structured() const {
    return kind == Kind::kMesh || kind == Kind::kTorus ||
           kind == Kind::kFatTree;
  }
  [[nodiscard]] bool mesh_like() const {
    return kind == Kind::kMesh || kind == Kind::kTorus;
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
  } else if (parse_dims(base, "torus", spec.dims)) {
    spec.kind = TopologySpec::Kind::kTorus;
  } else if (parse_dims(base, "fattree", spec.dims)) {
    spec.kind = TopologySpec::Kind::kFatTree;
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
  } else if (spec.kind == TopologySpec::Kind::kFatTree) {
    OP_REQUIRE(spec.dims.b >= 2,
               "'" << base << "' needs an arity of at least 2");
    fat_tree_node_count(spec.dims.a, spec.dims.b);  // throws over the cap
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
      if (tok == "xy") {
        spec.policy = RoutingPolicy::kDimensionOrdered;
      } else if (tok == "alt") {
        spec.policy = RoutingPolicy::kAlternating;
      } else if (tok == "updown") {
        spec.policy = RoutingPolicy::kUpDown;
      } else {
        spec.policy = RoutingPolicy::kWeightedShortest;
      }
      const bool compatible =
          spec.policy == RoutingPolicy::kWeightedShortest ||
          (spec.policy == RoutingPolicy::kUpDown
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

/// Final per-item cost of the physical link (u, v): the generator (when
/// set) transforms the builder's base cost; the result must stay a valid
/// link cost whatever the generator did.
double link_cost(const LinkCostFn& cost, ProcId u, ProcId v, int dim,
                 double base) {
  if (!cost) return base;
  const double c = cost(u < v ? u : v, u < v ? v : u, dim, base);
  OP_REQUIRE(c > 0.0 && std::isfinite(c),
             "link cost generator returned " << c << " for link P" << u
                                             << " <-> P" << v
                                             << "; costs must be positive "
                                                "and finite");
  return c;
}

}  // namespace

RoutedPlatform make_mesh2d_platform(std::vector<double> cycle_times, int rows,
                                    int cols, bool wrap, double link,
                                    const LinkCostFn& cost,
                                    RoutingPolicy policy) {
  OP_REQUIRE(rows >= 1 && cols >= 1, "mesh dimensions must be positive");
  const long long nodes = static_cast<long long>(rows) * cols;
  OP_REQUIRE(nodes >= 2, "a mesh needs at least two processors");
  OP_REQUIRE(nodes <= kMaxTopologyNodes,
             "mesh exceeds " << kMaxTopologyNodes << " nodes");
  OP_REQUIRE(cycle_times.size() == static_cast<std::size_t>(nodes),
             "cycle_times size must equal rows * cols");
  OP_REQUIRE(link > 0.0 && std::isfinite(link), "link cost must be finite");
  OP_REQUIRE(policy != RoutingPolicy::kUpDown,
             "up-down routing needs a tree; meshes take xy, alt, or swp");
  const auto n = static_cast<std::size_t>(nodes);
  const auto id = [cols](int r, int c) { return r * cols + c; };
  const auto at = [](int v) { return static_cast<std::size_t>(v); };

  // Row (dimension-0) and column (dimension-1) links, each priced
  // through the generator so heterogeneous meshes stay a pure function
  // of the endpoints.
  Matrix<double> m(n, n, kNoLink);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 0.0;
  const auto connect = [&](int u, int v, int dim) {
    const double c = link_cost(cost, u, v, dim, link);
    m(at(u), at(v)) = c;
    m(at(v), at(u)) = c;
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

  Platform platform(std::move(cycle_times), std::move(m));
  if (policy == RoutingPolicy::kWeightedShortest) {
    // Cost-aware: Floyd-Warshall over the actual (possibly heterogeneous)
    // link costs, deterministic ties as documented on shortest_paths.
    RoutingTable routing = RoutingTable::shortest_paths(platform);
    return {std::move(platform), std::move(routing)};
  }

  // Structural policies.  kDimensionOrdered corrects the column first,
  // then the row; kAlternating spreads load by letting each forwarding
  // node pick its own dimension order by id parity (even = column
  // first, odd = row first) -- every hop still shortens the remaining
  // Manhattan/ring distance by one, so routes stay loop-free and
  // hop-minimal whatever mix of parities a path crosses.  On a torus
  // each dimension takes the shorter way around; exact antipodes tie
  // toward the increasing index, so routes are a pure function of the
  // coordinates.
  const auto step = [wrap](int from, int to, int size) {
    if (!wrap) return from + (to > from ? 1 : -1);
    const int fwd = ((to - from) % size + size) % size;
    const int back = size - fwd;
    return fwd <= back ? (from + 1) % size : (from + size - 1) % size;
  };
  Matrix<int> next(n, n, -1);
  for (int r1 = 0; r1 < rows; ++r1) {
    for (int c1 = 0; c1 < cols; ++c1) {
      for (int r2 = 0; r2 < rows; ++r2) {
        for (int c2 = 0; c2 < cols; ++c2) {
          const int u = id(r1, c1);
          const int v = id(r2, c2);
          const bool column_first =
              policy == RoutingPolicy::kDimensionOrdered || u % 2 == 0;
          int hop = u;
          if (c1 != c2 && (column_first || r1 == r2)) {
            hop = id(r1, step(c1, c2, cols));
          } else if (r1 != r2) {
            hop = id(step(r1, r2, rows), c1);
          }
          next(at(u), at(v)) = hop;
        }
      }
    }
  }

  Matrix<double> dist = dist_from_next(platform, next);
  RoutingTable routing = RoutingTable::from_tables(
      static_cast<int>(nodes), std::move(dist), std::move(next));
  return {std::move(platform), std::move(routing)};
}

RoutedPlatform make_fat_tree_platform(std::vector<double> cycle_times,
                                      int levels, int arity, double taper,
                                      double link, const LinkCostFn& cost,
                                      RoutingPolicy policy) {
  OP_REQUIRE(levels >= 1, "a fat tree needs at least one level below root");
  OP_REQUIRE(arity >= 2, "fat-tree arity must be at least 2");
  OP_REQUIRE(taper > 0.0 && std::isfinite(taper),
             "taper must be positive and finite");
  OP_REQUIRE(link > 0.0 && std::isfinite(link), "link cost must be finite");
  OP_REQUIRE(policy == RoutingPolicy::kUpDown ||
                 policy == RoutingPolicy::kWeightedShortest,
             "fat trees route up-down or swp; xy/alt need a mesh");
  const int p = static_cast<int>(fat_tree_node_count(levels, arity));
  OP_REQUIRE(cycle_times.size() == static_cast<std::size_t>(p),
             "cycle_times size must equal the fat-tree node count "
             "(arity^(levels+1) - 1) / (arity - 1) = "
                 << p);
  const auto n = static_cast<std::size_t>(p);

  // Breadth-first ids: level k occupies [offset[k], offset[k+1]).
  std::vector<int> depth(n, 0);
  std::vector<int> parent(n, -1);
  {
    int offset = 0;
    int width = 1;
    for (int k = 0; k <= levels; ++k) {
      for (int i = 0; i < width; ++i) {
        const int node = offset + i;
        depth[static_cast<std::size_t>(node)] = k;
        if (k > 0) {
          parent[static_cast<std::size_t>(node)] =
              offset - (width / arity) + i / arity;
        }
      }
      offset += width;
      width *= arity;
    }
  }

  // Links taper toward the root: the edge above a depth-d node costs
  // link / taper^(levels - d), so leaf links cost `link` and every level
  // up is `taper` times fatter.  The generator (when set) transforms the
  // tapered base cost per edge; tree edges are all dimension 0.
  Matrix<double> m(n, n, kNoLink);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 0.0;
  for (int node = 1; node < p; ++node) {
    const double base =
        link / std::pow(taper, levels - depth[static_cast<std::size_t>(node)]);
    const auto u = static_cast<std::size_t>(node);
    const auto v = static_cast<std::size_t>(parent[u]);
    const double c = link_cost(cost, node, parent[u], /*dim=*/0, base);
    m(u, v) = c;
    m(v, u) = c;
  }

  if (policy == RoutingPolicy::kWeightedShortest) {
    // A tree has a unique simple path per pair, so swp picks the same
    // hop sequences as up-down -- but through the cost-aware
    // Floyd-Warshall, exercising the other table-construction path.
    Platform platform(std::move(cycle_times), std::move(m));
    RoutingTable routing = RoutingTable::shortest_paths(platform);
    return {std::move(platform), std::move(routing)};
  }

  // Up-down routing: climb to the lowest common ancestor, then descend
  // -- the unique tree path.
  const auto ancestor_at = [&](int v, int d) {
    while (depth[static_cast<std::size_t>(v)] > d) {
      v = parent[static_cast<std::size_t>(v)];
    }
    return v;
  };
  Matrix<int> next(n, n, -1);
  for (int u = 0; u < p; ++u) {
    for (int v = 0; v < p; ++v) {
      const int du = depth[static_cast<std::size_t>(u)];
      int hop;
      if (u == v) {
        hop = u;
      } else if (depth[static_cast<std::size_t>(v)] > du &&
                 ancestor_at(v, du) == u) {
        hop = ancestor_at(v, du + 1);  // v lives under u: step down
      } else {
        hop = parent[static_cast<std::size_t>(u)];  // step up toward the LCA
      }
      next(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) = hop;
    }
  }

  Platform platform(std::move(cycle_times), std::move(m));
  Matrix<double> dist = dist_from_next(platform, next);
  RoutingTable routing =
      RoutingTable::from_tables(p, std::move(dist), std::move(next));
  return {std::move(platform), std::move(routing)};
}

RoutedPlatform make_topology_platform(const std::string& topology,
                                      std::vector<double> cycle_times,
                                      double link, std::uint64_t seed) {
  // parse_topology_spec validates everything -- base, dimensions, node
  // cap (which must run before any node-count-sized allocation), and the
  // suffix grammar -- so this function only dispatches.
  const TopologySpec spec = parse_topology_spec(topology);
  switch (spec.kind) {
    case TopologySpec::Kind::kRing:
      return make_ring_platform(std::move(cycle_times), link);
    case TopologySpec::Kind::kStar:
      return make_star_platform(std::move(cycle_times), link);
    case TopologySpec::Kind::kLine:
      return make_line_platform(std::move(cycle_times), link);
    case TopologySpec::Kind::kRandom:
      return make_random_connected_platform(std::move(cycle_times),
                                            /*edge_probability=*/0.35, seed,
                                            0.5 * link, 1.5 * link);
    default:
      break;
  }

  // The ':het'/':hot' draws hash the topology seed per edge, so the seed
  // axis distinguishes heterogeneous instances of the same shape (and
  // participates in the process_topology_cache key).
  std::vector<LinkCostFn> fns;
  if (spec.jitter > 0.0) fns.push_back(linkcost::jitter(spec.jitter, seed));
  if (spec.hot > 0.0) {
    fns.push_back(linkcost::hotspot(spec.hot, /*factor=*/8.0, seed));
  }
  if (spec.aniso != 1.0) fns.push_back(linkcost::anisotropy(spec.aniso));
  const LinkCostFn cost = fns.empty()    ? LinkCostFn{}
                          : fns.size() == 1 ? fns.front()
                                            : linkcost::compose(std::move(fns));

  if (spec.mesh_like()) {
    const auto nodes =
        static_cast<std::size_t>(spec.dims.a) *
        static_cast<std::size_t>(spec.dims.b);
    const bool wrap = spec.kind == TopologySpec::Kind::kTorus;
    const RoutingPolicy policy =
        spec.has_policy ? spec.policy : RoutingPolicy::kDimensionOrdered;
    return make_mesh2d_platform(recycle_cycles(cycle_times, nodes),
                                spec.dims.a, spec.dims.b, wrap, link, cost,
                                policy);
  }
  const auto nodes =
      static_cast<std::size_t>(fat_tree_node_count(spec.dims.a, spec.dims.b));
  const RoutingPolicy policy =
      spec.has_policy ? spec.policy : RoutingPolicy::kUpDown;
  return make_fat_tree_platform(recycle_cycles(cycle_times, nodes),
                                spec.dims.a, spec.dims.b, /*taper=*/2.0, link,
                                cost, policy);
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

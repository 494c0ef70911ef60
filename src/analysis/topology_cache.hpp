// The routed-platform cache.
//
// Grid sweeps and the scheduler service resolve the same routed networks
// over and over.  The cache is keyed by (topology name, seed, link, cycle
// times): the first call per key builds the platform and its RoutingTable
// (Floyd-Warshall for the unstructured names and the ':swp' policy,
// XY/alternating/up-down construction for mesh/torus/fattree), and every
// later call -- from any thread -- returns the same immutable instance.
// The full suffixed name is the key's first component and the seed its
// second, so "mesh3x3", "mesh3x3:swp" and "mesh3x3:het0.5" (or one ':het'
// shape under two seeds) never alias; cycle times participate too, so
// sweeps over different base platforms stay distinct.
//
// One mutex guards one map, under a first-insert-wins contract: values
// are built OUTSIDE the lock (construction is exactly the expensive part
// being cached); a first-use race may build a platform twice, but
// `map::emplace` keeps the first insert and every caller -- the losing
// builder included -- receives that winning pointer, so per key there is
// always one canonical immutable instance.  A hit is one map lookup
// under the lock, orders of magnitude cheaper than scheduling even the
// smallest routed point, so the lock is not worth splitting.
//
// Sweeps, benches and every scheduler-service worker share the
// process-wide instance returned by `process_topology_cache()`.  The
// one-instance-per-key contract is pinned by
// tests/concurrency_stress_test.cpp and tests/service_test.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "platform/routing.hpp"
#include "util/annotations.hpp"

namespace oneport::analysis {

/// (topology name, seed, link, cycle times) -> immutable RoutedPlatform.
/// Thread-safe; see the first-insert-wins contract in the header comment.
class TopologyCacheShard {
 public:
  TopologyCacheShard() = default;
  TopologyCacheShard(const TopologyCacheShard&) = delete;
  TopologyCacheShard& operator=(const TopologyCacheShard&) = delete;

  /// Returns the canonical platform for the key, building it (outside
  /// the lock) on first use.
  [[nodiscard]] std::shared_ptr<const RoutedPlatform> get(
      const std::string& topology, const std::vector<double>& cycle_times,
      double link = 1.0, std::uint64_t seed = 1);

  /// Number of cached networks (tests/diagnostics).
  [[nodiscard]] std::size_t size() const;

 private:
  using Key =
      std::tuple<std::string, std::uint64_t, double, std::vector<double>>;

  mutable util::Mutex mutex_;
  std::map<Key, std::shared_ptr<const RoutedPlatform>> entries_
      OP_GUARDED_BY(mutex_);
};

/// The process-wide cache.  Leaked intentionally: cached routing tables
/// must outlive every schedule still pointing into them at
/// static-destruction time.
[[nodiscard]] TopologyCacheShard& process_topology_cache() noexcept;

}  // namespace oneport::analysis

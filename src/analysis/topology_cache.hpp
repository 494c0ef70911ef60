// Sharded routed-platform cache.
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
// A single global lock made every worker serialize even on pure cache
// *hits*, so the cache is split into independently locked shards:
//
//   * `TopologyCacheShard` is the unit of ownership -- one mutex, one
//     map, and the documented first-insert-wins contract: values are
//     built OUTSIDE the lock (construction is exactly the expensive part
//     being cached); a first-use race may build a platform twice, but
//     `map::emplace` keeps the first insert and every caller -- the
//     losing builder included -- receives that winning pointer, so per
//     key there is always one canonical immutable instance.
//   * `ShardedTopologyCache` owns a fixed array of shards.  Callers with
//     an *owned* shard (each scheduler-service worker) go straight to
//     `shard(i)` and never contend with another worker at all; callers
//     without one (the batch sweep path) route by key hash through
//     `get`, which spreads distinct topologies across shards so two
//     workers building different networks no longer serialize.
//
// Shardless callers use the process-wide instance returned by
// `process_topology_cache()`.  The one-instance-per-key contract is
// pinned by tests/concurrency_stress_test.cpp (hash-routed lookups) and
// tests/service_test.cpp (per shard, under concurrent lookups).
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

/// One independently locked cache shard: (topology name, seed, link,
/// cycle times) -> immutable RoutedPlatform.  Thread-safe; see the
/// first-insert-wins contract in the header comment.
class TopologyCacheShard {
 public:
  TopologyCacheShard() = default;
  TopologyCacheShard(const TopologyCacheShard&) = delete;
  TopologyCacheShard& operator=(const TopologyCacheShard&) = delete;

  /// Returns the canonical platform for the key, building it (outside
  /// the shard lock) on first use.
  [[nodiscard]] std::shared_ptr<const RoutedPlatform> get(
      const std::string& topology, const std::vector<double>& cycle_times,
      double link = 1.0, std::uint64_t seed = 1);

  /// Number of cached networks in this shard (tests/diagnostics).
  [[nodiscard]] std::size_t size() const;

 private:
  using Key =
      std::tuple<std::string, std::uint64_t, double, std::vector<double>>;

  mutable util::Mutex mutex_;
  std::map<Key, std::shared_ptr<const RoutedPlatform>> entries_
      OP_GUARDED_BY(mutex_);
};

/// A fixed set of `TopologyCacheShard`s.  Two access patterns:
///   * `shard(i)` -- callers that own a shard (scheduler-service
///     workers) get zero cross-caller lock contention;
///   * `get(...)` -- shardless callers (the batch sweep path) route by
///     key hash, so distinct networks build under distinct locks.
class ShardedTopologyCache {
 public:
  /// `shards` is clamped to at least 1.
  explicit ShardedTopologyCache(std::size_t shards);
  ShardedTopologyCache(const ShardedTopologyCache&) = delete;
  ShardedTopologyCache& operator=(const ShardedTopologyCache&) = delete;

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] TopologyCacheShard& shard(std::size_t i) noexcept {
    return shards_[i % shards_.size()];
  }

  /// Deterministic shard index for a key (exposed so tests can assert
  /// the routing is stable).
  [[nodiscard]] std::size_t shard_for(const std::string& topology,
                                      std::uint64_t seed) const noexcept;

  /// Hash-routed lookup for callers without an owned shard.
  [[nodiscard]] std::shared_ptr<const RoutedPlatform> get(
      const std::string& topology, const std::vector<double>& cycle_times,
      double link = 1.0, std::uint64_t seed = 1);

  /// Total cached networks across shards (tests/diagnostics).
  [[nodiscard]] std::size_t total_entries() const;

 private:
  std::vector<TopologyCacheShard> shards_;
};

/// The process-wide sharded instance for callers without an owned shard
/// (the batch sweep path, benches, tests).  Leaked intentionally: cached
/// routing tables must outlive every schedule still pointing into them
/// at static-destruction time.
[[nodiscard]] ShardedTopologyCache& process_topology_cache() noexcept;

}  // namespace oneport::analysis

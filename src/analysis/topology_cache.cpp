#include "analysis/topology_cache.hpp"

#include <utility>

namespace oneport::analysis {

std::shared_ptr<const RoutedPlatform> TopologyCacheShard::get(
    const std::string& topology, const std::vector<double>& cycle_times,
    double link, std::uint64_t seed) {
  Key key{topology, seed, link, cycle_times};
  {
    util::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
  }
  // Build outside the lock: a first-use race may construct the same
  // platform twice, but emplace keeps the first insert and hands the
  // winner to every caller (losers included), so per key there is one
  // canonical immutable instance.
  auto built = std::make_shared<const RoutedPlatform>(
      make_topology_platform(topology, cycle_times, link, seed));
  util::MutexLock lock(mutex_);
  return entries_.emplace(std::move(key), std::move(built)).first->second;
}

std::size_t TopologyCacheShard::size() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

TopologyCacheShard& process_topology_cache() noexcept {
  static auto* cache = new TopologyCacheShard();
  return *cache;
}

}  // namespace oneport::analysis

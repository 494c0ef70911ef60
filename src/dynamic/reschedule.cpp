#include "dynamic/reschedule.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "platform/load_balance.hpp"
#include "platform/routing.hpp"
#include "sched/interval.hpp"
#include "sched/timeline.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"

namespace oneport::dyn {
namespace {

using EdgeKey = std::pair<TaskId, TaskId>;

/// A pre-event chain for an edge whose endpoints are being rescheduled:
/// the hops that already started (they run to completion and occupy
/// their ports either way) plus whether the chain started in full (only
/// then can its delivery be reused).
struct OldChain {
  std::vector<CommPlacement> started;
  bool complete = false;
  bool reused = false;
};

/// Mutable state threaded through the event loop.
struct LoopState {
  std::vector<TaskPlacement> tasks;  ///< current placement per task
  std::map<EdgeKey, std::vector<CommPlacement>> live;  ///< delivering chains
  std::vector<CommPlacement> stale;  ///< retired (superseded) messages
  std::vector<double> cycle;         ///< effective cycle times
  std::vector<char> available;
  std::vector<char> known;
  std::vector<double> release;
};

/// The induced subgraph of the tasks being rescheduled, with id maps.
struct Residual {
  TaskGraph graph;
  std::vector<TaskId> to_orig;  ///< sub id -> original id
  std::vector<TaskId> to_sub;   ///< original id -> sub id (or kInvalidTask)
};

Residual build_residual(const TaskGraph& graph,
                        const std::vector<char>& in_set) {
  Residual res;
  res.to_sub.assign(graph.num_tasks(), kInvalidTask);
  // Insert in topological order: sub ids are then a deterministic pure
  // function of the residual set, independent of how it was discovered.
  for (const TaskId v : graph.topological_order()) {
    if (!in_set[v]) continue;
    res.to_sub[v] = res.graph.add_task(graph.weight(v), graph.name(v));
    res.to_orig.push_back(v);
  }
  for (const TaskId v : res.to_orig) {
    for (const EdgeRef& out : graph.successors(v)) {
      if (res.to_sub[out.task] != kInvalidTask) {
        res.graph.add_edge(res.to_sub[v], res.to_sub[out.task], out.data);
      }
    }
  }
  res.graph.finalize();
  return res;
}

/// The platform the heuristic sees: current cycle times, with dropped
/// processors penalized so no work lands there, links unchanged (the
/// network keeps relaying; only compute drops out).
Platform heuristic_platform(const Platform& base, const LoopState& st,
                            double drop_penalty) {
  const int p = base.num_processors();
  std::vector<double> cyc(static_cast<std::size_t>(p));
  for (ProcId q = 0; q < p; ++q) {
    cyc[static_cast<std::size_t>(q)] =
        st.available[static_cast<std::size_t>(q)]
            ? st.cycle[static_cast<std::size_t>(q)]
            : drop_penalty;
  }
  Matrix<double> link(static_cast<std::size_t>(p),
                      static_cast<std::size_t>(p));
  for (ProcId q = 0; q < p; ++q) {
    for (ProcId r = 0; r < p; ++r) {
      link(static_cast<std::size_t>(q), static_cast<std::size_t>(r)) =
          base.link(q, r);
    }
  }
  return Platform{std::move(cyc), std::move(link)};
}

Schedule compose(const LoopState& st) {
  Schedule schedule(st.tasks.size());
  for (TaskId v = 0; v < st.tasks.size(); ++v) {
    const TaskPlacement& t = st.tasks[v];
    if (t.placed()) schedule.place_task(v, t.proc, t.start, t.finish);
  }
  for (const auto& [key, hops] : st.live) {
    for (const CommPlacement& c : hops) schedule.add_comm(c);
  }
  return schedule;
}

/// Fastest available processor (smallest cycle time, then smallest id) --
/// the deterministic fallback for residual tasks the heuristic or the
/// rebalancer left on an unavailable processor (only zero-weight tasks
/// ever tempt them there).
ProcId fastest_available(const LoopState& st) {
  ProcId best = -1;
  for (ProcId q = 0; q < static_cast<ProcId>(st.cycle.size()); ++q) {
    if (!st.available[static_cast<std::size_t>(q)]) continue;
    if (best < 0 || st.cycle[static_cast<std::size_t>(q)] <
                        st.cycle[static_cast<std::size_t>(best)]) {
      best = q;
    }
  }
  OP_ASSERT(best >= 0, "no available processor left");
  return best;
}

/// Rebuilds the residual tasks onto the frozen state.  `assignment` and
/// `order` come from the heuristic (plus rebalancing); `now` is the
/// freeze instant -- no new reservation may start before it.
void rebuild_suffix(const TaskGraph& graph, const Platform& base,
                    const RoutingTable* routing, CommModel model,
                    const Residual& res,
                    const std::vector<ProcId>& assignment,
                    const std::vector<TaskId>& order, double now,
                    std::map<EdgeKey, OldChain>& old_chains,
                    LoopState& st) {
  const int p = base.num_processors();
  const bool one_port = model == CommModel::kOnePort;
  std::vector<TimelineIndex> compute(static_cast<std::size_t>(p));
  std::vector<TimelineIndex> send(one_port ? static_cast<std::size_t>(p) : 0);
  std::vector<TimelineIndex> recv(one_port ? static_cast<std::size_t>(p) : 0);

  // Seed every reservation the past still owns: frozen compute slots,
  // live chains, started hops of superseded chains, and all previously
  // retired messages -- they all occupied (or still occupy) real ports.
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    const TaskPlacement& t = st.tasks[v];
    if (t.placed()) {
      compute[static_cast<std::size_t>(t.proc)].reserve(t.start, t.finish);
    }
  }
  if (one_port) {
    const auto seed = [&](const CommPlacement& c) {
      send[static_cast<std::size_t>(c.from)].reserve(c.start, c.finish);
      recv[static_cast<std::size_t>(c.to)].reserve(c.start, c.finish);
    };
    for (const auto& [key, hops] : st.live) {
      for (const CommPlacement& c : hops) seed(c);
    }
    for (const auto& [key, chain] : old_chains) {
      for (const CommPlacement& c : chain.started) seed(c);
    }
    for (const CommPlacement& c : st.stale) seed(c);
  }

  // Predecessor scratch, mirroring the EFT engine's (finish asc, id asc)
  // order so chains contend for ports in the same sequence.
  std::vector<const EdgeRef*> preds;
  std::vector<ProcId> path;

  for (const TaskId sub : order) {
    const TaskId v = res.to_orig[sub];
    const ProcId proc = assignment[sub];
    OP_ASSERT(st.available[static_cast<std::size_t>(proc)],
              "task " << v << " rebuilt on dropped processor " << proc);

    preds.clear();
    for (const EdgeRef& e : graph.predecessors(v)) preds.push_back(&e);
    std::sort(preds.begin(), preds.end(),
              [&st](const EdgeRef* a, const EdgeRef* b) {
                const double fa = st.tasks[a->task].finish;
                const double fb = st.tasks[b->task].finish;
                if (fa != fb) return fa < fb;
                return a->task < b->task;
              });

    double arrival = std::max(st.release[v], now);
    for (const EdgeRef* e : preds) {
      const TaskId u = e->task;
      const TaskPlacement& src = st.tasks[u];
      OP_ASSERT(src.placed(),
                "predecessor " << u << " of " << v << " not placed yet");
      if (src.proc == proc) {
        arrival = std::max(arrival, src.finish);
        continue;
      }
      // Reuse the pre-event delivery when it started in full, its source
      // kept its placement, and the data already heads to this very
      // processor.
      const auto old = old_chains.find({u, v});
      if (old != old_chains.end() && old->second.complete &&
          res.to_sub[u] == kInvalidTask &&
          old->second.started.back().to == proc) {
        arrival = std::max(arrival, old->second.started.back().finish);
        old->second.reused = true;
        st.live[{u, v}] = old->second.started;
        continue;
      }
      // Fresh store-and-forward chain from the source's processor, first
      // hop no earlier than the freeze instant.
      path.clear();
      if (routing != nullptr) {
        routing->path_into(src.proc, proc, path);
      } else {
        path.push_back(src.proc);
        path.push_back(proc);
      }
      double cursor = std::max(src.finish, now);
      std::vector<CommPlacement>& chain = st.live[{u, v}];
      chain.clear();
      for (std::size_t h = 0; h + 1 < path.size(); ++h) {
        const ProcId a = path[h];
        const ProcId b = path[h + 1];
        const double duration = base.comm_time(e->data, a, b);
        OP_REQUIRE(std::isfinite(duration),
                   "no direct link P" << a << "->P" << b
                                      << " and no routing table provided");
        double start = cursor;
        if (one_port) {
          // Committed timelines, no overlays: the rebuild commits every
          // hop as it goes.
          start = earliest_joint_fit(send[static_cast<std::size_t>(a)],
                                     recv[static_cast<std::size_t>(b)],
                                     cursor, duration);
          send[static_cast<std::size_t>(a)].reserve(start, start + duration);
          recv[static_cast<std::size_t>(b)].reserve(start, start + duration);
        }
        chain.push_back({u, v, a, b, start, start + duration});
        cursor = start + duration;
      }
      arrival = std::max(arrival, cursor);
    }

    const double exec =
        graph.weight(v) * st.cycle[static_cast<std::size_t>(proc)];
    const double start =
        compute[static_cast<std::size_t>(proc)].next_fit(arrival, exec);
    compute[static_cast<std::size_t>(proc)].reserve(start, start + exec);
    st.tasks[v] = TaskPlacement{proc, start, start + exec};
  }

  // Whatever old chains were not reused are now officially stale.
  for (auto& [key, chain] : old_chains) {
    if (chain.reused) continue;
    for (const CommPlacement& c : chain.started) st.stale.push_back(c);
  }
  old_chains.clear();
}

}  // namespace

DynamicResult run_dynamic(const TaskGraph& graph, const Platform& platform,
                          const std::string& scheduler,
                          const SchedulerConfig& config,
                          const EventTrace& trace,
                          const DynamicOptions& options) {
  OP_REQUIRE(graph.finalized(), "run_dynamic needs a finalized graph");
  validate_trace(trace, graph, platform);
  const SchedulerEntry entry = find_scheduler(scheduler, config);
  const int p = platform.num_processors();
  const std::size_t n = graph.num_tasks();

  LoopState st;
  st.tasks.assign(n, TaskPlacement{});
  st.cycle = platform.cycle_times();
  st.available.assign(static_cast<std::size_t>(p), 1);
  st.release = release_times(trace, graph);
  st.known.assign(n, 1);
  for (TaskId v = 0; v < n; ++v) st.known[v] = st.release[v] <= 0.0;

  DynamicResult result;
  result.release = st.release;

  // Schedules one epoch's residual set: the heuristic picks allocation
  // and order on the penalized platform, the optional rebalancing pass
  // shifts the allocation, and the constrained rebuild commits it.
  const auto reschedule = [&](const std::vector<char>& in_set, double now,
                              std::map<EdgeKey, OldChain>& old_chains,
                              EpochSnapshot& snap) {
    const Residual res = build_residual(graph, in_set);
    snap.suffix_tasks = static_cast<int>(res.to_orig.size());
    if (res.to_orig.empty()) {
      old_chains.clear();
      return;
    }
    const Platform seen = heuristic_platform(platform, st,
                                             options.drop_penalty);
    const Schedule plan = entry.run(res.graph, seen);

    std::vector<ProcId> assignment(res.to_orig.size(), -1);
    std::vector<double> weights(res.to_orig.size(), 0.0);
    for (TaskId sub = 0; sub < res.to_orig.size(); ++sub) {
      ProcId q = plan.task(sub).proc;
      if (!st.available[static_cast<std::size_t>(q)]) {
        q = fastest_available(st);
      }
      assignment[sub] = q;
      weights[sub] = res.graph.weight(sub);
    }
    snap.imbalance_before = fractional_load_imbalance(
        seen, [&] {
          std::vector<double> loads(static_cast<std::size_t>(p), 0.0);
          for (TaskId sub = 0; sub < res.to_orig.size(); ++sub) {
            loads[static_cast<std::size_t>(assignment[sub])] += weights[sub];
          }
          return loads;
        }());
    snap.imbalance_after = snap.imbalance_before;
    if (options.rebalance) {
      const RebalanceStats stats =
          rebalance_assignment(seen, weights, assignment);
      snap.imbalance_after = stats.imbalance_after;
      snap.rebalance_moves = stats.moves;
    }

    // Rebuild in (heuristic start, sub topo index) order: valid plans
    // finish a predecessor no later than a successor starts, so this
    // order is precedence-safe, and the topo tie-break pins zero-weight
    // stacks.
    std::vector<TaskId> order(res.to_orig.size());
    for (TaskId sub = 0; sub < order.size(); ++sub) order[sub] = sub;
    std::sort(order.begin(), order.end(), [&plan](TaskId a, TaskId b) {
      const double sa = plan.task(a).start;
      const double sb = plan.task(b).start;
      if (sa != sb) return sa < sb;
      return a < b;
    });
    rebuild_suffix(graph, platform, config.routing, options.model, res,
                   assignment, order, now, old_chains, st);
  };

  const auto snapshot = [&](EpochSnapshot&& snap) {
    snap.cycle_times = st.cycle;
    snap.available = st.available;
    snap.known = st.known;
    snap.schedule = compose(st);
    snap.stale_comms = st.stale;
    result.epochs.push_back(std::move(snap));
  };

  // ---- epoch 0: the initial static schedule over the known set.
  {
    EpochSnapshot snap;
    std::map<EdgeKey, OldChain> no_chains;
    bool all_known = true;
    for (const char k : st.known) all_known &= k != 0;
    if (all_known && !options.rebalance) {
      // Fast path doubling as the static-equivalence anchor: with no
      // late arrivals and no rebalancing, epoch 0 *is* the heuristic's
      // schedule, bit for bit.
      const Schedule plan = entry.run(graph, platform);
      for (TaskId v = 0; v < n; ++v) st.tasks[v] = plan.task(v);
      for (const CommPlacement& c : plan.comms()) {
        st.live[{c.src, c.dst}].push_back(c);
      }
      snap.suffix_tasks = static_cast<int>(n);
    } else {
      reschedule(st.known, 0.0, no_chains, snap);
    }
    snapshot(std::move(snap));
  }

  // ---- one epoch per event.
  for (const PlatformEvent& event : trace) {
    const double now = event.time;
    EpochSnapshot snap;
    snap.event = event;
    snap.time = now;

    switch (event.kind) {
      case EventKind::kSlowdown:
        st.cycle[static_cast<std::size_t>(event.proc)] *= event.factor;
        break;
      case EventKind::kDropout:
        st.available[static_cast<std::size_t>(event.proc)] = 0;
        break;
      case EventKind::kArrival:
        for (const TaskId v : event.tasks) st.known[v] = 1;
        break;
    }

    // Freeze: anything that started strictly before the event keeps its
    // slot; everything else (plus fresh arrivals) goes back in the pool.
    std::vector<char> residual(n, 0);
    for (TaskId v = 0; v < n; ++v) {
      if (!st.known[v]) continue;
      const TaskPlacement& t = st.tasks[v];
      if (!t.placed() || t.start >= now - kTimeEps) {
        residual[v] = 1;
        st.tasks[v] = TaskPlacement{};
      }
    }

    // Chains touching a rescheduled endpoint: hops that never started
    // vanish, hops that did run to completion but stop delivering --
    // unless the whole chain started and still points at the right
    // destination, in which case rebuild_suffix may re-adopt it.
    std::map<EdgeKey, OldChain> old_chains;
    for (auto it = st.live.begin(); it != st.live.end();) {
      const auto [u, v] = it->first;
      if (!residual[u] && !residual[v]) {
        ++it;
        continue;
      }
      OldChain& old = old_chains[it->first];
      for (const CommPlacement& c : it->second) {
        if (c.start < now - kTimeEps) old.started.push_back(c);
      }
      old.complete =
          !old.started.empty() && old.started.size() == it->second.size();
      it = st.live.erase(it);
    }

    reschedule(residual, now, old_chains, snap);
    snapshot(std::move(snap));
  }

  result.schedule = result.epochs.back().schedule;
  result.stale_comms = st.stale;
  return result;
}

}  // namespace oneport::dyn

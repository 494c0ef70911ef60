#include "sched/validate.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <sstream>
#include <utility>

#include "sched/interval.hpp"

namespace oneport {

std::string ValidationResult::message() const {
  std::string out;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i) out += '\n';
    out += errors[i];
  }
  return out;
}

namespace {

/// Message positions grouped by `key(message)`, which must be below
/// `keys`, each group in comms() order (a stable counting sort); `first`
/// gets the `keys` + 1 group offsets into the result.
template <typename Key>
std::vector<std::size_t> group_by(const std::vector<CommPlacement>& comms,
                                  std::size_t keys, Key key,
                                  std::vector<std::size_t>& first) {
  first.assign(keys + 1, 0);
  for (const CommPlacement& c : comms) ++first[key(c)];
  for (std::size_t k = 0; k < keys; ++k) first[k + 1] += first[k];
  // first[k] is now the end of group k; filling back to front leaves it
  // at the group's start.
  std::vector<std::size_t> grouped(comms.size());
  for (std::size_t i = comms.size(); i-- > 0;) {
    grouped[--first[key(comms[i])]] = i;
  }
  return grouped;
}

/// Flat index of a schedule's messages by edge: positions into comms()
/// grouped by source (counting sort), each source's group ordered by
/// (dst, position).  The messages of edge u->v are one contiguous run, in
/// comms() order, inside u's group, whose runs ascend by dst; the error
/// messages depend on both orders.
class MessageIndex {
 public:
  /// Requires every message's src and dst below `num_tasks` (Schedule
  /// guarantees it for its own task count).
  MessageIndex(const std::vector<CommPlacement>& comms, std::size_t num_tasks)
      : comms_(comms),
        order_(group_by(
            comms, num_tasks,
            [](const CommPlacement& c) -> std::size_t { return c.src; },
            src_first_)),
        claimed_(comms.size(), 0) {
    for (std::size_t u = 0; u < num_tasks; ++u) {
      std::sort(order_.begin() + static_cast<std::ptrdiff_t>(src_first_[u]),
                order_.begin() + static_cast<std::ptrdiff_t>(src_first_[u + 1]),
                [&comms](std::size_t a, std::size_t b) {
                  return comms[a].dst != comms[b].dst
                             ? comms[a].dst < comms[b].dst
                             : a < b;
                });
    }
  }

  /// Edge u->v's messages as positions into comms(), in comms() order
  /// (empty when there are none), and marks them claimed.  The caller may
  /// reorder the run.
  std::span<std::size_t> claim(TaskId u, TaskId v) {
    const auto base = order_.begin();
    const auto group_end =
        base + static_cast<std::ptrdiff_t>(src_first_[u + 1]);
    const auto first = std::lower_bound(
        base + static_cast<std::ptrdiff_t>(src_first_[u]), group_end, v,
        [this](std::size_t i, TaskId key) { return comms_[i].dst < key; });
    auto last = first;
    while (last != group_end && comms_[*last].dst == v) ++last;
    if (first != last) claimed_[static_cast<std::size_t>(first - base)] = 1;
    return {first, last};
  }

  /// Calls f(src, dst) for every (src, dst) with messages that no claim()
  /// reached, in ascending (src, dst) order.
  template <typename F>
  void for_each_unclaimed(F&& f) const {
    for (std::size_t k = 0; k < order_.size(); ++k) {
      const CommPlacement& c = comms_[order_[k]];
      const bool opens_run = k == 0 || comms_[order_[k - 1]].src != c.src ||
                             comms_[order_[k - 1]].dst != c.dst;
      if (opens_run && !claimed_[k]) f(c.src, c.dst);
    }
  }

 private:
  const std::vector<CommPlacement>& comms_;
  std::vector<std::size_t> src_first_;  // filled by order_'s initializer
  std::vector<std::size_t> order_;
  std::vector<char> claimed_;  // by index of a run's first entry
};

/// What the port checks read of a message.
struct PortMessage {
  double start;
  double finish;
  TaskId src;
  TaskId dst;
};

class Checker {
 public:
  Checker(const Schedule& s, const TaskGraph& g, const Platform& p)
      : sched_(s), graph_(g), platform_(p) {}

  ValidationResult run(CommModel model) {
    check_placements();
    // A size mismatch makes every further check index out of range.
    if (sched_.num_tasks() != graph_.num_tasks()) return std::move(result_);
    check_compute_exclusivity();
    check_edges_and_comms();
    if (model == CommModel::kOnePort) check_ports();
    return std::move(result_);
  }

 private:
  template <typename... Parts>
  void fail(const Parts&... parts) {
    std::ostringstream oss;
    (oss << ... << parts);
    result_.errors.push_back(oss.str());
  }

  static bool close(double a, double b) { return std::abs(a - b) <= kTimeEps; }

  void check_placements() {
    if (sched_.num_tasks() != graph_.num_tasks()) {
      fail("schedule has ", sched_.num_tasks(), " tasks, graph has ",
           graph_.num_tasks());
      return;
    }
    for (TaskId v = 0; v < graph_.num_tasks(); ++v) {
      const TaskPlacement& t = sched_.task(v);
      if (!t.placed()) {
        fail("M1: task ", v, " not placed");
        continue;
      }
      if (t.proc >= platform_.num_processors()) {
        fail("M1: task ", v, " on invalid processor ", t.proc);
        continue;
      }
      if (t.start < -kTimeEps) fail("M1: task ", v, " starts before time 0");
      const double expected = platform_.exec_time(graph_.weight(v), t.proc);
      if (!close(t.finish - t.start, expected)) {
        fail("M2: task ", v, " duration ", t.finish - t.start, " != w*t = ",
             expected, " on P", t.proc);
      }
    }
  }

  void check_compute_exclusivity() {
    std::vector<std::vector<std::pair<Interval, TaskId>>> per_proc(
        static_cast<std::size_t>(platform_.num_processors()));
    for (TaskId v = 0; v < graph_.num_tasks(); ++v) {
      const TaskPlacement& t = sched_.task(v);
      if (!t.placed() || t.proc >= platform_.num_processors()) continue;
      per_proc[static_cast<std::size_t>(t.proc)].push_back(
          {{t.start, t.finish}, v});
    }
    for (std::size_t p = 0; p < per_proc.size(); ++p) {
      auto& items = per_proc[p];
      std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
        return a.first.start < b.first.start;
      });
      for (std::size_t i = 1; i < items.size(); ++i) {
        if (overlaps(items[i - 1].first, items[i].first)) {
          fail("M3: tasks ", items[i - 1].second, " and ", items[i].second,
               " overlap on P", p);
        }
      }
    }
  }

  void check_edges_and_comms() {
    const std::vector<CommPlacement>& comms = sched_.comms();
    MessageIndex index(comms, graph_.num_tasks());

    for (TaskId u = 0; u < graph_.num_tasks(); ++u) {
      const TaskPlacement& tu = sched_.task(u);
      for (const EdgeRef& e : graph_.successors(u)) {
        const TaskId v = e.task;
        // Claimed before the placement test: a message of a real edge is
        // never spurious, whatever its endpoints' state.
        const std::span<std::size_t> chain = index.claim(u, v);
        const TaskPlacement& tv = sched_.task(v);
        if (!tu.placed() || !tv.placed()) continue;
        if (tu.proc == tv.proc) {
          if (tv.start < tu.finish - kTimeEps) {
            fail("M4: edge ", u, "->", v, ": successor starts at ", tv.start,
                 " before predecessor finishes at ", tu.finish);
          }
          if (!chain.empty()) {
            fail("M5: edge ", u, "->", v,
                 ": message present although endpoints share P", tu.proc);
          }
          continue;
        }
        if (chain.empty()) {
          fail("M4: edge ", u, "->", v, ": expected a message, found none");
          continue;
        }
        // The messages must form a store-and-forward chain from the
        // source's processor to the sink's (one hop on fully connected
        // networks, several along a routed path -- the §4.3 extension).
        // std::sort is not stable: equal starts keep the order this call
        // gives them from the run's comms() order.
        std::sort(chain.begin(), chain.end(),
                  [&comms](std::size_t a, std::size_t b) {
                    return comms[a].start < comms[b].start;
                  });
        const CommPlacement& head = comms[chain.front()];
        const CommPlacement& tail = comms[chain.back()];
        if (head.from != tu.proc) {
          fail("M5: edge ", u, "->", v, ": first hop leaves P", head.from,
               " but the source sits on P", tu.proc);
        }
        if (tail.to != tv.proc) {
          fail("M5: edge ", u, "->", v, ": last hop reaches P", tail.to,
               " but the sink sits on P", tv.proc);
        }
        if (head.start < tu.finish - kTimeEps) {
          fail("M4: edge ", u, "->", v, ": first hop starts at ", head.start,
               " before source finishes at ", tu.finish);
        }
        if (tv.start < tail.finish - kTimeEps) {
          fail("M4: edge ", u, "->", v, ": successor starts at ", tv.start,
               " before the last hop arrives at ", tail.finish);
        }
        for (std::size_t h = 0; h < chain.size(); ++h) {
          const CommPlacement& c = comms[chain[h]];
          const double expected = platform_.comm_time(e.data, c.from, c.to);
          if (!close(c.finish - c.start, expected)) {
            fail("M4: edge ", u, "->", v, " hop P", c.from, "->P", c.to,
                 ": duration ", c.finish - c.start, " != data*link = ",
                 expected);
          }
          if (h > 0) {
            const CommPlacement& prev = comms[chain[h - 1]];
            if (c.from != prev.to) {
              fail("M5: edge ", u, "->", v, ": hop P", c.from, "->P", c.to,
                   " does not continue from P", prev.to);
            }
            if (c.start < prev.finish - kTimeEps) {
              fail("M4: edge ", u, "->", v, ": hop P", c.from, "->P", c.to,
                   " starts at ", c.start, " before the previous hop lands "
                   "at ", prev.finish);
            }
          }
        }
      }
    }

    // Spurious messages: every recorded message must match a graph edge.
    index.for_each_unclaimed([this](TaskId u, TaskId v) {
      fail("M5: message for non-existent edge ", u, "->", v);
    });
  }

  void check_ports() {
    const std::vector<CommPlacement>& comms = sched_.comms();
    const auto p = static_cast<std::size_t>(platform_.num_processors());
    // Message positions grouped by sending and by receiving processor,
    // each group in comms() order; group p gathers ids off the platform,
    // which no port check reads.
    const auto port = [p](ProcId q) {
      return q >= 0 && static_cast<std::size_t>(q) < p
                 ? static_cast<std::size_t>(q)
                 : p;
    };
    std::vector<std::size_t> send_first, recv_first;
    const std::vector<std::size_t> sends = group_by(
        comms, p + 1,
        [&port](const CommPlacement& c) { return port(c.from); }, send_first);
    const std::vector<std::size_t> recvs = group_by(
        comms, p + 1,
        [&port](const CommPlacement& c) { return port(c.to); }, recv_first);

    std::size_t largest = 0;
    for (std::size_t q = 0; q < p; ++q) {
      largest = std::max({largest, send_first[q + 1] - send_first[q],
                          recv_first[q + 1] - recv_first[q]});
    }
    std::vector<PortMessage> queue;  // one port's messages at a time
    queue.reserve(largest);
    auto check_port = [&](const std::vector<std::size_t>& grouped,
                          const std::vector<std::size_t>& first,
                          std::size_t q, const char* kind) {
      queue.clear();
      for (std::size_t k = first[q]; k < first[q + 1]; ++k) {
        const CommPlacement& c = comms[grouped[k]];
        queue.push_back({c.start, c.finish, c.src, c.dst});
      }
      // The queue starts in comms() order; as for chains, equal starts
      // keep the order this std::sort call gives them, and the errors
      // name the pairs that order puts side by side.
      std::sort(queue.begin(), queue.end(),
                [](const PortMessage& a, const PortMessage& b) {
                  return a.start < b.start;
                });
      // Pairwise check against the running maximum end; O(n log n) total.
      const PortMessage* prev = nullptr;
      for (const PortMessage& c : queue) {
        if (Interval{c.start, c.finish}.degenerate()) continue;
        if (prev != nullptr &&
            overlaps({prev->start, prev->finish}, {c.start, c.finish})) {
          fail(kind, " port of P", q, ": messages ", prev->src, "->",
               prev->dst, " and ", c.src, "->", c.dst, " overlap");
        }
        if (prev == nullptr || c.finish > prev->finish) prev = &c;
      }
    };
    for (std::size_t q = 0; q < p; ++q) {
      check_port(sends, send_first, q, "O1: send");
      check_port(recvs, recv_first, q, "O2: receive");
    }
  }

  const Schedule& sched_;
  const TaskGraph& graph_;
  const Platform& platform_;
  ValidationResult result_;
};

}  // namespace

ValidationResult validate(const Schedule& schedule, const TaskGraph& graph,
                          const Platform& platform, CommModel model) {
  return Checker(schedule, graph, platform).run(model);
}

ValidationResult validate_macro_dataflow(const Schedule& schedule,
                                         const TaskGraph& graph,
                                         const Platform& platform) {
  return validate(schedule, graph, platform, CommModel::kMacroDataflow);
}

ValidationResult validate_one_port(const Schedule& schedule,
                                   const TaskGraph& graph,
                                   const Platform& platform) {
  return validate(schedule, graph, platform, CommModel::kOnePort);
}

}  // namespace oneport

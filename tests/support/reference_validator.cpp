#include "support/reference_validator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "sched/interval.hpp"

namespace oneport::testsupport {

namespace {

class Checker {
 public:
  Checker(const Schedule& s, const TaskGraph& g, const Platform& p)
      : sched_(s), graph_(g), platform_(p) {}

  ValidationResult run(bool one_port) {
    check_placements();
    // A size mismatch makes every further check index out of range.
    if (sched_.num_tasks() != graph_.num_tasks()) return std::move(result_);
    check_compute_exclusivity();
    check_edges_and_comms();
    if (one_port) check_ports();
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
    // Group messages by edge for lookup and spurious-message detection.
    std::map<std::pair<TaskId, TaskId>, std::vector<const CommPlacement*>>
        by_edge;
    for (const CommPlacement& c : sched_.comms()) {
      by_edge[{c.src, c.dst}].push_back(&c);
    }

    for (TaskId u = 0; u < graph_.num_tasks(); ++u) {
      const TaskPlacement& tu = sched_.task(u);
      for (const EdgeRef& e : graph_.successors(u)) {
        const TaskId v = e.task;
        const TaskPlacement& tv = sched_.task(v);
        if (!tu.placed() || !tv.placed()) continue;
        const auto it = by_edge.find({u, v});
        const std::size_t n_msgs =
            it == by_edge.end() ? 0 : it->second.size();
        if (tu.proc == tv.proc) {
          if (tv.start < tu.finish - kTimeEps) {
            fail("M4: edge ", u, "->", v, ": successor starts at ", tv.start,
                 " before predecessor finishes at ", tu.finish);
          }
          if (n_msgs != 0) {
            fail("M5: edge ", u, "->", v,
                 ": message present although endpoints share P", tu.proc);
          }
          continue;
        }
        if (n_msgs == 0) {
          fail("M4: edge ", u, "->", v, ": expected a message, found none");
          continue;
        }
        // The messages must form a store-and-forward chain from the
        // source's processor to the sink's (one hop on fully connected
        // networks, several along a routed path -- the §4.3 extension).
        std::vector<const CommPlacement*> chain = it->second;
        std::sort(chain.begin(), chain.end(),
                  [](const CommPlacement* a, const CommPlacement* b) {
                    return a->start < b->start;
                  });
        if (chain.front()->from != tu.proc) {
          fail("M5: edge ", u, "->", v, ": first hop leaves P",
               chain.front()->from, " but the source sits on P", tu.proc);
        }
        if (chain.back()->to != tv.proc) {
          fail("M5: edge ", u, "->", v, ": last hop reaches P",
               chain.back()->to, " but the sink sits on P", tv.proc);
        }
        if (chain.front()->start < tu.finish - kTimeEps) {
          fail("M4: edge ", u, "->", v, ": first hop starts at ",
               chain.front()->start, " before source finishes at ",
               tu.finish);
        }
        if (tv.start < chain.back()->finish - kTimeEps) {
          fail("M4: edge ", u, "->", v, ": successor starts at ", tv.start,
               " before the last hop arrives at ", chain.back()->finish);
        }
        for (std::size_t h = 0; h < chain.size(); ++h) {
          const CommPlacement& c = *chain[h];
          const double expected = platform_.comm_time(e.data, c.from, c.to);
          if (!close(c.finish - c.start, expected)) {
            fail("M4: edge ", u, "->", v, " hop P", c.from, "->P", c.to,
                 ": duration ", c.finish - c.start, " != data*link = ",
                 expected);
          }
          if (h > 0) {
            const CommPlacement& prev = *chain[h - 1];
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
    for (const auto& [key, msgs] : by_edge) {
      const auto [u, v] = key;
      const bool edge_exists = u < graph_.num_tasks() &&
                               v < graph_.num_tasks() && graph_.has_edge(u, v);
      if (!edge_exists) {
        fail("M5: message for non-existent edge ", u, "->", v);
      }
    }
  }

  void check_ports() {
    const auto p = static_cast<std::size_t>(platform_.num_processors());
    std::vector<std::vector<const CommPlacement*>> sends(p), recvs(p);
    for (const CommPlacement& c : sched_.comms()) {
      if (c.from >= 0 && static_cast<std::size_t>(c.from) < p)
        sends[static_cast<std::size_t>(c.from)].push_back(&c);
      if (c.to >= 0 && static_cast<std::size_t>(c.to) < p)
        recvs[static_cast<std::size_t>(c.to)].push_back(&c);
    }
    auto check_port = [this](std::vector<const CommPlacement*>& msgs,
                             const char* kind, std::size_t proc) {
      std::sort(msgs.begin(), msgs.end(),
                [](const CommPlacement* a, const CommPlacement* b) {
                  return a->start < b->start;
                });
      // Pairwise check against the running maximum end; O(n log n) total.
      const CommPlacement* prev = nullptr;
      for (const CommPlacement* c : msgs) {
        if (Interval{c->start, c->finish}.degenerate()) continue;
        if (prev != nullptr &&
            overlaps({prev->start, prev->finish}, {c->start, c->finish})) {
          fail(kind, " port of P", proc, ": messages ", prev->src, "->",
               prev->dst, " and ", c->src, "->", c->dst, " overlap");
        }
        if (prev == nullptr || c->finish > prev->finish) prev = c;
      }
    };
    for (std::size_t q = 0; q < p; ++q) {
      check_port(sends[q], "O1: send", q);
      check_port(recvs[q], "O2: receive", q);
    }
  }

  const Schedule& sched_;
  const TaskGraph& graph_;
  const Platform& platform_;
  ValidationResult result_;
};

}  // namespace

ValidationResult reference_validate_macro_dataflow(const Schedule& schedule,
                                                   const TaskGraph& graph,
                                                   const Platform& platform) {
  return Checker(schedule, graph, platform).run(/*one_port=*/false);
}

ValidationResult reference_validate_one_port(const Schedule& schedule,
                                             const TaskGraph& graph,
                                             const Platform& platform) {
  return Checker(schedule, graph, platform).run(/*one_port=*/true);
}

}  // namespace oneport::testsupport

#include "core/eft_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/profiler.hpp"

namespace oneport {

namespace {

using Key = std::pair<double, ProcId>;

/// Keys ordered per round of evaluate_best's cheap pool.
constexpr std::ptrdiff_t kRoundKeys = 8;

/// Moves the kRoundKeys smallest keys of [first, last) to its front in
/// ascending order and returns the end of that run; the other keys stay
/// behind it in no particular order.  Insertion throughout: a later key
/// below the largest one kept evicts it.  Keys are distinct (one per
/// processor), so the run is exactly a full sort's prefix.
Key* select_round(Key* first, Key* last) {
  const auto sift = [first](Key* at) {
    const Key key = *at;
    for (; at != first && key < at[-1]; --at) *at = at[-1];
    *at = key;
  };
  Key* const run_end = first + std::min(kRoundKeys, last - first);
  for (Key* k = first + 1; k < run_end; ++k) sift(k);
  for (Key* k = run_end; k < last; ++k) {
    if (*k < run_end[-1]) {
      std::swap(*k, run_end[-1]);
      sift(run_end - 1);
    }
  }
  return run_end;
}

}  // namespace

EftEngine::EftEngine(const TaskGraph& graph, const Platform& platform,
                     CommModel model, const RoutingTable* routing)
    : graph_(graph),
      platform_(platform),
      model_(model),
      routing_(routing),
      np_(static_cast<std::size_t>(platform.num_processors())),
      link_data_(platform.link_matrix().data()),
      cycle_data_(platform.cycle_times().data()),
      placements_(graph.num_tasks()),
      compute_(static_cast<std::size_t>(platform.num_processors())),
      send_(static_cast<std::size_t>(platform.num_processors())),
      recv_(static_cast<std::size_t>(platform.num_processors())),
      pending_preds_(graph.num_tasks()),
      send_overlays_(static_cast<std::size_t>(platform.num_processors())),
      recv_overlays_(static_cast<std::size_t>(platform.num_processors())),
      send_epochs_(static_cast<std::size_t>(platform.num_processors()), 0),
      recv_epochs_(static_cast<std::size_t>(platform.num_processors()), 0) {
  OP_REQUIRE(graph.finalized(), "graph must be finalized");
  OP_REQUIRE(routing == nullptr ||
                 routing->num_processors() == platform.num_processors(),
             "routing table does not match the platform");
  for (TaskId v = 0; v < graph.num_tasks(); ++v) {
    pending_preds_[v] = static_cast<std::uint32_t>(graph.in_degree(v));
  }
  // build_schedule hands this buffer to the Schedule, so it is sized
  // once: direct links record at most one message per edge.  Grown by
  // doubling instead, it leaves the allocator's free space fragmented
  // behind it, and the next large allocations (the serialized text)
  // fault in fresh pages.
  comms_.reserve(graph.num_edges());
  // Smallest outgoing link cost per processor, for the send-port release
  // bound (a message leaving q occupies its send port for at least
  // data * min_out_link_[q], whatever the destination).
  min_out_link_.assign(static_cast<std::size_t>(platform.num_processors()),
                       0.0);
  for (ProcId q = 0; q < platform.num_processors(); ++q) {
    double lo = std::numeric_limits<double>::infinity();
    for (ProcId r = 0; r < platform.num_processors(); ++r) {
      if (r != q) lo = std::min(lo, platform.link(q, r));
    }
    min_out_link_[static_cast<std::size_t>(q)] =
        std::isfinite(lo) ? lo : 0.0;
  }
  // Route lanes.  Without a table every route is its own single hop, so
  // both lanes are the link matrix.  A pair whose route has a hole or a
  // loop keeps +inf in both lanes, so its bound stays non-finite and
  // evaluate_best evaluates it (and path_into raises) exactly as an
  // exhaustive scan would.
  if (routing == nullptr) {
    last_hop_data_ = link_data_;
    route_data_ = link_data_;
    return;
  }
  route_costs_ = fold_route_costs(*routing, platform);
  last_hop_data_ = route_costs_.last_hop.data();
  route_data_ = route_costs_.route.data();
}

TimelineOverlay& EftEngine::overlay_of(
    std::vector<TimelineOverlay>& overlays, std::vector<std::uint64_t>& epochs,
    const std::vector<TimelineIndex>& base, ProcId p) const {
  const auto i = static_cast<std::size_t>(p);
  if (epochs[i] != epoch_) {
    prof::bump(prof::Counter::kOverlayResets);
    overlays[i].reset(base[i]);
    epochs[i] = epoch_;
  }
  return overlays[i];
}

const std::vector<EftEngine::PredRec>& EftEngine::sorted_preds(
    TaskId v) const {
  // Predecessor lanes ordered by data-ready time (finish asc, id asc).
  // The order only depends on committed placements of v's predecessors,
  // which are immutable once placed, so it is computed once per task and
  // shared by every candidate-processor evaluation and lower bound.
  if (preds_task_ == v) return preds_;
  preds_task_ = kInvalidTask;  // invalidate first: the fill below can throw
  preds_.clear();
  for (const EdgeRef& e : graph_.predecessors(v)) {
    const TaskPlacement& src = placements_[e.task];
    OP_REQUIRE(src.placed(),
               "predecessor " << e.task << " of " << v << " not scheduled");
    preds_.push_back({src.finish, e.data, 0.0, e.task, src.proc});
  }
  // The sort key (finish, task) is a strict total order (ids are unique),
  // so any correct sort yields the same permutation; small fan-ins take
  // the branch-light insertion sort.
  const auto before = [](const PredRec& a, const PredRec& b) {
    if (a.finish != b.finish) return a.finish < b.finish;
    return a.task < b.task;
  };
  if (preds_.size() <= 16) {
    for (std::size_t i = 1; i < preds_.size(); ++i) {
      const PredRec key = preds_[i];
      std::size_t j = i;
      for (; j > 0 && before(key, preds_[j - 1]); --j) preds_[j] = preds_[j - 1];
      preds_[j] = key;
    }
  } else {
    std::sort(preds_.begin(), preds_.end(), before);
  }
  // Per-predecessor message release times for the one-port lower bound:
  // a message from q -- the first hop of a routed one included -- can
  // leave no earlier than the first slot on q's committed send port that
  // fits the smallest possible transfer.  Port reservations only grow, so
  // a release computed now stays a valid lower bound even if other
  // commits land before the next evaluation.
  if (model_ == CommModel::kOnePort) {
    for (PredRec& r : preds_) {
      const auto q = static_cast<std::size_t>(r.proc);
      const double min_duration = r.data * min_out_link_[q];
      r.release = min_duration <= kTimeEps
                      ? r.finish
                      : send_[q].next_fit(r.finish, min_duration);
    }
  }
  preds_task_ = v;
  return preds_;
}

void EftEngine::evaluate_into(TaskId v, ProcId proc, Evaluation& out) const {
  evaluate_into(v, proc, out, std::numeric_limits<double>::infinity());
}

void EftEngine::evaluate_into(TaskId v, ProcId proc, Evaluation& out,
                              double cutoff) const {
  OP_REQUIRE(proc >= 0 && proc < platform_.num_processors(),
             "processor out of range");
  OP_REQUIRE(!scheduled(v), "task " << v << " already scheduled");

  out.task = v;
  out.proc = proc;
  out.comms.clear();

  const std::vector<PredRec>& preds = sorted_preds(v);
  const double exec = graph_.weight(v) * cycle_data_[proc];

  // Overlay-free fast path (one-port, direct links): when every cross
  // predecessor sits on a *distinct* sender, no send port ever carries
  // more than one tentative message within this evaluation, so the
  // committed send timelines can be probed directly -- a sender overlay
  // with no extras forwards every probe to its base verbatim.  Only the
  // receive port of `proc` accumulates tentative reservations, in one
  // scratch overlay, so the evaluation is bit-identical to the general
  // path's.  The per-processor overlays are never touched here, which
  // makes skipping the epoch bump safe: every general evaluation still
  // bumps before reading one.
  if (model_ == CommModel::kOnePort && routing_ == nullptr && np_ <= 64) {
    std::uint64_t seen = 0;
    bool distinct = true;
    for (const PredRec& r : preds) {
      if (r.proc == proc) continue;
      const std::uint64_t bit = std::uint64_t{1}
                                << static_cast<unsigned>(r.proc);
      if ((seen & bit) != 0) {
        distinct = false;
        break;
      }
      seen |= bit;
    }
    if (distinct) {
      recv_scratch_.reset(recv_[static_cast<std::size_t>(proc)]);
      double arrival = 0.0;
      for (const PredRec& r : preds) {
        if (arrival + exec > cutoff) {
          out.start = arrival;
          out.finish = arrival + exec;
          return;
        }
        if (r.proc == proc) {
          arrival = std::max(arrival, r.finish);
          continue;
        }
        const double duration =
            r.data * link_data_[static_cast<std::size_t>(r.proc) * np_ +
                                static_cast<std::size_t>(proc)];
        OP_REQUIRE(std::isfinite(duration),
                   "no direct link P" << r.proc << "->P" << proc
                                      << " and no routing table provided");
        const double start =
            earliest_joint_fit(send_[static_cast<std::size_t>(r.proc)],
                               recv_scratch_, r.finish, duration);
        recv_scratch_.add(start, start + duration);
        out.comms.push_back(
            {r.task, v, r.proc, proc, start, start + duration});
        arrival = std::max(arrival, start + duration);
      }
      out.start =
          compute_[static_cast<std::size_t>(proc)].next_fit(arrival, exec);
      out.finish = out.start + exec;
      return;
    }
  }

  // A new epoch lazily invalidates every scratch overlay from the
  // previous evaluation.
  ++epoch_;
  double arrival = 0.0;
  for (const PredRec& r : preds) {
    // Message arrivals only push `arrival` up, so once even the partial
    // arrival makes finish overshoot the cutoff the candidate is dead:
    // report the (still sound) lower bound and skip the remaining
    // tentative messages.  Overlay state needs no cleanup -- the next
    // evaluation's epoch bump invalidates it wholesale.
    if (arrival + exec > cutoff) {
      out.start = arrival;
      out.finish = arrival + exec;
      return;
    }
    if (r.proc == proc) {
      arrival = std::max(arrival, r.finish);
      continue;
    }
    // Each hop is a store-and-forward message; a direct link is the
    // one-hop route.
    if (routing_ != nullptr) {
      routing_->path_into(r.proc, proc, path_scratch_);
    } else {
      path_scratch_.assign({r.proc, proc});
    }
    double cursor = r.finish;
    for (std::size_t h = 0; h + 1 < path_scratch_.size(); ++h) {
      const ProcId a = path_scratch_[h];
      const ProcId b = path_scratch_[h + 1];
      const double duration =
          r.data * link_data_[static_cast<std::size_t>(a) * np_ +
                              static_cast<std::size_t>(b)];
      OP_REQUIRE(std::isfinite(duration),
                 "no direct link P" << a << "->P" << b
                                    << " and no routing table provided");
      double start = cursor;
      if (model_ == CommModel::kOnePort) {
        TimelineOverlay& send_ov =
            overlay_of(send_overlays_, send_epochs_, send_, a);
        TimelineOverlay& recv_ov =
            overlay_of(recv_overlays_, recv_epochs_, recv_, b);
        start = earliest_joint_fit(send_ov, recv_ov, cursor, duration);
        send_ov.add(start, start + duration);
        recv_ov.add(start, start + duration);
      }
      out.comms.push_back({r.task, v, a, b, start, start + duration});
      cursor = start + duration;
    }
    arrival = std::max(arrival, cursor);
  }

  out.start =
      compute_[static_cast<std::size_t>(proc)].next_fit(arrival, exec);
  out.finish = out.start + exec;
}

Evaluation EftEngine::evaluate(TaskId v, ProcId proc) const {
  Evaluation eval;
  evaluate_into(v, proc, eval);
  return eval;
}

void EftEngine::fill_bounds(TaskId v) const {
  // Every incoming message needs at least its route's transfer time after
  // the predecessor finishes, and the task itself needs its execution
  // time; port contention and compute gaps only push the real finish
  // later.  Under the one-port model two terms tighten the arrival bound
  // (proved in the header comment): the first hop waits for the sender's
  // send port (`release`), and the last hops of all messages queue on
  // the candidate's receive port (the ERD chain over `last_hop_data_`).
  // Direct links are the case where the last hop and the route are the
  // link itself.  Sound, so pruning on it cannot change evaluate_best's
  // answer.
  //
  // All processor lanes advance together in one pass over the
  // predecessor lanes: each predecessor updates every lane with the
  // dense row of its route costs, then restores its own lane to the
  // same-processor recurrence.  Per lane this replays exactly the scalar
  // per-processor recurrence (same operations, same order), so the
  // bounds are bit-identical to evaluating one processor at a time.
  const std::vector<PredRec>& preds = sorted_preds(v);
  const std::size_t np = np_;
  arr_scratch_.assign(np, 0.0);
  double* const arr = arr_scratch_.data();
  if (model_ == CommModel::kOnePort) {
    chain_scratch_.assign(np, 0.0);
    double* const chain = chain_scratch_.data();
    for (const PredRec& r : preds) {
      const auto q = static_cast<std::size_t>(r.proc);
      const double* const last_row = last_hop_data_ + q * np;
      const double* const route_row = route_data_ + q * np;
      const double f = r.finish;
      const double rel = r.release;
      const double saved_chain = chain[q];
      const double saved_arr = arr[q];
      for (std::size_t p = 0; p < np; ++p) {
        chain[p] = std::max(chain[p], f) + r.data * last_row[p];
        arr[p] = std::max(arr[p], rel + r.data * route_row[p]);
      }
      chain[q] = saved_chain;
      arr[q] = std::max(saved_arr, f);
    }
    for (std::size_t p = 0; p < np; ++p) {
      arr[p] = std::max(arr[p], chain[p]);
    }
  } else {
    for (const PredRec& r : preds) {
      const auto q = static_cast<std::size_t>(r.proc);
      const double* const row = route_data_ + q * np;
      const double f = r.finish;
      const double saved = arr[q];
      for (std::size_t p = 0; p < np; ++p) {
        arr[p] = std::max(arr[p], f + r.data * row[p]);
      }
      arr[q] = std::max(saved, f);
    }
  }
  // Keys are arrival + execution only; the compute-timeline tightening
  // (next_fit on the arrival bound) is deferred to evaluate_best, which
  // probes a candidate only when it actually reaches the front of the
  // scan -- candidates pruned on the cheap key never pay for a probe.
  const double w = graph_.weight(v);
  bounds_scratch_.clear();
  for (std::size_t p = 0; p < np; ++p) {
    bounds_scratch_.emplace_back(arr[p] + w * cycle_data_[p],
                                 static_cast<ProcId>(p));
  }
}

const Evaluation& EftEngine::evaluate_best(TaskId v) const {
  // Evaluate candidates in ascending lower-bound order: the first
  // evaluation is then almost always the eventual winner, and every
  // candidate whose bound lies strictly beyond the winner's tolerance
  // band is pruned without scheduling a single tentative message.  The
  // winner minimizes (finish, processor id) under the usual kTimeEps
  // tolerance -- the documented contract; pruning uses the strict
  // `bound > best.finish + kTimeEps` test so a candidate eps-tied with
  // the current best is never pruned away from the id tie-break.
  // Caveat: the eps tolerance is not transitive, so in a chain of
  // pairwise-within-eps finishes (differences below 1e-7, never
  // observed from real inputs) the pick can depend on the bound order.
  //
  // The order is the one an upfront-tightened scan would use -- keys
  // tightened through the compute timeline (next_fit is monotone in
  // `ready`, so tightening only raises a key) -- but tightening runs
  // lazily.  Candidates sit in two pools: bounds_scratch_, on the cheap
  // arrival+exec key, and tight_scratch_, holding already-probed keys.
  // Whichever pool fronts the smaller (key, proc) pair acts: a cheap
  // front is probed and moved to the tight pool (its cheap key
  // lower-bounds every un-probed tight key, so nothing can precede it),
  // a tight front is pruned or evaluated.  Tight pops therefore happen
  // in exactly the upfront scan's order, and a candidate pruned on its
  // cheap key alone (still a sound finish bound) never pays for a probe.
  //
  // Few candidates ever leave the cheap pool, so it is never sorted
  // whole: it is ordered in rounds (select_round), each bringing the
  // next kRoundKeys keys to its front, and the next round starts only
  // when one is used up.  Once both fronts are finite and beyond the
  // band, so is every finite key behind them, and the scan cuts them
  // all at once: exactly the prunes a key-by-key scan would make.
  fill_bounds(v);
  tight_scratch_.clear();
  const double w = graph_.weight(v);
  const double inf = std::numeric_limits<double>::infinity();
  const auto finite = [](const Key& k) { return std::isfinite(k.first); };

  Evaluation& best = best_scratch_;
  Evaluation& candidate = cand_scratch_;
  best.task = kInvalidTask;
  best.proc = -1;
  best.start = 0.0;
  best.finish = 0.0;
  best.comms.clear();
  Key* const cheap = bounds_scratch_.data();
  std::size_t i = 0;
  std::size_t round_end = 0;
  std::size_t n = bounds_scratch_.size();
  while (i < n || !tight_scratch_.empty()) {
    if (i == round_end && i < n) {
      round_end = static_cast<std::size_t>(
          select_round(cheap + i, cheap + n) - cheap);
    }
    const bool take_cheap =
        i < n && (tight_scratch_.empty() || cheap[i] < tight_scratch_.back());
    const auto [bound, p] = take_cheap ? cheap[i] : tight_scratch_.back();
    // A non-finite bound means a missing link: never pruned, so
    // evaluate_into reports it exactly as an exhaustive scan would.
    //
    // Two exact prune tests, both on sound lower bounds (true finish f
    // >= bound).  Beyond the tolerance band (bound > best.finish + eps)
    // the candidate can neither win nor eps-tie, and neither can any
    // finite key behind it: the cut.  *Inside* the band a higher-id
    // candidate is equally dead: f >= bound >= best.finish - eps rules
    // out a strict win, and the eps-tie break needs the *smaller* id.
    // Either way the outcome equals evaluating the candidate and
    // watching it lose, so the scan's result is unchanged.
    if (best.proc >= 0 && std::isfinite(bound)) {
      if (bound > best.finish + kTimeEps) {
        Key* const cheap_kept = std::remove_if(cheap + i, cheap + n, finite);
        const auto tight_kept = std::remove_if(
            tight_scratch_.begin(), tight_scratch_.end(), finite);
        prof::bump(prof::Counter::kPruneSkips,
                   static_cast<std::uint64_t>(
                       (cheap + n - cheap_kept) +
                       (tight_scratch_.end() - tight_kept)));
        n = static_cast<std::size_t>(cheap_kept - cheap);
        round_end = i;  // the missing links left over need a new round
        tight_scratch_.erase(tight_kept, tight_scratch_.end());
        continue;
      }
      if (p > best.proc && bound >= best.finish - kTimeEps) {
        prof::bump(prof::Counter::kPruneSkips);
        if (take_cheap) {
          ++i;
        } else {
          tight_scratch_.pop_back();
        }
        continue;
      }
    }
    if (take_cheap) {
      ++i;
      // Probe from the raw arrival lane, not `bound - exec`: the
      // round-trip through the sum is not bit-exact.
      const double exec = w * cycle_data_[static_cast<std::size_t>(p)];
      const double start = compute_[static_cast<std::size_t>(p)].next_fit(
          arr_scratch_[static_cast<std::size_t>(p)], exec);
      const Key key(start + exec, p);
      tight_scratch_.insert(
          std::upper_bound(tight_scratch_.begin(), tight_scratch_.end(), key,
                           [](const Key& a, const Key& b) { return b < a; }),
          key);
      continue;
    }
    tight_scratch_.pop_back();
    prof::bump(prof::Counter::kPruneEvals);
    // Abandon the evaluation as soon as it provably cannot reach the
    // (finish, proc) win test: a higher-id candidate must finish
    // strictly below the band to win, a lower-id one may still take the
    // eps-tie.  +inf (full evaluation) for the first candidate and for
    // missing-link reporting.
    evaluate_into(v, p, candidate,
                  best.proc >= 0 && std::isfinite(bound)
                      ? (p > best.proc ? best.finish - kTimeEps
                                       : best.finish + kTimeEps)
                      : inf);
    if (best.proc < 0 || candidate.finish < best.finish - kTimeEps ||
        (candidate.finish <= best.finish + kTimeEps &&
         candidate.proc < best.proc)) {
      std::swap(best, candidate);
    }
  }
  return best;
}

void EftEngine::commit(const Evaluation& eval) {
  OP_REQUIRE(eval.task != kInvalidTask && eval.proc >= 0,
             "cannot commit an empty evaluation");
  OP_REQUIRE(!scheduled(eval.task),
             "task " << eval.task << " already scheduled");
  prof::bump(prof::Counter::kEngineCommits);
  if (model_ == CommModel::kOnePort) {
    for (const CommPlacement& c : eval.comms) {
      send_[static_cast<std::size_t>(c.from)].reserve(c.start, c.finish);
      recv_[static_cast<std::size_t>(c.to)].reserve(c.start, c.finish);
    }
  }
  comms_.insert(comms_.end(), eval.comms.begin(), eval.comms.end());
  compute_[static_cast<std::size_t>(eval.proc)].reserve(eval.start,
                                                        eval.finish);
  placements_[eval.task] = TaskPlacement{eval.proc, eval.start, eval.finish};
  for (const EdgeRef& e : graph_.successors(eval.task)) {
    OP_ASSERT(pending_preds_[e.task] > 0,
              "indegree counter underflow at task " << e.task);
    --pending_preds_[e.task];
  }
}

Schedule EftEngine::build_schedule() && {
  for (TaskId v = 0; v < graph_.num_tasks(); ++v) {
    OP_REQUIRE(placements_[v].placed(), "task " << v << " never scheduled");
  }
  // Bulk export through Schedule's arena constructor, which adopts both
  // record stores: one validated pass over each, no copy.
  return Schedule(std::move(placements_), std::move(comms_));
}

}  // namespace oneport

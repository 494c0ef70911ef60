// Tests for the perturbation-robustness replay.
#include <gtest/gtest.h>

#include "core/heft.hpp"
#include "sched/replay.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

TEST(PerturbedReplay, ZeroNoiseEqualsAsapReplay) {
  const TaskGraph g = testbeds::make_lu(10, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  const Schedule exact = asap_replay(s, g, p, CommModel::kOnePort);
  const Schedule noisy = perturbed_replay(s, g, p, CommModel::kOnePort,
                                          0.0, 7);
  EXPECT_NEAR(noisy.makespan(), exact.makespan(), 1e-9);
}

TEST(PerturbedReplay, DeterministicInSeed) {
  const TaskGraph g = testbeds::make_stencil(8, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  const Schedule a = perturbed_replay(s, g, p, CommModel::kOnePort, 0.3, 42);
  const Schedule b = perturbed_replay(s, g, p, CommModel::kOnePort, 0.3, 42);
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
  const Schedule c = perturbed_replay(s, g, p, CommModel::kOnePort, 0.3, 43);
  EXPECT_NE(a.makespan(), c.makespan());
}

TEST(PerturbedReplay, DegradationIsBoundedByNoise) {
  // Every duration grows by at most (1 + noise), and the event graph is a
  // longest-path computation whose arc lags scale by at most that factor,
  // so the makespan cannot grow beyond (1 + noise) * asap.
  const TaskGraph g = testbeds::make_laplace(10, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  const double base = asap_replay(s, g, p, CommModel::kOnePort).makespan();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const double noisy =
        perturbed_replay(s, g, p, CommModel::kOnePort, 0.25, seed).makespan();
    EXPECT_LE(noisy, base * 1.25 + 1e-6);
    EXPECT_GE(noisy, base * 0.75 - 1e-6);
  }
}

TEST(PerturbedReplay, KeepsAllocation) {
  const TaskGraph g = testbeds::make_doolittle(8, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  const Schedule noisy =
      perturbed_replay(s, g, p, CommModel::kOnePort, 0.4, 5);
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(noisy.task(v).proc, s.task(v).proc);
  }
}

TEST(PerturbedReplay, RejectsInvalidNoise) {
  const TaskGraph g = testbeds::make_fork_join(3, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = heft(g, p, {});
  EXPECT_THROW(perturbed_replay(s, g, p, CommModel::kOnePort, -0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(perturbed_replay(s, g, p, CommModel::kOnePort, 1.0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace oneport

#include <gtest/gtest.h>

#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "sched/replay.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

TEST(Replay, IdentityOnTightSchedule) {
  // A hand-built already-ASAP schedule replays to itself.
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 2.0);
  g.finalize();
  const Platform p({1.0, 1.0}, 1.0);
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.place_task(1, 1, 3.0, 4.0);

  const Schedule r = asap_replay(s, g, p, CommModel::kOnePort);
  EXPECT_DOUBLE_EQ(r.makespan(), 4.0);
  EXPECT_DOUBLE_EQ(r.task(1).start, 3.0);
}

TEST(Replay, TightensPaddedSchedule) {
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  const Platform p({1.0, 1.0}, 1.0);
  Schedule s(2);
  // Gratuitous idle time everywhere.
  s.place_task(0, 0, 5.0, 6.0);
  s.add_comm({0, 1, 0, 1, 10.0, 11.0});
  s.place_task(1, 1, 20.0, 21.0);

  const Schedule r = asap_replay(s, g, p, CommModel::kOnePort);
  EXPECT_DOUBLE_EQ(r.task(0).start, 0.0);
  EXPECT_DOUBLE_EQ(r.makespan(), 3.0);
  EXPECT_TRUE(validate_one_port(r, g, p).ok());
}

TEST(Replay, NeverIncreasesValidOnePortMakespan) {
  const TaskGraph g = testbeds::make_lu(20, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  const Schedule r = asap_replay(s, g, p, CommModel::kOnePort);
  EXPECT_LE(r.makespan(), s.makespan() + 1e-6);
  EXPECT_TRUE(validate_one_port(r, g, p).ok());
}

TEST(Replay, MacroScheduleUnderOnePortSerializesPorts) {
  // The section-2.3 fork: macro HEFT achieves 3, but its allocation costs
  // >= 6 once the four messages serialize on P0's send port.
  const TaskGraph g = testbeds::make_fork(1.0, std::vector<double>(6, 1.0),
                                          std::vector<double>(6, 1.0));
  const Platform p = make_homogeneous_platform(5, 1.0, 1.0);
  const Schedule macro = heft(g, p, {.model = CommModel::kMacroDataflow});
  EXPECT_DOUBLE_EQ(macro.makespan(), 3.0);

  const Schedule replayed = asap_replay(macro, g, p, CommModel::kOnePort);
  EXPECT_TRUE(validate_one_port(replayed, g, p).ok());
  EXPECT_DOUBLE_EQ(replayed.makespan(), 6.0);

  // Replaying under the macro rules keeps the contention-free makespan.
  const Schedule macro_again =
      asap_replay(macro, g, p, CommModel::kMacroDataflow);
  EXPECT_DOUBLE_EQ(macro_again.makespan(), 3.0);
}

TEST(Replay, PreservesAllocationAndOrders) {
  const TaskGraph g = testbeds::make_stencil(8, 5.0);
  const Platform p({1.0, 2.0, 3.0}, 1.0);
  const Schedule s = ilha(g, p, {.model = CommModel::kOnePort,
                                 .chunk_size = 6});
  const Schedule r = asap_replay(s, g, p, CommModel::kOnePort);
  ASSERT_EQ(r.num_tasks(), s.num_tasks());
  for (TaskId v = 0; v < s.num_tasks(); ++v) {
    EXPECT_EQ(r.task(v).proc, s.task(v).proc);
  }
  EXPECT_EQ(r.num_comms(), s.num_comms());
}

TEST(Replay, RequiresCompleteSchedule) {
  TaskGraph g;
  g.add_task(1.0);
  g.finalize();
  const Platform p({1.0}, 1.0);
  const Schedule s(1);  // unplaced
  EXPECT_THROW(asap_replay(s, g, p, CommModel::kOnePort),
               std::invalid_argument);
}

TEST(Replay, MissingMessageIsRejected) {
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  const Platform p({1.0, 1.0}, 1.0);
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 1, 2.0, 3.0);  // cross-proc edge but no message recorded
  EXPECT_THROW(asap_replay(s, g, p, CommModel::kOnePort),
               std::invalid_argument);
}

}  // namespace
}  // namespace oneport

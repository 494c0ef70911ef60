#include <gtest/gtest.h>

#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

/// The §4.4 toy example (Figure 3): ids follow the paper's ranking.
TaskGraph make_toy() {
  TaskGraph g;
  const TaskId a0 = g.add_task(1.0, "a0");
  const TaskId b0 = g.add_task(1.0, "b0");
  const TaskId a1 = g.add_task(1.0, "a1");
  const TaskId a2 = g.add_task(1.0, "a2");
  const TaskId a3 = g.add_task(1.0, "a3");
  const TaskId ab1 = g.add_task(1.0, "ab1");
  const TaskId ab2 = g.add_task(1.0, "ab2");
  const TaskId b3 = g.add_task(1.0, "b3");
  const TaskId b2 = g.add_task(1.0, "b2");
  const TaskId b1 = g.add_task(1.0, "b1");
  for (const TaskId c : {a1, a2, a3, ab1, ab2}) g.add_edge(a0, c, 1.0);
  for (const TaskId c : {ab1, ab2, b3, b2, b1}) g.add_edge(b0, c, 1.0);
  g.finalize();
  return g;
}

TEST(Ilha, ToyExampleReducesCommunications) {
  const TaskGraph g = make_toy();
  const Platform p = make_homogeneous_platform(2, 1.0, 1.0);
  const Schedule hs = heft(g, p, {.model = CommModel::kOnePort});
  const Schedule is = ilha(g, p, {.model = CommModel::kOnePort,
                                  .chunk_size = 8});
  EXPECT_TRUE(validate_one_port(is, g, p).ok());
  // "the makespan is smaller, but also the number of communications has
  // dramatically been reduced"
  EXPECT_LE(is.makespan(), hs.makespan() + 1e-9);
  EXPECT_LT(is.num_comms(), hs.num_comms());
  // Step 1 keeps each family with its parent: only the two shared
  // children need a message.
  EXPECT_EQ(is.num_comms(), 2u);
}

TEST(Ilha, ToyExampleStep1Colocation) {
  const TaskGraph g = make_toy();
  const Platform p = make_homogeneous_platform(2, 1.0, 1.0);
  const Schedule s = ilha(g, p, {.model = CommModel::kOnePort,
                                 .chunk_size = 8});
  // a-family with a0, b-family with b0.
  const ProcId pa = s.task(0).proc;
  const ProcId pb = s.task(1).proc;
  EXPECT_NE(pa, pb);
  for (const TaskId v : {2u, 3u, 4u}) EXPECT_EQ(s.task(v).proc, pa);
  for (const TaskId v : {7u, 8u, 9u}) EXPECT_EQ(s.task(v).proc, pb);
}

TEST(Ilha, ChunkSizeClampedToProcessorCount) {
  // "B must be at least equal to the number of processors."
  const TaskGraph g = testbeds::make_laplace(8, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = ilha(g, p, {.model = CommModel::kOnePort,
                                 .chunk_size = 1});
  EXPECT_TRUE(validate_one_port(s, g, p).ok());
}

TEST(Ilha, RejectsNonPositiveChunk) {
  const TaskGraph g = testbeds::make_laplace(4, 10.0);
  const Platform p = make_paper_platform();
  EXPECT_THROW(ilha(g, p, {.chunk_size = 0}), std::invalid_argument);
}

TEST(Ilha, QuotaLimitsStep1Colocation) {
  // One parent with many children: without the quota, step 1 would dump
  // every child on the parent's processor; the quota caps its share of
  // each chunk, so at least one other processor must receive work.
  TaskGraph g;
  const TaskId parent = g.add_task(1.0);
  for (int i = 0; i < 16; ++i) {
    const TaskId child = g.add_task(1.0);
    g.add_edge(parent, child, 0.01);  // communications almost free
  }
  g.finalize();
  const Platform p = make_homogeneous_platform(4, 1.0, 1.0);
  const Schedule s = ilha(g, p, {.model = CommModel::kOnePort,
                                 .chunk_size = 16});
  EXPECT_TRUE(validate_one_port(s, g, p).ok());
  std::vector<int> count(4, 0);
  for (TaskId v = 1; v < g.num_tasks(); ++v) {
    ++count[static_cast<std::size_t>(s.task(v).proc)];
  }
  // Quota for a 16-task unit-weight chunk on 4 same-speed processors is 4.
  EXPECT_LE(count[static_cast<std::size_t>(s.task(parent).proc)], 5);
}

TEST(Ilha, MacroModelValidates) {
  const TaskGraph g = testbeds::make_lu(15, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = ilha(g, p, {.model = CommModel::kMacroDataflow,
                                 .chunk_size = 38});
  EXPECT_TRUE(validate_macro_dataflow(s, g, p).ok());
}

TEST(IlhaVariants, AllValidate) {
  const TaskGraph g = testbeds::make_stencil(12, 10.0);
  const Platform p = make_paper_platform();
  for (const bool quota : {false, true}) {
    for (const bool scan : {false, true}) {
      for (const bool resched : {false, true}) {
        const Schedule s = ilha(g, p, {.model = CommModel::kOnePort,
                                       .chunk_size = 20,
                                       .quota_in_step2 = quota,
                                       .single_comm_scan = scan,
                                       .reschedule_comms = resched});
        EXPECT_TRUE(validate_one_port(s, g, p).ok())
            << "quota=" << quota << " scan=" << scan << " resched=" << resched;
      }
    }
  }
}

TEST(IlhaVariants, RescheduleNeverHurts) {
  // ilha() only adopts the rebuilt schedule when it improves.
  const TaskGraph g = testbeds::make_doolittle(20, 10.0);
  const Platform p = make_paper_platform();
  const Schedule base = ilha(g, p, {.model = CommModel::kOnePort,
                                    .chunk_size = 20});
  const Schedule resched = ilha(g, p, {.model = CommModel::kOnePort,
                                       .chunk_size = 20,
                                       .reschedule_comms = true});
  EXPECT_LE(resched.makespan(), base.makespan() + 1e-9);
}

TEST(RescheduleFixedAllocation, KeepsAllocation) {
  const TaskGraph g = testbeds::make_laplace(10, 10.0);
  const Platform p = make_paper_platform();
  const Schedule s = heft(g, p, {.model = CommModel::kOnePort});
  std::vector<ProcId> alloc(g.num_tasks());
  for (TaskId v = 0; v < g.num_tasks(); ++v) alloc[v] = s.task(v).proc;
  const Schedule r = reschedule_fixed_allocation(g, p, alloc,
                                                 CommModel::kOnePort);
  EXPECT_TRUE(validate_one_port(r, g, p).ok());
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(r.task(v).proc, alloc[v]);
  }
}

TEST(RescheduleFixedAllocation, ArityChecked) {
  const TaskGraph g = testbeds::make_laplace(4, 10.0);
  const Platform p = make_paper_platform();
  EXPECT_THROW(reschedule_fixed_allocation(g, p, {0, 1},
                                           CommModel::kOnePort),
               std::invalid_argument);
}

TEST(RescheduleFixedAllocation, ProcessorRangeChecked) {
  // -1 would read as "earliest finish" to the priority loop, so the
  // rebuild must reject it up front, like any processor off the platform.
  const TaskGraph g = testbeds::make_laplace(4, 10.0);
  const Platform p = make_paper_platform();
  for (const ProcId bad : {-1, p.num_processors()}) {
    std::vector<ProcId> alloc(g.num_tasks(), 0);
    alloc.back() = bad;
    EXPECT_THROW(reschedule_fixed_allocation(g, p, alloc, CommModel::kOnePort),
                 std::invalid_argument)
        << "processor " << bad;
  }
}

TEST(Ilha, DeterministicAcrossRuns) {
  const TaskGraph g = testbeds::make_ldmt(12, 10.0);
  const Platform p = make_paper_platform();
  const Schedule a = ilha(g, p, {.chunk_size = 20});
  const Schedule b = ilha(g, p, {.chunk_size = 20});
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(a.task(v).proc, b.task(v).proc);
    EXPECT_DOUBLE_EQ(a.task(v).start, b.task(v).start);
  }
}

}  // namespace
}  // namespace oneport

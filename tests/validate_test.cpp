// The validators are the library's ground truth, so they get adversarial
// tests: hand-built schedules with exactly one rule violated each, and
// checks that the error messages point at the right rule.
#include <gtest/gtest.h>

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "sched/validate.hpp"

namespace oneport {
namespace {

/// Two-task chain u -> v, data 2; two unit-speed processors, link 1.
struct ChainFixture {
  ChainFixture() {
    graph.add_task(1.0);
    graph.add_task(1.0);
    graph.add_edge(0, 1, 2.0);
    graph.finalize();
  }
  TaskGraph graph;
  Platform platform{{1.0, 1.0}, 1.0};
};

TEST(ValidateMacro, AcceptsSameProcChain) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 0, 1.0, 2.0);
  EXPECT_TRUE(validate_macro_dataflow(s, f.graph, f.platform).ok());
  EXPECT_TRUE(validate_one_port(s, f.graph, f.platform).ok());
}

TEST(ValidateMacro, AcceptsCrossProcWithMessage) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.place_task(1, 1, 3.0, 4.0);
  EXPECT_TRUE(validate_macro_dataflow(s, f.graph, f.platform).ok());
  EXPECT_TRUE(validate_one_port(s, f.graph, f.platform).ok());
}

TEST(ValidateMacro, MissingPlacement) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("M1"), std::string::npos);
}

TEST(ValidateMacro, WrongDuration) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 2.5);  // w*t = 1
  s.place_task(1, 0, 2.5, 3.5);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("M2"), std::string::npos);
}

TEST(ValidateMacro, ComputeOverlap) {
  TaskGraph g;
  g.add_task(2.0);
  g.add_task(2.0);
  g.finalize();
  const Platform p({1.0}, 1.0);
  Schedule s(2);
  s.place_task(0, 0, 0.0, 2.0);
  s.place_task(1, 0, 1.0, 3.0);
  const ValidationResult r = validate_macro_dataflow(s, g, p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("M3"), std::string::npos);
}

TEST(ValidateMacro, PrecedenceViolationSameProc) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 0, 0.5, 1.5);  // starts before parent ends
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("M3"), std::string::npos);  // also overlaps
}

TEST(ValidateMacro, MissingMessage) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 1, 3.0, 4.0);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("found none"), std::string::npos);
}

TEST(ValidateMacro, MessageTooShort) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 2.0});  // needs duration 2
  s.place_task(1, 1, 2.0, 3.0);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("duration"), std::string::npos);
}

TEST(ValidateMacro, MessageBeforeSourceFinishes) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 0.5, 2.5});
  s.place_task(1, 1, 2.5, 3.5);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("before source finishes"), std::string::npos);
}

TEST(ValidateMacro, SuccessorBeforeMessageArrives) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.place_task(1, 1, 2.0, 3.0);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("before the last hop arrives"), std::string::npos);
}

TEST(ValidateMacro, SpuriousMessages) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 0, 1.0, 2.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});  // same-proc edge with a message
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("M5"), std::string::npos);
}

TEST(ValidateMacro, MessageOnWrongProcessors) {
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  const Platform p({1.0, 1.0, 1.0}, 1.0);
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 2, 1, 1.0, 2.0});  // claims to leave from P2
  s.place_task(1, 1, 2.0, 3.0);
  const ValidationResult r = validate_macro_dataflow(s, g, p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("hop"), std::string::npos);
}

// ------------------------------------------------------------- one-port

/// Fork 0 -> {1, 2} on three processors; both messages leave P0.
struct ForkFixture {
  ForkFixture() {
    graph.add_task(1.0);
    graph.add_task(1.0);
    graph.add_task(1.0);
    graph.add_edge(0, 1, 2.0);
    graph.add_edge(0, 2, 2.0);
    graph.finalize();
  }
  TaskGraph graph;
  Platform platform{{1.0, 1.0, 1.0}, 1.0};
};

TEST(ValidateOnePort, RejectsOverlappingSends) {
  ForkFixture f;
  Schedule s(3);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.add_comm({0, 2, 0, 2, 1.0, 3.0});  // same send port, same interval
  s.place_task(1, 1, 3.0, 4.0);
  s.place_task(2, 2, 3.0, 4.0);
  // The macro validator is fine with it ...
  EXPECT_TRUE(validate_macro_dataflow(s, f.graph, f.platform).ok());
  // ... the one-port validator is not.
  const ValidationResult r = validate_one_port(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("O1"), std::string::npos);
}

TEST(ValidateOnePort, AcceptsSerializedSends) {
  ForkFixture f;
  Schedule s(3);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.add_comm({0, 2, 0, 2, 3.0, 5.0});
  s.place_task(1, 1, 3.0, 4.0);
  s.place_task(2, 2, 5.0, 6.0);
  EXPECT_TRUE(validate_one_port(s, f.graph, f.platform).ok());
}

TEST(ValidateOnePort, RejectsOverlappingReceives) {
  // Join {0, 1} -> 2: both messages arrive at task 2's processor.
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 2, 2.0);
  g.finalize();
  const Platform p({1.0, 1.0, 1.0}, 1.0);
  Schedule s(3);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 1, 0.0, 1.0);
  s.add_comm({0, 2, 0, 2, 1.0, 3.0});
  s.add_comm({1, 2, 1, 2, 1.0, 3.0});  // same receive port
  s.place_task(2, 2, 3.0, 4.0);
  const ValidationResult r = validate_one_port(s, g, p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("O2"), std::string::npos);
}

TEST(ValidateOnePort, SendAndReceiveMayOverlapOnOneProcessor) {
  // 0 on P0 sends to 2 on P1 while P0 receives 1's output from P2:
  // bi-directional ports are independent.
  TaskGraph g;
  g.add_task(1.0);  // 0 on P0
  g.add_task(1.0);  // 1 on P2
  g.add_task(1.0);  // 2 on P1, child of 0
  g.add_task(1.0);  // 3 on P0, child of 1
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 3, 2.0);
  g.finalize();
  const Platform p({1.0, 1.0, 1.0}, 1.0);
  Schedule s(4);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 2, 0.0, 1.0);
  s.add_comm({0, 2, 0, 1, 1.0, 3.0});  // P0 sending
  s.add_comm({1, 3, 2, 0, 1.0, 3.0});  // P0 receiving, same interval
  s.place_task(2, 1, 3.0, 4.0);
  s.place_task(3, 0, 3.0, 4.0);
  EXPECT_TRUE(validate_one_port(s, g, p).ok());
}

TEST(ValidateOnePort, DegenerateMessagesNeverConflict) {
  ForkFixture f;
  // Data 0 edges: rebuild the graph with zero volumes.
  TaskGraph g;
  g.add_task(0.0);
  g.add_task(0.0);
  g.add_task(0.0);
  g.add_edge(0, 1, 0.0);
  g.add_edge(0, 2, 0.0);
  g.finalize();
  Schedule s(3);
  s.place_task(0, 0, 0.0, 0.0);
  s.add_comm({0, 1, 0, 1, 0.0, 0.0});
  s.add_comm({0, 2, 0, 2, 0.0, 0.0});
  s.place_task(1, 1, 0.0, 0.0);
  s.place_task(2, 2, 0.0, 0.0);
  EXPECT_TRUE(validate_one_port(s, g, f.platform).ok());
}

TEST(Validate, DispatchesOnModel) {
  // Both messages hold P0's send port over [1, 3): legal under
  // macro-dataflow, an O1 violation under one-port.
  ForkFixture f;
  Schedule s(3);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.add_comm({0, 2, 0, 2, 1.0, 3.0});
  s.place_task(1, 1, 3.0, 4.0);
  s.place_task(2, 2, 3.0, 4.0);
  const ValidationResult macro =
      validate(s, f.graph, f.platform, CommModel::kMacroDataflow);
  const ValidationResult one_port =
      validate(s, f.graph, f.platform, CommModel::kOnePort);
  EXPECT_TRUE(macro.ok());
  EXPECT_FALSE(one_port.ok());
  EXPECT_EQ(macro.errors,
            validate_macro_dataflow(s, f.graph, f.platform).errors);
  EXPECT_EQ(one_port.errors, validate_one_port(s, f.graph, f.platform).errors);
}

TEST(Validate, CollectsMultipleErrors) {
  ForkFixture f;
  Schedule s(3);
  s.place_task(0, 0, 0.0, 2.0);  // M2: wrong duration
  s.place_task(1, 1, 0.0, 1.0);  // M4: no message, starts too early
  s.place_task(2, 2, 0.0, 1.0);  // M4 again
  const ValidationResult r = validate_one_port(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_GE(r.errors.size(), 3u);
}

TEST(Validate, SizeMismatchIsReported) {
  ForkFixture f;
  const Schedule s(1);
  const ValidationResult r = validate_one_port(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("graph has"), std::string::npos);
}

}  // namespace
}  // namespace oneport

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

#include "core/heft.hpp"
#include "sched/serialize.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

TEST(SerializeSchedule, RoundTripStaysValid) {
  const TaskGraph g = testbeds::make_stencil(6, 10.0);
  const Platform p = make_paper_platform();
  const Schedule original = heft(g, p, {.model = CommModel::kOnePort});
  std::stringstream buffer;
  write_schedule(buffer, original);
  const Schedule loaded = read_schedule(buffer);
  ASSERT_EQ(loaded.num_tasks(), original.num_tasks());
  EXPECT_DOUBLE_EQ(loaded.makespan(), original.makespan());
  EXPECT_EQ(loaded.num_comms(), original.num_comms());
  EXPECT_TRUE(validate_one_port(loaded, g, p).ok());
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    EXPECT_EQ(loaded.task(v).proc, original.task(v).proc);
    EXPECT_DOUBLE_EQ(loaded.task(v).start, original.task(v).start);
  }
}

TEST(SerializeSchedule, IncompleteScheduleRejected) {
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  std::stringstream buffer;
  EXPECT_THROW(write_schedule(buffer, s), std::invalid_argument);
  // Rejected before the first byte: no truncated file is left behind.
  EXPECT_TRUE(buffer.str().empty()) << buffer.str();
}

TEST(SerializeStream, WritersLeaveTheCallersPrecisionAlone) {
  const TaskGraph g = testbeds::make_lu(4, 10.0);
  const Schedule s = heft(g, make_paper_platform(),
                          {.model = CommModel::kOnePort});
  std::ostringstream os;
  os << std::setprecision(3);
  write_schedule(os, s);
  EXPECT_EQ(os.precision(), 3);
  os.str("");
  os << 0.123456;
  EXPECT_EQ(os.str(), "0.123");
}

/// The ImportError kind read_schedule rejects `text` with; kIo (which no
/// in-memory stream produces) when it is accepted.
ImportError::Kind reject_kind(const std::string& text) {
  std::istringstream is(text);
  try {
    (void)read_schedule(is);
  } catch (const ImportError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "accepted:\n" << text;
  return ImportError::Kind::kIo;
}

/// The rejection message for `text` ("" when accepted).
std::string reject_message(const std::string& text) {
  std::istringstream is(text);
  try {
    (void)read_schedule(is);
  } catch (const ImportError& e) {
    return e.what();
  }
  return {};
}

TEST(SerializeSchedule, RejectsMalformedInput) {
  EXPECT_EQ(reject_kind("task 0 0 0 1\n"), ImportError::Kind::kSyntax);
  EXPECT_EQ(reject_kind("schedule v1\ncomm 0 1 0\n"),
            ImportError::Kind::kSyntax);
  EXPECT_EQ(reject_kind(""), ImportError::Kind::kSyntax);
  EXPECT_EQ(reject_kind("schedule v2\n"), ImportError::Kind::kSyntax);
  EXPECT_EQ(reject_kind("schedule v1\nplace 0 0 0 1\n"),
            ImportError::Kind::kSyntax);
}

// The bytes after a record's last field used to be dropped.
TEST(SerializeSchedule, RejectsTrailingFieldsWithTheirLine) {
  const struct {
    const char* text;
    const char* line;
  } cases[] = {
      {"schedule v1 extra\ntask 0 0 0 1\n", "(line 1)"},
      {"schedule v1\ntask 0 0 0 1 999\n", "(line 2)"},
      {"schedule v1\ntask 0 0 0 1 garbage\n", "(line 2)"},
      {"schedule v1\ntask 0 0 0 1\ntask 1 1 0 1\ncomm 0 1 0 1 1 2 oops\n",
       "(line 4)"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(reject_kind(c.text), ImportError::Kind::kSyntax) << c.text;
    EXPECT_NE(reject_message(c.text).find(c.line), std::string::npos)
        << reject_message(c.text);
  }
  // A comment is not a field.
  std::istringstream commented("schedule v1 # header\ntask 0 0 0 1 # t\n");
  EXPECT_EQ(read_schedule(commented).num_tasks(), 1u);
}

// These reached Schedule::place_task / add_comm and came back as a plain
// std::invalid_argument; each now has its kind, checked at the boundary.
TEST(SerializeSchedule, RecordRulesAreTypedAtTheBoundary) {
  using K = ImportError::Kind;
  EXPECT_EQ(reject_kind("schedule v1\ntask -1 0 0 1\n"), K::kSyntax);
  EXPECT_EQ(reject_kind("schedule v1\ntask 0 -1 0 1\n"), K::kSyntax);
  EXPECT_EQ(reject_kind("schedule v1\ntask 0 0 0 1\ntask 1 1 0 1\n"
                        "comm 0 7 0 1 1 2\n"),
            K::kUnknownNode);
  EXPECT_EQ(reject_kind("schedule v1\ntask 0 0 0 1\ntask 0 1 0 1\n"),
            K::kDuplicateNode);
  EXPECT_EQ(reject_kind("schedule v1\ntask 0 0 2 1\n"), K::kBadWeight);
  EXPECT_EQ(reject_kind("schedule v1\ntask 0 0 0 1\ntask 1 1 0 1\n"
                        "comm 0 1 0 1 2 1\n"),
            K::kBadWeight);
  EXPECT_EQ(reject_kind("schedule v1\ntask 3 0 0 1\n"), K::kUnknownNode);
  EXPECT_EQ(reject_kind("schedule v1\ntask 0 0 0 1\ntask 1 1 0 1\n"
                        "comm 0 1 1 1 1 2\n"),
            K::kSyntax);
  EXPECT_EQ(reject_kind("schedule v1\ntask 0 0 0 nan\n"), K::kBadWeight);
  EXPECT_EQ(reject_kind("schedule v1\ntask 0 0 0 inf\n"), K::kBadWeight);
  EXPECT_NE(reject_message("schedule v1\ntask 0 0 0 1\ntask 0 1 0 1\n")
                .find("(line 3)"),
            std::string::npos);
}

TEST(SerializeSchedule, StreamsRecordsAcrossChunkBoundaries) {
  // Far more than one 16 KiB window, records split at every offset, and
  // one line longer than the window.
  Schedule s(3000);
  for (TaskId v = 0; v < 3000; ++v) {
    s.place_task(v, static_cast<ProcId>(v % 7), 0.1 * v, 0.1 * v + 1.0 / 3);
  }
  for (TaskId v = 1; v < 3000; ++v) {
    s.add_comm({v - 1, v, 0, 1, 0.5 * v, 0.5 * v + 0.25});
  }
  std::ostringstream os;
  write_schedule(os, s);
  const std::string text = os.str();
  ASSERT_GT(text.size(), 6u * 16384u);
  std::istringstream is(text);
  const Schedule back = read_schedule(is);
  EXPECT_EQ(back.tasks(), s.tasks());
  EXPECT_EQ(back.comms(), s.comms());

  std::istringstream long_line("schedule v1\ntask 0 0 0 1" +
                               std::string(40000, ' ') + "\n");
  EXPECT_EQ(read_schedule(long_line).num_tasks(), 1u);
}

/// write_schedule's bytes for one-port HEFT on the ~10k-task random
/// layered graph of bench_scale's scale/n=10000, pinned by size and
/// FNV-1a digest.  text_oracle_test and import_oracle_test both judge
/// the writer against std::to_chars; this pin does not depend on it.
TEST(SerializeSchedule, ScaleScheduleBytesArePinned) {
  testbeds::RandomDagOptions options;
  options.layers = 10000 / 8;
  options.max_width = 15;
  options.max_in_degree = 3;
  options.back_reach = 2;
  options.comm_ratio = 5.0;
  options.seed = 20260729 + 10000;
  const TaskGraph g = testbeds::make_random_layered(options);
  const Schedule s = heft(g, make_paper_platform(),
                          {.model = CommModel::kOnePort});
  std::ostringstream os;
  write_schedule(os, s);
  const std::string text = std::move(os).str();
  std::uint64_t digest = 0xcbf29ce484222325;
  for (const char c : text) {
    digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3;
  }
  EXPECT_EQ(text.size(), 1147388u);
  EXPECT_EQ(digest, 0x8fae0a3f9b9f6a92u);
}

}  // namespace
}  // namespace oneport

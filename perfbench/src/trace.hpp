// In-memory span recorder for the traced run.
//
// The benchmark times every call it makes into a library layer as a span
// (name, request id, parent span, start, end).  Spans stay in memory and
// are written once at exit as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev -> "Open trace file") and chrome://tracing load from
// a local file.  Per-layer self time -- a span's duration minus the time
// its child spans cover -- is derived from the same records.
//
// A disabled tracer records nothing and reads no clock, so the untraced
// run pays for none of this.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint64_t parent = 0;  ///< id of the calling span, 0 for a root
  std::uint64_t request = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int lane = 0;  ///< trace row: 0 = benchmark thread, 1 + i = service shard i
  /// True for spans that overlap their siblings in time (requests waiting
  /// in the service queue); written as async events so viewers stack them.
  bool async = false;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Starts a span now; returns its id (0 when disabled).
  std::uint64_t open(std::string name, std::uint64_t request,
                     std::uint64_t parent);
  /// Ends the span `id` now (no-op for 0).
  void close(std::uint64_t id);
  /// Records a span whose times were measured elsewhere (service
  /// responses); returns its id (0 when disabled).
  std::uint64_t record(std::string name, std::uint64_t request,
                       std::uint64_t parent, Clock::time_point start,
                       Clock::time_point end, int lane, bool async);

  /// Names a trace row (row 0 is "benchmark").
  void name_lane(int lane, std::string name) {
    lane_names_[lane] = std::move(name);
  }

  /// Self time in ms of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON; `context_json` (a JSON
  /// object) lands in the file's "otherData".
  void write_chrome_json(std::ostream& os,
                         const std::string& context_json) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<int, std::string> lane_names_ = {{0, "benchmark"}};
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t request,
             std::uint64_t parent = 0)
      : tracer_(tracer),
        id_(tracer.open(std::move(name), request, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench

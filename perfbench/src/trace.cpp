#include "trace.hpp"

#include <cstdio>
#include <ostream>

namespace perfbench {

std::uint64_t Tracer::open(std::string name, std::uint64_t request,
                           std::uint64_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  spans_[id - 1].end = Clock::now();
}

std::uint64_t Tracer::record(std::string name, std::uint64_t request,
                             std::uint64_t parent, Clock::time_point start,
                             Clock::time_point end, int lane, bool async) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  span.lane = lane;
  span.async = async;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  std::vector<double> children_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children_ms[span.parent - 1] += ms_between(span.start, span.end);
    }
  }
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    const double self =
        ms_between(span.start, span.end) - children_ms[span.id - 1];
    out.push_back(self > 0.0 ? self : 0.0);
  }
  return out;
}

namespace {

void write_us(std::ostream& os, double us) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3f", us);
  os << buffer;
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os,
                               const std::string& context_json) const {
  const auto us = [this](Clock::time_point t) {
    return 1e-3 * static_cast<double>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          t - origin_)
                          .count());
  };
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << context_json
     << ",\"traceEvents\":[\n";
  const char* separator = "";
  for (const auto& [lane, name] : lane_names_) {
    os << separator << R"({"ph":"M","name":"thread_name","pid":1,"tid":)"
       << lane << R"(,"args":{"name":")" << name << "\"}}";
    separator = ",\n";
  }
  for (const Span& span : spans_) {
    const std::string args = "{\"span\":" + std::to_string(span.id) +
                             ",\"parent\":" + std::to_string(span.parent) +
                             ",\"request\":" +
                             std::to_string(span.request) + "}";
    if (span.async) {
      // Nestable async begin/end pair keyed by the request id: Perfetto
      // draws overlapping requests on separate rows.
      os << ",\n{\"ph\":\"b\",\"cat\":\"request\",\"id\":" << span.request
         << ",\"name\":\"" << span.name << "\",\"pid\":1,\"tid\":"
         << span.lane << ",\"ts\":";
      write_us(os, us(span.start));
      os << ",\"args\":" << args << "}";
      os << ",\n{\"ph\":\"e\",\"cat\":\"request\",\"id\":" << span.request
         << ",\"name\":\"" << span.name << "\",\"pid\":1,\"tid\":"
         << span.lane << ",\"ts\":";
      write_us(os, us(span.end));
      os << "}";
    } else {
      os << ",\n{\"ph\":\"X\",\"cat\":\"layer\",\"name\":\"" << span.name
         << "\",\"pid\":1,\"tid\":" << span.lane << ",\"ts\":";
      write_us(os, us(span.start));
      os << ",\"dur\":";
      write_us(os, us(span.end) - us(span.start));
      os << ",\"args\":" << args << "}";
    }
  }
  os << "\n]}\n";
}

}  // namespace perfbench

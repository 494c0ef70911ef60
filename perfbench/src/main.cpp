// perfbench: the repository benchmark (workloads and metrics in README.md).
//
//   perfbench --workload large-dag|service-open|routed-trace|all
//             [--seed N] [--seconds S] [--trace 0|1]
//             [--commit ID] [--trace-dir DIR]
//
// Prints human-readable notes, one "context" JSON line, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}:
// every end-to-end metric when --trace 0, every per-layer metric when
// --trace 1.  The traced run also writes its spans to
// DIR/perfbench-<workload>-seed<N>.json (Chrome trace-event JSON).  Exits
// 1 when any output fails its correctness check, 2 on bad arguments.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/profiler.hpp"
#include "workloads.hpp"

namespace perfbench {

double peak_rss_mb() {
  // VmHWM belongs to this program image.  getrusage's ru_maxrss would
  // also count the process that forked us: Linux carries it across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

struct Args {
  std::string workload;
  RunOptions run;
  std::string commit = "unknown";
  std::string trace_dir = ".";
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
  brand = brand.c_str();  // drop the NUL padding
  const auto first = brand.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : brand.substr(first);
#else
  return "unknown";
#endif
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string context_json(const Args& args, std::string_view workload) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::ostringstream os;
  os << "{\"workload\":" << json_string(workload)
     << ",\"commit\":" << json_string(args.commit)
     << ",\"seed\":" << args.run.seed
     << ",\"seconds\":" << json_number(args.run.seconds)
     << ",\"trace\":" << (args.run.trace ? 1 : 0)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":" << json_string(cpu_model())
     << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
     << ",\"ndebug\":" << (ndebug ? "true" : "false")
     << ",\"profiler_compiled_in\":"
     << (oneport::prof::compiled_in() ? "true" : "false") << "}";
  return os.str();
}

/// Prints the result of one workload; returns false when it was incorrect.
bool report(const Args& args, std::string_view workload, RunResult& result,
            const Tracer& tracer) {
  if (!args.run.trace) result.metrics["peak_rss_mb"] = peak_rss_mb();
  const std::vector<MetricSpec>& specs =
      args.run.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      // Only per-layer metrics may be absent: the layer did not run.
      if (!args.run.trace) {
        result.fail(std::string("metric not measured: ") + spec.name);
      }
      result.metrics[spec.name] = 0.0;
    } else if (!std::isfinite(it->second)) {
      result.fail(std::string("metric not finite: ") + spec.name);
      it->second = 0.0;
    }
  }

  const std::string context = context_json(args, workload);
  if (args.run.trace) {
    std::error_code ignored;  // a failure shows as the stream's failure
    std::filesystem::create_directories(args.trace_dir, ignored);
    const std::string path = args.trace_dir + "/perfbench-" +
                             std::string(workload) + "-seed" +
                             std::to_string(args.run.seed) + ".json";
    std::ofstream out(path);
    tracer.write_chrome_json(out, context);
    if (!out) result.fail("could not write " + path);
    result.notes.push_back("trace written to " + path);
  }

  for (const std::string& note : result.notes) std::cout << note << "\n";
  for (const std::string& error : result.errors) {
    std::cerr << "perfbench: " << workload << ": " << error << "\n";
  }
  const double failed_frac =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::cout << workload << ": failed_frac " << json_number(failed_frac)
            << " (" << result.failed << " of " << result.attempted << ")\n";
  for (const MetricSpec& spec : specs) {
    std::cout << "  " << spec.name << " = "
              << json_number(result.metrics[spec.name]) << " " << spec.unit
              << "\n";
  }
  std::cout << "{\"context\":" << context << "}\n";

  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": "
            << std::max<std::uint64_t>(result.attempted, 1)
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const char* separator = "";
  for (const MetricSpec& spec : specs) {
    std::cout << separator << json_string(spec.name) << ": {\"value\": "
              << json_number(result.metrics[spec.name])
              << ", \"unit\": " << json_string(spec.unit) << "}";
    separator = ", ";
  }
  std::cout << "}}" << std::endl;
  return result.correct();
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "large-dag|service-open|routed-trace|all [--seed N] "
               "[--seconds S] [--trace 0|1] [--commit ID] [--trace-dir DIR]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report from a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 2;
#endif
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.run.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.run.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.run.trace = value == "1";
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        return usage("unknown flag " + std::string(flag));
      }
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }
  if (!(args.run.seconds > 0.0 && args.run.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  // Only the traced run turns the profiler on, whatever ONEPORT_PROFILE says.
  oneport::prof::set_enabled(false);

  using Workload = std::function<RunResult(const RunOptions&, Tracer&)>;
  const std::vector<std::pair<std::string, Workload>> workloads = {
      {"large-dag", run_large_dag},
      {"service-open", run_service_open},
      {"routed-trace", run_routed_trace},
  };
  bool known = false;
  bool all_correct = true;
  for (const auto& [name, run] : workloads) {
    if (args.workload != name && args.workload != "all") continue;
    known = true;
    Tracer tracer(args.run.trace);
    RunResult result;
    try {
      result = run(args.run, tracer);
    } catch (const std::exception& e) {
      ++result.attempted;
      result.fail(std::string("exception: ") + e.what());
    }
    all_correct = report(args, name, result, tracer) && all_correct;
  }
  if (!known) return usage("unknown workload '" + args.workload + "'");
  return all_correct ? 0 : 1;
}

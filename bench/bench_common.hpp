// Shared scaffolding for the per-figure benchmark binaries.
//
// Every figure binary does two things:
//   1. regenerate the paper's data series (the primary artifact): the
//      ratio (sequential time / makespan) of one-port HEFT and one-port
//      ILHA over the problem-size sweep, printed as an aligned table;
//   2. run google-benchmark timings of the two schedulers at a mid-size
//      instance, so scheduler *throughput* regressions are visible too.
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/heft.hpp"
#include "core/ilha.hpp"
#include "platform/platform.hpp"
#include "testbeds/registry.hpp"
#include "testbeds/testbeds.hpp"

namespace opbench {

/// Registers "<testbed>/heft" and "<testbed>/ilha" runtime benchmarks on a
/// single instance (one-port model).
inline void register_runtime_benchmarks(const std::string& testbed_name,
                                        int n, double comm_ratio,
                                        int chunk_size) {
  using namespace oneport;
  const testbeds::TestbedEntry entry = testbeds::find_testbed(testbed_name);
  // The graph and platform are shared by reference across iterations;
  // schedulers treat them as read-only.
  static std::vector<TaskGraph>* graphs = new std::vector<TaskGraph>();
  graphs->push_back(entry.make(n, comm_ratio));
  const TaskGraph* graph = &graphs->back();
  static const Platform* platform = new Platform(make_paper_platform());

  benchmark::RegisterBenchmark(
      (testbed_name + "/heft-oneport/n=" + std::to_string(n)).c_str(),
      [graph](benchmark::State& state) {
        double makespan = 0.0;
        for (auto _ : state) {
          const Schedule s =
              heft(*graph, *platform, {.model = CommModel::kOnePort});
          makespan = s.makespan();
          benchmark::DoNotOptimize(makespan);
        }
        state.counters["makespan"] = makespan;
        state.counters["tasks_per_s"] = benchmark::Counter(
            static_cast<double>(graph->num_tasks()),
            benchmark::Counter::kIsIterationInvariantRate);
      })
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      (testbed_name + "/ilha-oneport/n=" + std::to_string(n)).c_str(),
      [graph, chunk_size](benchmark::State& state) {
        double makespan = 0.0;
        for (auto _ : state) {
          const Schedule s =
              ilha(*graph, *platform,
                   {.model = CommModel::kOnePort,
                    .chunk_size = chunk_size});
          makespan = s.makespan();
          benchmark::DoNotOptimize(makespan);
        }
        state.counters["makespan"] = makespan;
        state.counters["tasks_per_s"] = benchmark::Counter(
            static_cast<double>(graph->num_tasks()),
            benchmark::Counter::kIsIterationInvariantRate);
      })
      ->Unit(benchmark::kMillisecond);
}

/// Standard main for a figure binary: print the series table -- the
/// {testbed} x {100..500} x {heft-oneport, ilha-oneport} grid at the
/// paper's c, run through analysis::run_sweep -- then run the registered
/// runtime benchmarks.
inline int figure_main(int argc, char** argv, const std::string& title,
                       const std::string& testbed, int chunk_size,
                       const std::string& expectation) {
  using namespace oneport;
  const Platform platform = make_paper_platform();
  const std::vector<int> sizes = {100, 200, 300, 400, 500};
  const std::vector<analysis::SweepResult> rows = analysis::run_sweep(
      analysis::make_sweep_grid({testbed}, sizes,
                                {"heft-oneport", "ilha-oneport"},
                                testbeds::kPaperCommRatio, chunk_size),
      platform);
  std::cout << title << "\n"
            << "testbed=" << testbed << " c=" << testbeds::kPaperCommRatio
            << " B=" << chunk_size << " p=" << platform.num_processors()
            << "\n";
  analysis::figure_table(rows).write_pretty(std::cout);
  std::cout << "paper reference: " << expectation << "\n\n";

  register_runtime_benchmarks(testbed, sizes[sizes.size() / 2],
                              testbeds::kPaperCommRatio, chunk_size);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace opbench

// trmma_bench: one run of one workload of the repository benchmark.
//
//   trmma_bench --workload NAME --seed N --seconds S --trace 0|1 [--key v]...
//
// run.py builds this program and passes the workload's parameters from
// spec.json. The program sets up `setups` times (dataset, stack, fixed
// training, and a serving session for the serving workload), draws the
// timed inputs from the seed, runs the workload on the last set-up for
// `seconds`, and prints one JSON object:
// metrics (end-to-end when untraced, per-layer when traced), the input
// fingerprint, the correctness gate's violation counts and validity figures.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"

namespace trmmabench {
namespace {

void PrintMap(const char* key, const std::map<std::string, double>& values,
              bool last = false) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\":", first ? "" : ",", name.c_str());
    if (std::isfinite(value)) {
      std::printf("%.17g", value);
    } else {
      std::printf("null");
    }
    first = false;
  }
  std::printf("}%s", last ? "" : ",");
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string workload = flags.Str("workload");
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed"));
  const double seconds = flags.Num("seconds");
  const bool traced = flags.Int("trace") != 0;
  const bool serving = workload == "serve-closed-pt";
  if (!serving && workload != "match-dense-pt" &&
      workload != "recover-sparse-bj") {
    std::fprintf(stderr, "trmma_bench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }

  // Set up several times and keep the last set-up; setup_s is the median.
  std::map<std::string, std::vector<double>> setup_times;
  std::unique_ptr<Setup> setup;
  for (int k = 0; k < flags.Int("setups"); ++k) {
    setup.reset();
    setup = RunSetup(flags, serving);
    setup_times["setup_s"].push_back(setup->total_s());
    setup_times["setup.dataset_s"].push_back(setup->dataset_s);
    setup_times["setup.stack_s"].push_back(setup->stack_s);
    setup_times["setup.train_s"].push_back(setup->train_s);
    if (serving) {
      setup_times["setup.session_s"].push_back(setup->session_s);
      setup_times["setup.session_rss_mb"].push_back(setup->session_rss_mb);
    }
    std::fprintf(stderr, "setup %d: %.3f s (dataset %.3f, stack %.3f, "
                 "train %.3f, session %.3f)\n",
                 k + 1, setup->total_s(), setup->dataset_s, setup->stack_s,
                 setup->train_s, setup->session_s);
  }

  MakeInputs(flags, seed, setup.get());

  SpanLog spans;
  RunResult result;
  if (workload == "match-dense-pt") {
    result = RunMatchBatch(flags, *setup, seconds, traced, &spans);
  } else if (workload == "recover-sparse-bj") {
    result = RunRecoverBatch(flags, *setup, seconds, traced, &spans);
  } else {
    result = RunServeClosedLoop(flags, *setup, seed, seconds, traced, &spans);
  }

  if (traced) {
    for (const auto& [name, values] : setup_times) {
      if (name != "setup_s") result.metrics[name] = Median(values);
    }
    result.validity["trace_overhead_ratio"] =
        result.metrics["trace.overhead_ratio"];
    result.validity["trace_reconcile_ratio"] =
        result.metrics["trace.reconcile_ratio"];
    if (flags.Has("trace_file") &&
        !spans.WriteChromeTrace(flags.Str("trace_file"))) {
      std::fprintf(stderr, "trmma_bench: cannot write %s\n",
                   flags.Str("trace_file").c_str());
    }
  } else {
    result.metrics["setup_s"] = Median(setup_times["setup_s"]);
    result.metrics["peak_rss_mb"] = PeakRssMb();
  }

  const trmma::Dataset& ds = *setup->dataset;
  auto& fp = result.fingerprint;
  fp["network_segments"] = ds.network->num_segments();
  fp["epsilon_s"] = ds.epsilon_s;
  fp["gamma"] = ds.gamma;
  fp["dataset_trajectories"] = static_cast<double>(ds.samples.size());
  fp["input_trajectories"] = static_cast<double>(setup->inputs.size());
  fp["train_trajectories"] = flags.Num("train_trajectories");
  fp["mma_epochs"] = flags.Num("mma_epochs");
  fp["trmma_epochs"] = flags.Num("trmma_epochs");
  fp["setups"] = flags.Num("setups");
  if (serving) fp["serve_threads"] = flags.Num("serve_threads");

  std::map<std::string, double> violations;
  for (const auto& [name, count] : result.violations) {
    violations[name] = static_cast<double>(count);
  }
  std::printf("{\"attempted\":%" PRId64 ",\"failed\":%" PRId64 ",",
              result.attempted, result.failed);
  PrintMap("metrics", result.metrics);
  PrintMap("fingerprint", result.fingerprint);
  PrintMap("validity", result.validity);
  PrintMap("violations", violations, /*last=*/true);
  std::printf("}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace trmmabench

int main(int argc, char** argv) { return trmmabench::Main(argc, argv); }

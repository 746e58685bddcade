// Shared pieces of the repository benchmark: flags, set-up, the span log of
// traced runs, sample statistics and the result record each workload fills.
//
// The benchmark drives the program through its public API only. Nothing
// here turns on the program's own observability (trace mode, flight
// recorder, quality log, profilers): untraced runs measure the program as
// shipped, and traced runs add spans recorded by the benchmark around each
// public call.
#ifndef TRMMABENCH_SRC_BENCH_H_
#define TRMMABENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "serve/session.h"
#include "traj/dataset.h"

namespace trmmabench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// `--key value` flags. run.py passes the workload's entry of spec.json.
class Flags {
 public:
  static Flags Parse(int argc, char** argv);
  std::string Str(const std::string& key) const;
  double Num(const std::string& key) const;
  int Int(const std::string& key) const { return static_cast<int>(Num(key)); }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Linear-interpolated quantile of `v` (q in [0,1]); sorts a copy.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Peak and current resident set size of this process, in MB.
double PeakRssMb();
double CurrentRssMb();

/// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();

/// Host-speed probe. On a shared host the CPU speed drifts with other
/// tenants' load: on a 4-vCPU cloud microVM a fixed loop ran up to 1.7x
/// slower for seconds at a time, which moved wall-clock figures of
/// identical work by ~20% between runs. The benchmark therefore times a
/// fixed kernel of its own (a 32x32 double matrix product, no program code)
/// alongside the program -- between trajectories in the batch workloads, on
/// the otherwise idle main thread in the serving workload -- and
/// reports program times at the reference speed: wall time x (reference
/// kernel time / kernel time measured alongside). A factor below 1 means the
/// host ran slower than the reference.
class SpeedProbe {
 public:
  explicit SpeedProbe(double reference_s) : reference_s_(reference_s) {}
  /// Median of `reps` timed kernel runs, in seconds.
  static double KernelSeconds(int reps);
  /// Reference-speed factor for a kernel time measured with KernelSeconds.
  double Factor(double kernel_s) const { return reference_s_ / kernel_s; }
  /// Measures now; returns the factor.
  double Measure(int reps) const { return Factor(KernelSeconds(reps)); }

 private:
  double reference_s_;
};

/// One complete set-up of the program, each stage timed at reference speed
/// (SpeedProbe, probed between stages): the city preset's dataset (its
/// network and training split, from the preset's own seed, so every
/// workload seed runs the same trained system), the stack, fixed training
/// and, for the serving workload, a serving session.
struct Setup {
  std::unique_ptr<trmma::Dataset> dataset;
  /// Timed inputs (MakeInputs), not part of the set-up.
  std::vector<trmma::TrajectorySample> inputs;
  std::unique_ptr<trmma::ExperimentStack> stack;
  std::unique_ptr<trmma::serve::ServingSession> session;
  double dataset_s = 0.0;
  double stack_s = 0.0;
  double train_s = 0.0;
  double session_s = 0.0;
  double session_rss_mb = 0.0;
  double total_s() const { return dataset_s + stack_s + train_s + session_s; }
};

/// Builds one set-up from the workload flags. `with_session` creates the
/// serving session with an explicit ServeConfig (never ServeConfig::FromEnv,
/// so no environment variable changes the load).
std::unique_ptr<Setup> RunSetup(const Flags& flags, bool with_session);

/// Fills setup->inputs with `trajectories` trajectories drawn from the
/// workload seed on the set-up's network, with the preset's trajectory model
/// and sparsity. None is in the training split and none repeats.
void MakeInputs(const Flags& flags, uint64_t seed, Setup* setup);

/// In-memory span log of a traced run. Spans are opened and closed by the
/// benchmark around public calls; a span's self time is its duration minus
/// the time covered by its children.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;
    Clock::time_point start{};
    Clock::time_point end{};
  };

  int Open(const char* name, int parent);
  void Close(int id);
  /// Records an already-timed span (e.g. a request from its scheduled send
  /// to its completion).
  int Add(const char* name, int parent, Clock::time_point start,
          Clock::time_point end);
  double Seconds(int id) const;
  /// Σ duration and Σ self time of every span with this name.
  double TotalSeconds(const std::string& name) const;
  double SelfSeconds(const std::string& name) const;
  /// Writes the log as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span around one call; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log != nullptr ? log->Open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// What a workload run reports back to main: metrics by name, the input
/// fingerprint, and the correctness gate's violation counts.
struct RunResult {
  std::map<std::string, double> metrics;
  std::map<std::string, double> fingerprint;
  std::map<std::string, int64_t> violations;
  /// Figures the run is only valid with (checked against spec.json bounds).
  std::map<std::string, double> validity;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Segment-set F1, pointwise accuracy and road-network MAE against the
/// ground truth, each averaged per trajectory over what was added.
struct QualityTally {
  double f1_sum = 0.0;
  int f1_n = 0;
  double acc_sum = 0.0;
  double mae_sum = 0.0;
  int point_n = 0;
  void AddRoute(const trmma::Route& route, const trmma::Route& truth);
  void AddPoints(const trmma::RoadNetwork& network,
                 trmma::ShortestPathEngine& engine,
                 const trmma::MatchedTrajectory& pred,
                 const trmma::MatchedTrajectory& truth);
  /// A recovered trajectory: F1 over its points' segments, then AddPoints.
  void AddRecovery(const trmma::RoadNetwork& network,
                   trmma::ShortestPathEngine& engine,
                   const trmma::MatchedTrajectory& pred,
                   const trmma::MatchedTrajectory& truth);
  void Publish(RunResult* result) const;
};

/// Concatenated section routes of a match answer.
trmma::Route JoinSections(const std::vector<trmma::RouteSection>& sections);

/// Counts consecutive segments of every section route that the network does
/// not connect (a section must be one connected route).
int64_t DisconnectedSteps(const trmma::RoadNetwork& network,
                          const std::vector<trmma::RouteSection>& sections);

/// Batch workloads (one caller, closed loop).
RunResult RunMatchBatch(const Flags& flags, Setup& setup, double seconds,
                        bool traced, SpanLog* spans);
RunResult RunRecoverBatch(const Flags& flags, Setup& setup, double seconds,
                          bool traced, SpanLog* spans);
/// Closed-loop serving clients.
RunResult RunServeClosedLoop(const Flags& flags, Setup& setup, uint64_t seed,
                             double seconds, bool traced, SpanLog* spans);

/// Probe settings shared by the workloads.
SpeedProbe ProbeFromFlags(const Flags& flags);

}  // namespace trmmabench

#endif  // TRMMABENCH_SRC_BENCH_H_

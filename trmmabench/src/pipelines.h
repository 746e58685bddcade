// The two per-trajectory pipelines the benchmark times, each a sequence of
// public calls on a trained stack:
//
//   MatchPipeline    SanitizeTrajectory -> MmaMatcher::MatchPoints ->
//                    StitchRouteSections (per sanitized piece)
//   RecoverPipeline  RobustRecoveryPipeline::RunSanitized over the stack's
//                    TrmmaRecovery (sanitize, TryRecover per piece, outcome)
//
// Run(..., log = nullptr) makes exactly those calls and times them. With a
// span log it records a span around every call, plus the diagnostic calls
// the layer split needs: a separate ComputeCandidates on the same input
// (MMA self time = MatchPoints - ComputeCandidates), and for recovery a
// RobustRecoveryPipeline over a TrmmaRecovery with the stack's weights whose
// matcher and whose TryRecover are timed by decorators, followed per piece
// by a separate StitchRouteSections on the matcher's segments (TRMMA self
// time = TryRecover - MatchPoints - stitch). Diagnostic time is excluded
// from the trajectory's end-to-end time.
#ifndef TRMMABENCH_SRC_PIPELINES_H_
#define TRMMABENCH_SRC_PIPELINES_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "mm/route_stitch.h"
#include "robust/pipeline.h"
#include "robust/sanitize.h"

namespace trmmabench {

/// Per-trajectory account of one pipeline run.
struct TrajOutcome {
  double seconds = 0.0;  ///< the pipeline's public calls, diagnostics excluded
  int points_in = 0;
  int points_out = 0;
  bool failed = false;
  bool degraded = false;
};

/// Counters of traced runs, for the per-layer metrics.
struct LayerCounts {
  int traced = 0;
  int64_t match_calls = 0;
  int64_t stitch_calls = 0;
  int64_t recover_trajectories = 0;
  int64_t points = 0;
  int64_t candidates = 0;
  int64_t pairs = 0;
  int64_t splits = 0;
  int64_t out_points = 0;
  int64_t sections = 0;
  int64_t degraded_points = 0;
  double diagnostic_s = 0.0;
  double root_s = 0.0;  ///< Σ durations of the traced trajectories' root spans
};

/// Runs `run(log, root)` as one traced trajectory under a "pipeline" root
/// span, or untraced when `log` is null.
template <typename Fn>
TrajOutcome RunTraced(SpanLog* log, LayerCounts* layers, Fn&& run) {
  if (log == nullptr) return run(nullptr, -1);
  const int root = log->Open("pipeline", -1);
  TrajOutcome out = run(log, root);
  log->Close(root);
  layers->root_s += log->Seconds(root);
  ++layers->traced;
  return out;
}

/// Per-layer metrics of the traced trajectories. `mean_untraced_s` is the
/// mean end-to-end time of the untraced trajectories run alongside them;
/// the per-layer self times must add up to it (trace.reconcile_ratio).
/// Layer times are scaled to reference speed by `speed` (SpeedProbe).
void PublishLayerMetrics(const SpanLog& spans, const LayerCounts& layers,
                         double mean_untraced_s, double speed,
                         RunResult* result);

class MatchPipeline {
 public:
  explicit MatchPipeline(trmma::ExperimentStack& stack);
  TrajOutcome Run(const trmma::Trajectory& raw, SpanLog* log, int root,
                  LayerCounts* layers);

  /// Answer of the last Run, one entry per sanitized piece.
  std::vector<trmma::Trajectory> pieces;
  std::vector<std::vector<trmma::SegmentId>> segs;
  std::vector<std::vector<trmma::RouteSection>> sections;
  /// Correctness-gate violations over every Run so far.
  int64_t bad_length = 0;
  int64_t disconnected = 0;

 private:
  trmma::ExperimentStack& stack_;
  trmma::SanitizeConfig sanitize_;
};

class RecoverPipeline {
 public:
  /// `tmp_dir` stages the weight copy of the traced TrmmaRecovery.
  RecoverPipeline(trmma::ExperimentStack& stack, const std::string& tmp_dir);
  ~RecoverPipeline();
  TrajOutcome Run(const trmma::Trajectory& sparse, SpanLog* log, int root,
                  LayerCounts* layers);

  /// Answer of the last Run.
  trmma::PipelineResult result;
  /// Correctness-gate violations over every Run so far: recovered points
  /// off the network or with a position ratio outside [0, 1].
  int64_t invalid_points = 0;

 private:
  class TimedMatcher;
  class TimedRecovery;
  trmma::ExperimentStack& stack_;
  trmma::RobustRecoveryPipeline pipeline_;
  std::unique_ptr<TimedMatcher> timed_matcher_;
  std::unique_ptr<trmma::TrmmaRecovery> traced_trmma_;
  std::unique_ptr<TimedRecovery> timed_recovery_;
  std::unique_ptr<trmma::RobustRecoveryPipeline> traced_pipeline_;
};

}  // namespace trmmabench

#endif  // TRMMABENCH_SRC_PIPELINES_H_

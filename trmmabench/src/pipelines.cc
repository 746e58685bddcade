#include "pipelines.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "mm/candidates.h"

namespace trmmabench {
namespace {

using trmma::MatchedTrajectory;
using trmma::RouteSection;
using trmma::SegmentId;
using trmma::Trajectory;

/// Consecutive distinct valid segments the stitcher has to route.
int64_t RoutedPairs(const std::vector<SegmentId>& segs) {
  int64_t pairs = 0;
  SegmentId prev = trmma::kInvalidSegment;
  for (SegmentId s : segs) {
    if (s == trmma::kInvalidSegment) continue;
    if (prev != trmma::kInvalidSegment && s != prev) ++pairs;
    prev = s;
  }
  return pairs;
}

/// The diagnostic ComputeCandidates call of a traced run: its own span, its
/// time returned so the caller can exclude it from the trajectory.
double DiagnosticCandidates(const trmma::ExperimentStack& stack,
                            const Trajectory& piece, SpanLog* log, int root,
                            LayerCounts* layers) {
  const int id = log->Open("mm.candidates", root);
  const auto cands = trmma::ComputeCandidates(
      *stack.dataset->network, *stack.index, piece, stack.mma->config().kc);
  log->Close(id);
  for (const auto& c : cands) layers->candidates += c.size();
  ++layers->match_calls;
  layers->points += piece.size();
  return log->Seconds(id);
}

void CountStitch(const std::vector<SegmentId>& segs,
                 const std::vector<RouteSection>& sections,
                 LayerCounts* layers) {
  ++layers->stitch_calls;
  layers->pairs += RoutedPairs(segs);
  layers->splits += std::max<int64_t>(0, sections.size() - 1);
}

}  // namespace

void PublishLayerMetrics(const SpanLog& spans, const LayerCounts& layers,
                         double mean_untraced_s, double speed,
                         RunResult* result) {
  const double t = std::max(layers.traced, 1);
  const double stitches =
      static_cast<double>(std::max<int64_t>(layers.stitch_calls, 1));
  const double recovers =
      static_cast<double>(std::max<int64_t>(layers.recover_trajectories, 1));
  const double points =
      static_cast<double>(std::max<int64_t>(layers.points, 1));
  // Match: the SanitizeTrajectory call. Recover: RunSanitized's own time.
  const double sanitize_s = spans.SelfSeconds("robust.sanitize");
  const double cand_s = spans.TotalSeconds("mm.candidates");
  const double mma_s = spans.TotalSeconds("mm.match_points") - cand_s;
  const double stitch_s = spans.TotalSeconds("mm.stitch");
  // TryRecover's self time (its matcher span is a child) minus the stitching
  // it does internally, which the diagnostic stitch measures.
  const double trmma_s =
      layers.out_points > 0 ? spans.SelfSeconds("recovery.try_recover") -
                                  stitch_s
                            : 0.0;
  // The self times partition the traced path, so their sum is the traced
  // trajectories' own time: reconcile_ratio compares it with the untraced
  // trajectories of the same run and bounds what tracing adds, not the
  // split. The split is only checked for sign: the two layers obtained by
  // subtracting a separately timed call must not come out negative.
  const double layers_s = sanitize_s + cand_s + mma_s + stitch_s + trmma_s;

  auto& m = result->metrics;
  m["trace.overhead_ratio"] =
      (layers.root_s - layers.diagnostic_s) / t / mean_untraced_s - 1.0;
  m["trace.reconcile_ratio"] = layers_s / t / mean_untraced_s;
  result->validity["trace_subtracted_self_share"] =
      std::min(mma_s, layers.out_points > 0 ? trmma_s : mma_s) / layers_s;
  m["calibration.speed_factor"] = speed;
  const double us = 1e6 * speed;  // reference-speed microseconds
  m["mm.mma.us_per_point"] = mma_s / points * us;
  m["mm.mma.points"] =
      layers.points /
      static_cast<double>(std::max<int64_t>(layers.match_calls, 1));
  m["mm.candidates.us_per_point"] = cand_s / points * us;
  m["mm.candidates.per_point"] = layers.candidates / points;
  m["mm.stitch.us_per_traj"] = stitch_s / stitches * us;
  m["mm.stitch.pairs_per_traj"] = layers.pairs / stitches;
  m["mm.stitch.split_ratio"] =
      layers.splits / static_cast<double>(std::max<int64_t>(layers.pairs, 1));
  if (layers.out_points > 0) {
    m["recovery.trmma.us_per_out_point"] = trmma_s / layers.out_points * us;
    m["recovery.trmma.out_points_per_traj"] = layers.out_points / recovers;
    m["recovery.trmma.sections_per_traj"] = layers.sections / recovers;
    m["recovery.trmma.degraded_points_ratio"] =
        layers.degraded_points / static_cast<double>(layers.out_points);
  }
  m["robust.sanitize.us_per_traj"] = sanitize_s / t * us;
  result->fingerprint["traced_trajectories"] = layers.traced;
}

MatchPipeline::MatchPipeline(trmma::ExperimentStack& stack)
    : stack_(stack),
      sanitize_(trmma::SanitizeConfig::ForNetwork(*stack.dataset->network)) {}

TrajOutcome MatchPipeline::Run(const Trajectory& raw, SpanLog* log, int root,
                               LayerCounts* layers) {
  const trmma::RoadNetwork& net = *stack_.dataset->network;
  TrajOutcome out;
  out.points_in = raw.size();
  segs.clear();
  sections.clear();
  trmma::SanitizeReport report;
  double diagnostic_s = 0.0;

  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(log, "robust.sanitize", root);
    pieces = trmma::SanitizeTrajectory(raw, sanitize_, &report);
  }
  for (const Trajectory& piece : pieces) {
    if (log != nullptr) {
      diagnostic_s += DiagnosticCandidates(stack_, piece, log, root, layers);
    }
    {
      ScopedSpan span(log, "mm.match_points", root);
      segs.push_back(stack_.mma->MatchPoints(piece));
    }
    ScopedSpan span(log, "mm.stitch", root);
    sections.push_back(trmma::StitchRouteSections(
        net, *stack_.planner, *stack_.engine, segs.back()));
  }
  out.seconds = SecondsBetween(t0, Clock::now()) - diagnostic_s;

  out.failed = pieces.empty();
  out.degraded = pieces.size() != 1 || !report.clean();
  for (size_t p = 0; p < pieces.size(); ++p) {
    out.points_out += static_cast<int>(segs[p].size());
    if (static_cast<int>(segs[p].size()) != pieces[p].size()) ++bad_length;
    disconnected += DisconnectedSteps(net, sections[p]);
    const bool any =
        std::any_of(segs[p].begin(), segs[p].end(),
                    [](SegmentId s) { return s != trmma::kInvalidSegment; });
    out.failed = out.failed || !any;
    out.degraded = out.degraded || sections[p].size() != 1;
    if (log != nullptr) CountStitch(segs[p], sections[p], layers);
  }
  if (log != nullptr) layers->diagnostic_s += diagnostic_s;
  return out;
}

/// MapMatcher decorator: times each MatchPoints call as an mm.match_points
/// span under `parent` and keeps the last answer for the diagnostic stitch.
class RecoverPipeline::TimedMatcher : public trmma::MapMatcher {
 public:
  explicit TimedMatcher(trmma::MapMatcher* inner) : inner_(inner) {}
  std::vector<SegmentId> MatchPoints(const Trajectory& traj) override {
    ScopedSpan span(log, "mm.match_points", parent);
    last = inner_->MatchPoints(traj);
    return last;
  }
  std::string name() const override { return inner_->name(); }

  SpanLog* log = nullptr;
  int parent = -1;
  std::vector<SegmentId> last;

 private:
  trmma::MapMatcher* inner_;
};

/// RecoveryMethod decorator of the traced path: per piece, a diagnostic
/// ComputeCandidates, TryRecover as a recovery.try_recover span (its
/// matcher's span a child), then a diagnostic StitchRouteSections on the
/// matcher's segments. Spans hang under `parent`.
class RecoverPipeline::TimedRecovery : public trmma::RecoveryMethod {
 public:
  TimedRecovery(const trmma::ExperimentStack& stack,
                trmma::TrmmaRecovery* inner, TimedMatcher* matcher)
      : stack_(stack), inner_(inner), matcher_(matcher) {}

  MatchedTrajectory Recover(const Trajectory& sparse, double epsilon) override {
    return inner_->Recover(sparse, epsilon);
  }
  trmma::StatusOr<MatchedTrajectory> TryRecover(
      const Trajectory& piece, double epsilon,
      trmma::RecoverStats* stats) override {
    diagnostic_s += DiagnosticCandidates(stack_, piece, log, parent, layers);
    trmma::StatusOr<MatchedTrajectory> rec = MatchedTrajectory{};
    {
      ScopedSpan span(log, "recovery.try_recover", parent);
      matcher_->log = log;
      matcher_->parent = span.id();
      rec = inner_->TryRecover(piece, epsilon, stats);
    }
    const int id = log->Open("mm.stitch", parent);
    const std::vector<RouteSection> sections = trmma::StitchRouteSections(
        *stack_.dataset->network, *stack_.planner, *stack_.engine,
        matcher_->last);
    log->Close(id);
    diagnostic_s += log->Seconds(id);
    CountStitch(matcher_->last, sections, layers);
    return rec;
  }
  std::string name() const override { return inner_->name(); }

  SpanLog* log = nullptr;
  int parent = -1;
  LayerCounts* layers = nullptr;
  double diagnostic_s = 0.0;

 private:
  const trmma::ExperimentStack& stack_;
  trmma::TrmmaRecovery* inner_;
  TimedMatcher* matcher_;
};

namespace {

trmma::PipelineConfig RecoverConfig(const trmma::ExperimentStack& stack) {
  trmma::PipelineConfig config;
  config.sanitize = trmma::SanitizeConfig::ForNetwork(*stack.dataset->network);
  config.epsilon = stack.dataset->epsilon_s;
  return config;
}

}  // namespace

RecoverPipeline::RecoverPipeline(trmma::ExperimentStack& stack,
                                 const std::string& tmp_dir)
    : stack_(stack),
      pipeline_(stack.trmma.get(), RecoverConfig(stack)),
      timed_matcher_(std::make_unique<TimedMatcher>(stack.mma.get())) {
  traced_trmma_ = std::make_unique<trmma::TrmmaRecovery>(
      *stack.dataset->network, timed_matcher_.get(), stack.planner.get(),
      stack.engine.get(), stack.trmma->config(), stack.trmma->name());
  const std::string path = tmp_dir + "/trmma_weights.bin";
  trmma::Status status = stack.trmma->Save(path);
  if (status.ok()) status = traced_trmma_->Load(path);
  std::remove(path.c_str());
  if (!status.ok()) {
    std::fprintf(stderr, "trmma_bench: TRMMA weight copy: %s\n",
                 status.ToString().c_str());
    std::exit(2);
  }
  timed_recovery_ = std::make_unique<TimedRecovery>(
      stack, traced_trmma_.get(), timed_matcher_.get());
  traced_pipeline_ = std::make_unique<trmma::RobustRecoveryPipeline>(
      timed_recovery_.get(), RecoverConfig(stack));
}

RecoverPipeline::~RecoverPipeline() = default;

TrajOutcome RecoverPipeline::Run(const Trajectory& sparse, SpanLog* log,
                                 int root, LayerCounts* layers) {
  const trmma::RoadNetwork& net = *stack_.dataset->network;
  TrajOutcome out;
  out.points_in = sparse.size();
  if (log == nullptr) {
    const Clock::time_point t0 = Clock::now();
    result = pipeline_.RunSanitized(sparse);
    out.seconds = SecondsBetween(t0, Clock::now());
    } else {
    // The pipeline's own time (sanitizing, outcome classification) is the
    // self time of this span once its TryRecover and diagnostic children
    // are taken out.
    timed_recovery_->log = log;
    timed_recovery_->layers = layers;
    timed_recovery_->diagnostic_s = 0.0;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(log, "robust.sanitize", root);
      timed_recovery_->parent = span.id();
      result = traced_pipeline_->RunSanitized(sparse);
    }
    out.seconds =
        SecondsBetween(t0, Clock::now()) - timed_recovery_->diagnostic_s;
    ++layers->recover_trajectories;
    layers->diagnostic_s += timed_recovery_->diagnostic_s;
    layers->out_points += static_cast<int64_t>(result.recovered.size());
    layers->sections += result.route_sections;
    layers->degraded_points += result.degraded_points;
  }

  for (const trmma::MatchedPoint& p : result.recovered) {
    if (p.segment < 0 || p.segment >= net.num_segments() || !(p.ratio >= 0.0) ||
        !(p.ratio <= 1.0)) {
      ++invalid_points;
    }
  }
  out.points_out = static_cast<int>(result.recovered.size());
  out.failed = result.failed();
  // As the serving session counts it: anything but a clean recovery.
  out.degraded = result.outcome != trmma::RecoveryOutcome::kOk;
  return out;
}

}  // namespace trmmabench

#include "serve/session.h"

#include <utility>

#include "obs/trace.h"
#include "robust/pipeline.h"

namespace trmma {
namespace serve {
namespace {

/// Answers every worker thread's requests from the stack's own models and
/// routing. All of it is read-only at inference (routing labels live in the
/// calling thread's SearchScratch), so one instance serves the whole pool.
class StackWorker : public Worker {
 public:
  StackWorker(const ExperimentStack& stack, const SessionConfig& config)
      : stack_(stack), sanitize_(config.sanitize), epsilon_(config.epsilon) {}

  Status Match(const Trajectory& traj, MatchOutput* out) override {
    out->segments = stack_.mma->MatchPoints(traj);
    bool any = false;
    for (SegmentId s : out->segments) any = any || s != kInvalidSegment;
    if (!any) {
      return Status::FailedPrecondition(
          "map matching produced no usable segment for any point");
    }
    // Route stitching is the post-matching half of a match request; its own
    // span splits serve.execute into match vs stitch time in the trace.
    TRMMA_SPAN("serve.stitch");
    out->sections = StitchRouteSections(*stack_.dataset->network,
                                        *stack_.planner, *stack_.engine,
                                        out->segments);
    return Status::OK();
  }

  Status Recover(const Trajectory& traj, double epsilon,
                 MatchedTrajectory* out, bool* degraded) override {
    PipelineConfig pipeline_config;
    pipeline_config.sanitize = sanitize_;
    pipeline_config.epsilon = epsilon > 0.0 ? epsilon : epsilon_;
    // The pipeline is a thin wrapper (pointer + config), so a per-call
    // instance costs nothing and lets each request pick its ε. The engine
    // already applied per-request fault corruption, so take the
    // post-corruption entry point.
    RobustRecoveryPipeline pipeline(stack_.trmma.get(), pipeline_config);
    // The decode span covers the model-driven recovery (sanitize + encode +
    // decode + fallbacks) — the execute-time remainder is dispatch overhead.
    TRMMA_SPAN("serve.decode");
    PipelineResult result = pipeline.RunSanitized(traj);
    if (result.failed()) {
      return Status::FailedPrecondition(
          result.error.empty() ? "recovery failed" : result.error);
    }
    *out = std::move(result.recovered);
    *degraded = result.outcome != RecoveryOutcome::kOk;
    return Status::OK();
  }

 private:
  const ExperimentStack& stack_;
  SanitizeConfig sanitize_;
  double epsilon_;
};

}  // namespace

StatusOr<std::unique_ptr<ServingSession>> ServingSession::Create(
    const ExperimentStack& stack, const SessionConfig& config) {
  if (stack.dataset == nullptr || stack.dataset->network == nullptr ||
      stack.planner == nullptr || stack.engine == nullptr) {
    return Status::InvalidArgument(
        "serving session needs a built stack (dataset, planner, engine)");
  }
  if (stack.mma == nullptr || stack.trmma == nullptr) {
    return Status::InvalidArgument(
        "serving session needs the MMA and TRMMA models");
  }

  SessionConfig cfg = config;
  if (cfg.sanitize.network == nullptr) {
    // Keep the caller's policy knobs; just bind the bbox validation to the
    // stack's network.
    cfg.sanitize.network = stack.dataset->network.get();
  }

  auto session = std::unique_ptr<ServingSession>(new ServingSession());
  session->config_ = cfg;
  session->engine_ = std::make_unique<ServeEngine>(
      cfg.serve, std::make_unique<StackWorker>(stack, cfg));
  TRMMA_RETURN_IF_ERROR(session->engine_->Start());
  return session;
}

ServingSession::~ServingSession() {
  if (engine_ != nullptr) engine_->Stop();
}

}  // namespace serve
}  // namespace trmma

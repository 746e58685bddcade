#include "serve/session.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"
#include "robust/pipeline.h"

namespace trmma {
namespace serve {
namespace {

/// One worker's private execution context. The network, spatial index and
/// transition statistics are shared read-only. The shortest-path engine and
/// route planner (Dijkstra scratch) are owned per worker, and so are the
/// models: TRMMA is bound to this worker's matcher, planner and engine, and
/// MatchPoints/TryRecover are non-const.
class StackWorker : public Worker {
 public:
  StackWorker(const ExperimentStack& stack, const SessionConfig& config)
      : network_(*stack.dataset->network),
        engine_(std::make_unique<ShortestPathEngine>(network_)),
        planner_(std::make_unique<DaRoutePlanner>(network_, *stack.stats)),
        mma_(std::make_unique<MmaMatcher>(network_, *stack.index,
                                          stack.mma->config())),
        trmma_(std::make_unique<TrmmaRecovery>(
            network_, mma_.get(), planner_.get(), engine_.get(),
            stack.trmma->config(), stack.trmma->name())),
        sanitize_(config.sanitize), epsilon_(config.epsilon) {}

  Status LoadWeights(const std::string& mma_path,
                     const std::string& trmma_path) {
    TRMMA_RETURN_IF_ERROR(mma_->Load(mma_path));
    return trmma_->Load(trmma_path);
  }

  Status Match(const Trajectory& traj, MatchOutput* out) override {
    out->segments = mma_->MatchPoints(traj);
    bool any = false;
    for (SegmentId s : out->segments) any = any || s != kInvalidSegment;
    if (!any) {
      return Status::FailedPrecondition(
          "map matching produced no usable segment for any point");
    }
    // Route stitching is the post-matching half of a match request; its own
    // span splits serve.execute into match vs stitch time in the trace.
    TRMMA_SPAN("serve.stitch");
    out->sections =
        StitchRouteSections(network_, *planner_, *engine_, out->segments);
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
    RobustRecoveryPipeline pipeline(trmma_.get(), pipeline_config);
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
  const RoadNetwork& network_;
  std::unique_ptr<ShortestPathEngine> engine_;
  std::unique_ptr<DaRoutePlanner> planner_;
  std::unique_ptr<MmaMatcher> mma_;
  std::unique_ptr<TrmmaRecovery> trmma_;
  SanitizeConfig sanitize_;
  double epsilon_;
};

/// Collision-free staging path for one weight snapshot.
std::string StagingPath(const char* tag) {
  static std::atomic<int> counter{0};
  const std::string name = "trmma_serve_" + std::string(tag) + "_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(counter.fetch_add(1)) + ".bin";
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

StatusOr<std::unique_ptr<ServingSession>> ServingSession::Create(
    ExperimentStack& stack, const SessionConfig& config) {
  if (stack.dataset == nullptr || stack.dataset->network == nullptr ||
      stack.index == nullptr || stack.stats == nullptr) {
    return Status::InvalidArgument(
        "serving session needs a built stack (dataset, index, stats)");
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

  // Snapshot the trained weights once; every worker clone loads from the
  // snapshot, then the staging files are deleted before Create returns.
  const std::string mma_path = StagingPath("mma");
  const std::string trmma_path = StagingPath("trmma");
  Status saved = stack.mma->Save(mma_path);
  if (saved.ok()) saved = stack.trmma->Save(trmma_path);
  if (!saved.ok()) {
    std::remove(mma_path.c_str());
    std::remove(trmma_path.c_str());
    return Status::IOError("weight snapshot failed: " + saved.ToString());
  }

  auto session = std::unique_ptr<ServingSession>(new ServingSession());
  session->config_ = cfg;
  session->engine_ = std::make_unique<ServeEngine>(
      cfg.serve,
      [&stack, cfg, mma_path, trmma_path](int index) -> std::unique_ptr<Worker> {
        auto worker = std::make_unique<StackWorker>(stack, cfg);
        const Status loaded = worker->LoadWeights(mma_path, trmma_path);
        if (!loaded.ok()) {
          TRMMA_LOG(Warning) << "serve worker " << index
                             << " failed to load weights: "
                             << loaded.ToString();
          return nullptr;
        }
        return worker;
      });
  const Status started = session->engine_->Start();
  std::remove(mma_path.c_str());
  std::remove(trmma_path.c_str());
  if (!started.ok()) return started;
  return session;
}

ServingSession::~ServingSession() {
  if (engine_ != nullptr) engine_->Stop();
}

}  // namespace serve
}  // namespace trmma

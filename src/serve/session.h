#ifndef TRMMA_SERVE_SESSION_H_
#define TRMMA_SERVE_SESSION_H_

#include <memory>

#include "common/status.h"
#include "eval/experiment.h"
#include "robust/sanitize.h"
#include "serve/engine.h"

namespace trmma {
namespace serve {

struct SessionConfig {
  ServeConfig serve;
  /// Default recovery sampling interval; a ServeRequest may override it.
  double epsilon = 15.0;
  /// Sanitizer rules for the recovery path; Create fills the network bbox
  /// rules from the stack when left at the default.
  SanitizeConfig sanitize;
};

/// Session/facade over a trained ExperimentStack: a concurrent serving
/// engine whose worker threads all answer from the stack's own MMA, TRMMA,
/// route planner and shortest-path engine. Inference only reads the model
/// weights, and routing keeps its Dijkstra labels per thread
/// (SearchScratch), so sharing needs no copies and no locks. The stack must
/// outlive the session and must not be trained while it serves; the session
/// never mutates it.
class ServingSession {
 public:
  /// Requires a built stack with stack.mma and stack.trmma (trained or
  /// not); fails with kInvalidArgument otherwise.
  static StatusOr<std::unique_ptr<ServingSession>> Create(
      const ExperimentStack& stack, const SessionConfig& config);

  ~ServingSession();

  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  ServeEngine& engine() { return *engine_; }
  const SessionConfig& config() const { return config_; }

  std::future<ServeResponse> Submit(ServeRequest request) {
    return engine_->Submit(std::move(request));
  }
  ServeResponse SubmitAndWait(ServeRequest request) {
    return engine_->SubmitAndWait(std::move(request));
  }
  void Stop() { engine_->Stop(); }
  ServeStats stats() const { return engine_->stats(); }

 private:
  ServingSession() = default;

  SessionConfig config_;
  std::unique_ptr<ServeEngine> engine_;
};

}  // namespace serve
}  // namespace trmma

#endif  // TRMMA_SERVE_SESSION_H_

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
/// engine whose workers each hold a private execution context (shortest-path
/// engine, route planner and model instances) over the stack's shared
/// immutable substrates (network, spatial index, transition statistics).
///
/// Create snapshots the stack's trained MMA/TRMMA weights and loads them
/// into per-worker model instances. The models themselves hold only weights
/// and config (decoding uses local buffers), but they cannot be shared:
/// TrmmaRecovery binds the worker's own MapMatcher, DaRoutePlanner and
/// ShortestPathEngine, which carry Dijkstra scratch, and MatchPoints /
/// TryRecover are non-const. The stack must outlive the session; the
/// session never mutates it.
class ServingSession {
 public:
  /// Requires stack.mma and stack.trmma (trained or not — weights are
  /// copied as-is; Save/Load need mutable access, hence the non-const
  /// stack). Fails with kIOError when weight snapshotting fails.
  static StatusOr<std::unique_ptr<ServingSession>> Create(
      ExperimentStack& stack, const SessionConfig& config);

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

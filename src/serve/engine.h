#ifndef TRMMA_SERVE_ENGINE_H_
#define TRMMA_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/random.h"
#include "common/status.h"
#include "mm/route_stitch.h"
#include "serve/breaker.h"
#include "traj/types.h"

namespace trmma {

class FaultInjector;

namespace serve {

/// Request classes served by the engine (one circuit breaker each).
enum class RequestKind { kMatch = 0, kRecover = 1 };

/// Stable lowercase label ("match", "recover").
const char* RequestKindName(RequestKind kind);

/// Terminal classification of every submitted request — exactly one per
/// request, so success + degraded + shed + timeout == submitted always
/// holds (the engine's no-silent-drops invariant).
enum class Outcome {
  kSuccess = 0,  ///< full-fidelity result within the deadline
  kDegraded,     ///< partial result: deadline checkpoints fired, the
                 ///< pipeline degraded, or a terminal error left an empty
                 ///< payload (degraded answers beat no answers)
  kShed,         ///< rejected at admission (queue, breaker, SLO, shutdown)
  kTimeout,      ///< deadline expired before the request ever executed
};

/// Stable lowercase label ("success", "degraded", "shed", "timeout").
const char* OutcomeName(Outcome outcome);

/// Map-matching payload: per-point segments plus the stitched sections.
struct MatchOutput {
  std::vector<SegmentId> segments;
  std::vector<RouteSection> sections;
};

struct ServeRequest {
  RequestKind kind = RequestKind::kMatch;
  Trajectory traj;
  double epsilon = 15.0;  ///< recovery sampling interval (kRecover only)
};

struct ServeResponse {
  Outcome outcome = Outcome::kShed;
  Status status;             ///< terminal error detail; OK on clean results
  std::string shed_reason;   ///< queue_full|breaker_open|slo_pressure|...
  double retry_after_ms = 0.0;  ///< backoff hint on kShed
  MatchOutput match;            ///< kMatch payload
  MatchedTrajectory recovered;  ///< kRecover payload
  bool deadline_degraded = false;  ///< a deadline checkpoint fired
  bool pipeline_degraded = false;  ///< robust pipeline degraded/repaired
  int attempts = 0;
  bool hedge_won = false;  ///< the hedged attempt produced this response
  double latency_us = 0.0; ///< submit-to-finalize wall time
  uint64_t id = 0;
  /// Request trace id (obs/trace.h), allocated at admission. Every span and
  /// exemplar produced for this request carries it; render with TraceIdHex.
  uint64_t trace_id = 0;
};

/// Request executor over shared immutable substrates. The engine holds one
/// instance and calls it concurrently from every worker thread, so
/// implementations must be thread-safe.
class Worker {
 public:
  virtual ~Worker() = default;
  virtual Status Match(const Trajectory& traj, MatchOutput* out) = 0;
  virtual Status Recover(const Trajectory& traj, double epsilon,
                         MatchedTrajectory* out, bool* degraded) = 0;
};

struct ServeConfig {
  int threads = 4;
  int queue_cap = 64;
  double deadline_ms = 250.0;  ///< <= 0 disables per-request deadlines
  /// p99-pressure shedding: reject when the observed p99 latency exceeds
  /// this and the queue is at least `shed_p99_min_depth` deep. 0 disables;
  /// FromEnv loads the serve.latency.us objective from TRMMA_SLO_FILE.
  double shed_p99_us = 0.0;
  int shed_p99_min_depth = 8;
  int max_retries = 1;            ///< extra attempts for transient failures
  double backoff_base_ms = 5.0;   ///< jittered exponential backoff base
  double backoff_max_ms = 50.0;
  double hedge_after_ms = 0.0;    ///< > 0 launches a hedged second attempt
  BreakerConfig breaker;
  uint64_t seed = 2025;           ///< retry/hedge jitter stream
  /// Fault source for per-request input corruption (TRMMA_FAULTS chaos);
  /// nullptr uses FaultInjector::Global(). Tests inject their own.
  const FaultInjector* faults = nullptr;

  /// Applies TRMMA_SERVE_THREADS / TRMMA_QUEUE_CAP / TRMMA_DEADLINE_MS and
  /// reads the serve p99 objective out of TRMMA_SLO_FILE when present.
  static ServeConfig FromEnv();
};

/// Aggregate request accounting (also mirrored on serve.* metrics).
struct ServeStats {
  int64_t submitted = 0;
  int64_t success = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t timeout = 0;
  int64_t retries = 0;
  int64_t hedges_launched = 0;
  int64_t hedge_wins = 0;
  int64_t deadline_expired = 0;
  int64_t peak_queue_depth = 0;

  /// The no-silent-drops invariant over finalized requests.
  bool Consistent() const {
    return success + degraded + shed + timeout == submitted;
  }
};

/// Concurrent request executor with deadlines, admission control and
/// overload resilience (DESIGN.md §11): a bounded queue feeding a pool of
/// threads that share one Worker, per-class circuit breakers, p99/queue
/// load-shedding, bounded jittered-backoff retries for transient failures,
/// and optional request hedging. Every submitted request resolves to
/// exactly one Outcome.
class ServeEngine {
 public:
  using Clock = std::chrono::steady_clock;

  ServeEngine(const ServeConfig& config, std::unique_ptr<Worker> worker);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Launches the worker pool.
  Status Start();

  /// Sheds new arrivals, drains the queue by execution (every pending
  /// future resolves), joins all threads. Idempotent.
  void Stop();

  /// Submits a request; never blocks on the queue. Sheds resolve the
  /// future immediately with Outcome::kShed + a retry_after_ms hint.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Convenience closed-loop call.
  ServeResponse SubmitAndWait(ServeRequest request);

  ServeStats stats() const;
  const ServeConfig& config() const { return config_; }
  int queue_depth() const;
  BreakerState breaker_state(RequestKind kind) const;
  /// Observed completion-latency p99 over a recent window (microseconds);
  /// 0 until enough samples exist.
  double ObservedP99Us() const;

 private:
  struct RequestState {
    ServeRequest request;
    uint64_t id = 0;
    std::promise<ServeResponse> promise;
    /// First finalize wins; doubles as the hedge/cancel flag observed by
    /// DeadlineScope checkpoints in the twin attempt.
    std::atomic<bool> done{false};
    std::atomic<int> attempts{0};
    Clock::time_point submitted_at{};
    Deadline deadline;
    /// Trace identity captured at admission and re-installed on whichever
    /// worker/timer thread touches the request (ScopedTraceContext).
    uint64_t trace_id = 0;
    int64_t root_seq = -1;   ///< request-lane root span seq (kTrace only)
    double submit_us = 0.0;  ///< NowMicros() at admission (root span start)
    /// InflightRegistry slot (obs/postmortem.h); -1 when not tracked. Held
    /// from admission to finalize so crash reports and the stall watchdog
    /// see exactly the requests inside the engine.
    int inflight_token = -1;
  };

  struct Task {
    std::shared_ptr<RequestState> req;
    bool hedge = false;
  };

  struct TimerEntry {
    Clock::time_point at;
    uint64_t seq = 0;
    std::function<void()> fn;
    bool operator>(const TimerEntry& other) const {
      return at != other.at ? at > other.at : seq > other.seq;
    }
  };

  void WorkerLoop();
  void TimerLoop();
  void Execute(const Task& task);
  /// Resolves the request exactly once; later calls (hedge twin) drop out.
  void Finalize(const std::shared_ptr<RequestState>& req,
                ServeResponse&& response, bool from_hedge);
  void FinalizeShed(const std::shared_ptr<RequestState>& req,
                    const std::string& reason, double retry_after_ms);
  ServeResponse ShedResponse(const ServeRequest& request,
                             const std::string& reason,
                             double retry_after_ms);
  /// Enqueues under mu_; false when the queue is full or shedding.
  bool TryEnqueue(Task task);
  void ScheduleAt(Clock::time_point at, std::function<void()> fn);
  void CountShed(const std::string& reason);
  void CountOutcome(RequestKind kind, Outcome outcome);
  CircuitBreaker& breaker(RequestKind kind) {
    return kind == RequestKind::kMatch ? match_breaker_ : recover_breaker_;
  }
  double JitteredBackoffMs(int attempt);
  void PreRegisterMetrics();

  const ServeConfig config_;
  const std::unique_ptr<Worker> worker_;
  const FaultInjector* faults_;

  CircuitBreaker match_breaker_;
  CircuitBreaker recover_breaker_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool started_ = false;
  bool stopping_ = false;   ///< admission sheds; timer drains
  bool draining_ = false;   ///< workers exit once the queue empties
  uint64_t next_id_ = 1;
  ServeStats stats_;

  mutable std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;
  uint64_t timer_seq_ = 0;
  bool timer_stopping_ = false;

  mutable std::mutex jitter_mu_;
  Rng jitter_rng_;

  /// Recent completion latencies for ObservedP99Us — engine-internal so
  /// p99 shedding works even with metrics off.
  mutable std::mutex latency_mu_;
  std::vector<double> latency_ring_;
  size_t latency_pos_ = 0;
  size_t latency_count_ = 0;

  std::vector<std::thread> threads_;
  std::thread timer_thread_;
};

}  // namespace serve
}  // namespace trmma

#endif  // TRMMA_SERVE_ENGINE_H_

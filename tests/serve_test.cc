#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <string>

#include "common/deadline.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injection.h"
#include "serve/breaker.h"
#include "serve/engine.h"
#include "traj/types.h"

namespace trmma {
namespace {

using Clock = std::chrono::steady_clock;

Trajectory MakeTraj(int n = 3) {
  Trajectory t;
  for (int i = 0; i < n; ++i) {
    GpsPoint p;
    p.pos = LatLng{31.0 + 1e-4 * i, 121.0 + 1e-4 * i};
    p.t = 15.0 * i;
    t.points.push_back(p);
  }
  return t;
}

serve::ServeRequest MatchRequest() {
  serve::ServeRequest req;
  req.kind = serve::RequestKind::kMatch;
  req.traj = MakeTraj();
  return req;
}

serve::ServeRequest RecoverRequest() {
  serve::ServeRequest req;
  req.kind = serve::RequestKind::kRecover;
  req.traj = MakeTraj();
  req.epsilon = 15.0;
  return req;
}

// ---------------------------------------------------------------------------
// Deadline substrate

TEST(DeadlineTest, UnboundedNeverExpires) {
  Deadline d = Deadline::Unbounded();
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(DeadlineExpired());  // no active scope
}

TEST(DeadlineTest, BoundedDeadlineExpires) {
  Deadline d = Deadline::AfterMillis(1.0);
  EXPECT_TRUE(d.bounded());
  EXPECT_GT(d.RemainingMillis(), 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingMillis(), 0.0);
}

TEST(DeadlineTest, ScopeActivatesThreadLocalCheck) {
  EXPECT_FALSE(DeadlineExpired());
  {
    DeadlineScope scope(Deadline::AfterMillis(0.01));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(DeadlineExpired());
  }
  EXPECT_FALSE(DeadlineExpired());  // scope restored
}

TEST(DeadlineTest, CancelFlagExpiresUnboundedScope) {
  std::atomic<bool> cancel{false};
  DeadlineScope scope(Deadline::Unbounded(), &cancel);
  EXPECT_FALSE(DeadlineExpired());
  cancel.store(true);
  EXPECT_TRUE(DeadlineExpired());
}

TEST(DeadlineTest, DegradationPropagatesToOuterScope) {
  DeadlineScope outer(Deadline::Unbounded());
  EXPECT_FALSE(DeadlineDegradationNoted());
  {
    DeadlineScope inner(Deadline::AfterMillis(1000.0));
    EXPECT_FALSE(DeadlineDegradationNoted());  // inner starts clean
    NoteDeadlineDegradation();
    EXPECT_TRUE(DeadlineDegradationNoted());
  }
  // The inner scope's degradation is visible to the outer request scope.
  EXPECT_TRUE(DeadlineDegradationNoted());
}

// ---------------------------------------------------------------------------
// Seed mixing and per-request fault streams

TEST(MixSeedTest, DeterministicAndSensitiveToBothInputs) {
  EXPECT_EQ(MixSeed(1, 2), MixSeed(1, 2));
  EXPECT_NE(MixSeed(1, 2), MixSeed(1, 3));
  EXPECT_NE(MixSeed(1, 2), MixSeed(2, 2));
  // Nearby streams decorrelate: the low bits differ too.
  EXPECT_NE(MixSeed(7, 100) & 0xff, MixSeed(7, 101) & 0xff);
}

TEST(FaultInjectorTest, SeededCorruptionIsAPureFunctionOfTheStream) {
  FaultInjectionConfig config;
  config.coord_spike_prob = 0.2;
  config.coord_nan_prob = 0.1;
  config.drop_point_prob = 0.1;
  config.seed = 42;
  FaultInjector injector(config);

  const Trajectory base = MakeTraj(30);
  Trajectory a = base;
  Trajectory b = base;
  injector.CorruptTrajectorySeeded(&a, 7);
  injector.CorruptTrajectorySeeded(&b, 7);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    // NaN != NaN, so compare bit-for-bit via ==-or-both-NaN.
    const GpsPoint& pa = a.points[i];
    const GpsPoint& pb = b.points[i];
    EXPECT_TRUE(pa.pos.lat == pb.pos.lat ||
                (pa.pos.lat != pa.pos.lat && pb.pos.lat != pb.pos.lat));
    EXPECT_EQ(pa.t, pb.t);
  }

  Trajectory c = base;
  injector.CorruptTrajectorySeeded(&c, 8);
  bool differs = c.size() != a.size();
  for (int i = 0; !differs && i < std::min(a.size(), c.size()); ++i) {
    differs = a.points[i].pos.lat != c.points[i].pos.lat &&
              !(a.points[i].pos.lat != a.points[i].pos.lat);
  }
  EXPECT_TRUE(differs) << "independent streams should corrupt differently";
}

TEST(FaultInjectorTest, SeededCorruptionIsInterleavingIndependent) {
  FaultInjectionConfig config;
  config.coord_spike_prob = 0.3;
  config.seed = 5;
  FaultInjector injector(config);

  const Trajectory base = MakeTraj(20);
  std::vector<Trajectory> serial(8, base);
  for (int i = 0; i < 8; ++i) {
    injector.CorruptTrajectorySeeded(&serial[i], static_cast<uint64_t>(i));
  }
  std::vector<Trajectory> parallel(8, base);
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&injector, &parallel, i] {
      injector.CorruptTrajectorySeeded(&parallel[i],
                                       static_cast<uint64_t>(i));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size());
    for (int j = 0; j < serial[i].size(); ++j) {
      EXPECT_EQ(serial[i].points[j].pos.lat, parallel[i].points[j].pos.lat);
      EXPECT_EQ(serial[i].points[j].t, parallel[i].points[j].t);
    }
  }
}

// ---------------------------------------------------------------------------
// Circuit breaker (explicit clock, no sleeps)

serve::BreakerConfig SmallBreaker() {
  serve::BreakerConfig config;
  config.window = 8;
  config.min_samples = 4;
  config.trip_ratio = 0.5;
  config.cooldown_ms = 100.0;
  config.half_open_probes = 2;
  return config;
}

TEST(CircuitBreakerTest, TripsHalfOpensAndCloses) {
  serve::CircuitBreaker breaker("match", SmallBreaker());
  const Clock::time_point t0 = Clock::now();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);

  for (int i = 0; i < 4; ++i) breaker.RecordFailure(t0);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);

  double retry_after = 0.0;
  EXPECT_FALSE(breaker.Admit(t0 + std::chrono::milliseconds(10),
                             &retry_after));
  EXPECT_GT(retry_after, 0.0);
  EXPECT_LE(retry_after, 100.0);

  // Cooldown elapsed: half-open admits exactly half_open_probes probes.
  const Clock::time_point t1 = t0 + std::chrono::milliseconds(150);
  EXPECT_TRUE(breaker.Admit(t1, &retry_after));
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.Admit(t1, &retry_after));
  EXPECT_FALSE(breaker.Admit(t1, &retry_after));

  breaker.RecordSuccess(t1);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHalfOpen);
  breaker.RecordSuccess(t1);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);

  // The window was cleared on close: old failures cannot re-trip it.
  breaker.RecordFailure(t1);
  breaker.RecordFailure(t1);
  breaker.RecordFailure(t1);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopens) {
  serve::CircuitBreaker breaker("recover", SmallBreaker());
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(t0);
  ASSERT_EQ(breaker.state(), serve::BreakerState::kOpen);

  const Clock::time_point t1 = t0 + std::chrono::milliseconds(150);
  ASSERT_TRUE(breaker.Admit(t1, nullptr));
  breaker.RecordFailure(t1);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
  // The cooldown restarts from the failed probe.
  EXPECT_FALSE(breaker.Admit(t1 + std::chrono::milliseconds(50), nullptr));
  EXPECT_TRUE(breaker.Admit(t1 + std::chrono::milliseconds(150), nullptr));
}

TEST(CircuitBreakerTest, HealthyTrafficKeepsItClosed) {
  serve::CircuitBreaker breaker("match", SmallBreaker());
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(breaker.Admit(t0, nullptr));
    // 1-in-4 failures stays under the 0.5 trip ratio.
    if (i % 4 == 0) {
      breaker.RecordFailure(t0);
    } else {
      breaker.RecordSuccess(t0);
    }
  }
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
}

// ---------------------------------------------------------------------------
// Engine over toy workers

/// Succeeds instantly with a fixed payload.
class EchoWorker : public serve::Worker {
 public:
  Status Match(const Trajectory& traj, serve::MatchOutput* out) override {
    out->segments.assign(static_cast<size_t>(traj.size()), SegmentId{0});
    return Status::OK();
  }
  Status Recover(const Trajectory& traj, double, MatchedTrajectory* out,
                 bool* degraded) override {
    out->assign(static_cast<size_t>(traj.size()), MatchedPoint{});
    *degraded = false;
    return Status::OK();
  }
};

/// Blocks the Nth call (0-based) on a shared gate; other calls echo.
class GatedWorker : public serve::Worker {
 public:
  GatedWorker(std::atomic<int>* calls, int gated_call,
              std::promise<void>* entered, std::shared_future<void> gate)
      : calls_(calls), gated_call_(gated_call), entered_(entered),
        gate_(std::move(gate)) {}

  Status Match(const Trajectory& traj, serve::MatchOutput* out) override {
    const int call = calls_->fetch_add(1);
    if (call == gated_call_) {
      entered_->set_value();
      gate_.wait();
    }
    out->segments.assign(static_cast<size_t>(traj.size()), SegmentId{0});
    return Status::OK();
  }
  Status Recover(const Trajectory& traj, double, MatchedTrajectory* out,
                 bool*) override {
    out->assign(static_cast<size_t>(traj.size()), MatchedPoint{});
    return Status::OK();
  }

 private:
  std::atomic<int>* calls_;
  int gated_call_;
  std::promise<void>* entered_;
  std::shared_future<void> gate_;
};

/// Fails the first `failures` calls with `code`, then succeeds.
class FlakyWorker : public serve::Worker {
 public:
  FlakyWorker(std::atomic<int>* calls, int failures, StatusCode code)
      : calls_(calls), failures_(failures), code_(code) {}

  Status Fail() const {
    return code_ == StatusCode::kIOError
               ? Status::IOError("flaky")
               : Status::InvalidArgument("bad request");
  }
  Status Match(const Trajectory& traj, serve::MatchOutput* out) override {
    if (calls_->fetch_add(1) < failures_) return Fail();
    out->segments.assign(static_cast<size_t>(traj.size()), SegmentId{0});
    return Status::OK();
  }
  Status Recover(const Trajectory& traj, double, MatchedTrajectory* out,
                 bool*) override {
    if (calls_->fetch_add(1) < failures_) return Fail();
    out->assign(static_cast<size_t>(traj.size()), MatchedPoint{});
    return Status::OK();
  }

 private:
  std::atomic<int>* calls_;
  int failures_;
  StatusCode code_;
};

TEST(ServeEngineTest, StartValidatesConfigAndWorker) {
  serve::ServeConfig config;
  config.threads = 0;
  serve::ServeEngine bad_threads(config, std::make_unique<EchoWorker>());
  EXPECT_EQ(bad_threads.Start().code(), StatusCode::kInvalidArgument);

  config.threads = 1;
  serve::ServeEngine null_worker(config, nullptr);
  EXPECT_EQ(null_worker.Start().code(), StatusCode::kInvalidArgument);
}

TEST(ServeEngineTest, ServesBothRequestClasses) {
  serve::ServeConfig config;
  config.threads = 2;
  serve::ServeEngine engine(config, std::make_unique<EchoWorker>());
  ASSERT_TRUE(engine.Start().ok());

  serve::ServeResponse m = engine.SubmitAndWait(MatchRequest());
  EXPECT_EQ(m.outcome, serve::Outcome::kSuccess);
  EXPECT_TRUE(m.status.ok());
  EXPECT_EQ(m.match.segments.size(), 3u);
  EXPECT_EQ(m.attempts, 1);
  EXPECT_GT(m.latency_us, 0.0);

  serve::ServeResponse r = engine.SubmitAndWait(RecoverRequest());
  EXPECT_EQ(r.outcome, serve::Outcome::kSuccess);
  EXPECT_EQ(r.recovered.size(), 3u);

  engine.Stop();
  const serve::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.success, 2);
  EXPECT_TRUE(stats.Consistent());
}

TEST(ServeEngineTest, FullQueueShedsWithRetryAfter) {
  std::atomic<int> calls{0};
  std::promise<void> entered;
  std::promise<void> gate;
  std::shared_future<void> gate_future(gate.get_future());

  serve::ServeConfig config;
  config.threads = 1;
  config.queue_cap = 2;
  config.deadline_ms = 0.0;  // queued requests must not time out
  serve::ServeEngine engine(
      config, std::make_unique<GatedWorker>(&calls, 0, &entered, gate_future));
  ASSERT_TRUE(engine.Start().ok());

  // First request occupies the only worker...
  std::future<serve::ServeResponse> blocked = engine.Submit(MatchRequest());
  entered.get_future().wait();
  // ...two more fill the queue, the fourth must shed.
  std::future<serve::ServeResponse> q1 = engine.Submit(MatchRequest());
  std::future<serve::ServeResponse> q2 = engine.Submit(MatchRequest());
  serve::ServeResponse shed = engine.SubmitAndWait(MatchRequest());
  EXPECT_EQ(shed.outcome, serve::Outcome::kShed);
  EXPECT_EQ(shed.shed_reason, "queue_full");
  EXPECT_GT(shed.retry_after_ms, 0.0);
  EXPECT_EQ(shed.status.code(), StatusCode::kFailedPrecondition);

  gate.set_value();
  EXPECT_EQ(blocked.get().outcome, serve::Outcome::kSuccess);
  EXPECT_EQ(q1.get().outcome, serve::Outcome::kSuccess);
  EXPECT_EQ(q2.get().outcome, serve::Outcome::kSuccess);
  engine.Stop();

  const serve::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_LE(stats.peak_queue_depth, 2);
  EXPECT_TRUE(stats.Consistent());
}

TEST(ServeEngineTest, QueuedRequestTimesOutWhenDeadlineExpires) {
  std::atomic<int> calls{0};
  std::promise<void> entered;
  std::promise<void> gate;
  std::shared_future<void> gate_future(gate.get_future());

  serve::ServeConfig config;
  config.threads = 1;
  config.deadline_ms = 20.0;
  serve::ServeEngine engine(
      config, std::make_unique<GatedWorker>(&calls, 0, &entered, gate_future));
  ASSERT_TRUE(engine.Start().ok());

  std::future<serve::ServeResponse> blocked = engine.Submit(MatchRequest());
  entered.get_future().wait();
  std::future<serve::ServeResponse> queued = engine.Submit(MatchRequest());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.set_value();

  // The toy worker ignores deadlines, so the blocked request completes.
  EXPECT_EQ(blocked.get().outcome, serve::Outcome::kSuccess);
  serve::ServeResponse late = queued.get();
  EXPECT_EQ(late.outcome, serve::Outcome::kTimeout);
  EXPECT_FALSE(late.status.ok());
  engine.Stop();

  const serve::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.timeout, 1);
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_TRUE(stats.Consistent());
}

TEST(ServeEngineTest, TransientFailureRetriesAndSucceeds) {
  std::atomic<int> calls{0};
  serve::ServeConfig config;
  config.threads = 1;
  config.max_retries = 1;
  config.backoff_base_ms = 1.0;
  config.backoff_max_ms = 2.0;
  serve::ServeEngine engine(
      config, std::make_unique<FlakyWorker>(&calls, 1, StatusCode::kIOError));
  ASSERT_TRUE(engine.Start().ok());

  serve::ServeResponse resp = engine.SubmitAndWait(MatchRequest());
  EXPECT_EQ(resp.outcome, serve::Outcome::kSuccess);
  EXPECT_EQ(resp.attempts, 2);
  engine.Stop();
  const serve::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.success, 1);
  EXPECT_TRUE(stats.Consistent());
}

TEST(ServeEngineTest, ExhaustedRetriesDegradeWithStatus) {
  std::atomic<int> calls{0};
  serve::ServeConfig config;
  config.threads = 1;
  config.max_retries = 1;
  config.backoff_base_ms = 1.0;
  serve::ServeEngine engine(
      config, std::make_unique<FlakyWorker>(&calls, 100, StatusCode::kIOError));
  ASSERT_TRUE(engine.Start().ok());

  serve::ServeResponse resp = engine.SubmitAndWait(MatchRequest());
  EXPECT_EQ(resp.outcome, serve::Outcome::kDegraded);
  EXPECT_EQ(resp.status.code(), StatusCode::kIOError);
  EXPECT_EQ(resp.attempts, 2);
  EXPECT_TRUE(resp.match.segments.empty()) << "terminal failure => empty";
  engine.Stop();
  EXPECT_EQ(engine.stats().retries, 1);
  EXPECT_TRUE(engine.stats().Consistent());
}

TEST(ServeEngineTest, PermanentFailureIsNotRetried) {
  std::atomic<int> calls{0};
  serve::ServeConfig config;
  config.threads = 1;
  config.max_retries = 3;
  serve::ServeEngine engine(
      config, std::make_unique<FlakyWorker>(&calls, 100,
                                            StatusCode::kInvalidArgument));
  ASSERT_TRUE(engine.Start().ok());

  serve::ServeResponse resp = engine.SubmitAndWait(MatchRequest());
  EXPECT_EQ(resp.outcome, serve::Outcome::kDegraded);
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(resp.attempts, 1);
  engine.Stop();
  EXPECT_EQ(engine.stats().retries, 0);
}

TEST(ServeEngineTest, HedgedAttemptWinsWhilePrimaryIsStuck) {
  std::atomic<int> calls{0};
  std::promise<void> entered;
  std::promise<void> gate;
  std::shared_future<void> gate_future(gate.get_future());

  serve::ServeConfig config;
  config.threads = 2;
  config.deadline_ms = 0.0;
  config.hedge_after_ms = 20.0;
  serve::ServeEngine engine(
      config, std::make_unique<GatedWorker>(&calls, 0, &entered, gate_future));
  ASSERT_TRUE(engine.Start().ok());

  // The primary attempt (call 0) blocks; the hedge launches after 20ms on
  // the idle second worker and answers first.
  serve::ServeResponse resp = engine.SubmitAndWait(MatchRequest());
  EXPECT_EQ(resp.outcome, serve::Outcome::kSuccess);
  EXPECT_TRUE(resp.hedge_won);
  gate.set_value();
  engine.Stop();

  const serve::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.hedges_launched, 1);
  EXPECT_EQ(stats.hedge_wins, 1);
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_TRUE(stats.Consistent());
}

TEST(ServeEngineTest, RepeatedFailuresTripTheBreakerThenShed) {
  std::atomic<int> calls{0};
  serve::ServeConfig config;
  config.threads = 1;
  config.max_retries = 0;
  config.breaker = SmallBreaker();
  config.breaker.cooldown_ms = 60000.0;  // stays open for the test
  serve::ServeEngine engine(
      config, std::make_unique<FlakyWorker>(&calls, 100,
                                            StatusCode::kInvalidArgument));
  ASSERT_TRUE(engine.Start().ok());

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.SubmitAndWait(MatchRequest()).outcome,
              serve::Outcome::kDegraded);
  }
  EXPECT_EQ(engine.breaker_state(serve::RequestKind::kMatch),
            serve::BreakerState::kOpen);

  serve::ServeResponse shed = engine.SubmitAndWait(MatchRequest());
  EXPECT_EQ(shed.outcome, serve::Outcome::kShed);
  EXPECT_EQ(shed.shed_reason, "breaker_open");
  EXPECT_GT(shed.retry_after_ms, 0.0);

  // The recover class has its own breaker and is unaffected.
  EXPECT_EQ(engine.breaker_state(serve::RequestKind::kRecover),
            serve::BreakerState::kClosed);
  EXPECT_EQ(engine.SubmitAndWait(RecoverRequest()).outcome,
            serve::Outcome::kDegraded);

  engine.Stop();
  EXPECT_TRUE(engine.stats().Consistent());
}

TEST(ServeEngineTest, SloPressureShedsOnceP99ExceedsTheObjective) {
  serve::ServeConfig config;
  config.threads = 1;
  config.shed_p99_us = 0.001;  // any completion is slower than 1ns
  config.shed_p99_min_depth = 0;
  serve::ServeEngine engine(config, std::make_unique<EchoWorker>());
  ASSERT_TRUE(engine.Start().ok());

  // The latency window needs 32 samples before p99 pressure kicks in.
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(engine.SubmitAndWait(MatchRequest()).outcome,
              serve::Outcome::kSuccess);
  }
  serve::ServeResponse shed = engine.SubmitAndWait(MatchRequest());
  EXPECT_EQ(shed.outcome, serve::Outcome::kShed);
  EXPECT_EQ(shed.shed_reason, "slo_pressure");
  EXPECT_GT(engine.ObservedP99Us(), 0.0);
  engine.Stop();
  EXPECT_TRUE(engine.stats().Consistent());
}

TEST(ServeEngineTest, StopDrainsEveryPendingFuture) {
  serve::ServeConfig config;
  config.threads = 2;
  config.deadline_ms = 0.0;
  serve::ServeEngine engine(config, std::make_unique<EchoWorker>());
  ASSERT_TRUE(engine.Start().ok());

  std::vector<std::future<serve::ServeResponse>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(engine.Submit(MatchRequest()));
  engine.Stop();
  for (auto& f : futures) {
    const serve::ServeResponse resp = f.get();  // must not hang
    EXPECT_TRUE(resp.outcome == serve::Outcome::kSuccess ||
                resp.outcome == serve::Outcome::kShed);
  }
  EXPECT_TRUE(engine.stats().Consistent());

  // Past Stop, admission sheds with the shutdown reason.
  serve::ServeResponse after = engine.SubmitAndWait(MatchRequest());
  EXPECT_EQ(after.outcome, serve::Outcome::kShed);
  EXPECT_EQ(after.shed_reason, "shutdown");
  EXPECT_TRUE(engine.stats().Consistent());
}

TEST(ServeConfigTest, FromEnvAppliesOverridesAndIgnoresGarbage) {
  ::setenv("TRMMA_SERVE_THREADS", "7", 1);
  ::setenv("TRMMA_QUEUE_CAP", "9", 1);
  ::setenv("TRMMA_DEADLINE_MS", "123.5", 1);
  serve::ServeConfig config = serve::ServeConfig::FromEnv();
  EXPECT_EQ(config.threads, 7);
  EXPECT_EQ(config.queue_cap, 9);
  EXPECT_DOUBLE_EQ(config.deadline_ms, 123.5);

  ::setenv("TRMMA_SERVE_THREADS", "lots", 1);
  EXPECT_EQ(serve::ServeConfig::FromEnv().threads, 4) << "fallback on junk";

  ::unsetenv("TRMMA_SERVE_THREADS");
  ::unsetenv("TRMMA_QUEUE_CAP");
  ::unsetenv("TRMMA_DEADLINE_MS");
}

// ---------------------------------------------------------------------------
// Request-scoped tracing and exemplars

/// Restores the process trace mode and exemplar switch on scope exit so
/// tests can flip them freely.
class ServeObsGuard {
 public:
  ServeObsGuard()
      : mode_(obs::CurrentTraceMode()), exemplars_(obs::ExemplarsEnabled()) {}
  ~ServeObsGuard() {
    obs::SetTraceMode(mode_);
    obs::SetExemplarsEnabled(exemplars_);
  }

 private:
  obs::TraceMode mode_;
  bool exemplars_;
};

TEST(ServeTraceTest, ResponsesCarryDistinctNonzeroTraceIds) {
  serve::ServeConfig config;
  config.threads = 1;
  serve::ServeEngine engine(config, std::make_unique<EchoWorker>());
  ASSERT_TRUE(engine.Start().ok());

  const serve::ServeResponse a = engine.SubmitAndWait(MatchRequest());
  const serve::ServeResponse b = engine.SubmitAndWait(RecoverRequest());
  engine.Stop();

  EXPECT_NE(a.trace_id, 0u);
  EXPECT_NE(b.trace_id, 0u);
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(obs::TraceIdHex(a.trace_id).size(), 16u);
}

TEST(ServeTraceTest, HedgedAttemptsShareTraceIdWithDistinctSpans) {
  ServeObsGuard guard;
  obs::SetTraceMode(obs::TraceMode::kTrace);
  obs::TraceRing::Global().Clear();

  std::atomic<int> calls{0};
  std::promise<void> entered;
  std::promise<void> gate;
  std::shared_future<void> gate_future(gate.get_future());

  serve::ServeConfig config;
  config.threads = 2;
  config.deadline_ms = 0.0;
  config.hedge_after_ms = 20.0;
  serve::ServeEngine engine(
      config, std::make_unique<GatedWorker>(&calls, 0, &entered, gate_future));
  ASSERT_TRUE(engine.Start().ok());

  serve::ServeResponse resp = engine.SubmitAndWait(MatchRequest());
  EXPECT_EQ(resp.outcome, serve::Outcome::kSuccess);
  EXPECT_TRUE(resp.hedge_won);
  ASSERT_NE(resp.trace_id, 0u);
  gate.set_value();
  engine.Stop();  // joins workers: the stuck primary's span has completed

  // Both attempts (the stuck primary and the winning hedge) ran on
  // different worker threads, yet every span they opened must carry the
  // request's trace id, with distinct seqs and a flow link back to the
  // request-lane root span.
  int64_t root_seq = -1;
  int root_lane = 0;
  std::vector<int64_t> attempt_seqs;
  std::vector<int64_t> attempt_links;
  for (const obs::SpanRecord& s : obs::TraceRing::Global().Snapshot()) {
    if (s.trace_id != resp.trace_id || s.name == nullptr) continue;
    const std::string name = s.name;
    if (name == "serve.request") {
      root_seq = s.seq;
      root_lane = s.lane;
    } else if (name == "serve.attempt") {
      attempt_seqs.push_back(s.seq);
      attempt_links.push_back(s.link_seq);
    }
  }
  ASSERT_GE(root_seq, 0) << "request root span missing from the ring";
  EXPECT_GT(root_lane, 0) << "root must live on a synthetic request lane";
  ASSERT_EQ(attempt_seqs.size(), 2u);
  EXPECT_NE(attempt_seqs[0], attempt_seqs[1]);
  EXPECT_EQ(attempt_links[0], root_seq);
  EXPECT_EQ(attempt_links[1], root_seq);
}

TEST(ServeExemplarTest, EightThreadObserveAndScrapeStaysConsistent) {
  ServeObsGuard guard;
  obs::SetExemplarsEnabled(true);

  // Every writer observes value == trace_id, so any torn exemplar slot
  // (value paired with another write's trace id) is detectable on read.
  obs::MetricRegistry registry;
  obs::Histogram* hist = registry.GetHistogram("serve.exemplar.hammer.us");
  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};

  std::thread scraper([&] {
    obs::HistogramExemplar ex;
    int spins = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (hist->WorstExemplar(&ex) &&
          ex.value != static_cast<double>(ex.trace_id)) {
        torn.fetch_add(1);
      }
      // Exercise the full exposition path (exemplar rendering included)
      // at a lower duty cycle than the raw slot reads.
      if (++spins % 64 == 0) registry.WriteText();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([hist, t] {
      for (int i = 1; i <= 4000; ++i) {
        const uint64_t id =
            static_cast<uint64_t>(t + 1) * 1000000u + static_cast<uint64_t>(i);
        hist->Observe(static_cast<double>(id), id);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  scraper.join();

  EXPECT_EQ(torn.load(), 0) << "seqlock let a torn exemplar escape";
  obs::HistogramExemplar ex;
  ASSERT_TRUE(hist->WorstExemplar(&ex));
  EXPECT_EQ(ex.value, static_cast<double>(ex.trace_id));
  EXPECT_NE(ex.trace_id, 0u);
  EXPECT_EQ(hist->Count(), 8 * 4000);
}

}  // namespace
}  // namespace trmma

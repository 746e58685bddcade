// serve-closed-pt: client threads in a closed loop against a
// ServingSession, 50/50 match (raw trace) and recover (sparse trace), each
// request on a distinct input trajectory. Each pass runs a light phase
// (`light_clients`, as many as workers, so requests rarely queue) and a
// heavy phase (`heavy_clients`, twice the workers, so every worker has a
// request waiting); the figures are medians over the passes.
//
// Every client times its request from just before Submit to the answer.
// Times are at the reference speed of SpeedProbe, probed while the session
// is idle between phases (never while the program runs).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "pipelines.h"

namespace trmmabench {
namespace {

using trmma::serve::Outcome;
using trmma::serve::RequestKind;
using trmma::serve::ServeRequest;
using trmma::serve::ServeResponse;

struct Request {
  bool match = true;
  size_t idx = 0;
  int queue_depth = 0;  ///< sampled just before Submit
  Clock::time_point start{};
  Clock::time_point end{};
  ServeResponse response;
  double latency_ms = 0.0;  ///< at reference speed
  bool failed() const {
    return response.outcome == Outcome::kShed ||
           response.outcome == Outcome::kTimeout || !response.status.ok();
  }
};

struct Phase {
  int clients = 0;
  int64_t requests = 0;
  int64_t failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rate = 0.0;  ///< completed requests per second at reference speed
  double depth_mean = 0.0;
  double speed = 0.0;  ///< mean SpeedProbe factor of its slices
};

bool SameSections(const std::vector<trmma::RouteSection>& a,
                  const std::vector<trmma::RouteSection>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].route != b[i].route || a[i].first_point != b[i].first_point ||
        a[i].last_point != b[i].last_point) {
      return false;
    }
  }
  return true;
}

bool SameRecovery(const trmma::MatchedTrajectory& a,
                  const trmma::MatchedTrajectory& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].segment != b[i].segment || a[i].ratio != b[i].ratio ||
        a[i].t != b[i].t) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult RunServeClosedLoop(const Flags& flags, Setup& setup, uint64_t seed,
                             double seconds, bool traced, SpanLog* spans) {
  const trmma::Dataset& ds = *setup.dataset;
  const trmma::RoadNetwork& net = *ds.network;
  trmma::serve::ServingSession& session = *setup.session;
  const size_t pool = setup.inputs.size();
  const int passes = flags.Int("passes");
  const double phase_s = seconds / (2.0 * passes);
  const double slo_p99_ms = flags.Num("slo_p99_ms");

  // Request classes are drawn from the seed, one per input.
  std::vector<bool> is_match(pool);
  trmma::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  for (size_t i = 0; i < pool; ++i) is_match[i] = rng.Uniform() < 0.5;

  // `clients` closed-loop clients for `slice_s` seconds; returns their
  // requests.
  std::atomic<size_t> next_input{0};
  auto run_clients = [&](int clients, double slice_s) {
    std::vector<std::vector<Request>> done(clients);
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(slice_s));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        while (Clock::now() < end) {
          const size_t idx = next_input.fetch_add(1);
          if (idx >= pool) break;
          Request req;
          req.idx = idx;
          req.match = is_match[idx];
          const trmma::TrajectorySample& sample = setup.inputs[idx];
          ServeRequest request;
          request.kind =
              req.match ? RequestKind::kMatch : RequestKind::kRecover;
          request.traj = req.match ? sample.raw : sample.sparse;
          request.epsilon = ds.epsilon_s;
          req.queue_depth = session.engine().queue_depth();
          req.start = Clock::now();
          req.response = session.SubmitAndWait(std::move(request));
          req.end = Clock::now();
          done[c].push_back(std::move(req));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    std::vector<Request> all;
    for (std::vector<Request>& client : done) {
      for (Request& req : client) all.push_back(std::move(req));
    }
    return all;
  };

  // Host speed is probed only while the session is idle, never beside the
  // program, so the factor does not depend on how much CPU the program
  // itself uses. The host's speed drifts within seconds, so each phase runs
  // as `slices` slices with a probe window before the first and after every
  // slice; a slice is scaled by the mean of the windows on either side.
  const SpeedProbe probe = ProbeFromFlags(flags);
  const int probe_reps = flags.Int("calibration_reps");
  const int probe_window = flags.Int("probe_window");
  auto probe_idle = [&] {
    std::vector<double> factors;
    for (int i = 0; i < probe_window; ++i) {
      factors.push_back(probe.Measure(probe_reps));
    }
    return Median(factors);
  };
  const int slices = flags.Int("slices");
  std::vector<double> windows = {probe_idle()};

  // Every answer is checked and counted when its slice ends, in input order
  // (slices take inputs in order), so quality covers the same first answers
  // of each class for a given seed. Only the answers to every
  // `check_every`-th input are kept for the comparison with direct calls,
  // so the benchmark's memory does not grow with the request rate.
  const size_t check_every = flags.Int("check_every");
  const int quality_n = flags.Int("quality_trajectories");
  RunResult result;
  QualityTally quality;
  int64_t tally[4] = {0, 0, 0, 0};
  int64_t degraded = 0;
  int64_t bad_length = 0;
  int64_t disconnected = 0;
  int64_t points_in = 0;
  int64_t points_out = 0;
  int64_t matches = 0;
  auto account = [&](const Request& req) {
    const ServeResponse& resp = req.response;
    ++result.attempted;
    ++tally[static_cast<int>(resp.outcome)];
    degraded += resp.outcome == Outcome::kDegraded ? 1 : 0;
    result.failed += req.failed() ? 1 : 0;
    matches += req.match ? 1 : 0;
    const trmma::TrajectorySample& sample = setup.inputs[req.idx];
    points_in += req.match ? sample.raw.size() : sample.sparse.size();
    points_out +=
        req.match ? resp.match.segments.size() : resp.recovered.size();
    if (req.failed() || resp.deadline_degraded) return;
    if (req.match) {
      if (static_cast<int>(resp.match.segments.size()) != sample.raw.size()) {
        ++bad_length;
      }
      disconnected += DisconnectedSteps(net, resp.match.sections);
      if (quality.f1_n < quality_n) {
        quality.AddRoute(JoinSections(resp.match.sections), sample.route);
      }
    } else if (quality.point_n < quality_n) {
      quality.AddPoints(net, *setup.stack->engine, resp.recovered,
                        sample.truth);
    }
  };

  std::vector<Request> kept;
  std::vector<Phase> light;
  std::vector<Phase> heavy;
  double cpu_ref_s = 0.0;  // process CPU seconds of the phases, reference speed
  for (int pass = 0; pass < passes; ++pass) {
    for (const bool is_heavy : {false, true}) {
      Phase phase;
      phase.clients = flags.Int(is_heavy ? "heavy_clients" : "light_clients");
      std::vector<double> latencies;
      std::vector<double> depths;
      double ref_wall_s = 0.0;
      for (int slice = 0; slice < slices; ++slice) {
        const double cpu_start = ProcessCpuSeconds();
        const Clock::time_point start = Clock::now();
        std::vector<Request> done =
            run_clients(phase.clients, phase_s / slices);
        const double wall_s = SecondsBetween(start, Clock::now());
        const double cpu_s = ProcessCpuSeconds() - cpu_start;
        windows.push_back(probe_idle());
        const double speed =
            0.5 * (windows[windows.size() - 2] + windows.back());
        cpu_ref_s += cpu_s * speed;
        ref_wall_s += wall_s * speed;
        phase.speed += speed / slices;
        std::sort(done.begin(), done.end(),
                  [](const Request& a, const Request& b) {
                    return a.idx < b.idx;
                  });
        for (Request& req : done) {
          req.latency_ms = SecondsBetween(req.start, req.end) * 1e3 * speed;
          depths.push_back(req.queue_depth);
          ++phase.requests;
          if (req.failed()) {
            ++phase.failed;
          } else {
            latencies.push_back(req.latency_ms);
          }
          if (traced) {
            spans->Add(req.match ? "serve.match" : "serve.recover", -1,
                       req.start, req.end);
          }
          account(req);
          if (req.idx % check_every == 0) kept.push_back(std::move(req));
        }
      }
      phase.p50_ms = Median(latencies);
      phase.p99_ms = Quantile(latencies, 0.99);
      phase.depth_mean = Mean(depths);
      phase.rate = static_cast<double>(latencies.size()) / ref_wall_s;
      std::fprintf(stderr,
                   "  pass %d %s (%d clients): %5lld requests, %7.1f req/s, "
                   "p50 %7.3f ms, p99 %7.3f ms, failed %lld, depth %.2f, "
                   "speed %.3f\n",
                   pass + 1, is_heavy ? "heavy" : "light", phase.clients,
                   static_cast<long long>(phase.requests), phase.rate,
                   phase.p50_ms, phase.p99_ms,
                   static_cast<long long>(phase.failed), phase.depth_mean,
                   phase.speed);
      (is_heavy ? heavy : light).push_back(phase);
    }
  }
  const trmma::serve::ServeStats stats = session.stats();
  const bool accounted =
      stats.Consistent() && stats.submitted == result.attempted &&
      tally[0] + tally[1] + tally[2] + tally[3] == result.attempted &&
      stats.success == tally[0] && stats.degraded == tally[1] &&
      stats.shed == tally[2] && stats.timeout == tally[3];
  result.violations["accounting"] = accounted ? 0 : 1;
  result.violations["match_length"] = bad_length;
  result.violations["disconnected_section"] = disconnected;

  // Correctness against direct calls on the stack's own models, for the
  // kept answers. Traced runs alternate them between the untraced and the
  // traced pipelines for the layer split of this mix.
  MatchPipeline match(*setup.stack);
  RecoverPipeline recover(*setup.stack, flags.Str("tmp_dir"));
  const double direct_speed = probe_idle();
  LayerCounts layers;
  std::vector<double> untraced_s;
  int64_t mismatches = 0;
  int64_t compared[2] = {0, 0};  // match, recover
  for (const Request& req : kept) {
    const ServeResponse& resp = req.response;
    if (req.failed() || resp.deadline_degraded) continue;
    const trmma::TrajectorySample& sample = setup.inputs[req.idx];
    // Alternate within each request class so both halves see the same mix.
    const int64_t nth = compared[req.match ? 0 : 1]++;
    SpanLog* log = traced && nth % 2 == 1 ? spans : nullptr;
    TrajOutcome out;
    bool same = true;
    if (req.match) {
      out = RunTraced(log, &layers, [&](SpanLog* l, int root) {
        return match.Run(sample.raw, l, root, &layers);
      });
      std::vector<trmma::SegmentId> segs;
      std::vector<trmma::RouteSection> sections;
      if (match.pieces.size() == 1 &&
          match.pieces[0].size() == sample.raw.size()) {
        segs = match.segs[0];
        sections = match.sections[0];
      } else {
        // The serving path matches the raw trace unsanitized.
        segs = setup.stack->mma->MatchPoints(sample.raw);
        sections = trmma::StitchRouteSections(net, *setup.stack->planner,
                                              *setup.stack->engine, segs);
      }
      same = segs == resp.match.segments &&
             SameSections(sections, resp.match.sections);
    } else {
      out = RunTraced(log, &layers, [&](SpanLog* l, int root) {
        return recover.Run(sample.sparse, l, root, &layers);
      });
      same = SameRecovery(recover.result.recovered, resp.recovered);
    }
    if (log == nullptr) untraced_s.push_back(out.seconds);
    mismatches += same ? 0 : 1;
  }
  result.violations["serve_mismatch"] = mismatches;
  result.violations["invalid_recovered_point"] = recover.invalid_points;
  result.violations["disconnected_section"] += match.disconnected;
  result.fingerprint["serve_compared"] =
      static_cast<double>(compared[0] + compared[1]);

  const double n = static_cast<double>(std::max<int64_t>(result.attempted, 1));
  result.fingerprint["trajectories"] = static_cast<double>(result.attempted);
  result.fingerprint["input_pool"] = static_cast<double>(pool);
  result.fingerprint["inputs_exhausted"] = next_input >= pool ? 1.0 : 0.0;
  result.fingerprint["mean_points_in"] = points_in / n;
  result.fingerprint["mean_points_out"] = points_out / n;
  result.fingerprint["match_share"] = matches / n;
  result.validity["speed_factor"] = Median(windows);

  auto& m = result.metrics;
  if (traced) {
    PublishLayerMetrics(*spans, layers, Mean(untraced_s), direct_speed,
                        &result);
    std::vector<double> depth;
    std::vector<double> wait_ms;
    for (const Phase& p : heavy) {
      depth.push_back(p.depth_mean);
      // Little's law: mean wait = mean queue length / arrival rate.
      wait_ms.push_back(p.rate > 0 ? p.depth_mean / p.rate * 1e3 : 0.0);
    }
    m["serve.queue_depth_mean"] = Median(depth);
    m["serve.queue_wait_ms"] = Median(wait_ms);
    m["serve.shed_ratio"] = stats.shed / n;
    m["serve.timeout_ratio"] = stats.timeout / n;
    m["serve.retries"] = static_cast<double>(stats.retries);
    m["serve.peak_queue_depth"] = static_cast<double>(stats.peak_queue_depth);
    return result;
  }
  std::vector<double> light_p50;
  std::vector<double> light_p99;
  std::vector<double> heavy_p99;
  std::vector<double> best_rate;
  for (int p = 0; p < passes; ++p) {
    light_p50.push_back(light[p].p50_ms);
    light_p99.push_back(light[p].p99_ms);
    heavy_p99.push_back(heavy[p].p99_ms);
    // A phase's answered rate, discounted by how far its p99 overshoots
    // the SLO: a latency regression lowers the figure instead of zeroing it.
    double best = 0.0;
    for (const Phase* phase : {&light[p], &heavy[p]}) {
      best = std::max(best, phase->rate * std::min(1.0, slo_p99_ms /
                                                           phase->p99_ms));
    }
    best_rate.push_back(best);
  }
  m["s_per_1k"] = cpu_ref_s / std::max<double>(n - result.failed, 1.0) * 1e3;
  m["p50_ms"] = Median(light_p50);
  m["p99_ms"] = Median(light_p99);
  m["p99_ms_heavy"] = Median(heavy_p99);
  m["max_qps_at_slo"] = Median(best_rate);
  m["ok_ratio"] = 1.0 - result.failed / n;
  m["clean_ratio"] = 1.0 - degraded / n;
  quality.Publish(&result);
  return result;
}

}  // namespace trmmabench

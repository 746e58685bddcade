// Batch workloads: one caller in a closed loop over distinct input
// trajectories for `--seconds` of wall time (match-dense-pt runs
// MatchPipeline on raw traces, recover-sparse-bj RecoverPipeline on sparse
// ones). Times are reported at the reference speed of SpeedProbe, probed
// between trajectories. Traced runs alternate trajectories between the
// untraced and the traced path, so the layer split and the tracing overhead
// come from the same inputs and the same minute of machine time.
#include <algorithm>
#include <numeric>

#include "bench.h"
#include "pipelines.h"

namespace trmmabench {
namespace {

/// Closed loop of one caller over the set-up's inputs in order.
/// `step(idx, log, root, layers)` runs input `idx`; `log` is null on
/// untraced trajectories.
template <typename Step>
RunResult ClosedLoop(const Flags& flags, Setup& setup, double seconds,
                     bool traced, SpanLog* spans, Step&& step) {
  const size_t pool = setup.inputs.size();

  RunResult result;
  LayerCounts layers;
  std::vector<double> untraced_s;
  std::vector<int> untraced_points;
  std::vector<size_t> untraced_probe;  // probe reading taken before it
  std::vector<double> probes;          // kernel seconds
  int64_t degraded = 0;
  int64_t points_in = 0;
  int64_t points_out = 0;
  const int probe_every = flags.Int("calibrate_every");
  const int probe_reps = flags.Int("calibration_reps");

  const Clock::time_point start = Clock::now();
  size_t next = 0;
  while (next < pool &&
         SecondsBetween(start, Clock::now()) < seconds) {
    if (next % probe_every == 0) {
      probes.push_back(SpeedProbe::KernelSeconds(probe_reps));
    }
    const size_t idx = next;
    SpanLog* log = traced && next % 2 == 1 ? spans : nullptr;
    ++next;
    const TrajOutcome out = RunTraced(log, &layers, [&](SpanLog* l, int root) {
      return step(idx, l, root, &layers);
    });
    if (log == nullptr) {
      untraced_s.push_back(out.seconds);
      untraced_points.push_back(out.points_in);
      untraced_probe.push_back(probes.size() - 1);
    }
    ++result.attempted;
    result.failed += out.failed ? 1 : 0;
    degraded += out.degraded ? 1 : 0;
    points_in += out.points_in;
    points_out += out.points_out;
  }

  const double n = static_cast<double>(std::max<int64_t>(result.attempted, 1));
  result.fingerprint["inputs_exhausted"] = next >= pool ? 1.0 : 0.0;
  result.fingerprint["input_pool"] = static_cast<double>(pool);
  result.fingerprint["trajectories"] = static_cast<double>(result.attempted);
  result.fingerprint["mean_points_in"] = points_in / n;
  result.fingerprint["mean_points_out"] = points_out / n;

  const SpeedProbe probe = ProbeFromFlags(flags);
  if (traced) {
    // Layer times at reference speed by the run's median probe; the validity
    // ratios compare traced and untraced trajectories of the same run raw.
    PublishLayerMetrics(*spans, layers, Mean(untraced_s),
                        probe.Factor(Median(probes)), &result);
    return result;
  }
  // Each trajectory's time at reference speed, by the median of the five
  // probe readings nearest to it.
  std::vector<double> times;
  for (size_t i = 0; i < untraced_s.size(); ++i) {
    const size_t p = untraced_probe[i];
    const size_t lo = p >= 2 ? p - 2 : 0;
    const size_t hi = std::min(probes.size(), lo + 5);
    const std::vector<double> near(probes.begin() + lo, probes.begin() + hi);
    times.push_back(untraced_s[i] * probe.Factor(Median(near)));
  }
  // Heavy inputs: the longer half of the trajectories by input points.
  std::vector<size_t> order(times.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return untraced_points[a] < untraced_points[b];
  });
  std::vector<double> heavy;
  for (size_t i = order.size() / 2; i < order.size(); ++i) {
    heavy.push_back(times[order[i]]);
  }
  const double per_traj_s = Mean(times);
  const double p99_ms = Quantile(times, 0.99) * 1e3;
  const double failed_share = result.failed / n;
  auto& m = result.metrics;
  m["s_per_1k"] = per_traj_s * 1e3;
  m["p50_ms"] = Median(times) * 1e3;
  m["p99_ms"] = p99_ms;
  m["p99_ms_heavy"] = Quantile(heavy, 0.99) * 1e3;
  // One closed-loop caller's completed rate, when it meets the SLO.
  m["max_qps_at_slo"] = (1.0 - failed_share) / per_traj_s *
                        std::min(1.0, flags.Num("slo_p99_ms") / p99_ms);
  m["ok_ratio"] = 1.0 - failed_share;
  m["clean_ratio"] = 1.0 - degraded / n;
  result.validity["speed_factor"] = probe.Factor(Median(probes));
  result.validity["wall_s_per_1k"] = Mean(untraced_s) * 1e3;
  return result;
}

}  // namespace

RunResult RunMatchBatch(const Flags& flags, Setup& setup, double seconds,
                        bool traced, SpanLog* spans) {
  const trmma::Dataset& ds = *setup.dataset;
  const trmma::RoadNetwork& net = *ds.network;
  const size_t quality_n = flags.Int("quality_trajectories");
  MatchPipeline pipeline(*setup.stack);
  QualityTally quality;

  RunResult result = ClosedLoop(
      flags, setup, seconds, traced, spans,
      [&](size_t idx, SpanLog* log, int root, LayerCounts* layers) {
        const TrajOutcome out =
            pipeline.Run(setup.inputs[idx].raw, log, root, layers);
        // Quality over the first untraced answers with one unsplit piece
        // (the truth is aligned with the raw points); not timed.
        if (!traced && quality.f1_n < static_cast<int>(quality_n) &&
            pipeline.pieces.size() == 1 &&
            pipeline.pieces[0].size() == setup.inputs[idx].raw.size()) {
          const trmma::TrajectorySample& s = setup.inputs[idx];
          quality.AddRoute(JoinSections(pipeline.sections[0]), s.route);
          trmma::MatchedTrajectory pred;
          for (size_t i = 0; i < pipeline.segs[0].size(); ++i) {
            pred.push_back(trmma::ProjectToSegment(net, s.raw.points[i],
                                                   pipeline.segs[0][i]));
          }
          quality.AddPoints(net, *setup.stack->engine, pred, s.truth);
        }
        return out;
      });
  result.violations["match_length"] = pipeline.bad_length;
  result.violations["disconnected_section"] = pipeline.disconnected;
  if (!traced) quality.Publish(&result);
  return result;
}

RunResult RunRecoverBatch(const Flags& flags, Setup& setup, double seconds,
                          bool traced, SpanLog* spans) {
  const trmma::Dataset& ds = *setup.dataset;
  const size_t quality_n = flags.Int("quality_trajectories");
  RecoverPipeline pipeline(*setup.stack, flags.Str("tmp_dir"));
  QualityTally quality;

  RunResult result = ClosedLoop(
      flags, setup, seconds, traced, spans,
      [&](size_t idx, SpanLog* log, int root, LayerCounts* layers) {
        const TrajOutcome out =
            pipeline.Run(setup.inputs[idx].sparse, log, root, layers);
        if (!traced && quality.point_n < static_cast<int>(quality_n)) {
          quality.AddRecovery(*ds.network, *setup.stack->engine,
                              pipeline.result.recovered,
                              setup.inputs[idx].truth);
        }
        return out;
      });
  result.violations["invalid_recovered_point"] = pipeline.invalid_points;
  if (!traced) quality.Publish(&result);
  return result;
}

}  // namespace trmmabench

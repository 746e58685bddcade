#ifndef TRMMA_RECOVERY_TRMMA_H_
#define TRMMA_RECOVERY_TRMMA_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "graph/transition_stats.h"
#include "mm/map_matcher.h"
#include "mm/route_stitch.h"
#include "nn/adam.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "recovery/recovery.h"
#include "traj/dataset.h"

namespace trmma {

/// Hyperparameters of TRMMA (paper §VI-A, scaled; see DESIGN.md §4).
struct TrmmaConfig {
  int dh = 32;          ///< model dim of the DualFormer (paper d_h)
  int trans_layers = 2;
  int trans_heads = 2;
  int trans_ffn = 64;
  double lr = 1e-3;
  int batch_size = 8;   ///< trajectories per optimizer step
  double lambda = 5.0;  ///< ratio-loss weight (paper Eq. 21)
  uint64_t seed = 31;
  bool use_dualformer = true;  ///< off = TRMMA-DF ablation (H = R)
  /// Probability of feeding the decoder its own prediction instead of the
  /// ground truth during training (scheduled sampling; mitigates exposure
  /// bias in the sequential decode of Algorithm 2).
  double scheduled_sampling = 0.35;
};

/// TRMMA (paper §V): recovers the map-matched ε-sampling trajectory of a
/// sparse input by (1) map matching it with the provided matcher and
/// stitching the route R, (2) encoding T and R with the DualFormer
/// (Eq. 11-14), and (3) sequentially decoding missing points with a GRU
/// that classifies over the segments of R and regresses position ratios
/// (Eq. 15-18, Algorithm 2). Candidates are the route's segments only —
/// never all of G — which is the source of its efficiency.
class TrmmaRecovery : public RecoveryMethod, public nn::Module {
 public:
  /// `matcher` provides routes at inference (MMA for full TRMMA; Nearest /
  /// HMM for the TRMMA-Near / TRMMA-HMM ablations). Referenced objects
  /// must outlive the instance.
  TrmmaRecovery(const RoadNetwork& network, MapMatcher* matcher,
                const DaRoutePlanner* planner,
                const ShortestPathEngine* fallback, const TrmmaConfig& config,
                std::string label = "TRMMA");

  /// One teacher-forced training epoch over the dataset's training split
  /// (ground-truth routes and matched points; loss Eq. 21). Returns the
  /// average per-point loss.
  double TrainEpoch(const Dataset& dataset, Rng& rng);

  /// Fast inference (Algorithm 2): the DualFormer encoding runs once on
  /// the autograd tape; the sequential decode then runs tape-free with the
  /// step-invariant part of the classifier (H * W8_top) precomputed per
  /// trajectory — the engineering behind the paper's inference-speed
  /// claim.
  MatchedTrajectory Recover(const Trajectory& sparse,
                            double epsilon) override;

  /// Non-aborting recovery. Unmatched points are repaired by borrowing the
  /// nearest matched neighbor's segment; unroutable candidate pairs split
  /// the route into sections that are decoded independently, with the
  /// ε-grid points between sections filled by nearest-anchor hold. Returns
  /// an error Status (instead of aborting) only when no point of the input
  /// can be map-matched at all. `stats` reports how much degradation was
  /// needed. Recover() is a thin wrapper that logs-and-drops failures.
  StatusOr<MatchedTrajectory> TryRecover(
      const Trajectory& sparse, double epsilon,
      RecoverStats* stats = nullptr) override;

  /// Reference implementation of Recover on the autograd tape. Slower;
  /// kept for differential testing against the fast path.
  MatchedTrajectory RecoverReference(const Trajectory& sparse,
                                     double epsilon);

  /// Tape-based counterpart of TryRecover with identical degradation
  /// semantics (section splitting, gap fill, Status on total failure).
  StatusOr<MatchedTrajectory> TryRecoverReference(
      const Trajectory& sparse, double epsilon,
      RecoverStats* stats = nullptr);

  std::string name() const override { return label_; }

  /// Diagnostic: teacher-forced decoding quality on the given samples
  /// (ground-truth routes, anchors and previous points). Separates decoder
  /// quality from map-matching quality.
  struct TeacherForcedStats {
    double cls_accuracy = 0.0;  ///< argmax-over-suffix segment accuracy
    double ratio_mae = 0.0;     ///< mean |ratio error|
  };
  TeacherForcedStats EvaluateTeacherForced(const Dataset& dataset,
                                           const std::vector<int>& indices);

  const TrmmaConfig& config() const { return config_; }

  /// Persists / restores all trainable parameters. The loading model must
  /// be constructed with the same config and network.
  Status Save(const std::string& path);
  Status Load(const std::string& path);

 private:
  /// DualFormer encoding H (Eq. 11-14) for a (sparse points, matched
  /// anchors, route) triple.
  nn::Tensor EncodeH(nn::Tape& tape, const Trajectory& sparse,
                     const std::vector<MatchedPoint>& anchors,
                     const Route& route);

  /// Advances the GRU with the previous point and emits classification
  /// logits over the route (Eq. 15). `seg_time_frac` holds each route
  /// segment's midpoint expected-time fraction; the classifier receives,
  /// per segment, its offset from the target time and from the previous
  /// position (explicit alignment features; DESIGN.md §2).
  /// `expected_frac` is the anticipated route fraction of the target
  /// point: the time-linear interpolation between the two observed
  /// anchors bracketing the gap. The classifier learns a residual on it.
  void StepAndClassify(nn::Tape& tape, nn::Tensor h_in, nn::Tensor enc_h,
                       const std::vector<double>& prefix_frac,
                       SegmentId prev_segment, double prev_ratio,
                       double target_time_frac, double prev_route_frac,
                       double expected_frac, nn::Tensor* h_out,
                       nn::Tensor* w);

  /// Ratio regression (Eq. 18) given the step's logits and the analytic
  /// uniform-speed ratio prior of the chosen segment.
  nn::Tensor PredictRatio(nn::Tape& tape, nn::Tensor h, nn::Tensor enc_h,
                          nn::Tensor w, double expected_ratio);

  /// Sequential decode (Algorithm 2 lines 2-16) of one route section: the
  /// sparse sub-trajectory `sparse` with per-point `anchors`, all of whose
  /// segments lie on the connected `route`. Tape-free fast path.
  MatchedTrajectory DecodeSectionFast(const Trajectory& sparse,
                                      const std::vector<MatchedPoint>& anchors,
                                      const Route& route, double epsilon);

  /// Tape-based reference decode of one route section.
  MatchedTrajectory DecodeSectionReference(
      const Trajectory& sparse, const std::vector<MatchedPoint>& anchors,
      const Route& route, double epsilon);

  const RoadNetwork& network_;
  MapMatcher* matcher_;
  const DaRoutePlanner* planner_;
  const ShortestPathEngine* fallback_;
  TrmmaConfig config_;
  std::string label_;
  Rng init_rng_;

  nn::Embedding seg_table_;   ///< shared id embedding (W7 and T0's segment part)
  nn::Linear t0_fc_;          ///< W6 (Eq. 11)
  nn::Linear route_fc_;       ///< W7 over [id emb | geometric features]
  nn::TransformerEncoder trans_t_;  ///< Trans_T (Eq. 11)
  nn::TransformerEncoder trans_r_;  ///< Trans_R (Eq. 12)
  nn::GruCell gru_;           ///< decoder state
  nn::Mlp cls_mlp_;           ///< Eq. 15
  nn::Mlp ratio_mlp_;         ///< Eq. 18
  std::unique_ptr<nn::Adam> optimizer_;
  int64_t epochs_trained_ = 0;  ///< epoch index reported in train telemetry
};

}  // namespace trmma

#endif  // TRMMA_RECOVERY_TRMMA_H_

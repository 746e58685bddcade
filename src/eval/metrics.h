#ifndef TRMMA_EVAL_METRICS_H_
#define TRMMA_EVAL_METRICS_H_

#include <vector>

#include "graph/shortest_path.h"
#include "traj/types.h"

namespace trmma {

/// Set-based quality metrics over segments (paper §VI-A).
struct SetMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double jaccard = 0.0;

  SetMetrics& operator+=(const SetMetrics& o);
  SetMetrics operator/(double n) const;
};

/// Precision/recall/F1/Jaccard between predicted and ground-truth segment
/// collections, with set semantics as in the paper.
SetMetrics SegmentSetMetrics(const std::vector<SegmentId>& pred,
                             const std::vector<SegmentId>& truth);

/// Pointwise segment accuracy between aligned matched trajectories
/// (paper's Accuracy). The denominator is the ground-truth length;
/// missing or extra predictions count as errors.
double PointwiseAccuracy(const MatchedTrajectory& pred,
                         const MatchedTrajectory& truth);

/// MAE/RMSE of road-network distances between aligned points (paper
/// §VI-A). Distances are the symmetric network distance (min of the two
/// directions), capped at `cap_m` for disconnected pairs.
struct DistanceErrors {
  double mae = 0.0;
  double rmse = 0.0;
};

DistanceErrors RecoveryDistanceErrors(const RoadNetwork& network,
                                      const ShortestPathEngine& engine,
                                      const MatchedTrajectory& pred,
                                      const MatchedTrajectory& truth,
                                      double cap_m = 2000.0);

}  // namespace trmma

#endif  // TRMMA_EVAL_METRICS_H_

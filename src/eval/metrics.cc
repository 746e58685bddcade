#include "eval/metrics.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace trmma {

SetMetrics& SetMetrics::operator+=(const SetMetrics& o) {
  precision += o.precision;
  recall += o.recall;
  f1 += o.f1;
  jaccard += o.jaccard;
  return *this;
}

SetMetrics SetMetrics::operator/(double n) const {
  return {precision / n, recall / n, f1 / n, jaccard / n};
}

SetMetrics SegmentSetMetrics(const std::vector<SegmentId>& pred,
                             const std::vector<SegmentId>& truth) {
  std::unordered_set<SegmentId> pred_set(pred.begin(), pred.end());
  std::unordered_set<SegmentId> truth_set(truth.begin(), truth.end());
  size_t inter = 0;
  for (SegmentId s : pred_set) inter += truth_set.count(s);
  const size_t uni = pred_set.size() + truth_set.size() - inter;

  SetMetrics m;
  m.precision = pred_set.empty() ? 0.0
                                 : static_cast<double>(inter) / pred_set.size();
  m.recall = truth_set.empty()
                 ? 0.0
                 : static_cast<double>(inter) / truth_set.size();
  m.f1 = (m.precision + m.recall) > 0
             ? 2.0 * m.precision * m.recall / (m.precision + m.recall)
             : 0.0;
  m.jaccard = uni > 0 ? static_cast<double>(inter) / uni : 0.0;
  return m;
}

double PointwiseAccuracy(const MatchedTrajectory& pred,
                         const MatchedTrajectory& truth) {
  if (truth.empty()) return 0.0;
  const size_t n = std::min(pred.size(), truth.size());
  size_t correct = 0;
  for (size_t i = 0; i < n; ++i) {
    if (pred[i].segment == truth[i].segment) ++correct;
  }
  return static_cast<double>(correct) / truth.size();
}

DistanceErrors RecoveryDistanceErrors(const RoadNetwork& network,
                                      const ShortestPathEngine& engine,
                                      const MatchedTrajectory& pred,
                                      const MatchedTrajectory& truth,
                                      double cap_m) {
  DistanceErrors out;
  if (truth.empty()) return out;
  const size_t n = std::min(pred.size(), truth.size());
  double sum = 0.0;
  double sum2 = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    double d = cap_m;  // missing prediction counts as the cap
    if (i < n) {
      const MatchedPoint& a = pred[i];
      const MatchedPoint& b = truth[i];
      const double forward =
          engine.PointToPointDistance(a.segment, a.ratio, b.segment, b.ratio,
                                      cap_m);
      const double backward =
          engine.PointToPointDistance(b.segment, b.ratio, a.segment, a.ratio,
                                      cap_m);
      d = std::min({forward, backward, cap_m});
    }
    sum += d;
    sum2 += d * d;
  }
  out.mae = sum / truth.size();
  out.rmse = std::sqrt(sum2 / truth.size());
  return out;
}

}  // namespace trmma

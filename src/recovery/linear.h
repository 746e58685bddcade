#ifndef TRMMA_RECOVERY_LINEAR_H_
#define TRMMA_RECOVERY_LINEAR_H_

#include <string>

#include "graph/transition_stats.h"
#include "mm/map_matcher.h"
#include "mm/route_stitch.h"
#include "recovery/recovery.h"

namespace trmma {

/// The "Linear" / "X+linear" baselines of paper Tables III/IV: map-match
/// the sparse points with any matcher, stitch the route, then place the
/// missing points by linear interpolation of travelled distance along the
/// route. Does not learn anything; its accuracy ceiling motivates TRMMA.
class LinearRecovery : public RecoveryMethod {
 public:
  /// All referenced objects must outlive the instance. `label` becomes the
  /// display name (e.g. "Linear", "MMA+linear", "Nearest+linear").
  LinearRecovery(const RoadNetwork& network, MapMatcher* matcher,
                 const DaRoutePlanner* planner,
                 const ShortestPathEngine* fallback, std::string label);

  MatchedTrajectory Recover(const Trajectory& sparse,
                            double epsilon) override;
  std::string name() const override { return label_; }

 private:
  const RoadNetwork& network_;
  MapMatcher* matcher_;
  const DaRoutePlanner* planner_;
  const ShortestPathEngine* fallback_;
  std::string label_;
};

/// Position after travelling `dist_m` forward along `route` starting from
/// (segment index `idx`, ratio `ratio`). Clamps at the route end and
/// updates `idx` to the segment reached.
MatchedPoint WalkAlongRoute(const RoadNetwork& network, const Route& route,
                            int& idx, double ratio, double dist_m);

}  // namespace trmma

#endif  // TRMMA_RECOVERY_LINEAR_H_

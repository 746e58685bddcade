#ifndef TRMMA_MM_ROUTE_STITCH_H_
#define TRMMA_MM_ROUTE_STITCH_H_

#include <vector>

#include "graph/shortest_path.h"
#include "graph/transition_stats.h"

namespace trmma {

/// A maximal routable run of matched points: `route` connects the matched
/// segments of observations [first_point, last_point] (inclusive indices
/// into the trajectory that produced `point_segments`). Consecutive
/// sections are separated by an unroutable segment pair (disconnected
/// subgraphs, or a matching error the planner cannot bridge).
struct RouteSection {
  Route route;
  int first_point = 0;
  int last_point = 0;
};

/// Connects per-point matched segments into routable sections (MMA
/// Algorithm 1, lines 10-13): consecutive distinct segments are linked with
/// the DA route planner, falling back to shortest path within a budget. An
/// unroutable pair closes the current section and starts a new one, so
/// callers can recover each section independently instead of decoding over
/// a route with a hidden discontinuity. Invalid segment ids
/// (kInvalidSegment) are treated as "same as previous point"; a trajectory
/// whose points are all invalid yields no sections. Section splits are
/// counted on the mm.stitch.disconnected metric.
std::vector<RouteSection> StitchRouteSections(
    const RoadNetwork& network, const DaRoutePlanner& planner,
    const ShortestPathEngine& fallback,
    const std::vector<SegmentId>& point_segments);

/// Single-route view of StitchRouteSections (the paper's formulation):
/// section routes concatenated back to back. When sections split, the
/// result contains a discontinuity, exactly as in the rare disconnected
/// case discussed in §VI-A.
Route StitchRoute(const RoadNetwork& network, const DaRoutePlanner& planner,
                  const ShortestPathEngine& fallback,
                  const std::vector<SegmentId>& point_segments);

}  // namespace trmma

#endif  // TRMMA_MM_ROUTE_STITCH_H_

#include "mm/route_stitch.h"

#include "common/deadline.h"
#include "graph/route.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace trmma {

std::vector<RouteSection> StitchRouteSections(
    const RoadNetwork& network, const DaRoutePlanner& planner,
    const ShortestPathEngine& fallback,
    const std::vector<SegmentId>& point_segments) {
  std::vector<RouteSection> sections;
  const int n = static_cast<int>(point_segments.size());
  auto valid = [&](SegmentId sid) {
    return sid >= 0 && sid < network.num_segments();
  };

  RouteSection cur;
  bool open = false;
  bool expired = false;
  int64_t disconnected = 0;
  for (int i = 0; i < n; ++i) {
    const SegmentId sid = point_segments[i];
    if (!valid(sid)) {
      // Unmatched point: attach it to the current section (its anchor is
      // the caller's problem); before the first section it is unusable.
      if (open) cur.last_point = i;
      continue;
    }
    if (!open) {
      cur = RouteSection{{sid}, i, i};
      open = true;
      continue;
    }
    const SegmentId prev = cur.route.back();
    if (prev == sid) {
      cur.last_point = i;
      continue;
    }
    // Deadline checkpoint: each unequal pair costs up to two path searches.
    // Once expired, split instead of planning — later sections hold the
    // matched segments without connecting routes. Counted separately from
    // mm.stitch.disconnected (a deliberate split is not a graph defect and
    // must not trip the no_disconnected_stitches SLO).
    if (!expired && DeadlineExpired()) {
      expired = true;
      NoteDeadlineDegradation();
      if (obs::MetricsEnabled()) {
        obs::MetricRegistry::Global()
            .GetCounter("mm.stitch.deadline_degraded")
            ->Increment();
      }
      obs::RecordEvent("stitch:deadline_degraded@" + std::to_string(i));
    }
    if (expired) {
      sections.push_back(std::move(cur));
      cur = RouteSection{{sid}, i, i};
      continue;
    }
    PathResult link = planner.Plan(prev, sid);
    if (!link.found) {
      link = fallback.SegmentToSegment(prev, sid, 2.0e4);
    }
    if (link.found) {
      AppendRoute(cur.route, link.segments);
      cur.last_point = i;
    } else {
      // Unroutable pair: close the section and restart from this point.
      ++disconnected;
      obs::RecordEvent("stitch:unroutable " + std::to_string(prev) + "->" +
                       std::to_string(sid) + "@" + std::to_string(i));
      sections.push_back(std::move(cur));
      cur = RouteSection{{sid}, i, i};
    }
  }
  if (open) sections.push_back(std::move(cur));

  if (disconnected > 0 && obs::MetricsEnabled()) {
    static obs::Counter* const counter =
        obs::MetricRegistry::Global().GetCounter("mm.stitch.disconnected");
    counter->Increment(disconnected);
  }
  if (obs::RequestRecord* rec = obs::ActiveRecord();
      rec != nullptr && rec->route_sections == 0) {
    rec->route_sections = static_cast<std::int64_t>(sections.size());
  }
  return sections;
}

Route StitchRoute(const RoadNetwork& network, const DaRoutePlanner& planner,
                  const ShortestPathEngine& fallback,
                  const std::vector<SegmentId>& point_segments) {
  Route route;
  for (RouteSection& section :
       StitchRouteSections(network, planner, fallback, point_segments)) {
    route.insert(route.end(), section.route.begin(), section.route.end());
  }
  return route;
}

}  // namespace trmma

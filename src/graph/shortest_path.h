#ifndef TRMMA_GRAPH_SHORTEST_PATH_H_
#define TRMMA_GRAPH_SHORTEST_PATH_H_

#include <functional>
#include <limits>
#include <vector>

#include "graph/road_network.h"

namespace trmma {

/// Result of a shortest-path query.
struct PathResult {
  bool found = false;
  double distance_m = 0.0;
  /// Segments along the path, in travel order. For SegmentToSegment this
  /// includes the source and destination segments themselves.
  std::vector<SegmentId> segments;
};

/// Label arrays of one Dijkstra search: the best distance (or cost) and the
/// incoming segment per vertex, plus the vertices written since the last
/// reset. Every query borrows its calling thread's instance (ForThread), so
/// the engines that use it keep no query state and are safe to share across
/// threads. The arrays grow to the largest graph seen on the thread and are
/// reset lazily through `touched`, so repeated queries stay cheap. One
/// search per thread at a time: a query must not start another on the same
/// thread before it returns (e.g. from a Bounded visitor).
struct SearchScratch {
  std::vector<double> dist;
  std::vector<SegmentId> via;
  std::vector<int> touched;

  /// Clears the previous search's labels and returns this thread's scratch,
  /// sized for at least `num_vertices` vertices.
  static SearchScratch& ForThread(int num_vertices);

  /// Sets vertex `v`'s label, recording it for the next reset.
  void Label(int v, double d, SegmentId incoming) {
    if (dist[v] == std::numeric_limits<double>::infinity()) {
      touched.push_back(v);
    }
    dist[v] = d;
    via[v] = incoming;
  }
};

/// Dijkstra-based shortest paths over a road network, weighted by segment
/// length. Queries are const and keep their labels in the calling thread's
/// SearchScratch, so one engine serves any number of threads and repeated
/// calls (HMM transitions, metric computation) allocate nothing.
class ShortestPathEngine {
 public:
  explicit ShortestPathEngine(const RoadNetwork& network);

  ShortestPathEngine(const ShortestPathEngine&) = delete;
  ShortestPathEngine& operator=(const ShortestPathEngine&) = delete;

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// Shortest node-to-node path. Stops early when `dst` is settled or all
  /// reachable nodes within `max_dist_m` are exhausted.
  PathResult NodeToNode(NodeId src, NodeId dst,
                        double max_dist_m = kInfinity) const;

  /// Shortest route from segment `from` to segment `to`, both included.
  /// distance_m is the gap length between from's exit and to's entrance
  /// (0 when from == to or they are adjacent).
  PathResult SegmentToSegment(SegmentId from, SegmentId to,
                              double max_dist_m = kInfinity) const;

  /// Network distance between position `r1` on `e1` and position `r2` on
  /// `e2`, traveling forward. Returns infinity when unreachable within
  /// `max_dist_m`.
  double PointToPointDistance(SegmentId e1, double r1, SegmentId e2, double r2,
                              double max_dist_m = kInfinity) const;

  /// Runs bounded Dijkstra from `src`, invoking `visit(node, dist,
  /// via_segment)` for every settled node (including src with via
  /// kInvalidSegment). `visit` must not run another search on this thread.
  void Bounded(
      NodeId src, double max_dist_m,
      const std::function<void(NodeId, double, SegmentId)>& visit) const;

 private:
  const RoadNetwork& network_;
};

}  // namespace trmma

#endif  // TRMMA_GRAPH_SHORTEST_PATH_H_

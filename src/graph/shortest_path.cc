#include "graph/shortest_path.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"
#include "obs/trace.h"

namespace trmma {
namespace {

/// Settled-node count per Dijkstra run: the natural cost measure for the
/// routing hot path (bounded searches make wall time misleading on its own).
void RecordSettled(size_t touched) {
  if (!obs::MetricsEnabled()) return;
  static obs::Histogram* const settled =
      obs::MetricRegistry::Global().GetHistogram(
          "sp.dijkstra.settled", {},
          obs::Histogram::ExponentialBounds(1.0, 2.0, 22));
  static obs::Counter* const runs =
      obs::MetricRegistry::Global().GetCounter("sp.dijkstra.runs");
  settled->Observe(static_cast<double>(touched));
  runs->Increment();
}

}  // namespace

SearchScratch& SearchScratch::ForThread(int num_vertices) {
  thread_local SearchScratch scratch;
  for (int v : scratch.touched) {
    scratch.dist[v] = ShortestPathEngine::kInfinity;
    scratch.via[v] = kInvalidSegment;
  }
  scratch.touched.clear();
  if (scratch.dist.size() < static_cast<size_t>(num_vertices)) {
    scratch.dist.resize(num_vertices, ShortestPathEngine::kInfinity);
    scratch.via.resize(num_vertices, kInvalidSegment);
  }
  return scratch;
}

ShortestPathEngine::ShortestPathEngine(const RoadNetwork& network)
    : network_(network) {
  TRMMA_CHECK(network.finalized());
}

PathResult ShortestPathEngine::NodeToNode(NodeId src, NodeId dst,
                                          double max_dist_m) const {
  TRMMA_SPAN("sp.node_to_node");
  TRMMA_CHECK_GE(src, 0);
  TRMMA_CHECK_LT(src, network_.num_nodes());
  TRMMA_CHECK_GE(dst, 0);
  TRMMA_CHECK_LT(dst, network_.num_nodes());
  SearchScratch& s = SearchScratch::ForThread(network_.num_nodes());

  using QueueItem = std::pair<double, NodeId>;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue;
  s.Label(src, 0.0, kInvalidSegment);
  queue.push({0.0, src});

  PathResult result;
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > s.dist[u]) continue;  // stale entry
    if (u == dst) break;
    if (d > max_dist_m) break;
    for (SegmentId sid : network_.OutSegments(u)) {
      const RoadSegment& seg = network_.segment(sid);
      const double nd = d + seg.length_m;
      if (nd < s.dist[seg.to] && nd <= max_dist_m) {
        s.Label(seg.to, nd, sid);
        queue.push({nd, seg.to});
      }
    }
  }

  RecordSettled(s.touched.size());
  if (s.dist[dst] == kInfinity) return result;
  result.found = true;
  result.distance_m = s.dist[dst];
  for (NodeId at = dst; s.via[at] != kInvalidSegment;
       at = network_.segment(s.via[at]).from) {
    result.segments.push_back(s.via[at]);
  }
  std::reverse(result.segments.begin(), result.segments.end());
  return result;
}

PathResult ShortestPathEngine::SegmentToSegment(SegmentId from, SegmentId to,
                                                double max_dist_m) const {
  PathResult result;
  if (from == to) {
    result.found = true;
    result.segments = {from};
    return result;
  }
  const RoadSegment& seg_from = network_.segment(from);
  const RoadSegment& seg_to = network_.segment(to);
  PathResult gap = NodeToNode(seg_from.to, seg_to.from, max_dist_m);
  if (!gap.found) return result;
  result.found = true;
  result.distance_m = gap.distance_m;
  result.segments.reserve(gap.segments.size() + 2);
  result.segments.push_back(from);
  for (SegmentId sid : gap.segments) result.segments.push_back(sid);
  result.segments.push_back(to);
  return result;
}

double ShortestPathEngine::PointToPointDistance(SegmentId e1, double r1,
                                                SegmentId e2, double r2,
                                                double max_dist_m) const {
  const RoadSegment& s1 = network_.segment(e1);
  const RoadSegment& s2 = network_.segment(e2);
  if (e1 == e2 && r2 >= r1) {
    return (r2 - r1) * s1.length_m;
  }
  // Travel to the exit of e1, across the gap, then into e2.
  const double head = (1.0 - r1) * s1.length_m;
  const double tail = r2 * s2.length_m;
  PathResult gap = NodeToNode(s1.to, s2.from, max_dist_m);
  if (!gap.found) return kInfinity;
  return head + gap.distance_m + tail;
}

void ShortestPathEngine::Bounded(
    NodeId src, double max_dist_m,
    const std::function<void(NodeId, double, SegmentId)>& visit) const {
  SearchScratch& s = SearchScratch::ForThread(network_.num_nodes());
  using QueueItem = std::pair<double, NodeId>;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue;
  s.Label(src, 0.0, kInvalidSegment);
  queue.push({0.0, src});
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > s.dist[u]) continue;
    visit(u, d, s.via[u]);
    for (SegmentId sid : network_.OutSegments(u)) {
      const RoadSegment& seg = network_.segment(sid);
      const double nd = d + seg.length_m;
      if (nd < s.dist[seg.to] && nd <= max_dist_m) {
        s.Label(seg.to, nd, sid);
        queue.push({nd, seg.to});
      }
    }
  }
}

}  // namespace trmma

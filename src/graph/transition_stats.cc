#include "graph/transition_stats.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/logging.h"
#include "graph/shortest_path.h"

namespace trmma {
namespace {

// Strength of the historical-popularity term in the planner cost.
constexpr double kPopularityWeight = 0.25;

}  // namespace

TransitionStats::TransitionStats(const RoadNetwork& network)
    : network_(network),
      counts_(network.num_segments()),
      totals_(network.num_segments(), 0) {}

void TransitionStats::AddRoute(const Route& route) {
  for (size_t i = 0; i + 1 < route.size(); ++i) {
    const SegmentId from = route[i];
    const SegmentId to = route[i + 1];
    if (from == to) continue;
    ++counts_[from][to];
    ++totals_[from];
  }
}

int TransitionStats::Count(SegmentId from, SegmentId to) const {
  const auto& row = counts_[from];
  auto it = row.find(to);
  return it == row.end() ? 0 : it->second;
}

int TransitionStats::TotalFrom(SegmentId from) const { return totals_[from]; }

double TransitionStats::Probability(SegmentId from, SegmentId to) const {
  const int fanout =
      static_cast<int>(network_.NextSegments(from).size());
  if (fanout == 0) return 0.0;
  // Laplace smoothing over the physical successors.
  return (Count(from, to) + 1.0) / (totals_[from] + fanout);
}

DaRoutePlanner::DaRoutePlanner(const RoadNetwork& network,
                               const TransitionStats& stats)
    : network_(network), stats_(stats) {}

PathResult DaRoutePlanner::Plan(SegmentId from, SegmentId to,
                                double max_cost) const {
  PathResult result;
  if (from == to) {
    result.found = true;
    result.segments = {from};
    return result;
  }
  // Search over segments: dist holds the cost, via the previous segment.
  SearchScratch& s = SearchScratch::ForThread(network_.num_segments());

  using QueueItem = std::pair<double, SegmentId>;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue;
  s.Label(from, 0.0, kInvalidSegment);
  queue.push({0.0, from});

  while (!queue.empty()) {
    const auto [c, e] = queue.top();
    queue.pop();
    if (c > s.dist[e]) continue;
    if (e == to) break;
    if (c > max_cost) break;
    for (SegmentId next : network_.NextSegments(e)) {
      if (next == e) continue;
      const double nll = -std::log(stats_.Probability(e, next));
      const double step = network_.segment(next).length_m *
                          (1.0 + kPopularityWeight * nll);
      const double nc = c + step;
      if (nc < s.dist[next] && nc <= max_cost) {
        s.Label(next, nc, e);
        queue.push({nc, next});
      }
    }
  }

  if (s.dist[to] == ShortestPathEngine::kInfinity) return result;
  result.found = true;
  result.distance_m = s.dist[to];
  for (SegmentId at = to; at != kInvalidSegment; at = s.via[at]) {
    result.segments.push_back(at);
  }
  std::reverse(result.segments.begin(), result.segments.end());
  return result;
}

}  // namespace trmma

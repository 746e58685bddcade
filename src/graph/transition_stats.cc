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
      row_begin_(network.num_segments() + 1, 0),
      totals_(network.num_segments(), 0) {
  TRMMA_CHECK(network.finalized());
  for (SegmentId e = 0; e < network.num_segments(); ++e) {
    row_begin_[e + 1] =
        row_begin_[e] + static_cast<int>(network.NextSegments(e).size());
  }
  counts_.assign(row_begin_.back(), 0);
  step_costs_.assign(row_begin_.back(), 0.0);
  for (SegmentId e = 0; e < network.num_segments(); ++e) RefreshRow(e);
}

int TransitionStats::Slot(SegmentId from, SegmentId to) const {
  const std::vector<SegmentId>& next = network_.NextSegments(from);
  for (size_t k = 0; k < next.size(); ++k) {
    if (next[k] == to) return static_cast<int>(k);
  }
  return -1;
}

void TransitionStats::RefreshRow(SegmentId from) {
  const std::vector<SegmentId>& next = network_.NextSegments(from);
  const int begin = row_begin_[from];
  for (size_t k = 0; k < next.size(); ++k) {
    const double nll = -std::log(Probability(from, next[k]));
    step_costs_[begin + k] = network_.segment(next[k]).length_m *
                             (1.0 + kPopularityWeight * nll);
  }
}

void TransitionStats::AddRoute(const Route& route) {
  std::vector<SegmentId> changed;
  for (size_t i = 0; i + 1 < route.size(); ++i) {
    const SegmentId from = route[i];
    const SegmentId to = route[i + 1];
    if (from == to) continue;
    const int slot = Slot(from, to);
    if (slot >= 0) {
      ++counts_[row_begin_[from] + slot];
    } else {
      ++unconnected_counts_[static_cast<int64_t>(from) *
                                network_.num_segments() +
                            to];
    }
    ++totals_[from];
    changed.push_back(from);
  }
  // Every row whose total moved has new probabilities in all its slots.
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  for (SegmentId from : changed) RefreshRow(from);
}

int TransitionStats::Count(SegmentId from, SegmentId to) const {
  const int slot = Slot(from, to);
  if (slot >= 0) return counts_[row_begin_[from] + slot];
  auto it = unconnected_counts_.find(static_cast<int64_t>(from) *
                                         network_.num_segments() +
                                     to);
  return it == unconnected_counts_.end() ? 0 : it->second;
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
    const std::vector<SegmentId>& nexts = network_.NextSegments(e);
    const double* steps = stats_.StepCosts(e);
    for (size_t k = 0; k < nexts.size(); ++k) {
      const SegmentId next = nexts[k];
      if (next == e) continue;
      const double nc = c + steps[k];
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

#ifndef TRMMA_GRAPH_TRANSITION_STATS_H_
#define TRMMA_GRAPH_TRANSITION_STATS_H_

#include <unordered_map>
#include <vector>

#include "graph/road_network.h"
#include "graph/route.h"
#include "graph/shortest_path.h"

namespace trmma {

/// Historical segment-to-segment transition counts harvested from training
/// routes, plus the DA-style route planner built on them (the "route
/// planning method relying on basic statistical counts" the paper adopts
/// from [2] for its own method and all baselines).
class TransitionStats {
 public:
  explicit TransitionStats(const RoadNetwork& network);

  TransitionStats(const TransitionStats&) = delete;
  TransitionStats& operator=(const TransitionStats&) = delete;

  /// Accumulates every consecutive segment pair of `route`.
  void AddRoute(const Route& route);

  /// Observed count for the transition from -> to (0 if never seen).
  int Count(SegmentId from, SegmentId to) const;

  /// Total outgoing observations from `from`.
  int TotalFrom(SegmentId from) const;

  /// Laplace-smoothed transition probability P(to | from) over the physical
  /// successors of `from`.
  double Probability(SegmentId from, SegmentId to) const;

 private:
  const RoadNetwork& network_;
  std::vector<std::unordered_map<SegmentId, int>> counts_;
  std::vector<int> totals_;
};

/// Plans routes between segments preferring historically popular
/// transitions. Cost of entering segment e' from e is
///   length(e') * (1 + kPopularityWeight * (-log P(e'|e)))
/// so the planner stays goal-directed (length term) but favors observed
/// driving behaviour; with no statistics it degrades to shortest path.
/// Plan is const and keeps its labels in the calling thread's
/// SearchScratch, so one planner serves any number of threads.
class DaRoutePlanner {
 public:
  DaRoutePlanner(const RoadNetwork& network, const TransitionStats& stats);

  DaRoutePlanner(const DaRoutePlanner&) = delete;
  DaRoutePlanner& operator=(const DaRoutePlanner&) = delete;

  /// Route from `from` to `to`, both included. `max_cost` caps the search
  /// (scaled cost units ~= meters). found=false when disconnected within
  /// the budget.
  PathResult Plan(SegmentId from, SegmentId to,
                  double max_cost = 3.0e4) const;

 private:
  const RoadNetwork& network_;
  const TransitionStats& stats_;
};

}  // namespace trmma

#endif  // TRMMA_GRAPH_TRANSITION_STATS_H_

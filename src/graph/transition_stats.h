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

  /// DaRoutePlanner's cost of entering each successor of `from`, aligned
  /// slot for slot with network.NextSegments(from):
  ///   length(next) * (1 + kPopularityWeight * (-log P(next | from))).
  /// AddRoute keeps every row current, so a planner reads costs with no
  /// hash lookup and no log per edge relaxation.
  const double* StepCosts(SegmentId from) const {
    return step_costs_.data() + row_begin_[from];
  }

 private:
  /// Slot of `to` in from's successor row, or -1 if `to` does not follow
  /// `from` on the network.
  int Slot(SegmentId from, SegmentId to) const;

  /// Recomputes the step costs of from's row from its current counts.
  void RefreshRow(SegmentId from);

  const RoadNetwork& network_;
  /// Segment e's successor slots are [row_begin_[e], row_begin_[e + 1]).
  std::vector<int> row_begin_;
  std::vector<int> counts_;         ///< per successor slot
  std::vector<double> step_costs_;  ///< per successor slot
  /// Counts of pairs that are not physically connected (routes are
  /// normally connected, so this stays empty); key from * |E| + to.
  std::unordered_map<int64_t, int> unconnected_counts_;
  std::vector<int> totals_;
};

/// Plans routes between segments preferring historically popular
/// transitions. Cost of entering segment e' from e is
///   length(e') * (1 + kPopularityWeight * (-log P(e'|e)))
/// so the planner stays goal-directed (length term) but favors observed
/// driving behaviour; with no statistics it degrades to shortest path.
/// The costs are read from TransitionStats::StepCosts, so statistics added
/// after the planner is built take effect at once.
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

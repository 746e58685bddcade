#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/route.h"
#include "graph/shortest_path.h"
#include "graph/transition_stats.h"
#include "tests/test_util.h"

namespace trmma {
namespace {

/// Floyd-Warshall reference distances over nodes.
std::vector<std::vector<double>> FloydWarshall(const RoadNetwork& g) {
  const int n = g.num_nodes();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> d(n, std::vector<double>(n, inf));
  for (int i = 0; i < n; ++i) d[i][i] = 0.0;
  for (SegmentId s = 0; s < g.num_segments(); ++s) {
    const RoadSegment& seg = g.segment(s);
    d[seg.from][seg.to] = std::min(d[seg.from][seg.to], seg.length_m);
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

TEST(ShortestPathTest, TrivialSameNode) {
  auto g = test::MakeGrid(3, 3);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  auto r = engine.NodeToNode(4, 4);
  EXPECT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.distance_m, 0.0);
  EXPECT_TRUE(r.segments.empty());
}

TEST(ShortestPathTest, GridManhattanDistance) {
  auto g = test::MakeGrid(5, 5, 100.0);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  // (0,0) -> (3,2): manhattan 5 blocks.
  auto r = engine.NodeToNode(0, 2 * 5 + 3);
  ASSERT_TRUE(r.found);
  EXPECT_NEAR(r.distance_m, 500.0, 2.0);
  EXPECT_EQ(r.segments.size(), 5u);
}

TEST(ShortestPathTest, PathIsConnectedAndConsistent) {
  auto g = test::MakeCityNetwork();
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    NodeId src = static_cast<NodeId>(rng.UniformInt(g->num_nodes()));
    NodeId dst = static_cast<NodeId>(rng.UniformInt(g->num_nodes()));
    auto r = engine.NodeToNode(src, dst);
    ASSERT_TRUE(r.found);  // generator guarantees strong connectivity
    if (!r.segments.empty()) {
      EXPECT_EQ(g->segment(r.segments.front()).from, src);
      EXPECT_EQ(g->segment(r.segments.back()).to, dst);
      EXPECT_TRUE(IsConnectedRoute(*g, r.segments));
      EXPECT_NEAR(RouteLength(*g, r.segments), r.distance_m, 1e-6);
    }
  }
}

TEST(ShortestPathTest, MatchesFloydWarshall) {
  auto g = test::MakeCityNetwork(4);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  auto ref = FloydWarshall(*g);
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    NodeId src = static_cast<NodeId>(rng.UniformInt(g->num_nodes()));
    NodeId dst = static_cast<NodeId>(rng.UniformInt(g->num_nodes()));
    auto r = engine.NodeToNode(src, dst);
    ASSERT_TRUE(r.found);
    EXPECT_NEAR(r.distance_m, ref[src][dst], 1e-6);
  }
}

TEST(ShortestPathTest, MaxDistCutsSearch) {
  auto g = test::MakeGrid(10, 10, 100.0);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  auto r = engine.NodeToNode(0, 99, 300.0);  // target is 1800m away
  EXPECT_FALSE(r.found);
}

TEST(ShortestPathTest, ReusableAcrossQueries) {
  auto g = test::MakeGrid(6, 6, 100.0);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  const double d1 = engine.NodeToNode(0, 35).distance_m;
  (void)engine.NodeToNode(10, 20, 150.0);  // bounded query in between
  const double d2 = engine.NodeToNode(0, 35).distance_m;
  EXPECT_DOUBLE_EQ(d1, d2);
}

TEST(ShortestPathTest, SegmentToSegmentIncludesEndpoints) {
  auto g = test::MakeGrid(4, 1, 100.0);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  // Find eastbound chain 0->1, 1->2, 2->3.
  std::vector<SegmentId> east;
  for (SegmentId i = 0; i < g->num_segments(); ++i) {
    if (g->segment(i).to == g->segment(i).from + 1) east.push_back(i);
  }
  ASSERT_EQ(east.size(), 3u);
  auto r = engine.SegmentToSegment(east[0], east[2]);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.segments.front(), east[0]);
  EXPECT_EQ(r.segments.back(), east[2]);
  EXPECT_TRUE(IsConnectedRoute(*g, r.segments));
  EXPECT_NEAR(r.distance_m, 100.0, 1.0);  // the middle gap segment
}

TEST(ShortestPathTest, SegmentToSameSegment) {
  auto g = test::MakeGrid(3, 3);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  auto r = engine.SegmentToSegment(2, 2);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.segments, Route{2});
  EXPECT_DOUBLE_EQ(r.distance_m, 0.0);
}

TEST(ShortestPathTest, PointToPointSameSegmentForward) {
  auto g = test::MakeGrid(2, 1, 100.0);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  const double d = engine.PointToPointDistance(0, 0.2, 0, 0.7);
  EXPECT_NEAR(d, 0.5 * g->segment(0).length_m, 1e-6);
}

TEST(ShortestPathTest, PointToPointBackwardWrapsAround) {
  auto g = test::MakeGrid(3, 3, 100.0);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  // Going "backwards" on the same segment requires looping via the graph.
  const double d = engine.PointToPointDistance(0, 0.7, 0, 0.2);
  EXPECT_GT(d, 0.0);
  EXPECT_TRUE(std::isfinite(d));
}

TEST(ShortestPathTest, BoundedVisitsNodesWithinBudget) {
  auto g = test::MakeGrid(6, 6, 100.0);
  ASSERT_NE(g, nullptr);
  ShortestPathEngine engine(*g);
  int visited = 0;
  double max_seen = 0.0;
  engine.Bounded(0, 250.0, [&](NodeId node, double dist, SegmentId via) {
    ++visited;
    max_seen = std::max(max_seen, dist);
    if (node == 0) {
      EXPECT_EQ(via, kInvalidSegment);
      EXPECT_DOUBLE_EQ(dist, 0.0);
    }
  });
  EXPECT_LE(max_seen, 250.0);
  // Within 250m of a 100m grid corner: (0,0),(1,0),(0,1),(2,0),(1,1),(0,2).
  EXPECT_EQ(visited, 6);
}

// ---------------------------------------------------------------------------
// Per-thread search scratch: shared engines and interleaved networks

/// A network with planner statistics and a fixed list of node and segment
/// pairs to route between.
struct RoutingWorld {
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<TransitionStats> stats;
  std::vector<std::pair<NodeId, NodeId>> nodes;
  std::vector<std::pair<SegmentId, SegmentId>> segments;
};

RoutingWorld MakeWorld(std::unique_ptr<RoadNetwork> net, uint64_t seed) {
  RoutingWorld w;
  w.net = std::move(net);
  w.stats = std::make_unique<TransitionStats>(*w.net);
  Rng rng(seed);
  for (int i = 0; i < 24; ++i) {
    w.nodes.emplace_back(rng.UniformInt(w.net->num_nodes()),
                         rng.UniformInt(w.net->num_nodes()));
    w.segments.emplace_back(rng.UniformInt(w.net->num_segments()),
                            rng.UniformInt(w.net->num_segments()));
  }
  // Some history, so the planner's costs differ from plain lengths.
  const ShortestPathEngine engine(*w.net);
  for (int i = 0; i < 8; ++i) {
    w.stats->AddRoute(
        engine.SegmentToSegment(w.segments[i].first, w.segments[i].second)
            .segments);
  }
  return w;
}

/// Query `i` of the world: NodeToNode, SegmentToSegment and Plan in turn,
/// every other pair under a search budget tight enough to miss some.
PathResult Query(const RoutingWorld& w, const ShortestPathEngine& engine,
                 const DaRoutePlanner& planner, size_t i) {
  const size_t pair = i / 3;
  const double budget = pair % 2 == 0 ? ShortestPathEngine::kInfinity : 500.0;
  switch (i % 3) {
    case 0:
      return engine.NodeToNode(w.nodes[pair].first, w.nodes[pair].second,
                               budget);
    case 1:
      return engine.SegmentToSegment(w.segments[pair].first,
                                     w.segments[pair].second, budget);
    default:
      return planner.Plan(w.segments[pair].first, w.segments[pair].second,
                          budget);
  }
}

size_t NumQueries(const RoutingWorld& w) { return 3 * w.nodes.size(); }

/// Every query answered serially by a fresh engine and planner on a fresh
/// thread, so no earlier search shares their scratch.
std::vector<PathResult> FreshSerialAnswers(const RoutingWorld& w) {
  std::vector<PathResult> answers;
  std::thread([&] {
    const ShortestPathEngine engine(*w.net);
    const DaRoutePlanner planner(*w.net, *w.stats);
    for (size_t i = 0; i < NumQueries(w); ++i) {
      answers.push_back(Query(w, engine, planner, i));
    }
  }).join();
  return answers;
}

void ExpectSamePath(const PathResult& got, const PathResult& want,
                    const std::string& where) {
  EXPECT_EQ(got.found, want.found) << where;
  EXPECT_EQ(got.distance_m, want.distance_m) << where;
  EXPECT_EQ(got.segments, want.segments) << where;
}

TEST(RoutingScratchTest, InterleavedNetworksOnOneThreadMatchFreshEngines) {
  const RoutingWorld small = MakeWorld(test::MakeGrid(4, 3), 1);
  const RoutingWorld large = MakeWorld(test::MakeCityNetwork(5), 2);
  ASSERT_LT(small.net->num_nodes(), large.net->num_nodes());
  ASSERT_LT(small.net->num_segments(), large.net->num_segments());
  const std::vector<PathResult> want_small = FreshSerialAnswers(small);
  const std::vector<PathResult> want_large = FreshSerialAnswers(large);

  // A fresh thread starts with empty scratch: the small network's first
  // query sizes it, the large network's first query grows it, and every
  // later query alternates between the two.
  std::vector<PathResult> got_small;
  std::vector<PathResult> got_large;
  std::thread([&] {
    const ShortestPathEngine small_engine(*small.net);
    const ShortestPathEngine large_engine(*large.net);
    const DaRoutePlanner small_planner(*small.net, *small.stats);
    const DaRoutePlanner large_planner(*large.net, *large.stats);
    for (size_t i = 0; i < NumQueries(small); ++i) {
      got_small.push_back(Query(small, small_engine, small_planner, i));
      got_large.push_back(Query(large, large_engine, large_planner, i));
    }
  }).join();

  int found = 0;
  for (size_t i = 0; i < want_small.size(); ++i) {
    ExpectSamePath(got_small[i], want_small[i], "small #" + std::to_string(i));
    ExpectSamePath(got_large[i], want_large[i], "large #" + std::to_string(i));
    found += want_large[i].found ? 1 : 0;
  }
  // The budgets leave a mix of found and missed routes.
  EXPECT_GT(found, 0);
  EXPECT_LT(found, static_cast<int>(want_large.size()));
}

TEST(RoutingScratchTest, SharedEngineAndPlannerServeFourThreads) {
  const RoutingWorld world = MakeWorld(test::MakeCityNetwork(5), 3);
  const std::vector<PathResult> want = FreshSerialAnswers(world);
  const size_t n = want.size();

  const ShortestPathEngine engine(*world.net);
  const DaRoutePlanner planner(*world.net, *world.stats);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<PathResult>> got(kThreads,
                                           std::vector<PathResult>(n));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query, so the threads run
      // different searches at the same time.
      for (size_t k = 0; k < kRounds * n; ++k) {
        const size_t i = (k + t * n / kThreads) % n;
        got[t][i] = Query(world, engine, planner, i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < n; ++i) {
      ExpectSamePath(got[t][i], want[i],
                     "thread " + std::to_string(t) + " #" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace trmma

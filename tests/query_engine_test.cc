#include <gtest/gtest.h>

#include "src/core/pspc_builder.h"
#include "src/graph/generators.h"
#include "src/label/query_engine.h"
#include "src/order/degree_order.h"

namespace pspc {
namespace {

SpcIndex MakeIndex(const Graph& g) {
  BuildOptions o;
  o.num_landmarks = 4;
  return BuildPspcIndex(g, DegreeOrder(g), o).index;
}

TEST(QueryEngineTest, RandomWorkloadIsDeterministic) {
  const auto a = MakeRandomQueries(100, 50, 7);
  const auto b = MakeRandomQueries(100, 50, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, MakeRandomQueries(100, 50, 8));
}

TEST(QueryEngineTest, WorkloadStaysInRange) {
  for (const auto& [s, t] : MakeRandomQueries(13, 500, 3)) {
    EXPECT_LT(s, 13u);
    EXPECT_LT(t, 13u);
  }
}

TEST(QueryEngineTest, SequentialBatchMatchesDirectQueries) {
  const Graph g = GenerateBarabasiAlbert(80, 3, 5);
  const SpcIndex index = MakeIndex(g);
  const QueryBatch batch = MakeRandomQueries(80, 200, 11);
  const auto results = RunQueries(index, batch);
  ASSERT_EQ(results.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(results[i], index.Query(batch[i].first, batch[i].second));
  }
}

TEST(QueryEngineTest, ParallelBatchMatchesSequential) {
  const Graph g = GenerateWattsStrogatz(120, 4, 0.1, 9);
  const SpcIndex index = MakeIndex(g);
  const QueryBatch batch = MakeRandomQueries(120, 1000, 13);
  const auto seq = RunQueries(index, batch);
  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(RunQueriesParallel(index, batch, threads), seq)
        << threads << " threads";
  }
}

TEST(QueryEngineTest, EmptyBatch) {
  const Graph g = GeneratePath(4);
  const SpcIndex index = MakeIndex(g);
  EXPECT_TRUE(RunQueries(index, {}).empty());
  EXPECT_TRUE(RunQueriesParallel(index, {}, 4).empty());
}

}  // namespace
}  // namespace pspc

#include "src/core/builder_facade.h"

#include "src/common/timer.h"
#include "src/core/hp_spc_builder.h"
#include "src/core/pspc_builder.h"
#include "src/order/degree_order.h"
#include "src/order/hybrid_order.h"
#include "src/order/significant_path_order.h"
#include "src/order/tree_decomposition.h"

namespace pspc {

VertexOrder ComputeOrder(const Graph& graph, OrderingScheme scheme,
                         VertexId hybrid_delta) {
  switch (scheme) {
    case OrderingScheme::kDegree:
      return DegreeOrder(graph);
    case OrderingScheme::kSignificantPath:
      return SignificantPathOrder(graph);
    case OrderingScheme::kRoadNetwork:
      return RoadNetworkOrder(graph);
    case OrderingScheme::kHybrid:
      return HybridOrder(graph, hybrid_delta);
    case OrderingScheme::kIdentity:
      return IdentityOrder(graph.NumVertices());
  }
  return IdentityOrder(graph.NumVertices());
}

BuildResult BuildIndexWithOrder(const Graph& graph, const VertexOrder& order,
                                const BuildOptions& options,
                                std::span<const Count> vertex_weights) {
  if (options.algorithm == Algorithm::kHpSpc) {
    return BuildHpSpcIndex(graph, order, vertex_weights);
  }
  return BuildPspcIndex(graph, order, options, vertex_weights);
}

BuildResult BuildIndex(const Graph& graph, const BuildOptions& options,
                       std::span<const Count> vertex_weights) {
  WallTimer order_timer;
  const VertexOrder order =
      ComputeOrder(graph, options.ordering, options.hybrid_delta);
  const double ordering_seconds = order_timer.ElapsedSeconds();

  BuildResult result =
      BuildIndexWithOrder(graph, order, options, vertex_weights);
  result.stats.ordering_seconds = ordering_seconds;
  return result;
}

}  // namespace pspc

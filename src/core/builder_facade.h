#ifndef PSPC_SRC_CORE_BUILDER_FACADE_H_
#define PSPC_SRC_CORE_BUILDER_FACADE_H_

#include <span>

#include "src/core/build_options.h"
#include "src/core/build_stats.h"
#include "src/graph/graph.h"
#include "src/order/vertex_order.h"

/// One-call index construction: computes the vertex order named by the
/// options (timing it as the paper's "Order" phase, Fig. 13), then runs
/// HP-SPC or PSPC. This is the entry point examples, benchmarks and the
/// §IV reductions use, and the only place that picks the algorithm;
/// tests also call the underlying builders directly.
namespace pspc {

/// Computes the vertex order for `scheme` (delta used by kHybrid only).
VertexOrder ComputeOrder(const Graph& graph, OrderingScheme scheme,
                         VertexId hybrid_delta);

/// Builds an SPC index for `graph` per `options`. `vertex_weights`
/// (optional; empty = all 1) are the per-vertex multiplicities both
/// builders take (see `BuildHpSpcIndex`).
BuildResult BuildIndex(const Graph& graph, const BuildOptions& options,
                       std::span<const Count> vertex_weights = {});

/// Builds with a caller-supplied order (ordering_seconds reported as 0).
BuildResult BuildIndexWithOrder(const Graph& graph, const VertexOrder& order,
                                const BuildOptions& options,
                                std::span<const Count> vertex_weights = {});

}  // namespace pspc

#endif  // PSPC_SRC_CORE_BUILDER_FACADE_H_

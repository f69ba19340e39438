#ifndef PSPC_SRC_CORE_BUILD_OPTIONS_H_
#define PSPC_SRC_CORE_BUILD_OPTIONS_H_

#include <string>

#include "src/common/types.h"
#include "src/order/hybrid_order.h"

/// Knobs for index construction. Every axis the paper ablates (Exp 5-7)
/// is a field here: ordering scheme, schedule plan, landmark filtering.
namespace pspc {

/// Which construction algorithm to run.
enum class Algorithm {
  kHpSpc,  ///< sequential state of the art (SIGMOD'20 baseline)
  kPspc,   ///< the paper's parallel distance-iteration algorithm
};

/// Vertex ordering schemes of paper §III-G.
enum class OrderingScheme {
  kDegree,           ///< descending degree (social networks)
  kSignificantPath,  ///< sequential significant-path scheme
  kRoadNetwork,      ///< tree-decomposition / min-degree elimination
  kHybrid,           ///< core by degree, fringe by elimination (delta)
  kIdentity,         ///< vertex id order (tests / worst-case baseline)
};

/// Schedule plans of paper §III-F.
enum class ScheduleKind {
  kStatic,     ///< contiguous node-order ranges per thread
  kDynamic,    ///< dynamic chunk self-scheduling
  kCostAware,  ///< dynamic over vertices sorted by estimated cost
};

struct BuildOptions {
  Algorithm algorithm = Algorithm::kPspc;
  OrderingScheme ordering = OrderingScheme::kDegree;
  /// Degree threshold separating core from fringe for kHybrid (Exp 6).
  VertexId hybrid_delta = kDefaultHybridDelta;
  ScheduleKind schedule = ScheduleKind::kCostAware;
  /// OpenMP threads; <= 0 means all available. HP-SPC ignores this
  /// (it is inherently sequential — the paper's point).
  int num_threads = 0;
  /// Landmark distance tables built from the top-ranked vertices
  /// (paper §III-H; default 100 as in the paper's experiments; capped
  /// at n). 0 turns the landmark filter off.
  uint32_t num_landmarks = 100;
};

std::string ToString(Algorithm a);
std::string ToString(OrderingScheme s);
std::string ToString(ScheduleKind k);

}  // namespace pspc

#endif  // PSPC_SRC_CORE_BUILD_OPTIONS_H_

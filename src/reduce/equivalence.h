#ifndef PSPC_SRC_REDUCE_EQUIVALENCE_H_
#define PSPC_SRC_REDUCE_EQUIVALENCE_H_

#include <vector>

#include "src/common/types.h"
#include "src/graph/graph.h"

/// Reduction by neighborhood equivalence (paper §IV-B).
///
/// `u ≡ v` iff `nbr(u) \ {v} == nbr(v) \ {u}`. Each equivalence class
/// is either an independent set of *false twins* (identical open
/// neighborhoods) or a clique of *true twins* (identical closed
/// neighborhoods) — mixed classes are impossible (two twins of
/// different kinds would disagree on one adjacency).
/// One representative per class survives, carrying the class size as a
/// *multiplicity weight*: a shortest path through the representative
/// stands for `|class|` original paths, which is precisely the
/// adjustment the paper warns is needed so counts are not "grossly
/// underestimated". Distances between distinct classes are unchanged
/// by the contraction.
///
/// Query-time rules (applied by ReducedSpcIndex):
///  * distinct classes: weighted 2-hop query — each hub term gains a
///    factor `mu(hub)` unless the hub is one of the two endpoints;
///  * same class, true twins: (1, 1) — the direct edge;
///  * same class, false twins: (2, sum of neighbor multiplicities), or
///    disconnected when the class has no neighbors.
namespace pspc {

class EquivalenceReduction {
 public:
  static EquivalenceReduction Build(const Graph& graph);

  /// The contracted graph over class representatives (dense new ids).
  const Graph& Reduced() const { return reduced_; }

  VertexId NumClasses() const { return reduced_.NumVertices(); }

  /// Class (= reduced vertex) id of original vertex `v`.
  VertexId ClassOf(VertexId v) const { return class_of_[v]; }

  /// Original representative vertex of class `c`.
  VertexId RepOf(VertexId c) const { return rep_of_[c]; }

  /// Members in class `c` (the multiplicity weight mu).
  Count Weight(VertexId c) const { return weight_[c]; }

  /// Weight vector aligned with reduced ids, for the weighted builders.
  const std::vector<Count>& Weights() const { return weight_; }

  /// True iff class `c`'s members are mutually adjacent (true twins).
  bool ClassAdjacent(VertexId c) const { return class_adjacent_[c] != 0; }

  /// Closed-form answer for two *distinct* original vertices of the
  /// same class.
  SpcResult SameClassQuery(VertexId c) const;

 private:
  Graph reduced_;
  std::vector<VertexId> class_of_;
  std::vector<VertexId> rep_of_;
  std::vector<Count> weight_;
  std::vector<uint8_t> class_adjacent_;
};

}  // namespace pspc

#endif  // PSPC_SRC_REDUCE_EQUIVALENCE_H_

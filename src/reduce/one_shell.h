#ifndef PSPC_SRC_REDUCE_ONE_SHELL_H_
#define PSPC_SRC_REDUCE_ONE_SHELL_H_

#include <vector>

#include "src/common/types.h"
#include "src/graph/graph.h"

/// Reduction by 1-shell (paper §IV-A).
///
/// Iteratively peeling degree-1 vertices strips the forest fringe
/// hanging off the graph's 2-core. Each peeled vertex belongs to a tree
/// attached to the core through exactly one *anchor* vertex, so:
///  * between two vertices of the same tree (same anchor) the unique
///    tree path is the unique shortest path — count 1, distance via
///    the tree LCA;
///  * otherwise every shortest path threads anchor-to-anchor through
///    the core: SPC(s,t) = (depth(s) + d_core + depth(t),
///    spc_core(anchor(s), anchor(t))).
/// The core graph therefore needs labels only for core vertices, which
/// is the index-size savings the paper claims; both branches are checked
/// against the BFS oracle by `ReducedIndexTest.EveryReductionComboIsExact`.
namespace pspc {

class OneShellReduction {
 public:
  /// Peels `graph` to its (non-trivial) core.
  static OneShellReduction Build(const Graph& graph);

  /// The peeled core over dense new ids `[0, NumCoreVertices())`.
  const Graph& Core() const { return core_; }

  VertexId NumCoreVertices() const { return core_.NumVertices(); }
  VertexId NumFringeVertices() const {
    return static_cast<VertexId>(anchor_.size()) - NumCoreVertices();
  }

  /// True iff original vertex `v` survived into the core.
  bool IsCore(VertexId v) const { return depth_[v] == 0; }

  /// Core id of an original core vertex (kInvalidVertex for fringe).
  VertexId CoreId(VertexId v) const { return orig_to_core_[v]; }

  /// Original id of core vertex `c`.
  VertexId OrigId(VertexId c) const { return core_to_orig_[c]; }

  /// Anchor (original id) of `v`: the core vertex whose tree contains
  /// `v`; `v` itself when `v` is core.
  VertexId Anchor(VertexId v) const { return anchor_[v]; }

  /// Hop distance from `v` to its anchor (0 for core vertices).
  Distance Depth(VertexId v) const { return depth_[v]; }

  /// Distance and count between two same-anchor vertices through their
  /// tree (count is always 1; distance via LCA climbing).
  SpcResult TreeQuery(VertexId s, VertexId t) const;

 private:
  Graph core_;
  std::vector<VertexId> core_to_orig_;
  std::vector<VertexId> orig_to_core_;
  std::vector<VertexId> anchor_;  // original ids
  std::vector<VertexId> parent_;  // original ids; kInvalidVertex for core
  std::vector<Distance> depth_;
};

}  // namespace pspc

#endif  // PSPC_SRC_REDUCE_ONE_SHELL_H_

#include "src/reduce/reduced_index.h"

#include <algorithm>
#include <span>

#include "src/common/logging.h"
#include "src/common/saturating.h"
#include "src/core/builder_facade.h"

namespace pspc {

ReducedSpcIndex ReducedSpcIndex::Build(const Graph& graph,
                                       const ReductionOptions& options) {
  ReducedSpcIndex r;
  r.num_original_ = graph.NumVertices();
  r.has_one_shell_ = options.use_one_shell;
  r.has_equivalence_ = options.use_equivalence;

  const Graph* current = &graph;
  if (r.has_one_shell_) {
    r.shell_ = OneShellReduction::Build(graph);
    current = &r.shell_.Core();
  }
  std::span<const Count> weights;
  if (r.has_equivalence_) {
    r.equiv_ = EquivalenceReduction::Build(*current);
    current = &r.equiv_.Reduced();
    weights = r.equiv_.Weights();
  }

  BuildResult built = BuildIndex(*current, options.build, weights);
  r.index_ = std::move(built.index);
  r.stats_ = std::move(built.stats);
  return r;
}

SpcResult ReducedSpcIndex::Query(VertexId s, VertexId t) const {
  PSPC_CHECK(s < num_original_ && t < num_original_);
  if (s == t) return {0, 1};

  VertexId core_s = s, core_t = t;
  uint32_t tree_dist = 0;
  if (has_one_shell_) {
    if (shell_.Anchor(s) == shell_.Anchor(t)) {
      // Same fringe tree (or one is the other's anchor): the unique
      // tree path is the unique shortest path.
      return shell_.TreeQuery(s, t);
    }
    tree_dist = static_cast<uint32_t>(shell_.Depth(s)) + shell_.Depth(t);
    core_s = shell_.CoreId(shell_.Anchor(s));
    core_t = shell_.CoreId(shell_.Anchor(t));
  }

  const SpcResult inner = InnerQuery(core_s, core_t);
  if (inner.distance == kInfSpcDistance) return {kInfSpcDistance, 0};
  return {inner.distance + tree_dist, inner.count};
}

SpcResult ReducedSpcIndex::InnerQuery(VertexId core_s, VertexId core_t) const {
  if (core_s == core_t) return {0, 1};
  if (!has_equivalence_) return index_.Query(core_s, core_t);
  const VertexId rs = equiv_.ClassOf(core_s);
  const VertexId rt = equiv_.ClassOf(core_t);
  if (rs == rt) return equiv_.SameClassQuery(rs);
  return WeightedQuery(rs, rt);
}

SpcResult ReducedSpcIndex::WeightedQuery(VertexId rs, VertexId rt) const {
  // Eq. (1)/(2) with the multiplicity adjustment: a hub is an internal
  // vertex of the recombined path unless it coincides with an endpoint,
  // so its class weight multiplies the term (paper §IV-B's "weight
  // assigned depending on the quantity of equivalents").
  const auto ls = index_.Labels(rs);
  const auto lt = index_.Labels(rt);
  const Rank rank_s = index_.Order().RankOf(rs);
  const Rank rank_t = index_.Order().RankOf(rt);
  uint32_t best = kInfSpcDistance;
  Count count = 0;
  size_t i = 0, j = 0;
  while (i < ls.size() && j < lt.size()) {
    if (ls[i].hub_rank < lt[j].hub_rank) {
      ++i;
    } else if (ls[i].hub_rank > lt[j].hub_rank) {
      ++j;
    } else {
      const Rank hr = ls[i].hub_rank;
      const uint32_t d =
          static_cast<uint32_t>(ls[i].dist) + static_cast<uint32_t>(lt[j].dist);
      if (d <= best) {
        Count term = SatMul(ls[i].count, lt[j].count);
        if (hr != rank_s && hr != rank_t) {
          term = SatMul(term, equiv_.Weight(index_.Order().VertexAt(hr)));
        }
        if (d < best) {
          best = d;
          count = term;
        } else {
          count = SatAdd(count, term);
        }
      }
      ++i;
      ++j;
    }
  }
  if (best == kInfSpcDistance) return {kInfSpcDistance, 0};
  return {best, count};
}

}  // namespace pspc

#ifndef PSPC_SRC_CORE_HP_SPC_BUILDER_H_
#define PSPC_SRC_CORE_HP_SPC_BUILDER_H_

#include <span>

#include "src/core/build_stats.h"
#include "src/graph/graph.h"
#include "src/label/spc_index.h"
#include "src/order/vertex_order.h"

/// HP-SPC — the sequential state-of-the-art baseline (Zhang & Yu,
/// SIGMOD 2020; paper §III).
///
/// One pruned BFS per vertex, in rank order (highest rank first). The
/// BFS from hub `h` explores only vertices ranked below `h` — a path
/// through a higher-ranked vertex is covered by that vertex's earlier
/// BFS — and accumulates, per reached vertex `u`, the number of
/// *trough* walks from `h`. A reached vertex is pruned when the current
/// 2-hop index already certifies a strictly shorter distance
/// (`Query(h,u) < d`); at equality the label is still inserted (the
/// paper's *non-canonical* labels, Lemma 1) and expansion continues, so
/// counts of trough paths that detour around higher hubs are preserved.
///
/// The query reads canonical entries only. For a pair at distance
/// `D < d`, the highest-ranked vertex on any of its shortest paths is a
/// canonical hub of both ends with legs of at most `D`, so canonical
/// entries alone decide `< d`, `== d` and `> d` as the full labels do.
///
/// The defining limitation reproduced here: iteration i+1's pruning
/// depends on the labels iteration i inserted (Lemma 1's order
/// dependency), so the hub loop cannot be parallelized — the motivation
/// for PSPC.
namespace pspc {

/// Builds the full ESPC index for `graph` under `order`.
///
/// `vertex_weights` (optional; empty = all 1) assigns each vertex a
/// multiplicity: a path's count is multiplied by the weights of its
/// *internal* vertices. This is the hook the neighborhood-equivalence
/// reduction (paper §IV-B) uses so that one representative vertex
/// counts the paths of its whole class.
BuildResult BuildHpSpcIndex(const Graph& graph, const VertexOrder& order,
                            std::span<const Count> vertex_weights = {});

}  // namespace pspc

#endif  // PSPC_SRC_CORE_HP_SPC_BUILDER_H_

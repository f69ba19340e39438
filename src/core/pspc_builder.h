#ifndef PSPC_SRC_CORE_PSPC_BUILDER_H_
#define PSPC_SRC_CORE_PSPC_BUILDER_H_

#include <span>

#include "src/core/build_options.h"
#include "src/core/build_stats.h"
#include "src/digraph/digraph.h"
#include "src/graph/graph.h"
#include "src/label/spc_index.h"
#include "src/order/vertex_order.h"

/// PSPC — parallel shortest-path-counting index construction (the
/// paper's contribution, §III-C..H).
///
/// Where HP-SPC's hub-by-hub loop forces labels of rank i to wait for
/// ranks < i (Lemma 1's order dependency), PSPC reorganizes the same
/// label set by *distance* (Defs. 6/7): iteration `d` constructs every
/// label entry of distance exactly `d`, for all vertices, in parallel.
/// Correctness rests on two observations proved in the paper (and
/// checked against HP-SPC and a BFS oracle by `SpcPropertyTest`):
///
///  1. Propagation (Lemma 2): every distance-d trough shortest path
///     `u ~> w` extends a distance-(d-1) trough shortest path of a
///     neighbor of `u`, so the candidate hubs for `L_d(u)` are exactly
///     the hubs in `L_{d-1}(v)` over neighbors `v`, kept only when the
///     hub outranks `u` (Lemma 3) and counts summed across neighbors
///     (Label Merging).
///  2. Pruning (Lemma 4): a candidate `(w, d)` survives iff no 2-hop
///     witness proves `dist(u,w) < d`. Any such witness decomposes at
///     an apex with both legs shorter than `d`, so the committed labels
///     `L_{<=d-1}` suffice — iteration `d` never reads its own output,
///     which is what makes the loop embarrassingly parallel and the
///     result independent of the thread count (asserted in tests, and
///     the paper's Exp 2 observation).
///
/// The distance entries of `L_{<=d-1}` suffice too, and the query reads
/// only them. For a pair at distance `D < d`, the highest-ranked vertex
/// on any of its shortest paths is a canonical hub of both ends, with
/// both legs shorter than `d`: the distance entries (self, canonical
/// and landmark-kept, all exact distances) give the same `< d` verdict,
/// and the same `== d` against `> d` test, which files a survivor as
/// count-only or as a distance entry. Each side keeps the two kinds in
/// separate stores; propagation reads both.
///
/// The query pairs each witness entry of `w` with `u`'s distance to the
/// same hub, read from an array in which an absent hub holds
/// `kInfDistance`. Their 32-bit sum then stays above every level, so
/// the scan has no data-dependent skip. A verdict reads only committed
/// entries, so candidates are pruned in the order the gather found
/// them, and only the survivors are sorted by hub rank before they are
/// staged.
///
/// Propagation is §III-E's PULL: each vertex gathers its neighbors'
/// last-level labels and merges duplicates in place. PUSH is not kept:
/// it built the same index and was slower on every dataset analogue.
///
/// A directed graph (§II-A) runs the same iteration over two label
/// sides: `Lin(u)` pulls from in-neighbors and is pruned against `Lout`
/// (a witness `h -> z -> u` splits into `(z, ·)` in `Lout(h)` and in
/// `Lin(u)`), and `Lout` is the mirror image. An undirected graph has
/// one side, which witnesses its own prunes.
namespace pspc {

/// Builds the ESPC index for `graph` under `order` in parallel. The
/// resulting index is identical to `BuildHpSpcIndex(graph, order,
/// vertex_weights)` up to entry ordering (both are the unique ESPC
/// label set of the order).
///
/// Reads the PSPC fields of `options`: `schedule`, `num_threads` and
/// `num_landmarks`. The caller passes the order, so `algorithm`,
/// `ordering` and `hybrid_delta` are not read.
///
/// `vertex_weights` (optional; empty = all 1) assigns each vertex a
/// multiplicity: a path's count is multiplied by the weights of its
/// internal vertices. The neighborhood-equivalence reduction (paper
/// §IV-B) uses it so a single representative counts the paths of its
/// merged class.
BuildResult BuildPspcIndex(const Graph& graph, const VertexOrder& order,
                           const BuildOptions& options,
                           std::span<const Count> vertex_weights = {});

/// Builds the directed ESPC index (`result.index.Directed()`) without
/// vertex weights. Like the undirected build, the index is independent
/// of schedule and thread count.
///
/// Reads `schedule` and `num_threads` of `options`. The landmark tables
/// hold undirected distances, so `num_landmarks` is not read; nor are
/// `algorithm`, `ordering` and `hybrid_delta`, because the caller
/// passes the order.
BuildResult BuildDirectedPspcIndex(const DiGraph& graph,
                                   const VertexOrder& order,
                                   const BuildOptions& options);

/// Degree order for directed graphs: rank by total degree (in + out),
/// descending; ties by id.
VertexOrder DirectedDegreeOrder(const DiGraph& graph);

}  // namespace pspc

#endif  // PSPC_SRC_CORE_PSPC_BUILDER_H_

#include "src/core/hp_spc_builder.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/saturating.h"
#include "src/common/timer.h"
#include "src/label/label_entry.h"

namespace pspc {

// The prune scan's 32-bit sum of two 16-bit distances cannot wrap.
static_assert(2 * uint64_t{kInfDistance} <=
              std::numeric_limits<uint32_t>::max());

BuildResult BuildHpSpcIndex(const Graph& graph, const VertexOrder& order,
                            std::span<const Count> vertex_weights) {
  const VertexId n = graph.NumVertices();
  PSPC_CHECK(order.Size() == n);
  PSPC_CHECK(vertex_weights.empty() || vertex_weights.size() == n);
  // Multiplicity of a vertex when it appears as an *internal* vertex of
  // a counted path; 1 in the unweighted case.
  auto mu = [&vertex_weights](VertexId v) -> Count {
    return vertex_weights.empty() ? Count{1} : vertex_weights[v];
  };
  BuildResult result;
  WallTimer timer;

  // canonical[v] holds v's self entry and canonical entries, and
  // count_only[v] its non-canonical ones. Both accumulate in ascending
  // hub-rank order (hubs are processed by rank), so each list stays
  // sorted by construction. Canonical entries are an exact distance
  // cover, so the pruning queries read only them.
  LabelLists canonical(n), count_only(n);

  // Scratch reused across hubs; reset via the visited list.
  std::vector<Distance> tmp_dist(n, kInfDistance);  // hub's label, by rank
  std::vector<Distance> bfs_dist(n, kInfDistance);
  std::vector<Count> bfs_count(n, 0);
  std::vector<VertexId> frontier, next_frontier, touched;

  const std::vector<Rank>& rank_of = order.VertexToRank();

  for (Rank r = 0; r < n; ++r) {
    const VertexId h = order.VertexAt(r);
    // Self label: one trough path of length 0.
    canonical[h].push_back({r, 0, 1});
    ++result.stats.labels_inserted;

    // Preload the hub's canonical labels for 2-hop pruning queries.
    for (const LabelEntry& e : canonical[h]) tmp_dist[e.hub_rank] = e.dist;

    bfs_dist[h] = 0;
    bfs_count[h] = 1;
    frontier.assign(1, h);
    touched.assign(1, h);
    Distance d = 0;

    while (!frontier.empty()) {
      ++d;
      next_frontier.clear();
      // Phase 1: expand, accumulating trough-walk counts at level d.
      // When u becomes an internal vertex of the extended path its
      // multiplicity applies; the hub endpoint h itself (d == 1) does
      // not (endpoints are never multiplied).
      for (VertexId u : frontier) {
        const Count factor = (u == h) ? Count{1} : mu(u);
        for (VertexId v : graph.Neighbors(u)) {
          if (rank_of[v] <= r) continue;  // only strictly lower-ranked
          if (bfs_dist[v] == kInfDistance) {
            bfs_dist[v] = d;
            bfs_count[v] = 0;
            next_frontier.push_back(v);
            touched.push_back(v);
          }
          if (bfs_dist[v] == d) {
            bfs_count[v] = SatAdd(bfs_count[v], SatMul(bfs_count[u], factor));
          }
        }
      }
      // Phase 2: prune/label each level-d vertex. Pruning uses only
      // labels of hubs ranked above r, all finalized — Lemma 1's order
      // dependency in action. A hub absent from h's label reads
      // kInfDistance, and the sum cannot wrap (see above), so it stays
      // above every level d and the scan needs no skip for it.
      size_t keep = 0;
      for (VertexId v : next_frontier) {
        uint32_t q = kInfDistance;
        for (const LabelEntry& e : canonical[v]) {
          q = std::min<uint32_t>(q, uint32_t{tmp_dist[e.hub_rank]} + e.dist);
          if (q < d) break;
        }
        ++result.stats.candidates_after_merge;
        if (q < d) {
          // Covered strictly shorter: not on any shortest path from h.
          // v stays marked visited (bfs_dist == d) so later levels do
          // not rediscover it, but it is dropped from the frontier.
          ++result.stats.pruned_by_query;
          continue;
        }
        if (q == d) {
          ++result.stats.non_canonical_labels;  // higher apex exists
          count_only[v].push_back({r, d, bfs_count[v]});
        } else {
          ++result.stats.canonical_labels;  // h is the unique apex
          canonical[v].push_back({r, d, bfs_count[v]});
        }
        ++result.stats.labels_inserted;
        next_frontier[keep++] = v;
      }
      next_frontier.resize(keep);
      frontier.swap(next_frontier);
    }

    // Reset scratch.
    for (const LabelEntry& e : canonical[h]) {
      tmp_dist[e.hub_rank] = kInfDistance;
    }
    for (VertexId v : touched) {
      bfs_dist[v] = kInfDistance;
      bfs_count[v] = 0;
    }
    ++result.stats.num_iterations;
  }

  result.stats.construction_seconds = timer.ElapsedSeconds();
  result.stats.total_entries = result.stats.labels_inserted;

  WallTimer finalize;
  LabelLists parts[] = {std::move(canonical), std::move(count_only)};
  result.index = SpcIndex(order, parts, {}, /*num_threads=*/1);
  result.stats.finalize_seconds = finalize.ElapsedSeconds();
  return result;
}

}  // namespace pspc

#ifndef PSPC_SRC_DYNAMIC_BATCH_PLANNER_H_
#define PSPC_SRC_DYNAMIC_BATCH_PLANNER_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dynamic/edge_update.h"

/// Batch-coalescing front half of `DynamicIndex::ApplyBatch`.
///
/// A batch is an *atomic* state transition: the planner simulates the
/// update sequence over the current edge membership, validates every
/// update against the simulated pre-state up front (so a bad update
/// rejects the whole batch before any topology or label mutation), and
/// reduces the sequence to its net effect — the set of edges that are
/// present at the end but absent at the start (net insertions) and
/// vice versa (net deletions). Everything else is churn the repair
/// machinery never needs to see:
///
///  * `i u v` followed by `d u v` cancels to a no-op;
///  * a duplicate `i u v` (or an insert of an edge the graph already
///    has) is redundant, coalesced away instead of rejected;
///  * `d u v` followed by `i u v` restores the edge — no label pair
///    can have changed between the pre- and post-batch graphs, so no
///    repair runs.
///
/// The one hard error is a delete whose edge is absent in the
/// simulated state (`Status::NotFound`, naming the offending update
/// index): the caller's view of the graph has diverged, and silently
/// skipping the delete would hide that. Structural validation
/// (self-loops, out-of-range endpoints) stays in
/// `EdgeUpdateBatch::Validate`, which callers run first.
namespace pspc {

/// Net effect of a validated batch. Undirected edge pairs are
/// normalized to `u < v`; in directed mode pairs keep their
/// orientation (`u -> v` and `v -> u` are distinct edges). The two
/// lists are disjoint by construction.
struct BatchPlan {
  std::vector<std::pair<VertexId, VertexId>> net_insertions;
  std::vector<std::pair<VertexId, VertexId>> net_deletions;
  /// Updates the coalescing dropped (cancelled pairs, redundant
  /// inserts, delete+reinsert round trips).
  size_t coalesced_updates = 0;

  size_t NetSize() const { return net_insertions.size() + net_deletions.size(); }
  bool Empty() const { return net_insertions.empty() && net_deletions.empty(); }
};

/// Simulates `batch` over the membership oracle `has_edge` (queried
/// once per distinct edge; with `u < v` unless `directed`). Returns
/// the net plan, or the first pre-state violation with *nothing*
/// considered applied. Directed mode keys the simulation on ordered
/// pairs, so the coalescing never conflates an edge with its reverse.
Result<BatchPlan> PlanBatch(
    const EdgeUpdateBatch& batch,
    const std::function<bool(VertexId, VertexId)>& has_edge,
    bool directed = false);

}  // namespace pspc

#endif  // PSPC_SRC_DYNAMIC_BATCH_PLANNER_H_

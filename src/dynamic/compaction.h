#ifndef PSPC_SRC_DYNAMIC_COMPACTION_H_
#define PSPC_SRC_DYNAMIC_COMPACTION_H_

#include <cstdint>

#include "src/dynamic/dynamic_spc_index.h"

/// Background overlay compaction.
///
/// Under sustained churn the dynamic index accretes stale entries —
/// distances strictly longer than the true shortest, which repair
/// provably may leave behind — and every one of them widens each merge
/// it takes part in. `OverlayCompactor` removes them:
///
///  * `Fold()` / `FoldIfStale()` folds a quiesced overlay into a fresh
///    base CSR: it materializes base (+) overlay into a new `SpcIndex`,
///    optionally dropping stale entries, and rebases the overlay to
///    empty. Pruning is exact-preserving: an entry `(v, h, d)` is
///    dropped only when `d` exceeds the index's own (exact)
///    `Query(v, vertex(h))` distance, and such an entry can never reach
///    the minimum of any query merge — `d + d' > sd(v,h) + sd(h,t) >=
///    sd(v,t)` by the triangle inequality — so every query result is
///    bit-identical before and after. Unlike `Rebuild()` there is no BFS
///    re-construction and no re-ordering: a fold is a linear
///    materialization pass.
///
/// Threading: the compactor mutates the index and must run on the
/// index's single writer thread of control. `ServingEngine` drives it
/// from its background compaction thread under the writer mutex,
/// interleaved with update batches, and publishes a snapshot after
/// each fold (see serving_engine.h).
namespace pspc {

struct CompactionOptions {
  /// `FoldIfStale` folds when overlay entries / base entries exceeds
  /// this. Folds are cheaper than rebuilds but still O(n).
  double fold_staleness_ratio = 0.10;
  /// Drop provably stale entries (dist strictly longer than the exact
  /// query distance) while folding.
  bool prune_stale_entries = true;
};

struct CompactionStats {
  uint64_t folds = 0;
  uint64_t entries_pruned = 0;  // stale entries dropped across folds
  uint64_t last_fold_entries_folded = 0;  // overlay entries at last fold
};

class OverlayCompactor {
 public:
  /// `index` must outlive the compactor. All methods must run on the
  /// thread of control that owns the index's write path.
  explicit OverlayCompactor(DynamicSpcIndex* index,
                            CompactionOptions options = {});

  /// `Fold()` when the staleness ratio exceeds the configured
  /// threshold; returns whether a fold ran.
  bool FoldIfStale();

  /// Folds the overlay into a fresh base unconditionally (see the
  /// comment above). Bumps the index generation.
  void Fold();

  const CompactionStats& Stats() const { return stats_; }
  const CompactionOptions& Options() const { return options_; }

 private:
  DynamicSpcIndex* index_;
  CompactionOptions options_;
  CompactionStats stats_;
};

}  // namespace pspc

#endif  // PSPC_SRC_DYNAMIC_COMPACTION_H_

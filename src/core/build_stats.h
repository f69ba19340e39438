#ifndef PSPC_SRC_CORE_BUILD_STATS_H_
#define PSPC_SRC_CORE_BUILD_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/label/spc_index.h"

/// Instrumentation collected during index construction. The phase split
/// (ordering / landmark labeling / label construction) reproduces the
/// paper's Fig. 13 breakdown; candidate/prune counters feed tests and
/// the ablation benches. `BuildResult` is what every builder returns.
namespace pspc {

struct BuildStats {
  // Phase timings in seconds (paper Fig. 13: Order / LL / LC), then
  // finalize: flattening the builder's label lists into the index.
  double ordering_seconds = 0.0;
  double landmark_seconds = 0.0;
  double construction_seconds = 0.0;
  double finalize_seconds = 0.0;
  double TotalSeconds() const {
    return ordering_seconds + landmark_seconds + construction_seconds +
           finalize_seconds;
  }

  /// Distance iterations executed by PSPC (== diameter of the largest
  /// component + 1), or hubs processed by HP-SPC.
  size_t num_iterations = 0;

  /// Label entries committed per distance level (PSPC) — the shrinking
  /// tail of this vector is why late iterations are cheap.
  std::vector<size_t> entries_per_level;

  size_t total_entries = 0;

  // Candidate funnel (PSPC): generated -> pruned by rank (Lemma 3,
  // applied inline) is not observable; the counters below split the
  // query-side funnel.
  size_t candidates_after_merge = 0;  ///< distinct (vertex, hub) pairs
  size_t pruned_by_landmark = 0;      ///< cut by the landmark filter
  size_t pruned_by_query = 0;         ///< cut by the 2-hop label query
  size_t labels_inserted = 0;

  /// Canonical vs non-canonical split (paper Lemma 1), self entries in
  /// neither. An entry is canonical when no vertex ranked above its hub
  /// lies on a shortest path to it; the rest only add path counts.
  /// PSPC counts its distance entries as canonical, so an entry the
  /// landmark filter kept counts there too.
  size_t canonical_labels = 0;
  size_t non_canonical_labels = 0;

  /// Human-readable multi-line summary.
  std::string ToString() const;
};

struct BuildResult {
  SpcIndex index;
  BuildStats stats;
};

}  // namespace pspc

#endif  // PSPC_SRC_CORE_BUILD_STATS_H_

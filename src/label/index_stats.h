#ifndef PSPC_SRC_LABEL_INDEX_STATS_H_
#define PSPC_SRC_LABEL_INDEX_STATS_H_

#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/label/spc_index.h"

/// Offline introspection of a built index: label-size and label-
/// distance distributions, hub concentration, and the canonical /
/// non-canonical split (paper Lemma 1). Printed by `spc_cli
/// index-stats`; pure read-only.
namespace pspc {

struct IndexProfile {
  size_t total_entries = 0;
  double avg_label_size = 0.0;
  size_t max_label_size = 0;
  size_t min_label_size = 0;
  /// In-memory footprint of the entries (16 B each, what queries read).
  size_t raw_bytes = 0;
  /// histogram[d] = number of entries with label distance d.
  std::vector<size_t> entries_per_distance;
  /// Share of all entries whose hub is among the top-k ranked vertices,
  /// for k in {1, 10, 100} — the concentration that motivates landmark
  /// filtering (paper §III-H).
  double top1_hub_share = 0.0;
  double top10_hub_share = 0.0;
  double top100_hub_share = 0.0;

  std::string ToString() const;
};

/// Profiles `index` in one pass over its entries.
IndexProfile ProfileIndex(const SpcIndex& index);

}  // namespace pspc

#endif  // PSPC_SRC_LABEL_INDEX_STATS_H_

#include "src/core/build_stats.h"

#include <sstream>

namespace pspc {

std::string BuildStats::ToString() const {
  std::ostringstream oss;
  oss << "ordering=" << ordering_seconds << "s landmarks="
      << landmark_seconds << "s construction=" << construction_seconds
      << "s finalize=" << finalize_seconds << "s total=" << TotalSeconds()
      << "s\n";
  oss << "iterations=" << num_iterations << " entries=" << total_entries
      << " candidates=" << candidates_after_merge
      << " pruned(landmark)=" << pruned_by_landmark
      << " pruned(query)=" << pruned_by_query
      << " inserted=" << labels_inserted;
  if (canonical_labels + non_canonical_labels > 0) {
    oss << " canonical=" << canonical_labels
        << " non_canonical=" << non_canonical_labels;
  }
  return oss.str();
}

}  // namespace pspc

#include "src/label/index_stats.h"

#include <algorithm>
#include <sstream>

namespace pspc {

IndexProfile ProfileIndex(const SpcIndex& index) {
  IndexProfile profile;
  const VertexId n = index.NumVertices();
  if (n == 0) return profile;

  profile.min_label_size = index.Labels(0).size();
  size_t top1 = 0, top10 = 0, top100 = 0;
  for (VertexId v = 0; v < n; ++v) {
    const auto labels = index.Labels(v);
    profile.total_entries += labels.size();
    profile.max_label_size = std::max(profile.max_label_size, labels.size());
    profile.min_label_size = std::min(profile.min_label_size, labels.size());
    for (const LabelEntry& e : labels) {
      if (e.dist >= profile.entries_per_distance.size()) {
        profile.entries_per_distance.resize(e.dist + 1, 0);
      }
      ++profile.entries_per_distance[e.dist];
      if (e.hub_rank < 1) ++top1;
      if (e.hub_rank < 10) ++top10;
      if (e.hub_rank < 100) ++top100;
    }
  }
  profile.avg_label_size =
      static_cast<double>(profile.total_entries) / static_cast<double>(n);
  profile.raw_bytes = profile.total_entries * sizeof(LabelEntry);
  const auto total = static_cast<double>(profile.total_entries);
  profile.top1_hub_share = top1 / total;
  profile.top10_hub_share = top10 / total;
  profile.top100_hub_share = top100 / total;
  return profile;
}

std::string IndexProfile::ToString() const {
  std::ostringstream oss;
  oss << "entries=" << total_entries << " avg=" << avg_label_size
      << " min=" << min_label_size << " max=" << max_label_size
      << " top1=" << top1_hub_share << " top10=" << top10_hub_share
      << " top100=" << top100_hub_share << "\nraw_bytes=" << raw_bytes
      << "\nper-distance:";
  for (size_t d = 0; d < entries_per_distance.size(); ++d) {
    oss << " d" << d << ":" << entries_per_distance[d];
  }
  return oss.str();
}

}  // namespace pspc

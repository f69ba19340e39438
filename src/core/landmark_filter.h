#ifndef PSPC_SRC_CORE_LANDMARK_FILTER_H_
#define PSPC_SRC_CORE_LANDMARK_FILTER_H_

#include <cstddef>
#include <vector>

#include "src/common/types.h"
#include "src/graph/graph.h"
#include "src/order/vertex_order.h"

/// Landmark-based filtering (paper §III-H).
///
/// Exact BFS distance tables are precomputed from the `k` *top-ranked*
/// vertices (which, under the degree order, are the highest-degree
/// vertices — the paper's landmark definition). During construction a
/// candidate label `(w, d)` on vertex `u` whose hub `w` is a landmark
/// is decided from the table alone, without scanning any label set: it
/// is not a shortest path iff `dist(w, u) < d`. That is the common case
/// because high-ranked hubs dominate every iteration's candidates — the
/// paper's stated motivation.
///
/// The filter is a pure accelerator: it never changes the constructed
/// index (asserted by tests), only how fast candidates die.
namespace pspc {

class LandmarkFilter {
 public:
  /// Empty filter that prunes nothing.
  LandmarkFilter() = default;

  /// BFS tables from the `num_landmarks` top-ranked vertices, computed
  /// with `num_threads` parallel BFS runs. Capped at n.
  LandmarkFilter(const Graph& graph, const VertexOrder& order,
                 uint32_t num_landmarks, int num_threads);

  /// Outcome of a landmark probe: the candidate is provably not
  /// shortest (kPrune), provably shortest at distance d (kKeep — only
  /// decidable when the hub is a landmark, whose distance table is
  /// exact), or unknown (fall back to the label-scan query).
  enum class Verdict { kPrune, kKeep, kUnknown };

  /// Tests the candidate label (hub of rank `hub_rank`, distance `d`)
  /// on vertex `u`. Only the decisive landmark-hub fast path is used
  /// here (the paper's §III-H observation: landmark labels are the
  /// majority of every iteration's candidates, and for them the stored
  /// distance answers the prune test exactly — both ways). Candidates
  /// of non-landmark hubs return kUnknown immediately: a generic
  /// k-probe triangle scan costs more than the label query's early
  /// exit, which is also why the paper's Fig. 12 curve turns upward as
  /// landmarks grow.
  Verdict Probe(VertexId u, Rank hub_rank, Distance d) const {
    if (hub_rank >= k_) return Verdict::kUnknown;
    const Distance exact = dist_[static_cast<size_t>(u) * k_ + hub_rank];
    return exact < d ? Verdict::kPrune : Verdict::kKeep;
  }

  uint32_t NumLandmarks() const { return k_; }
  size_t SizeBytes() const { return dist_.size() * sizeof(Distance); }

 private:
  uint32_t k_ = 0;
  std::vector<Distance> dist_;  // n rows of k landmark distances
};

}  // namespace pspc

#endif  // PSPC_SRC_CORE_LANDMARK_FILTER_H_

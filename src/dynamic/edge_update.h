#ifndef PSPC_SRC_DYNAMIC_EDGE_UPDATE_H_
#define PSPC_SRC_DYNAMIC_EDGE_UPDATE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

/// Edge-update descriptions consumed by `DynamicIndex` (both edge
/// directions).
///
/// A batch is an ordered list of single-edge insertions and deletions
/// over a fixed vertex universe `[0, n)` — graph churn as a serving
/// system sees it (edges appear and disappear; the vertex set is
/// provisioned up front). The text stream format mirrors the SNAP
/// edge-list dialect used by graph_io.h, one update per line:
///
///   # comment
///   i 3 17      <- insert edge {3, 17}
///   d 3 17      <- delete edge {3, 17}
namespace pspc {

enum class EdgeUpdateKind : uint8_t {
  kInsert,
  kDelete,
};

struct EdgeUpdate {
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;
  EdgeUpdateKind kind = EdgeUpdateKind::kInsert;

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// Ordered sequence of edge updates. Purely a container; checks
/// against a concrete graph happen when the batch is applied —
/// `PlanBatch` (batch_planner.h) simulates the sequence over the
/// current edge set up front, coalescing redundant work and rejecting
/// the whole batch on a delete of a missing edge.
class EdgeUpdateBatch {
 public:
  EdgeUpdateBatch() = default;

  void Insert(VertexId u, VertexId v) {
    updates_.push_back({u, v, EdgeUpdateKind::kInsert});
  }
  void Delete(VertexId u, VertexId v) {
    updates_.push_back({u, v, EdgeUpdateKind::kDelete});
  }
  void Add(const EdgeUpdate& update) { updates_.push_back(update); }

  size_t Size() const { return updates_.size(); }
  bool Empty() const { return updates_.empty(); }

  const std::vector<EdgeUpdate>& Updates() const { return updates_; }
  auto begin() const { return updates_.begin(); }
  auto end() const { return updates_.end(); }

  /// Graph-independent validation: endpoints inside `[0, num_vertices)`
  /// and no self-loops (the SPC problem is defined on simple graphs).
  Status Validate(VertexId num_vertices) const;

 private:
  std::vector<EdgeUpdate> updates_;
};

/// Parses the update-stream text format described above.
Result<EdgeUpdateBatch> ParseUpdateStream(const std::string& text);

/// Loads an update-stream file.
Result<EdgeUpdateBatch> LoadUpdateStream(const std::string& path);

/// Writes `batch` in the update-stream text format (round-trips with
/// LoadUpdateStream).
Status SaveUpdateStream(const EdgeUpdateBatch& batch, const std::string& path);

}  // namespace pspc

#endif  // PSPC_SRC_DYNAMIC_EDGE_UPDATE_H_

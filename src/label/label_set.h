#ifndef PSPC_SRC_LABEL_LABEL_SET_H_
#define PSPC_SRC_LABEL_LABEL_SET_H_

#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/label/label_entry.h"

/// Builder-side label storage.
///
/// PSPC constructs the index in distance iterations (paper Defs. 6/7):
/// iteration `d` appends exactly the entries with `dist == d`, so each
/// vertex's entries form contiguous *level slices*. `LevelLabelStore`
/// exposes the slice `L_d(v)` needed by the propagation step and the
/// full prefix `L_{<=d}(v)` needed by the pruning queries, with appends
/// committed once per iteration (two-phase: the paper's paradigm where
/// an iteration only reads the previous iterations' labels).
///
/// A PSPC label side keeps its entries in two stores, each entry in
/// exactly one. The *distance* store holds the self entry, every
/// canonical entry (no higher-ranked vertex lies on a shortest path to
/// the hub) and every entry the landmark filter kept: an exact distance
/// cover, and the only store the pruning queries read. The *count*
/// store holds the non-canonical entries, which only add path counts;
/// propagation reads both.
namespace pspc {

class LevelLabelStore {
 public:
  explicit LevelLabelStore(VertexId num_vertices)
      : entries_(num_vertices), level_begin_(num_vertices, {0}) {}

  VertexId NumVertices() const {
    return static_cast<VertexId>(entries_.size());
  }

  /// All committed entries of `v` (distances 0 .. current level).
  std::span<const LabelEntry> Entries(VertexId v) const {
    return {entries_[v].data(), entries_[v].size()};
  }

  /// Entries of `v` with distance exactly `d`; empty if `d` is beyond
  /// the committed levels. Entries within a level are sorted by hub
  /// rank (commit sorts them), making the index layout deterministic.
  std::span<const LabelEntry> Level(VertexId v, Distance d) const {
    const auto& begins = level_begin_[v];
    if (static_cast<size_t>(d) + 1 >= begins.size()) return {};
    return {entries_[v].data() + begins[d],
            entries_[v].data() + begins[d + 1]};
  }

  /// Number of levels committed so far (level 0 after the first commit).
  Distance NumLevels(VertexId v) const {
    return static_cast<Distance>(level_begin_[v].size() - 1);
  }

  /// Appends `batch` as the next level of `v`. `batch` must be sorted by
  /// hub rank; called once per vertex per iteration (single writer).
  void CommitLevel(VertexId v, std::span<const LabelEntry> batch);

  /// Total committed entries across all vertices.
  size_t TotalEntries() const;

  /// Moves out per-vertex entry arrays (store unusable afterwards).
  LabelLists TakeEntries() {
    return std::move(entries_);
  }

 private:
  LabelLists entries_;
  // level_begin_[v][d] = first index of distance-d entries in entries_[v].
  std::vector<std::vector<uint32_t>> level_begin_;
};

}  // namespace pspc

#endif  // PSPC_SRC_LABEL_LABEL_SET_H_

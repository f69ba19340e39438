#ifndef PSPC_SRC_LABEL_SPC_INDEX_H_
#define PSPC_SRC_LABEL_SPC_INDEX_H_

#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/label/label_entry.h"
#include "src/order/vertex_order.h"

/// The finalized, immutable 2-hop SPC index: a vertex order plus an out
/// and an in label side.
///
/// Per vertex, entries sorted by hub rank are stored in one flat array
/// per side (CSR layout). A query scans the out side of `s` and the in
/// side of `t` with a sorted merge, keeps the common hubs minimizing
/// `sd(s,h) + sd(h,t)`, and sums `theta(s,h) * theta(h,t)` over them —
/// Equations (1) and (2) of the paper. Exactness follows from the ESPC
/// property of the stored labels: every shortest path is counted
/// exactly once, at its unique highest-ranked vertex.
///
/// An undirected index stores one label set `L`, and its in side
/// aliases the out side. A directed index (paper §II-A) stores both:
/// `Lout(v)` holds entries `(h, sd(v,h), #trough paths v->h)` and
/// `Lin(v)` holds `(h, sd(h,v), #trough paths h->v)`.
namespace pspc {

class SpcIndex {
 public:
  /// Empty index (queries abort); use a builder from src/core/.
  SpcIndex() = default;

  /// Undirected index from per-vertex entry lists in any order; entries
  /// are sorted by hub rank and flattened. `labels.size()` must equal
  /// `order.Size()`.
  SpcIndex(VertexOrder order, LabelLists labels);

  /// Directed index from per-vertex `Lout` and `Lin` lists, each sorted
  /// and flattened like the undirected labels.
  SpcIndex(VertexOrder order, LabelLists out, LabelLists in);

  /// The builders' finalize. A side's label list of vertex `v` is the
  /// union of `parts[p][v]` over its parts, which hold disjoint hubs in
  /// any order; `in_parts` empty makes the index undirected. Each side
  /// is flattened on `num_threads` threads, and every list is freed as
  /// it is consumed. The two constructors above are its one-part form.
  SpcIndex(VertexOrder order, std::span<LabelLists> out_parts,
           std::span<LabelLists> in_parts, int num_threads);

  /// Number of indexed vertices.
  VertexId NumVertices() const {
    return out_.offsets.empty()
               ? 0
               : static_cast<VertexId>(out_.offsets.size() - 1);
  }

  /// True iff the index stores a separate in side.
  bool Directed() const { return !in_.offsets.empty(); }

  /// Distance and exact number of shortest paths from `s` to `t`.
  /// `(kInfDistance, 0)` if disconnected; `(0, 1)` if `s == t`.
  SpcResult Query(VertexId s, VertexId t) const;

  /// Out-side label entries of `v` (`L(v)`, or `Lout(v)` when
  /// directed), sorted by hub rank.
  std::span<const LabelEntry> Labels(VertexId v) const {
    return out_.Labels(v);
  }

  /// In-side label entries of `v` (`L(v)`, or `Lin(v)` when directed).
  std::span<const LabelEntry> InLabels(VertexId v) const {
    return In().Labels(v);
  }

  /// Non-owning CSR views of the out and in label tables (the base a
  /// dynamic overlay reads through); valid while the index is alive.
  BaseLabelMap LabelMap() const { return out_.Map(NumVertices()); }
  BaseLabelMap InLabelMap() const { return In().Map(NumVertices()); }

  /// The vertex order the index was built under.
  const VertexOrder& Order() const { return order_; }

  /// Total number of label entries over both sides.
  size_t TotalEntries() const {
    return out_.entries.size() + in_.entries.size();
  }

  /// Mean entries per vertex.
  double AverageLabelSize() const;

  /// In-memory footprint of the label arrays + offsets of both sides, in
  /// bytes — the "index size" metric of the paper's Fig. 6.
  size_t SizeBytes() const;

  /// Binary persistence of an undirected index (magic-checked;
  /// Corruption on mismatch). A directed index has no on-disk format:
  /// `Save` returns InvalidArgument and creates no file.
  Status Save(const std::string& path) const;
  static Result<SpcIndex> Load(const std::string& path);

  /// Structural equality: same order and identical entry arrays. Used
  /// by tests for the paper's determinism claim (Exp 2: the index is
  /// identical for any thread count).
  friend bool operator==(const SpcIndex&, const SpcIndex&) = default;

 private:
  /// One label side in CSR layout.
  struct Side {
    std::vector<uint64_t> offsets;  // n + 1; empty for an aliased side
    std::vector<LabelEntry> entries;

    std::span<const LabelEntry> Labels(VertexId v) const {
      return {entries.data() + offsets[v], entries.data() + offsets[v + 1]};
    }
    BaseLabelMap Map(VertexId n) const {
      return {offsets.data(), entries.data(), n};
    }
    friend bool operator==(const Side&, const Side&) = default;
  };

  /// Sizes each vertex's slot by a prefix sum over `parts`, then fills
  /// the slots in parallel: the parts' runs of a vertex are copied in
  /// and put in rank order.
  static Side Flatten(std::span<LabelLists> parts, int num_threads);
  const Side& In() const { return Directed() ? in_ : out_; }

  VertexOrder order_;
  Side out_;
  Side in_;  // directed only
};

}  // namespace pspc

#endif  // PSPC_SRC_LABEL_SPC_INDEX_H_

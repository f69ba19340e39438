#ifndef PSPC_SRC_LABEL_LABEL_MERGE_H_
#define PSPC_SRC_LABEL_LABEL_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/saturating.h"
#include "src/common/types.h"
#include "src/label/label_entry.h"

/// The 2-hop SPC query kernel (paper Equations (1) and (2)), factored
/// out of `SpcIndex` so that every label container — the immutable CSR
/// index, the directed index, the dynamic overlays and the serving
/// snapshots — answers queries through the identical sorted merge.
namespace pspc {

/// Merges two rank-sorted label lists: keeps the common hubs minimizing
/// `dist(s,h) + dist(h,t)` and sums `count(s,h) * count(h,t)` over
/// them. `(kInfSpcDistance, 0)` when the lists share no hub. The caller
/// handles the `s == t` case.
///
/// The reference definition: obviously correct, and what the
/// differential suite checks `MergeLabelCountsBranchFree` against.
inline SpcResult MergeLabelCounts(std::span<const LabelEntry> ls,
                                  std::span<const LabelEntry> lt) {
  uint32_t best = kInfSpcDistance;
  Count count = 0;
  size_t i = 0, j = 0;
  while (i < ls.size() && j < lt.size()) {
    if (ls[i].hub_rank < lt[j].hub_rank) {
      ++i;
    } else if (ls[i].hub_rank > lt[j].hub_rank) {
      ++j;
    } else {
      const uint32_t d =
          static_cast<uint32_t>(ls[i].dist) + static_cast<uint32_t>(lt[j].dist);
      if (d < best) {
        best = d;
        count = SatMul(ls[i].count, lt[j].count);
      } else if (d == best) {
        count = SatAdd(count, SatMul(ls[i].count, lt[j].count));
      }
      ++i;
      ++j;
    }
  }
  if (best == kInfSpcDistance) return {kInfSpcDistance, 0};
  return {best, count};
}

/// Bit-identical to `MergeLabelCounts`; the merge every served
/// query runs.
///
/// Real labels share many hubs (about two steps in five are matches on
/// a social graph), so the reference's three-way compare mispredicts
/// constantly, and that, not the bytes read, is what a merge costs.
/// This kernel splits the merge into rounds of at most `kRound` steps.
/// A step advances with flag arithmetic instead of a branch and writes
/// the current `(i, j)` to a stack buffer whose fill level grows only on
/// a match, so a step adds at most one match and the buffer cannot
/// overflow. After each round the buffered matches are folded in rank
/// order through exactly the reference's `d < best` / `d == best`
/// update, which is what makes the result bit-identical.
inline SpcResult MergeLabelCountsBranchFree(std::span<const LabelEntry> ls,
                                            std::span<const LabelEntry> lt) {
  constexpr size_t kRound = 128;
  const LabelEntry* const a = ls.data();
  const LabelEntry* const b = lt.data();
  const size_t na = ls.size();
  const size_t nb = lt.size();
  uint32_t match_i[kRound];
  uint32_t match_j[kRound];
  uint32_t best = kInfSpcDistance;
  Count count = 0;
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    size_t matches = 0;
    for (size_t step = 0; step < kRound && i < na && j < nb; ++step) {
      const Rank ra = a[i].hub_rank;
      const Rank rb = b[j].hub_rank;
      match_i[matches] = static_cast<uint32_t>(i);
      match_j[matches] = static_cast<uint32_t>(j);
      matches += ra == rb;
      i += ra <= rb;
      j += rb <= ra;
    }
    for (size_t k = 0; k < matches; ++k) {
      const LabelEntry& x = a[match_i[k]];
      const LabelEntry& y = b[match_j[k]];
      const uint32_t d =
          static_cast<uint32_t>(x.dist) + static_cast<uint32_t>(y.dist);
      if (d < best) {
        best = d;
        count = SatMul(x.count, y.count);
      } else if (d == best) {
        count = SatAdd(count, SatMul(x.count, y.count));
      }
    }
  }
  if (best == kInfSpcDistance) return {kInfSpcDistance, 0};
  return {best, count};
}

}  // namespace pspc

#endif  // PSPC_SRC_LABEL_LABEL_MERGE_H_

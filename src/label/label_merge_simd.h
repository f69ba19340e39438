#ifndef PSPC_SRC_LABEL_LABEL_MERGE_SIMD_H_
#define PSPC_SRC_LABEL_LABEL_MERGE_SIMD_H_

#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/label/label_entry.h"
#include "src/label/label_merge.h"
#include "src/label/packed_label.h"

/// The merge kernel's name for result records, and the adapter that
/// merges packed label blocks.
///
/// Queries merge raw `LabelEntry` spans with `MergeLabelCountsBranchFree`
/// (label_merge.h), the one kernel on every host. Packed blocks
/// (packed_label.h) are an at-rest encoding, measured by perfbench and
/// `bench_serving`; a merge over one decodes it first.
namespace pspc {

enum class MergeKernel : int { kBranchFree = 0 };

inline const char* MergeKernelName(MergeKernel) { return "branch_free"; }

/// The kernel production queries run; recorded next to bench results.
inline MergeKernel ActiveMergeKernel() { return MergeKernel::kBranchFree; }

/// One side of a merge: a raw span or a packed block.
struct LabelSource {
  std::span<const LabelEntry> raw;
  PackedBlockView packed;  // wins over `raw` when valid

  static LabelSource Raw(std::span<const LabelEntry> s) { return {s, {}}; }
  static LabelSource Packed(PackedBlockView v) { return {{}, v}; }

  /// The entries as a raw span: `raw` itself, or a packed block decoded
  /// into `*scratch`.
  std::span<const LabelEntry> Entries(std::vector<LabelEntry>* scratch) const {
    if (!packed.valid()) return raw;
    scratch->clear();
    packed.DecodeAll(scratch);
    return {scratch->data(), scratch->size()};
  }
};

/// Decodes any packed side into a per-thread scratch buffer, then runs
/// the one kernel; bit-identical to `MergeLabelCounts` over the decoded
/// entries.
inline SpcResult MergeLabelSources(const LabelSource& a, const LabelSource& b) {
  thread_local std::vector<LabelEntry> scratch_a;
  thread_local std::vector<LabelEntry> scratch_b;
  return MergeLabelCountsBranchFree(a.Entries(&scratch_a),
                                    b.Entries(&scratch_b));
}

}  // namespace pspc

#endif  // PSPC_SRC_LABEL_LABEL_MERGE_SIMD_H_

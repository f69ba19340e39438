#ifndef PSPC_SRC_SERVE_RESULT_CACHE_H_
#define PSPC_SRC_SERVE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/common/types.h"

/// Sharded query-result cache, invalidated per published generation.
///
/// In symmetric mode keys are canonicalized (s, t) pairs — undirected
/// SPC is symmetric, so (t, s) hits the same entry. Directed engines
/// construct with `symmetric = false`, which keys on the ordered pair:
/// SPC(s -> t) and SPC(t -> s) are distinct answers and must never
/// alias. Each shard is independently locked and tagged
/// with the generation its entries were computed against; a lookup or
/// insert carrying a newer generation wholesale-drops the shard (the
/// graph changed, every cached answer is suspect), and an insert from
/// a worker still finishing an older generation's micro-batch is
/// discarded rather than poisoning the newer shard. Eviction is the
/// same wholesale drop when a shard fills — the workload this serves
/// (hot pairs re-queried between publishes) does not reward LRU
/// bookkeeping on the read path.
namespace pspc {

class ResultCache {
 public:
  /// `num_shards` is rounded up to a power of two. A zero
  /// `capacity_per_shard` disables the cache (every Lookup misses,
  /// every Insert drops). `symmetric` controls key canonicalization:
  /// true folds (s, t) and (t, s) together (undirected SPC), false
  /// keeps ordered pairs distinct (directed SPC).
  ResultCache(size_t num_shards, size_t capacity_per_shard,
              bool symmetric = true);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// True and fills `*out` on a hit at exactly `generation`.
  bool Lookup(uint64_t generation, VertexId s, VertexId t, SpcResult* out);

  /// Records `result` for (s, t) at `generation`.
  void Insert(uint64_t generation, VertexId s, VertexId t, SpcResult result);

  // relaxed: monotonic tallies; pollers tolerate trailing reads.
  uint64_t Hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t Misses() const { return misses_.load(std::memory_order_relaxed); }

  size_t NumShards() const { return num_shards_; }

 private:
  struct Shard {
    spc::Mutex mu{spc::LockRank::kResultCacheShard};
    uint64_t generation GUARDED_BY(mu) = 0;
    std::unordered_map<uint64_t, SpcResult> entries GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t key);
  uint64_t PairKey(VertexId s, VertexId t) const;

  const size_t num_shards_;  // power of two
  const size_t capacity_per_shard_;
  const bool symmetric_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace pspc

#endif  // PSPC_SRC_SERVE_RESULT_CACHE_H_

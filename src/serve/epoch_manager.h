#ifndef PSPC_SRC_SERVE_EPOCH_MANAGER_H_
#define PSPC_SRC_SERVE_EPOCH_MANAGER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

/// Epoch-based reclamation for the serving subsystem.
///
/// Readers *pin* the current epoch into a private slot before touching
/// a published pointer and clear the slot when done; the (single)
/// writer advances the global epoch each time it retires a pointer and
/// frees a retired pointer only once every active slot has moved past
/// its retire epoch. The invariant the reclaimer relies on: a reader
/// that still holds a pointer retired at epoch `e` pinned *before* the
/// swap that retired it, so its slot records an epoch `< e` — once
/// `min(active slots) >= e`, nobody can be reading the pointee.
///
/// Readers take no locks and never wait on the fast path: Enter is one
/// load plus a CAS on a free slot (first-fit from a per-thread hint,
/// so steady-state re-entry is a single CAS), Exit is one store. All
/// cross-thread operations are seq_cst — the slot-scan soundness
/// argument ("if the writer's scan saw the slot empty, the reader's
/// snapshot load happened after the writer's swap") needs a total
/// order, and the cost is irrelevant next to the micro-batch of
/// queries each pin amortizes over.
///
/// When every lock-free slot is simultaneously pinned (pins, not
/// threads — one thread holding many refs occupies many slots), Enter
/// falls back to mutex-guarded *overflow pins* instead of aborting:
/// each excess reader records its own entry epoch in an overflow
/// table, and the cached minimum over the table is what the reclaimer
/// sees. Tracking epochs per overflow reader (rather than one shared
/// pin) keeps reclamation live under sustained oversubscription — the
/// minimum advances as old overflow readers leave, even if the table
/// never empties. The seq_cst publication of that minimum gives the
/// writer's post-swap scan the same guarantee as a regular slot. The
/// overflow path serializes on its mutex, so it is a graceful-
/// degradation valve, not extra capacity; kMaxSlots is sized so real
/// workloads never reach it.
namespace pspc {

namespace obs {
class Counter;
class FlightRecorder;
}  // namespace obs

class EpochManager {
 public:
  /// Lock-free reader slots; pins beyond this go to the overflow
  /// table and get slot tokens >= kMaxSlots.
  static constexpr size_t kMaxSlots = 512;

  /// True iff `slot` (a token Enter returned) is an overflow pin.
  static constexpr bool IsOverflowSlot(size_t slot) {
    return slot >= kMaxSlots;
  }

  /// MinActiveEpoch() when no reader is pinned.
  static constexpr uint64_t kNoActiveReader = UINT64_MAX;

  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  uint64_t CurrentEpoch() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Pins the calling thread at the current epoch; returns the slot to
  /// pass to Exit. Never fails: with all kMaxSlots lock-free slots
  /// pinned it degrades to a mutex-guarded overflow pin (see above).
  size_t Enter() EXCLUDES(overflow_mu_);

  /// Releases a slot returned by Enter.
  void Exit(size_t slot) EXCLUDES(overflow_mu_);

  /// Writer-side: bumps the global epoch; returns the new value (the
  /// retire epoch for a pointer unpublished just before the bump).
  uint64_t AdvanceEpoch();

  /// Smallest epoch any pinned reader entered at, or kNoActiveReader.
  uint64_t MinActiveEpoch() const;

  /// Number of currently pinned slots (diagnostics / shutdown checks).
  size_t ActiveReaders() const;

  /// Counts overflow pins (the graceful-degradation valve firing) into
  /// `counter`; null disables. Call before readers start — the pointer
  /// itself is unsynchronized.
  void BindOverflowPinCounter(obs::Counter* counter) {
    overflow_pin_counter_ = counter;
  }

  /// Emits a flight-recorder event per overflow pin (slot-exhaustion
  /// forensics); null disables. Same wiring-time contract as
  /// BindOverflowPinCounter.
  void BindFlightRecorder(obs::FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

 private:
  // One cache line per slot so reader pins do not false-share.
  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};  // 0 = free, else pinned epoch
  };

  // Recomputes overflow_min_ from the table.
  void RefreshOverflowMin() REQUIRES(overflow_mu_);

  std::atomic<uint64_t> epoch_{1};
  std::array<Slot, kMaxSlots> slots_{};

  // Overflow pins: entry i of the table holds overflow reader
  // (kMaxSlots + i)'s entry epoch, 0 = free. `overflow_min_` caches
  // the minimum non-zero entry (0 = table empty) so MinActiveEpoch
  // can read it from the writer without the lock; the mutex
  // serializes table updates against that cache refresh.
  spc::Mutex overflow_mu_{spc::LockRank::kEpochOverflow};
  std::vector<uint64_t> overflow_epochs_ GUARDED_BY(overflow_mu_);
  // Atomics, not GUARDED_BY: mutated only under overflow_mu_ but read
  // lock-free by the writer (MinActiveEpoch / ActiveReaders).
  std::atomic<size_t> overflow_pins_{0};
  std::atomic<uint64_t> overflow_min_{0};
  obs::Counter* overflow_pin_counter_ = nullptr;  // set before readers
  obs::FlightRecorder* flight_recorder_ = nullptr;  // set before readers
};

}  // namespace pspc

#endif  // PSPC_SRC_SERVE_EPOCH_MANAGER_H_

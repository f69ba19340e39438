#ifndef PSPC_SRC_OBS_FLIGHT_RECORDER_H_
#define PSPC_SRC_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// Flight recorder: a lock-free bounded ring of structured control-
/// plane events (snapshot publishes, reclaims, rebuild start/end,
/// batch applies, health transitions, queue high-water marks). The
/// hot paths emit events with a handful of atomic stores; a
/// diagnostic reader (the `/flightrecorder` endpoint or the watchdog's
/// UNHEALTHY bundle dump) reconstructs the most recent `capacity`
/// events without ever blocking a writer.
///
/// Concurrency design — a per-slot seqlock. `Record` claims a slot by
/// one global `fetch_add` on the sequence counter, bumps the slot's
/// version to odd (write in progress), stores the payload with release
/// atomics, then publishes by storing the even version with release
/// order. A reader loads the version (acquire), copies the payload
/// with acquire loads, and re-loads the version: odd or changed means
/// the copy was torn and the slot is discarded. The orderings are all
/// on atomics, with no standalone fence, so ThreadSanitizer models the
/// whole protocol; all payload fields are themselves atomics, so
/// writer/reader overlap is a value race the protocol discards, never
/// a data race — the recorder is TSan-clean by construction. On x86
/// release stores and acquire loads are plain moves, as relaxed ones
/// are. A writer lapped by `capacity` newer events while
/// mid-write loses that slot to the newer event (last store wins);
/// with capacity in the hundreds and control-plane event rates this is
/// a non-event, and the reader-side discard keeps it safe regardless.
namespace pspc {
namespace obs {

/// What happened. Keep in sync with `FlightEventKindName` and the
/// per-kind argument names in flight_recorder.cc.
enum class FlightEventKind : uint32_t {
  kNone = 0,           ///< unwritten slot
  kPublish,            ///< generation, copied_vertices, retired_pending
  kReclaim,            ///< freed, remaining, micros
  kRebuildStart,       ///< generation, overlay_entries
  kRebuildEnd,         ///< generation, micros, base_entries
  kBatchApply,         ///< batch_id, submitted, applied, micros
  kHealthTransition,   ///< from_status, to_status, rule_id
  kQueueHighWater,     ///< depth, capacity
};

std::string_view FlightEventKindName(FlightEventKind kind);

/// One committed event, as reconstructed by a reader. `seq` is the
/// global emission order (gaps mean the ring wrapped past them or a
/// torn slot was discarded); `ns` is a TraceNowNs() stamp.
struct FlightEvent {
  uint64_t seq = 0;
  int64_t ns = 0;
  FlightEventKind kind = FlightEventKind::kNone;
  uint64_t args[4] = {0, 0, 0, 0};

  /// One-object JSON rendering with per-kind argument names.
  std::string ToJson() const;
};

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (min 8).
  explicit FlightRecorder(size_t capacity = 512);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder the instrumented subsystems default to
  /// (never destroyed — instrumented objects may outlive statics).
  static FlightRecorder& Global();

  /// Emits one event. Wait-free: one fetch_add plus a handful of
  /// release stores. Safe from any thread, including hot paths.
  void Record(FlightEventKind kind, uint64_t a0 = 0, uint64_t a1 = 0,
              uint64_t a2 = 0, uint64_t a3 = 0);

  /// Total events ever emitted (>= the ring capacity means the ring
  /// has wrapped and older events were overwritten).
  uint64_t EventsRecorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  size_t Capacity() const { return capacity_; }

  /// Point-in-time copy of the committed ring contents, oldest first
  /// by emission order. Torn slots (concurrent writer) are skipped.
  std::vector<FlightEvent> Events() const;

  /// {"capacity":N,"recorded":N,"events":[...]} — the bundle section.
  std::string ToJson() const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> version{0};  // odd = write in progress
    std::atomic<uint64_t> seq{0};
    std::atomic<int64_t> ns{0};
    std::atomic<uint32_t> kind{0};
    std::atomic<uint64_t> args[4];
  };

  const size_t capacity_;  // power of two
  std::atomic<uint64_t> next_seq_{0};
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace obs
}  // namespace pspc

#endif  // PSPC_SRC_OBS_FLIGHT_RECORDER_H_

#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <iterator>

#include "src/common/json_writer.h"
#include "src/obs/trace.h"

namespace pspc {
namespace obs {

namespace {

struct KindInfo {
  std::string_view name;
  std::string_view arg_names[4];
};

// Indexed by FlightEventKind. Unused trailing args render as nothing
// (empty name = stop).
constexpr KindInfo kKindInfo[] = {
    {"none", {}},
    {"publish", {"generation", "copied_vertices", "retired_pending", ""}},
    {"reclaim", {"freed", "remaining", "micros", ""}},
    {"rebuild_start", {"generation", "overlay_entries", "", ""}},
    {"rebuild_end", {"generation", "micros", "base_entries", ""}},
    {"batch_apply", {"batch_id", "submitted", "applied", "micros"}},
    {"health_transition", {"from_status", "to_status", "rule_id", ""}},
    {"queue_high_water", {"depth", "capacity", "", ""}},
};

const KindInfo& InfoFor(FlightEventKind kind) {
  const auto index = static_cast<size_t>(kind);
  if (index >= std::size(kKindInfo)) return kKindInfo[0];
  return kKindInfo[index];
}

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::string_view FlightEventKindName(FlightEventKind kind) {
  return InfoFor(kind).name;
}

std::string FlightEvent::ToJson() const {
  const KindInfo& info = InfoFor(kind);
  benchjson::Object object;
  object.Add("seq", seq);
  object.Add("ns", ns);
  object.Add("kind", std::string(info.name));
  for (size_t i = 0; i < 4; ++i) {
    if (info.arg_names[i].empty()) break;
    object.Add(std::string(info.arg_names[i]), args[i]);
  }
  return object.Serialize();
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(capacity)),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* const global = new FlightRecorder();
  return *global;
}

void FlightRecorder::Record(FlightEventKind kind, uint64_t a0, uint64_t a1,
                            uint64_t a2, uint64_t a3) {
  // relaxed: slot reservation only needs atomicity; the seqlock
  // version protocol below carries the ordering.
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & (capacity_ - 1)];
  // Seqlock write: odd version while the payload is in flux, even
  // version (release) to commit. The payload stores are release too: a
  // reader whose acquire load sees one of them also sees the odd
  // version stored before it, so its recheck fails.
  slot.version.fetch_add(1, std::memory_order_relaxed);
  slot.seq.store(seq, std::memory_order_release);
  slot.ns.store(TraceNowNs(), std::memory_order_release);
  slot.kind.store(static_cast<uint32_t>(kind), std::memory_order_release);
  slot.args[0].store(a0, std::memory_order_release);
  slot.args[1].store(a1, std::memory_order_release);
  slot.args[2].store(a2, std::memory_order_release);
  slot.args[3].store(a3, std::memory_order_release);
  slot.version.fetch_add(1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  std::vector<FlightEvent> events;
  events.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    for (int attempt = 0; attempt < 4; ++attempt) {
      const uint64_t before = slot.version.load(std::memory_order_acquire);
      if (before == 0 || (before & 1) != 0) break;  // unwritten / in flux
      // acquire: each payload load keeps the recheck below after it,
      // and pairs with the writer's release payload stores.
      FlightEvent event;
      event.seq = slot.seq.load(std::memory_order_acquire);
      event.ns = slot.ns.load(std::memory_order_acquire);
      event.kind = static_cast<FlightEventKind>(
          slot.kind.load(std::memory_order_acquire));
      for (size_t a = 0; a < 4; ++a) {
        event.args[a] = slot.args[a].load(std::memory_order_acquire);
      }
      // relaxed: the acquire payload loads above order the recheck; a
      // changed version means a torn copy.
      if (slot.version.load(std::memory_order_relaxed) != before) {
        continue;  // torn copy: the writer moved under us, retry
      }
      events.push_back(event);
      break;
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

std::string FlightRecorder::ToJson() const {
  benchjson::Object object;
  object.Add("capacity", static_cast<uint64_t>(capacity_));
  object.Add("recorded", EventsRecorded());
  benchjson::Array array;
  for (const FlightEvent& event : Events()) {
    array.AddRaw(event.ToJson());
  }
  object.AddRaw("events", array.Serialize());
  return object.Serialize();
}

}  // namespace obs
}  // namespace pspc

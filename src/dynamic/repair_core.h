#ifndef PSPC_SRC_DYNAMIC_REPAIR_CORE_H_
#define PSPC_SRC_DYNAMIC_REPAIR_CORE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/saturating.h"
#include "src/common/types.h"
#include "src/core/build_options.h"
#include "src/core/scheduler.h"
#include "src/dynamic/chunked_overlay.h"
#include "src/dynamic/dynamic_graph.h"
#include "src/label/label_entry.h"
#include "src/label/label_merge.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/order/vertex_order.h"

/// Direction-generic dynamic-repair kernels.
///
/// Every repair primitive of the dynamic layer — the resumed pruned
/// insertion BFS, deletion affected-region detection, the per-hub full
/// re-run with stale-entry erasure, the depth-capped count subtraction,
/// and the exact distance-change filter — is the same algorithm whether
/// the index is undirected (one label list per vertex, symmetric
/// adjacency) or directed (per-vertex out/in labels, dual adjacency).
/// What differs is only *which label side a hub writes* and *which way
/// the BFS expands*. The kernels here are therefore parameterized over
/// a **repair view** binding those choices: `RepairView<GraphT,
/// kForward>`, over the live graph and the label overlays of a
/// `DynamicIndex<GraphT>` (dynamic_spc_index.h). The forward view
/// covers hubs' *out-reach*: the BFS expands out-edges away from the
/// hub, entries land in the in-labels of reached vertices, and pruning
/// certificates read the hub's out-labels; the backward view is the
/// mirror image. Undirected, the in side is the out side and the in-
/// and out-neighbors are one adjacency, so the two views coincide.
///
/// A view must provide:
///
///   span<const LabelEntry> Labels(v)     // write side: entries a hub
///                                        // stores at v, walked for
///                                        // certificates and positions
///   span<const LabelEntry> HubLabels(v)  // hub side: distances from a
///                                        // hub to higher-ranked hubs
///   vector<LabelEntry>& Mutable(v)       // overlay COW list, write side
///   ForEachNeighbor(v, fn)               // expansion away from the hub
///   ForEachReverseNeighbor(v, fn)        // toward the hub (detection)
///   RankOf(v) / VertexAt(r) / VertexToRank()
///   NumVertices()
///   Query(s, t)   // view-oriented 2-hop query: s on the hub side
///                 // (merges HubLabels(s) with Labels(t))
///
/// The orientation invariant: for the forward view, `Query(s, t)` is
/// the real query `s -> t`; for the backward view it is `t -> s`
/// (undirected, both are the one symmetric query).
namespace pspc {

/// Configuration of the dynamic index (both edge directions).
struct DynamicOptions {
  /// Rebuild when `overlay entries / base entries` exceeds this
  /// (repair-only callers set it to 1e18 and drive Rebuild() or Fold()
  /// themselves).
  double rebuild_threshold = 0.25;
  /// Pipeline used for staleness rebuilds, on the current graph. The
  /// undirected index recomputes its order per these options; the
  /// directed one orders by `DirectedDegreeOrder` and reads only what
  /// `BuildDirectedPspcIndex` reads.
  BuildOptions rebuild_options;
  /// Threads for a deletion repair's stale-entry erasure sweep (<= 0:
  /// all cores). Every hub repair itself runs on the calling thread.
  int num_threads = 0;
  /// Registry receiving the `dynamic.*` metrics (counters mirrored
  /// from `Stats()`, stage-timing histograms, overlay gauges; a
  /// directed index sums both overlay sides). Null selects the
  /// process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Flight recorder receiving rebuild start/end events. Null selects
  /// the process-global one.
  obs::FlightRecorder* flight_recorder = nullptr;
};

struct DynamicStats {
  size_t insertions_applied = 0;
  size_t deletions_applied = 0;
  size_t resumed_bfs_runs = 0;   ///< insertion repair BFS launches
  size_t affected_hubs = 0;      ///< deletion hubs fully re-run
  size_t subtract_repairs = 0;   ///< deletion hubs repaired by subtraction
  size_t entries_inserted = 0;
  size_t entries_renewed = 0;
  size_t entries_erased = 0;
  size_t rebuilds = 0;
  size_t batches_applied = 0;    ///< ApplyBatch calls that validated
  size_t updates_coalesced = 0;  ///< batch updates dropped as no-ops
  double repair_seconds = 0.0;
  double rebuild_seconds = 0.0;
  /// Per-batch stage costs of the most recent public mutation
  /// (microseconds), stamped at the ApplyBatch / InsertEdge /
  /// DeleteEdge tails — the write-path trace reads them right after
  /// the call, on the same thread.
  double last_plan_us = 0.0;
  double last_repair_us = 0.0;

  /// Every per-hub repair launch, the unit `ApplyBatch` coalescing
  /// amortizes (bench_dynamic_updates reports the batched-vs-
  /// sequential difference as "hub runs saved").
  size_t TotalHubRuns() const {
    return resumed_bfs_runs + affected_hubs + subtract_repairs;
  }

  std::string ToString() const;
};

/// Reusable n-sized BFS scratch. Hub repairs run one at a time on the
/// writer thread, so one instance per index backs them all; each
/// repair resets what it set before it returns.
struct RepairScratch {
  std::vector<uint32_t> hub_dist;   // by rank; kInfSpcDistance = unset
  std::vector<uint32_t> bfs_dist;   // by vertex; kInfSpcDistance = unset
  std::vector<Count> bfs_count;     // by vertex
  std::vector<VertexId> bfs_touched;
  std::vector<VertexId> bfs_queue;
  std::vector<VertexId> frontier;       // insertion level-sync BFS
  std::vector<VertexId> next_frontier;
  std::vector<uint8_t> updated;     // by vertex; deletion repair marks
  std::vector<int8_t> region_flags;     // materialized task region
  std::vector<VertexId> region_touched;

  void Init(VertexId n) {
    hub_dist.assign(n, kInfSpcDistance);
    bfs_dist.assign(n, kInfSpcDistance);
    bfs_count.assign(n, 0);
    updated.assign(n, 0);
    region_flags.assign(n, 0);
    bfs_touched.clear();
    bfs_queue.clear();
    frontier.clear();
    next_frontier.clear();
    region_touched.clear();
  }
};

/// A hub repair's write region: non-zero `flags[v]` marks membership,
/// `touched` enumerates it.
struct RegionView {
  const int8_t* flags = nullptr;
  const std::vector<VertexId>* touched = nullptr;
};

/// One multi-source seed of an insertion repair BFS.
struct InsertSeed {
  VertexId start = 0;
  uint32_t dist = 0;
  Count count = 0;
};

// Deletion detection result for one side of a deleted edge. Flags hold
// 0 (untouched), 1 (full sender), 2 (subtractive sender) or -1
// (receiver); any non-zero value marks the affected region.
struct AffectedSide {
  std::vector<int8_t> flags;         // indexed by vertex id
  std::vector<Rank> full_ranks;      // hubs needing a full re-run
  std::vector<Rank> subtract_ranks;  // hubs repairable by subtraction
  std::vector<VertexId> touched;     // everything in the region
};

/// The repair view of the file comment, over a `DynamicIndex<GraphT>`'s
/// live graph and label overlays; `kForward = false` mirrors the
/// forward view.
template <class GraphT, bool kForward>
struct RepairView {
  const DynamicGraph<GraphT>* graph = nullptr;
  ChunkedOverlay* write_side = nullptr;  // forward: the in-overlay
  ChunkedOverlay* hub_side = nullptr;    // forward: the out-overlay
  const VertexOrder* order = nullptr;

  std::span<const LabelEntry> Labels(VertexId v) const {
    return write_side->Labels(v);
  }
  std::span<const LabelEntry> HubLabels(VertexId v) const {
    return hub_side->Labels(v);
  }
  std::vector<LabelEntry>& Mutable(VertexId v) const {
    return write_side->Mutable(v);
  }
  template <typename Fn>
  void ForEachNeighbor(VertexId v, Fn&& fn) const {
    if constexpr (kForward) {
      graph->ForEachOutNeighbor(v, fn);
    } else {
      graph->ForEachInNeighbor(v, fn);
    }
  }
  template <typename Fn>
  void ForEachReverseNeighbor(VertexId v, Fn&& fn) const {
    if constexpr (kForward) {
      graph->ForEachInNeighbor(v, fn);
    } else {
      graph->ForEachOutNeighbor(v, fn);
    }
  }
  Rank RankOf(VertexId v) const { return order->RankOf(v); }
  VertexId VertexAt(Rank r) const { return order->VertexAt(r); }
  const std::vector<Rank>& VertexToRank() const {
    return order->VertexToRank();
  }
  VertexId NumVertices() const { return graph->NumVertices(); }
  /// View-oriented query: `s` on the hub side. For the forward view
  /// this is the real query `s -> t` (Lout(s) x Lin(t)); the backward
  /// view answers `t -> s` through the same merge. It runs the
  /// reference merge, not `MergeLabelCountsBranchFree`: on the short
  /// labels repair queries, the branch-free kernel made updates slower.
  SpcResult Query(VertexId s, VertexId t) const {
    if (s == t) return {0, 1};
    return MergeLabelCounts(HubLabels(s), Labels(t));
  }
};

namespace repair {

inline Distance ToLabelDistance(uint32_t d) {
  PSPC_CHECK_MSG(d < kInfDistance, "distance " << d << " overflows Distance");
  return static_cast<Distance>(d);
}

// Scratch: loads `hub_dist[rank] = dist` for the hub's current labels
// on the hub side (view-direction distances from the hub to every hub
// it stores an entry for); ResetHubDist undoes exactly those writes.
template <class View>
void LoadHubDist(const View& view, VertexId hub, RepairScratch& s) {
  for (const LabelEntry& e : view.HubLabels(hub)) {
    s.hub_dist[e.hub_rank] = e.dist;
  }
}

template <class View>
void ResetHubDist(const View& view, VertexId hub, RepairScratch& s) {
  for (const LabelEntry& e : view.HubLabels(hub)) {
    s.hub_dist[e.hub_rank] = kInfSpcDistance;
  }
}

// ------------------------------------------------------------- insertion

/// Seeds the repair of a new edge `from -> to` (view orientation): each
/// hub recorded at `from` on the write side may start new trough paths
/// crossing the edge, seeded at `to` with the recorded distance + 1 and
/// trough count. Seeds must snapshot the *pre-repair* labels across
/// every new edge of an update (repairs only ever rewrite a hub's own
/// entries, so a later hub's seeds are never invalidated by an earlier
/// hub's run).
template <class View>
void GatherInsertSeeds(const View& view, VertexId from, VertexId to,
                       std::vector<std::pair<Rank, InsertSeed>>* seeds) {
  const Rank rt = view.RankOf(to);
  for (const LabelEntry& e : view.Labels(from)) {
    // New trough paths h .. from -> to ..: only possible if `to` may
    // appear below h in the order.
    if (e.hub_rank < rt) {
      seeds->push_back(
          {e.hub_rank, {to, static_cast<uint32_t>(e.dist) + 1, e.count}});
    }
  }
}

/// Ascending (rank, seed depth): the run order the resumed BFS needs.
inline void SortInsertSeeds(std::vector<std::pair<Rank, InsertSeed>>* seeds) {
  std::sort(seeds->begin(), seeds->end(),
            [](const auto& x, const auto& y) {
              return x.first != y.first ? x.first < y.first
                                        : x.second.dist < y.second.dist;
            });
}

/// One multi-source level-synchronous resumed pruned BFS for `hub_rank`
/// (the incremental scheme of dynamic hub labeling, adapted to counts):
/// seeds are injected when the wavefront reaches their depth, so a seed
/// made obsolete by a shorter route through another inserted edge
/// (discovered earlier) is dropped, and seeds tying the wavefront merge
/// counts. Each new shortest trough path crosses a unique *first*
/// inserted edge whose seed accounts for it, so no path is double
/// counted. Seeds must be sorted by depth.
template <class View>
void ResumedInsertBfs(const View& view, Rank hub_rank,
                      std::span<const InsertSeed> seeds, RepairScratch& s,
                      DynamicStats* stats) {
  if (seeds.empty()) return;
  const VertexId hub = view.VertexAt(hub_rank);
  LoadHubDist(view, hub, s);

  s.bfs_touched.clear();
  s.frontier.clear();
  size_t si = 0;  // seeds consumed so far (sorted by dist)
  auto inject = [&](uint32_t level) {
    for (; si < seeds.size() && seeds[si].dist == level; ++si) {
      const InsertSeed& seed = seeds[si];
      if (s.bfs_dist[seed.start] == kInfSpcDistance) {
        s.bfs_dist[seed.start] = level;
        s.bfs_count[seed.start] = seed.count;
        s.bfs_touched.push_back(seed.start);
        s.frontier.push_back(seed.start);
      } else if (s.bfs_dist[seed.start] == level) {
        s.bfs_count[seed.start] = SatAdd(s.bfs_count[seed.start], seed.count);
      }
      // else: discovered strictly shorter through another inserted
      // edge; the seed's paths are not shortest.
    }
  };
  uint32_t d = seeds.front().dist;
  inject(d);

  while (!s.frontier.empty() || si < seeds.size()) {
    if (s.frontier.empty()) {
      // Gap between seed depths with an exhausted wavefront.
      d = seeds[si].dist;
      inject(d);
      continue;
    }

    // Label phase: one walk over the write-side labels of `v` up to the
    // hub's rank gives the 2-hop distance certificate over hubs ranked
    // >= hub_rank (the hub's own old entry participates via
    // hub_dist[hub_rank] == 0), plus the position of the hub's entry if
    // present. Pruned vertices leave the frontier and do not expand.
    size_t keep = 0;
    for (const VertexId v : s.frontier) {
      const uint32_t dv = d;
      const auto lv = view.Labels(v);
      uint32_t certified = kInfSpcDistance;
      size_t pos = 0;
      bool has_hub = false;
      LabelEntry old_entry{};
      for (; pos < lv.size() && lv[pos].hub_rank <= hub_rank; ++pos) {
        const uint32_t hd = s.hub_dist[lv[pos].hub_rank];
        if (hd != kInfSpcDistance) {
          certified = std::min(certified, hd + lv[pos].dist);
        }
        if (lv[pos].hub_rank == hub_rank) {
          has_hub = true;
          old_entry = lv[pos];
          break;
        }
      }
      if (dv > certified) continue;  // covered strictly shorter: prune

      Count total = s.bfs_count[v];
      if (has_hub && old_entry.dist == dv) {
        total = SatAdd(total, old_entry.count);  // pre-existing troughs
      }
      if (has_hub) {
        if (old_entry.dist != dv || old_entry.count != total) {
          view.Mutable(v)[pos] = {hub_rank, ToLabelDistance(dv), total};
          ++stats->entries_renewed;
        }
      } else {
        std::vector<LabelEntry>& mv = view.Mutable(v);
        mv.insert(mv.begin() + static_cast<ptrdiff_t>(pos),
                  {hub_rank, ToLabelDistance(dv), total});
        ++stats->entries_inserted;
      }
      s.frontier[keep++] = v;
    }
    s.frontier.resize(keep);

    // Expansion phase into level d + 1.
    s.next_frontier.clear();
    for (const VertexId v : s.frontier) {
      view.ForEachNeighbor(v, [&](VertexId w) {
        if (view.RankOf(w) <= hub_rank) return;
        if (s.bfs_dist[w] == kInfSpcDistance) {
          s.bfs_dist[w] = d + 1;
          s.bfs_count[w] = s.bfs_count[v];
          s.next_frontier.push_back(w);
          s.bfs_touched.push_back(w);
        } else if (s.bfs_dist[w] == d + 1) {
          s.bfs_count[w] = SatAdd(s.bfs_count[w], s.bfs_count[v]);
        }
      });
    }
    s.frontier.swap(s.next_frontier);
    ++d;
    inject(d);
  }

  ++stats->resumed_bfs_runs;
  ResetHubDist(view, hub, s);
  for (const VertexId v : s.bfs_touched) {
    s.bfs_dist[v] = kInfSpcDistance;
    s.bfs_count[v] = 0;
  }
}

// -------------------------------------------------------------- deletion

/// View-oriented BFS distances *toward* `source`: `dist[x]` is the
/// distance from `x` to `source` in coverage direction (plain BFS over
/// reverse neighbors; symmetric when undirected).
template <class View>
std::vector<uint32_t> ViewBfsDistances(const View& view, VertexId source) {
  std::vector<uint32_t> dist(view.NumVertices(), kInfSpcDistance);
  std::vector<VertexId> queue;
  dist[source] = 0;
  queue.push_back(source);
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    view.ForEachReverseNeighbor(u, [&](VertexId w) {
      if (dist[w] == kInfSpcDistance) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    });
  }
  return dist;
}

/// Affected-region detection for the side of deleted edge
/// `from -> to` (view orientation) whose hubs cover *through* the
/// edge. Pruned partial BFS over the *pre-deletion* graph, expanding
/// toward `from` over reverse neighbors: a vertex u is in the region
/// iff the doomed edge lies on one of its view-shortest paths to the
/// far endpoint — d(u, from) + 1 == d(u, to), answered by the (still
/// exact) 2-hop index. Only region vertices expand, so the traversal
/// stays proportional to the blast radius.
///
/// `hub_near[r]` / `hub_far[r]` flag hubs holding a write-side entry at
/// `from` / `to` — the subtraction certificate needs both.
template <class View>
void DetectAffectedSide(const View& view, VertexId from, VertexId to,
                        const std::vector<uint8_t>& hub_near,
                        const std::vector<uint8_t>& hub_far,
                        AffectedSide* side) {
  const VertexId n = view.NumVertices();
  side->flags.assign(n, 0);
  side->full_ranks.clear();
  side->subtract_ranks.clear();
  side->touched.clear();

  std::vector<uint32_t> dist(n, kInfSpcDistance);
  std::vector<Count> count(n, 0);
  std::vector<VertexId> queue;
  dist[from] = 0;
  count[from] = 1;
  queue.push_back(from);
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    const SpcResult to_far = view.Query(u, to);
    if (dist[u] + 1 != to_far.distance) continue;

    // `count[u]` = shortest u-`from` paths, which is exactly the number
    // of shortest u-`to` paths crossing the edge. If *all* of them
    // cross (count matches), distances from u can grow, so u needs a
    // full hub re-run. A common hub of both endpoint labels that keeps
    // alternative routes can only lose trough counts — repairable by
    // subtraction. Everything else is a mere receiver. Saturated
    // counts cannot be compared (or subtracted), so they
    // conservatively promote to a full re-run.
    const Rank ru = view.RankOf(u);
    const bool saturated =
        count[u] == kSaturatedCount || to_far.count == kSaturatedCount;
    if (saturated || count[u] >= to_far.count) {
      side->flags[u] = 1;
      side->full_ranks.push_back(ru);
    } else if (hub_near[ru] != 0 && hub_far[ru] != 0) {
      side->flags[u] = 2;
      side->subtract_ranks.push_back(ru);
    } else {
      side->flags[u] = -1;
    }
    side->touched.push_back(u);

    view.ForEachReverseNeighbor(u, [&](VertexId w) {
      if (dist[w] == kInfSpcDistance) {
        dist[w] = dist[u] + 1;
        count[w] = count[u];
        queue.push_back(w);
      } else if (dist[w] == dist[u] + 1) {
        count[w] = SatAdd(count[w], count[u]);
      }
    });
  }
}

/// Validates subtraction seeds of one side's sender hubs against the
/// still-exact pre-deletion index; fills the rank-indexed seed arrays.
/// Seed validation must query the pre-deletion index: a stale entry of
/// the hub at its own endpoint means no trough path crosses the edge
/// at all.
template <class View>
void ValidateDeletionSeeds(const View& view,
                           const std::vector<Rank>& full_ranks,
                           const std::vector<Rank>& subtract_ranks,
                           std::span<const LabelEntry> near_labels,
                           VertexId near, VertexId far,
                           const std::vector<uint8_t>& hub_near,
                           const std::vector<uint8_t>& hub_far,
                           std::vector<uint8_t>* seed_ok,
                           std::vector<uint32_t>* seed_dist,
                           std::vector<Count>* seed_count,
                           std::vector<VertexId>* seed_far) {
  auto validate = [&](Rank r) {
    if (hub_near[r] == 0 || hub_far[r] == 0) return;
    const size_t pos = FindHubEntry(near_labels, r);
    if (pos == near_labels.size()) return;
    const LabelEntry& seed = near_labels[pos];
    if (view.Query(view.VertexAt(r), near).distance != seed.dist) return;
    (*seed_ok)[r] = 1;
    (*seed_dist)[r] = static_cast<uint32_t>(seed.dist) + 1;
    (*seed_count)[r] = seed.count;
    if (seed_far != nullptr) (*seed_far)[r] = far;
  };
  for (const Rank r : full_ranks) validate(r);
  for (const Rank r : subtract_ranks) validate(r);
}

/// Exact distance-change detection (post-deletion): hub u's distance
/// to opposite full sender x grew iff every old shortest route used
/// the edge, i.e. the through-edge length beat today's BFS distance.
/// Each BFS also runs a bottleneck-rank DP over its shortest-path
/// DAG: C(u) = the best (numerically largest) over shortest x-u paths
/// of the smallest rank on the path excluding u. A new trough entry
/// for the pair exists iff C(u) > rank(u) — some shortest path stays
/// entirely below u — which decides *exactly* whether a hub whose
/// distance grew without any pre-existing entry must re-run.
/// A hub must fully re-run iff some pair distance to an opposite full
/// sender x grew AND that pair matters: x still has a trough shortest
/// path below the hub (a new or renewed entry is due), or x holds an
/// entry for the hub — possibly a stale leftover of an earlier
/// insertion whose recorded distance the growth just reached, which
/// must be erased or renewed. Pairs that grew with neither leave
/// nothing to store, and a hub with only such pairs can still repair
/// its count-only pairs by subtraction.
template <class View>
void MarkDistanceChanges(const View& view,
                         const std::vector<Rank>& sender_ranks,
                         std::span<const uint32_t> sender_pre,
                         const std::vector<Rank>& opposite_full_ranks,
                         std::span<const uint32_t> opposite_pre,
                         std::vector<uint8_t>* needs_full) {
  if (sender_ranks.empty()) return;
  const VertexId n = view.NumVertices();
  const Rank min_sender =
      *std::min_element(sender_ranks.begin(), sender_ranks.end());
  std::vector<uint32_t> now(n), bottleneck(n);
  std::vector<VertexId> queue;
  const std::vector<Rank>& rank_of = view.VertexToRank();
  for (size_t xi = 0; xi < opposite_full_ranks.size(); ++xi) {
    const Rank rx = opposite_full_ranks[xi];
    if (rx <= min_sender) continue;  // no sender can hold an entry at x
    const VertexId x = view.VertexAt(rx);
    const uint32_t x_pre = opposite_pre[xi];
    if (x_pre == kInfSpcDistance) continue;
    now.assign(n, kInfSpcDistance);
    bottleneck.assign(n, 0);
    queue.clear();
    now[x] = 0;
    bottleneck[x] = kInfSpcDistance;  // empty prefix: no bottleneck yet
    queue.push_back(x);
    for (size_t head = 0; head < queue.size(); ++head) {
      const VertexId p = queue[head];
      const uint32_t via = std::min(bottleneck[p], uint32_t{rank_of[p]});
      view.ForEachReverseNeighbor(p, [&](VertexId w) {
        if (now[w] == kInfSpcDistance) {
          now[w] = now[p] + 1;
          bottleneck[w] = via;
          queue.push_back(w);
        } else if (now[w] == now[p] + 1) {
          bottleneck[w] = std::max(bottleneck[w], via);
        }
      });
    }
    const auto lx = view.Labels(x);
    for (size_t ui = 0; ui < sender_ranks.size(); ++ui) {
      const Rank r = sender_ranks[ui];
      if (r >= rx || (*needs_full)[r] != 0) continue;
      const VertexId u = view.VertexAt(r);
      if (sender_pre[ui] == kInfSpcDistance) continue;
      const uint64_t through = uint64_t{x_pre} + 1 + uint64_t{sender_pre[ui]};
      if (through < now[u]) {
        if ((now[u] != kInfSpcDistance && bottleneck[u] > r) ||
            FindHubEntry(lx, r) < lx.size()) {
          (*needs_full)[r] = 1;
        }
      }
    }
  }
}

/// Depth-capped count subtraction for a shared hub. Every trough path
/// this hub loses crosses the deleted edge once and continues into the
/// opposite region, so propagating the through-edge count from the far
/// endpoint (restricted below the hub, over the post-deletion graph —
/// the remainder of each lost path avoids the edge) visits only the
/// blast radius instead of the hub's whole coverage. No pruning
/// certificates are needed: a restricted path through a covered vertex
/// is provably longer than the entry distance it would have to match.
/// Returns false when saturation blocks subtraction — the caller
/// escalates to RepairHubAfterDeletion (which recomputes anything this
/// pass may already have written).
template <class View>
bool SubtractiveDeleteRepair(const View& view, Rank hub_rank, VertexId start,
                             uint32_t seed_dist, Count seed_count,
                             uint32_t depth_cap, RegionView region,
                             RepairScratch& s, DynamicStats* stats) {
  bool escalate = seed_count == kSaturatedCount;
  if (!escalate) {
    s.bfs_queue.clear();
    s.bfs_touched.clear();
    s.bfs_dist[start] = seed_dist;
    s.bfs_count[start] = seed_count;
    s.bfs_queue.push_back(start);
    s.bfs_touched.push_back(start);

    for (size_t head = 0; head < s.bfs_queue.size(); ++head) {
      const VertexId v = s.bfs_queue[head];
      const uint32_t dv = s.bfs_dist[v];

      if (region.flags[v] != 0) {
        const auto lv = view.Labels(v);
        const size_t pos = FindHubEntry(lv, hub_rank);
        if (pos < lv.size() && lv[pos].dist == dv) {
          const LabelEntry old_entry = lv[pos];
          if (old_entry.count == kSaturatedCount ||
              s.bfs_count[v] >= old_entry.count) {
            // Saturation, or subtracting the last trough paths: the
            // entry must go, but `== 0` with surviving alternatives is
            // the only provable case — anything else escalates.
            if (old_entry.count != kSaturatedCount &&
                s.bfs_count[v] == old_entry.count) {
              std::vector<LabelEntry>& mv = view.Mutable(v);
              mv.erase(mv.begin() + static_cast<ptrdiff_t>(pos));
              ++stats->entries_erased;
            } else {
              escalate = true;
              break;
            }
          } else {
            view.Mutable(v)[pos] = {hub_rank, old_entry.dist,
                                    old_entry.count - s.bfs_count[v]};
            ++stats->entries_renewed;
          }
        }
      }

      if (dv < depth_cap) {
        view.ForEachNeighbor(v, [&](VertexId w) {
          if (view.RankOf(w) <= hub_rank) return;
          if (s.bfs_dist[w] == kInfSpcDistance) {
            s.bfs_dist[w] = dv + 1;
            s.bfs_count[w] = s.bfs_count[v];
            s.bfs_queue.push_back(w);
            s.bfs_touched.push_back(w);
          } else if (s.bfs_dist[w] == dv + 1) {
            s.bfs_count[w] = SatAdd(s.bfs_count[w], s.bfs_count[v]);
          }
        });
      }
    }

    for (const VertexId v : s.bfs_touched) {
      s.bfs_dist[v] = kInfSpcDistance;
      s.bfs_count[v] = 0;
    }
    if (!escalate) ++stats->subtract_repairs;
  }

  return !escalate;
}

/// Full pruned restricted BFS re-run of one hub over the post-deletion
/// graph — the same discipline as HP-SPC's per-hub iteration, except
/// that entries are only written at affected region vertices
/// (everything else is provably unchanged and is used for pruning and
/// count propagation only), followed by an erasure sweep: a region
/// vertex the re-run did not confirm has lost its trough paths to this
/// hub, so its entry (when present) is stale and must go.
/// `sweep_threads` bounds the erasure sweep's parallel-for.
template <class View>
void RepairHubAfterDeletion(const View& view, Rank hub_rank,
                            RegionView region, RepairScratch& s,
                            DynamicStats* stats, int sweep_threads) {
  const VertexId hub = view.VertexAt(hub_rank);
  LoadHubDist(view, hub, s);

  s.bfs_queue.clear();
  s.bfs_touched.clear();
  s.bfs_dist[hub] = 0;
  s.bfs_count[hub] = 1;
  s.bfs_queue.push_back(hub);
  s.bfs_touched.push_back(hub);

  for (size_t head = 0; head < s.bfs_queue.size(); ++head) {
    const VertexId v = s.bfs_queue[head];
    const uint32_t dv = s.bfs_dist[v];

    if (v != hub) {
      const auto lv = view.Labels(v);
      uint32_t over = kInfSpcDistance;  // certificate via strictly higher
      size_t pos = 0;
      bool has_hub = false;
      LabelEntry old_entry{};
      for (; pos < lv.size() && lv[pos].hub_rank <= hub_rank; ++pos) {
        if (lv[pos].hub_rank == hub_rank) {
          has_hub = true;
          old_entry = lv[pos];
          break;
        }
        const uint32_t hd = s.hub_dist[lv[pos].hub_rank];
        if (hd != kInfSpcDistance) {
          over = std::min(over, hd + lv[pos].dist);
        }
      }

      if (region.flags[v] == 0) {
        // Unaffected pair: the existing entry (if any) is still exact,
        // so the full certificate may include it.
        uint32_t certified = over;
        if (has_hub) {
          certified = std::min(certified,
                               static_cast<uint32_t>(old_entry.dist));
        }
        if (certified < dv) continue;
      } else {
        // Affected pair: the old entry cannot be trusted; prune only
        // via strictly higher hubs, then renew/insert.
        if (dv > over) continue;
        if (!has_hub) {
          std::vector<LabelEntry>& mv = view.Mutable(v);
          mv.insert(mv.begin() + static_cast<ptrdiff_t>(pos),
                    {hub_rank, ToLabelDistance(dv), s.bfs_count[v]});
          ++stats->entries_inserted;
        } else if (old_entry.dist != dv || old_entry.count != s.bfs_count[v]) {
          view.Mutable(v)[pos] = {hub_rank, ToLabelDistance(dv),
                                  s.bfs_count[v]};
          ++stats->entries_renewed;
        }
        s.updated[v] = 1;
      }
    }

    view.ForEachNeighbor(v, [&](VertexId w) {
      if (view.RankOf(w) <= hub_rank) return;
      if (s.bfs_dist[w] == kInfSpcDistance) {
        s.bfs_dist[w] = dv + 1;
        s.bfs_count[w] = s.bfs_count[v];
        s.bfs_queue.push_back(w);
        s.bfs_touched.push_back(w);
      } else if (s.bfs_dist[w] == dv + 1) {
        s.bfs_count[w] = SatAdd(s.bfs_count[w], s.bfs_count[v]);
      }
    });
  }

  // Per-vertex erases are independent, so the sweep is planned
  // cost-aware (label sizes vary wildly) and runs through the shared
  // parallel-for.
  std::vector<VertexId> to_erase;
  for (const VertexId v : *region.touched) {
    if (view.RankOf(v) <= hub_rank || s.updated[v] != 0) continue;
    const auto lv = view.Labels(v);
    if (FindHubEntry(lv, hub_rank) < lv.size()) to_erase.push_back(v);
  }
  if (!to_erase.empty()) {
    std::vector<uint64_t> costs;
    costs.reserve(to_erase.size());
    for (const VertexId v : to_erase) {
      costs.push_back(view.Labels(v).size());
    }
    const SchedulePlan plan = PlanIteration(
        ScheduleKind::kCostAware, to_erase, costs, view.VertexToRank());
    // Copy-on-write materialization touches the overlay's shared spine
    // (root/page/chunk unsharing) and stays sequential; the erases
    // themselves hit disjoint private chunks.
    std::vector<std::vector<LabelEntry>*> lists;
    lists.reserve(plan.sequence.size());
    for (const VertexId v : plan.sequence) {
      lists.push_back(&view.Mutable(v));
    }
    // Capped by the OpenMP environment (OMP_NUM_THREADS): the TSan job
    // pins teams to one thread because libgomp is not instrumented,
    // and an explicit num_threads must not undo that.
    ParallelForDynamic(lists.size(), sweep_threads, plan.chunk,
                       [&](size_t i) {
                         std::vector<LabelEntry>& mv = *lists[i];
                         const size_t pos =
                             FindHubEntry({mv.data(), mv.size()}, hub_rank);
                         if (pos < mv.size()) {
                           mv.erase(mv.begin() + static_cast<ptrdiff_t>(pos));
                         }
                       });
    stats->entries_erased += lists.size();
  }
  ++stats->affected_hubs;

  ResetHubDist(view, hub, s);
  for (const VertexId v : s.bfs_touched) {
    s.bfs_dist[v] = kInfSpcDistance;
    s.bfs_count[v] = 0;
    s.updated[v] = 0;
  }
}

/// Shared state the deletion driver threads through the kernels.
struct RepairContext {
  RepairScratch* scratch = nullptr;
  DynamicStats* stats = nullptr;
  int sweep_threads = 1;
};

/// Single-edge deletion repair of the edge `a -> b`, generic over the
/// two side views: `va` covers hubs on the a side (their coverage
/// crosses the edge forward into the b region), `vb` the mirror image
/// — the index's forward and backward views (undirected, one view
/// twice). `remove_edge` must delete the edge from the live graph when
/// invoked (detection and seed validation run before it, repair
/// after).
///
/// Every changed pair of a sender hub falls in one of two classes,
/// each with a provable certificate that picks the cheapest repair:
///
///  * Count-only changes (trough counts drop, distances hold). The
///    lost trough path routes `h .. a -> b .. x` (view orientation),
///    and both of its edge-endpoint prefixes are restricted shortest —
///    so h must hold a *valid* entry in both endpoint labels on its
///    write side. Repairable by the subtractive pass, seeded from h's
///    entry at its own side's endpoint (a stale seed means no trough
///    path crosses at all).
///
///  * Distance changes (some pair distance grows; the only source of
///    brand-new entries). Both pair endpoints must then be full
///    senders, so a plain post-deletion BFS from each opposite-side
///    full sender detects every such hub exactly — those few re-run
///    the full pruned restricted BFS. When the opposite full-sender
///    set is too large to scan, the side falls back to re-running all
///    of its full senders.
template <class ViewA, class ViewB, class RemoveFn>
void RepairEdgeDeletionPair(const ViewA& va, const ViewB& vb, VertexId a,
                            VertexId b, const RepairContext& ctx,
                            RemoveFn&& remove_edge) {
  const VertexId n = va.NumVertices();

  // Hub presence at the endpoints, per view and on its write side (the
  // in-label sides for `va`, the out-label sides for `vb`). Each side
  // keeps its own rank-indexed buffers, here and below: a directed
  // rank can sit on both sides of a cycle through the edge, while the
  // two undirected rank sets are disjoint.
  std::vector<uint8_t> hub_a_near(n, 0), hub_a_far(n, 0);
  std::vector<uint8_t> hub_b_near(n, 0), hub_b_far(n, 0);
  for (const LabelEntry& e : va.Labels(a)) hub_a_near[e.hub_rank] = 1;
  for (const LabelEntry& e : va.Labels(b)) hub_a_far[e.hub_rank] = 1;
  for (const LabelEntry& e : vb.Labels(b)) hub_b_near[e.hub_rank] = 1;
  for (const LabelEntry& e : vb.Labels(a)) hub_b_far[e.hub_rank] = 1;

  // Detection runs against the pre-deletion graph and index. Undirected,
  // the two sides are disjoint (u cannot satisfy both distance
  // conditions); a directed vertex can sit on both sides (a cycle
  // through the edge), in which case it owes one task per side — they
  // write different label sides and never conflict.
  AffectedSide side_a, side_b;
  DetectAffectedSide(va, a, b, hub_a_near, hub_a_far, &side_a);
  DetectAffectedSide(vb, b, a, hub_b_near, hub_b_far, &side_b);

  struct HubTask {
    Rank rank;
    bool subtract;
    bool on_b_side;       // hub detected on the b side (repairs via vb)
    VertexId start;       // subtract: far endpoint the BFS seeds from
    uint32_t seed_dist;   // subtract: entry dist + 1 across the edge
    Count seed_count;     // subtract: through-edge trough count
  };
  std::vector<HubTask> tasks;
  tasks.reserve(side_a.full_ranks.size() + side_a.subtract_ranks.size() +
                side_b.full_ranks.size() + side_b.subtract_ranks.size());

  // Subtraction seeds: the through-edge trough counts of the endpoint
  // labels, read before any repair of this update writes them.
  std::vector<uint8_t> seed_ok_a(n, 0), seed_ok_b(n, 0);
  std::vector<uint32_t> seed_dist_a(n, 0), seed_dist_b(n, 0);
  std::vector<Count> seed_count_a(n, 0), seed_count_b(n, 0);
  ValidateDeletionSeeds(va, side_a.full_ranks, side_a.subtract_ranks,
                        va.Labels(a), a, b, hub_a_near, hub_a_far,
                        &seed_ok_a, &seed_dist_a, &seed_count_a, nullptr);
  ValidateDeletionSeeds(vb, side_b.full_ranks, side_b.subtract_ranks,
                        vb.Labels(b), b, a, hub_b_near, hub_b_far,
                        &seed_ok_b, &seed_dist_b, &seed_count_b, nullptr);

  // The exact distance-change filter costs one plain BFS per opposite
  // full sender; past a few hundred the blanket re-run is cheaper.
  // Pre-deletion endpoint distances feed its through-edge formula and
  // must be captured while the edge still exists — but only when some
  // filtered side actually has full senders to test.
  constexpr size_t kDistanceFilterCap = 256;
  const bool filter_a = side_b.full_ranks.size() <= kDistanceFilterCap;
  const bool filter_b = side_a.full_ranks.size() <= kDistanceFilterCap;
  const bool need_pre_dists = (filter_a && !side_a.full_ranks.empty()) ||
                              (filter_b && !side_b.full_ranks.empty());
  const std::vector<uint32_t> pre_dist_a =
      need_pre_dists ? ViewBfsDistances(va, a) : std::vector<uint32_t>();
  const std::vector<uint32_t> pre_dist_b =
      need_pre_dists ? ViewBfsDistances(vb, b) : std::vector<uint32_t>();

  remove_edge();

  // The filter reads pre-deletion distances only at full senders;
  // extract them parallel to the rank lists (empty dense arrays mean
  // the corresponding call never fires, but guard anyway).
  auto extract_pre = [&](const std::vector<Rank>& ranks,
                         const std::vector<uint32_t>& dense,
                         const auto& view) {
    std::vector<uint32_t> pre;
    pre.reserve(ranks.size());
    for (const Rank r : ranks) {
      pre.push_back(dense.empty() ? kInfSpcDistance
                                  : dense[view.VertexAt(r)]);
    }
    return pre;
  };
  const std::vector<uint32_t> full_pre_a =
      extract_pre(side_a.full_ranks, pre_dist_a, va);
  const std::vector<uint32_t> full_pre_b =
      extract_pre(side_b.full_ranks, pre_dist_b, vb);

  std::vector<uint8_t> needs_full_a(n, 0), needs_full_b(n, 0);
  if (filter_a) {
    MarkDistanceChanges(va, side_a.full_ranks,
                        {full_pre_a.data(), full_pre_a.size()},
                        side_b.full_ranks,
                        {full_pre_b.data(), full_pre_b.size()},
                        &needs_full_a);
  }
  if (filter_b) {
    MarkDistanceChanges(vb, side_b.full_ranks,
                        {full_pre_b.data(), full_pre_b.size()},
                        side_a.full_ranks,
                        {full_pre_a.data(), full_pre_a.size()},
                        &needs_full_b);
  }

  auto assemble = [&](const AffectedSide& side, bool filtered, bool on_b,
                      VertexId far, const std::vector<uint8_t>& needs_full,
                      const std::vector<uint8_t>& seed_ok,
                      const std::vector<uint32_t>& seed_dist,
                      const std::vector<Count>& seed_count) {
    for (const Rank r : side.full_ranks) {
      if (!filtered || needs_full[r] != 0) {
        tasks.push_back({r, false, on_b, 0, 0, 0});
      } else if (seed_ok[r] != 0) {
        tasks.push_back({r, true, on_b, far, seed_dist[r], seed_count[r]});
      }
      // else: provably no pair of this hub changed in a way that needs
      // a re-run — no grown pair carries an entry or surviving trough,
      // and count-only pairs need a valid common seed.
    }
    for (const Rank r : side.subtract_ranks) {
      if (seed_ok[r] != 0) {
        tasks.push_back({r, true, on_b, far, seed_dist[r], seed_count[r]});
      }
    }
  };
  assemble(side_a, filter_a, false, b, needs_full_a, seed_ok_a, seed_dist_a,
           seed_count_a);
  assemble(side_b, filter_b, true, a, needs_full_b, seed_ok_b, seed_dist_b,
           seed_count_b);

  // One pass over the region's labels buckets, per subtractive hub, the
  // farthest entry it may have to fix; the subtraction BFS stops at
  // that depth, and hubs nobody stores an entry for are skipped
  // outright (they provably cannot gain entries). An a-side hub's
  // entries at b-side vertices live on `va`'s write side, and vice
  // versa.
  std::vector<uint8_t> sub_mask(n, 0);  // bit 0: a-side, bit 1: b-side
  std::vector<uint32_t> bucket_a(n, 0), bucket_b(n, 0);
  for (const HubTask& task : tasks) {
    if (task.subtract) {
      sub_mask[task.rank] |= task.on_b_side ? 2 : 1;
    }
  }
  for (const VertexId v : side_b.touched) {
    for (const LabelEntry& e : va.Labels(v)) {
      if ((sub_mask[e.hub_rank] & 1) != 0) {
        bucket_a[e.hub_rank] =
            std::max<uint32_t>(bucket_a[e.hub_rank], e.dist);
      }
    }
  }
  for (const VertexId v : side_a.touched) {
    for (const LabelEntry& e : vb.Labels(v)) {
      if ((sub_mask[e.hub_rank] & 2) != 0) {
        bucket_b[e.hub_rank] =
            std::max<uint32_t>(bucket_b[e.hub_rank], e.dist);
      }
    }
  }

  // Changed label pairs always straddle the cut, so a hub on the
  // a-side only rewrites entries at b-side vertices and vice versa.
  // Ascending global rank keeps pruning sound (a full re-run consults
  // higher-ranked labels — on both sides — which are already
  // repaired; same-rank cross-side tasks touch disjoint label sides).
  std::sort(tasks.begin(), tasks.end(),
            [](const HubTask& x, const HubTask& y) { return x.rank < y.rank; });
  RepairScratch& s = *ctx.scratch;
  auto run_task = [&](const auto& view, const HubTask& task,
                      const AffectedSide& opposite,
                      const std::vector<uint32_t>& bucket) {
    const RegionView region{opposite.flags.data(), &opposite.touched};
    if (!task.subtract) {
      RepairHubAfterDeletion(view, task.rank, region, s, ctx.stats,
                             ctx.sweep_threads);
    } else if (bucket[task.rank] >= task.seed_dist) {
      if (!SubtractiveDeleteRepair(view, task.rank, task.start,
                                   task.seed_dist, task.seed_count,
                                   bucket[task.rank], region, s, ctx.stats)) {
        RepairHubAfterDeletion(view, task.rank, region, s, ctx.stats,
                               ctx.sweep_threads);
      }
    }
  };
  for (const HubTask& task : tasks) {
    if (task.on_b_side) {
      run_task(vb, task, side_a, bucket_b);
    } else {
      run_task(va, task, side_b, bucket_a);
    }
  }
}

}  // namespace repair
}  // namespace pspc

#endif  // PSPC_SRC_DYNAMIC_REPAIR_CORE_H_

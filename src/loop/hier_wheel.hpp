// Hierarchical (cascading) timing wheel — the one timer wheel in the
// tree: EventLoop's reactor timers (heartbeat, anti-entropy, hint
// replay) and the registry's leases both hang on it. Level k has slots
// of width tick * slots^k; an entry lands in the finest level whose
// horizon covers it and *cascades* down one level at a time as its
// deadline approaches, so every entry is touched O(levels) times total
// and a collection costs O(elapsed ticks + cascaded + due), independent
// of how many timers are parked. 1M leases expire in O(expired) per tick.
//
// The payload is caller data: EventLoop stores a callback, the registry
// a doc id (so its collections stay allocation-light and it resolves
// payloads under its own lock).
//
// Determinism: collect_due() returns entries sorted by (deadline, id),
// so the sim harness replays byte-identical schedules. Periodic entries
// that fall behind yield one Due per missed period. A clock leap past a
// level's whole rotation degrades to one full sweep of that level
// instead of walking every elapsed tick.
//
// Not thread-safe: the owner serializes access (EventLoop under its
// mutex, XmlRegistry under its write lock). The `now` passed to
// collect_due() must never decrease; add() tolerates a stale `now`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "util/clock.hpp"

namespace h2::loop {

using TimerId = std::uint64_t;

/// Sentinel returned by next_deadline() when nothing is armed.
constexpr Nanos kNoDeadline = std::numeric_limits<Nanos>::max();

template <typename Payload>
class HierWheel {
 public:
  /// `tick` is the finest slot width; each of the `levels` wheels has
  /// `slots` slots and is `slots` times coarser than the one below. The
  /// defaults (1ms x 256 x 4 levels) cover ~50 days before the top level
  /// starts revisiting entries once per top-level rotation.
  explicit HierWheel(Nanos tick = kMillisecond, std::size_t slots = 256,
                     std::size_t levels = 4) {
    levels_.resize(levels > 0 ? levels : 1);
    Nanos width = tick > 0 ? tick : kMillisecond;
    for (Level& level : levels_) {
      level.buckets.resize(slots > 0 ? slots : 256);
      level.tick = width;
      // Saturate instead of overflowing: a saturated level's horizon is
      // "forever", which only makes placement coarser, never wrong.
      if (width > std::numeric_limits<Nanos>::max() /
                      static_cast<Nanos>(slot_count())) {
        width = std::numeric_limits<Nanos>::max();
      } else {
        width *= static_cast<Nanos>(slot_count());
      }
    }
  }

  /// Arms an entry `delay` from `now` (delay <= 0 is due at the next
  /// collection). `period` > 0 makes it periodic: each time it comes due
  /// it keeps its id and re-arms at deadline + period. Returns an id for
  /// cancel().
  TimerId add(Nanos now, Nanos delay, Payload payload, Nanos period = 0) {
    start(now);
    // A `now` behind the last collection must not land the entry in a
    // tick the cursor has passed (it would never be visited again):
    // clamp forward to the start of the current tick.
    Nanos deadline =
        std::max(saturating_add(now, std::max<Nanos>(delay, 0)),
                 static_cast<Nanos>(levels_[0].cursor) * levels_[0].tick);
    TimerId id = next_id_++;
    entries_.emplace(
        id, Entry{deadline, std::max<Nanos>(period, 0), std::move(payload)});
    deadlines_.insert(deadline);
    place(id, deadline);
    return id;
  }

  /// Disarms; false if unknown or already collected (a periodic entry
  /// stays cancellable while armed). The slot keeps a stale id that
  /// collections drop lazily, so cancel is O(log n).
  bool cancel(TimerId id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    deadlines_.erase(deadlines_.find(it->second.deadline));
    entries_.erase(it);
    return true;
  }

  /// An entry that came due. `payload` is a copy for periodic entries
  /// (the armed entry keeps its own) and the moved-out original for
  /// one-shots.
  struct Due {
    TimerId id;
    Nanos deadline;
    Payload payload;
  };

  /// Moves every entry with deadline <= now into `out`, sorted by
  /// (deadline, id); periodic entries are re-armed. Work is proportional
  /// to elapsed ticks + entries cascaded + entries due — far-future
  /// entries are never visited, and an empty wheel touches no bucket.
  std::size_t collect_due(Nanos now, std::vector<Due>& out) {
    start(now);
    // A coarse tick boundary is also a level-0 one: while level 0 stays
    // in its tick no cursor moves, and an empty wheel has nothing to do.
    const bool ticked = tick_of(0, now) > levels_[0].cursor;
    if (!ticked && entries_.empty()) return 0;
    // Advance every cursor first, then visit coarse levels before fine
    // ones: a cascade from level k places against fully-advanced finer
    // cursors, so it always lands in a bucket the finer level has not
    // passed — and that finer bucket is visited later in this same call,
    // refining it further if its slot has already arrived.
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      levels_[k].from = levels_[k].cursor;
      if (ticked) levels_[k].cursor = tick_of(k, now);
    }
    if (entries_.empty()) return 0;
    std::size_t before = out.size();
    for (std::size_t k = levels_.size(); k-- > 0;) visit_level(k, now, out);
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
              [](const Due& a, const Due& b) {
                return a.deadline != b.deadline ? a.deadline < b.deadline
                                                : a.id < b.id;
              });
    return out.size() - before;
  }

  /// Earliest armed deadline, or kNoDeadline.
  Nanos next_deadline() const {
    return deadlines_.empty() ? kNoDeadline : *deadlines_.begin();
  }

  std::size_t size() const { return entries_.size(); }
  /// Entries moved between levels so far (observability: a one-shot
  /// cascades at most levels-1 times over its lifetime).
  std::uint64_t cascades() const { return cascades_; }

 private:
  struct Entry {
    Nanos deadline;
    Nanos period;  ///< 0 = one-shot
    Payload payload;
  };

  struct Level {
    Nanos tick = 0;  ///< slot width at this level
    std::vector<std::vector<TimerId>> buckets;
    std::uint64_t cursor = 0;  ///< first tick index not yet fully collected
    std::uint64_t from = 0;    ///< cursor before the current collection
  };

  std::size_t slot_count() const { return levels_[0].buckets.size(); }

  std::uint64_t tick_of(std::size_t level, Nanos t) const {
    return static_cast<std::uint64_t>(t) /
           static_cast<std::uint64_t>(levels_[level].tick);
  }

  void start(Nanos now) {
    if (started_) return;
    started_ = true;
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      levels_[k].cursor = tick_of(k, now);
    }
  }

  /// Hangs `id` in the finest level whose horizon (measured from that
  /// level's cursor) covers the deadline. Every caller passes a deadline
  /// at or past level 0's cursor tick — add() clamps, and re-arms and
  /// cascades are later than `now` — so it is at or past every level's.
  void place(TimerId id, Nanos deadline) {
    for (std::size_t k = 0; k < levels_.size(); ++k) {
      std::uint64_t tick = tick_of(k, deadline);
      if (tick - levels_[k].cursor < slot_count() || k + 1 == levels_.size()) {
        levels_[k].buckets[tick % slot_count()].push_back(id);
        return;
      }
    }
  }

  /// Emits a due entry: a one-shot leaves the wheel; a periodic one
  /// yields one Due per period that elapsed by `now`, then re-arms.
  void fire(typename std::map<TimerId, Entry>::iterator it, Nanos now,
            std::vector<Due>& out) {
    Entry& entry = it->second;
    deadlines_.erase(deadlines_.find(entry.deadline));
    if (entry.period == 0) {
      out.push_back({it->first, entry.deadline, std::move(entry.payload)});
      entries_.erase(it);
      return;
    }
    do {
      out.push_back({it->first, entry.deadline, entry.payload});
      entry.deadline = saturating_add(entry.deadline, entry.period);
    } while (entry.deadline <= now);
    deadlines_.insert(entry.deadline);
    place(it->first, entry.deadline);
  }

  /// Visits one bucket of level k: due entries move to `out`, entries
  /// whose level tick arrived but whose deadline has not cascade to a
  /// finer level, future-rotation entries stay. A visited bucket's
  /// future-rotation entries are at least one rotation past the oldest
  /// tick this collection walks, so `deadline <= now` alone tells due
  /// entries apart.
  void visit_bucket(std::size_t k, std::size_t slot, Nanos now,
                    std::vector<Due>& out) {
    auto& bucket = levels_[k].buckets[slot];
    std::size_t keep = 0;
    // Indexed loop: place() from a re-arm or cascade may push into this
    // very bucket; such entries have deadlines past `now`.
    for (std::size_t r = 0; r < bucket.size(); ++r) {
      TimerId id = bucket[r];
      auto it = entries_.find(id);
      if (it == entries_.end()) continue;  // cancelled: drop the stale id
      if (it->second.deadline <= now) {
        fire(it, now, out);
        continue;
      }
      if (k > 0 && tick_of(k, it->second.deadline) == levels_[k].cursor) {
        // Deadline is inside the arrived coarse slot but still in the
        // future: refine into a lower level.
        ++cascades_;
        place(id, it->second.deadline);
        continue;
      }
      bucket[keep++] = id;  // future rotation of this slot
    }
    bucket.resize(keep);
  }

  /// Visits every level-k bucket whose tick elapsed since the last
  /// collection, the current tick included: it is collected but not
  /// passed, so a sub-tick deadline later in it fires from a later
  /// collection. A leap past a whole rotation visits each slot once.
  void visit_level(std::size_t k, Nanos now, std::vector<Due>& out) {
    const Level& level = levels_[k];
    const std::uint64_t ticks = std::min<std::uint64_t>(
        level.cursor - level.from + 1, slot_count());
    for (std::uint64_t i = 0; i < ticks; ++i) {
      visit_bucket(k, (level.from + i) % slot_count(), now, out);
    }
  }

  std::vector<Level> levels_;
  std::map<TimerId, Entry> entries_;
  std::multiset<Nanos> deadlines_;  ///< mirror for next_deadline()
  TimerId next_id_ = 1;
  std::uint64_t cascades_ = 0;
  bool started_ = false;
};

}  // namespace h2::loop

// Seeded model test for HierWheel: random add / periodic add / cancel /
// collect sequences run against a std::multimap reference, and every
// collection must yield exactly the reference's (id, deadline) sequence.
// Small wheels (4 slots, 2-3 levels) make every deadline cascade; clock
// leaps past whole rotations force full sweeps; adds with a `now` behind
// the last collection exercise the clamp to the cursor's tick.
#include "loop/hier_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace h2::loop {
namespace {

constexpr Nanos kTick = 1'000;
constexpr std::size_t kSlots = 4;

/// The wheel's contract without the wheel: armed entries keyed by
/// deadline, every entry with deadline <= now due, one Due per elapsed
/// period, and a stale add clamped to the start of the latest tick.
class Model {
 public:
  void add(TimerId id, Nanos now, Nanos delay, Nanos period) {
    if (!started_) advance(now);
    Nanos deadline = std::max(now + std::max<Nanos>(delay, 0), floor_);
    armed_.emplace(deadline, id);
    period_[id] = period;
  }

  bool cancel(TimerId id) {
    for (auto it = armed_.begin(); it != armed_.end(); ++it) {
      if (it->second == id) {
        armed_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::vector<std::pair<TimerId, Nanos>> collect(Nanos now) {
    advance(now);
    std::vector<std::pair<Nanos, TimerId>> due;
    while (!armed_.empty() && armed_.begin()->first <= now) {
      auto [deadline, id] = *armed_.begin();
      armed_.erase(armed_.begin());
      due.emplace_back(deadline, id);
      if (period_[id] > 0) armed_.emplace(deadline + period_[id], id);
    }
    std::sort(due.begin(), due.end());
    std::vector<std::pair<TimerId, Nanos>> out;
    for (auto [deadline, id] : due) out.emplace_back(id, deadline);
    return out;
  }

  Nanos next_deadline() const {
    return armed_.empty() ? kNoDeadline : armed_.begin()->first;
  }
  std::size_t size() const { return armed_.size(); }

 private:
  // The wheel's cursor: pinned by its first operation, then moved only
  // by collections.
  void advance(Nanos now) {
    floor_ = std::max(started_ ? floor_ : 0, now / kTick * kTick);
    started_ = true;
  }

  std::multimap<Nanos, TimerId> armed_;
  std::map<TimerId, Nanos> period_;
  Nanos floor_ = 0;
  bool started_ = false;
};

void run_seed(std::uint64_t seed, std::size_t levels) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", levels " +
               std::to_string(levels));
  Rng rng(seed);
  auto below = [&rng](Nanos n) {
    return static_cast<Nanos>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  HierWheel<std::uint64_t> wheel(kTick, kSlots, levels);
  Model model;
  Nanos rotation = kTick;  // the top level's full horizon
  for (std::size_t k = 0; k < levels; ++k) {
    rotation *= static_cast<Nanos>(kSlots);
  }

  Nanos now = below(3 * rotation);
  TimerId last_id = 0;
  for (int op = 0; op < 600; ++op) {
    std::uint64_t pick = rng.next_below(100);
    if (pick < 40) {
      // Delays from sub-tick to past the top level's horizon; some adds
      // carry a `now` behind the last collection.
      Nanos at = pick < 8 ? std::max<Nanos>(0, now - below(4 * kTick)) : now;
      Nanos delay = below(8) == 0 ? -below(kTick) : below(2 * rotation);
      Nanos period = pick % 4 == 0 ? kTick / 3 + below(rotation) : 0;
      TimerId id = wheel.add(at, delay, last_id + 1, period);
      ASSERT_EQ(id, last_id + 1);
      last_id = id;
      model.add(id, at, delay, period);
    } else if (pick < 50) {
      if (last_id == 0) continue;
      TimerId id = 1 + rng.next_below(last_id);
      ASSERT_EQ(wheel.cancel(id), model.cancel(id)) << "cancel " << id;
    } else {
      // Mostly short steps (sub-tick to a few ticks), sometimes a leap
      // past one or more whole rotations of the top level.
      now += pick < 95 ? below(3 * kTick) : rotation + below(3 * rotation);
      std::vector<HierWheel<std::uint64_t>::Due> got;
      wheel.collect_due(now, got);
      std::vector<std::pair<TimerId, Nanos>> seen;
      for (const auto& d : got) {
        ASSERT_EQ(d.payload, d.id);
        seen.emplace_back(d.id, d.deadline);
      }
      ASSERT_EQ(seen, model.collect(now)) << "collect at " << now;
    }
    ASSERT_EQ(wheel.next_deadline(), model.next_deadline()) << "op " << op;
    ASSERT_EQ(wheel.size(), model.size()) << "op " << op;
  }
}

TEST(HierWheelModel, MatchesReferenceOverSeededOperations) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (std::size_t levels : {2u, 3u}) {
      run_seed(seed, levels);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace h2::loop

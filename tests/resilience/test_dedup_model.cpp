// DedupCache against a reference model. The cache is a FIFO ring of
// reusable slots with a flat open-addressing index; the model is the
// obvious std::map + FIFO std::deque. A seeded random walk of stores,
// duplicate stores, lookups, replays and enable/disable toggles must
// agree with the model after every step, across capacities 1–9 and many
// ring wrap-arounds. Half the ids share the low 8 bits of their hash, so
// in every index the cache builds they land in one home bucket: long
// probe runs and backward-shift deletes across them are the common case,
// not a lucky one.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "resilience/dedup.hpp"

namespace h2::resil {
namespace {

using Bytes = std::vector<std::uint8_t>;

class ReferenceCache {
 public:
  explicit ReferenceCache(std::size_t capacity) : capacity_(capacity) {}

  const Bytes* lookup(const std::string& id) {
    if (!enabled_) return nullptr;
    auto it = replies_.find(id);
    if (it == replies_.end()) return nullptr;
    ++hits_;
    return &it->second;
  }

  void store(const std::string& id, const Bytes& reply) {
    if (!enabled_ || replies_.count(id) != 0) return;
    replies_.emplace(id, reply);
    order_.push_back(id);
    if (order_.size() > capacity_) {
      replies_.erase(order_.front());
      order_.pop_front();
    }
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  std::size_t size() const { return replies_.size(); }
  std::uint64_t hits() const { return hits_; }

 private:
  std::size_t capacity_;
  bool enabled_ = true;
  std::uint64_t hits_ = 0;
  std::map<std::string, Bytes> replies_;
  std::deque<std::string> order_;
};

/// `count` distinct ids whose std::hash agrees in the low 8 bits: they
/// share a home bucket in every index of up to 256 entries.
std::vector<std::string> colliding_ids(std::size_t count) {
  std::vector<std::string> out;
  const std::size_t target = std::hash<std::string_view>{}("x0") & 0xFF;
  for (std::uint64_t n = 0; out.size() < count; ++n) {
    std::string id = "x" + std::to_string(n);
    if ((std::hash<std::string_view>{}(id) & 0xFF) == target) out.push_back(std::move(id));
  }
  return out;
}

Bytes random_reply(std::mt19937_64& rng) {
  // Mostly small replies, sometimes large ones, so slot storage is both
  // reused and released.
  std::size_t length = rng() % 8 == 0 ? 300 + rng() % 2000 : rng() % 48;
  Bytes out(length);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(DedupModelTest, MatchesReferenceAcrossCapacitiesAndWrapArounds) {
  const std::vector<std::string> colliding = colliding_ids(64);
  for (std::size_t capacity = 1; capacity <= 9; ++capacity) {
    std::mt19937_64 rng(1000 + capacity);
    DedupCache cache(capacity);
    ReferenceCache model(capacity);
    std::vector<std::string> stored;  // every id stored so far, in order
    std::uint64_t fresh = 0;
    std::uint64_t wraps = 0;
    auto next_fresh_id = [&] {
      ++fresh;
      // Colliding ids come back long after they were evicted, so an id
      // is re-admitted into a slot other than the one it first had.
      return fresh % 2 == 0 ? colliding[(fresh / 2) % colliding.size()]
                            : "h2c-" + std::to_string(fresh);
    };
    auto recent_id = [&] {
      // Within about twice the capacity: a mix of hits and evicted ids.
      const std::size_t window = std::min(stored.size(), 2 * capacity + 1);
      return stored[stored.size() - 1 - rng() % window];
    };

    for (int op = 0; op < 100000; ++op) {
      const std::uint64_t dice = rng() % 100;
      if (dice < 40 || stored.empty()) {
        std::string id = next_fresh_id();
        Bytes reply = random_reply(rng);
        cache.store(Framing::kXdrFrame, id, reply);
        model.store(id, reply);
        stored.push_back(std::move(id));
        if (stored.size() % capacity == 0) ++wraps;
      } else if (dice < 55) {
        // A duplicate id keeps its first reply.
        std::string id = recent_id();
        Bytes reply = random_reply(rng);
        cache.store(Framing::kXdrFrame, id, reply);
        model.store(id, reply);
      } else if (dice < 80) {
        std::string id = recent_id();
        auto got = cache.lookup(Framing::kXdrFrame, id);
        const Bytes* want = model.lookup(id);
        ASSERT_EQ(got.has_value(), want != nullptr) << "capacity " << capacity << " op " << op;
        if (want != nullptr) {
          ASSERT_EQ(Bytes(got->bytes().begin(), got->bytes().end()), *want);
        }
      } else if (dice < 99) {
        std::string id = recent_id();
        Bytes got;
        const bool hit =
            cache.replay(Framing::kXdrFrame, id, [&](std::span<const std::uint8_t> bytes) {
              got.assign(bytes.begin(), bytes.end());
            });
        const Bytes* want = model.lookup(id);
        ASSERT_EQ(hit, want != nullptr) << "capacity " << capacity << " op " << op;
        if (want != nullptr) {
          ASSERT_EQ(got, *want);
        }
      } else {
        const bool enabled = rng() % 4 != 0;  // mostly re-enable
        cache.set_enabled(enabled);
        model.set_enabled(enabled);
      }
      ASSERT_EQ(cache.size(), model.size()) << "capacity " << capacity << " op " << op;
    }
    EXPECT_EQ(cache.hits(), model.hits());
    EXPECT_GT(model.hits(), 1000u);
    EXPECT_GT(wraps, 1000u) << "the ring must wrap many times";
  }
}

TEST(DedupModelTest, EmptyReplyAndEmptyIdEdgeCases) {
  DedupCache cache(2);
  cache.store(Framing::kXdrFrame, "a", std::span<const std::uint8_t>{});
  bool called = false;
  EXPECT_TRUE(
      cache.replay(Framing::kXdrFrame, "a", [&](std::span<const std::uint8_t> bytes) {
        called = true;
        EXPECT_TRUE(bytes.empty());
      }));
  EXPECT_TRUE(called);
  EXPECT_FALSE(
      cache.replay(Framing::kXdrFrame, "", [](std::span<const std::uint8_t>) { FAIL(); }));
  EXPECT_FALSE(cache.replay(Framing::kXdrFrame, "missing",
                            [](std::span<const std::uint8_t>) { FAIL(); }));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(DedupModelTest, HugeReplyStorageIsNotRetained) {
  DedupCache cache(4);
  const Bytes huge(1 << 20, 0xAB);
  cache.store(Framing::kXdrFrame, "huge", huge);
  EXPECT_GE(cache.retained_bytes(), huge.size());
  // Four tiny replies cycle the whole ring, one lands in the huge slot.
  const Bytes tiny(16, 0x01);
  for (int i = 0; i < 4; ++i) {
    cache.store(Framing::kXdrFrame, "tiny-" + std::to_string(i), tiny);
  }
  EXPECT_FALSE(cache.lookup(Framing::kXdrFrame, "huge").has_value());
  EXPECT_LE(cache.retained_bytes(), 4 * DedupCache::kRetainFloor);
}

TEST(DedupModelTest, RetainedBytesStayWithinTwiceTheCachedReplies) {
  DedupCache cache(8);
  std::mt19937_64 rng(7);
  std::deque<std::size_t> live;  // sizes of the cached replies, FIFO
  for (int i = 0; i < 5000; ++i) {
    // Sizes spread over 16 B .. 128 KiB, like mixed bulk traffic.
    const std::size_t scale = std::size_t{16} << (rng() % 13);
    const std::size_t size = scale + rng() % scale;
    cache.store(Framing::kXdrFrame, "r" + std::to_string(i), Bytes(size, 0x5A));
    live.push_back(size);
    if (live.size() > 8) live.pop_front();
  }
  std::size_t bound = 0;
  for (std::size_t size : live) bound += std::max(2 * size, DedupCache::kRetainFloor);
  EXPECT_LE(cache.retained_bytes(), bound);
}

}  // namespace
}  // namespace h2::resil

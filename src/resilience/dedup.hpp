// DedupCache — the server half of at-most-once execution. A retrying
// client cannot tell "request lost" from "reply lost"; for the latter the
// handler already ran, and blindly re-executing a non-idempotent op would
// double-apply its side effect. So the ResilientChannel stamps every
// logical call with an idempotency key (SOAP <h2:CallId> header / XDR
// H2RC frame field) and keeps the SAME key across retries of one call;
// the server caches the serialized reply bytes under that key and replays
// them verbatim for any duplicate arrival. The handler executes at most
// once per key; at-most-once composes with the client's retry loop into
// effectively-once for calls that eventually get a reply through.
//
// Header-only on purpose: h2_transport's serve_xdr/SoapHttpServer include
// this without taking a link dependency on h2_resilience.
//
// Eviction is FIFO with a fixed capacity — in the simulator call ids are
// monotonic serials so FIFO == oldest-call-first. The default capacity is
// deliberately modest: a duplicate can only arrive within one logical
// call's retry window (max_attempts bounded by the CallPolicy deadline),
// so a few hundred entries cover hundreds of concurrent logical calls,
// and keeping the resident set small keeps the per-call reply copy warm
// in cache instead of churning megabytes of cold heap. `set_enabled(false)`
// exists solely for the planted-bug scenario that proves the
// no-duplicate-side-effect invariant has teeth.
//
// Layout: a FIFO ring of reusable {framing, id, reply} slots plus a flat
// open-addressing index (linear probing, backward-shift delete) from
// (framing, call id) to slot. In steady state a store overwrites the
// oldest slot in place — its id string and reply storage are reused, so
// the serve path does no heap work — and replay() lends the cached bytes
// to the caller under the lock instead of copying them out. A slot keeps
// its reply storage only while that capacity is at most twice the new
// reply (or under kRetainFloor bytes), so one huge reply cannot pin its
// storage once tiny replies replace it. The ring grows lazily up to
// capacity: every Container owns a cache, and most never see a keyed
// call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/byte_buffer.hpp"

namespace h2::resil {

/// SOAP header carrying the idempotency key (non-mustUnderstand, like the
/// Trace header — servers that predate dedup simply ignore it).
inline constexpr std::string_view kCallIdHeaderName = "CallId";
inline constexpr std::string_view kCallIdHeaderNs = "http://harness2/resilience";

/// What a cached reply is. Each framing caches a differently shaped unit,
/// so entries are keyed by (framing, id): an id reused across bindings
/// executes once per framing and never replays another framing's bytes.
enum class Framing : std::uint8_t {
  kXdrFrame,      ///< an "H2RP" reply frame (xdr calls, batch sub-calls over xdr/http)
  kHttpReply,     ///< a whole raw-http response (http binding calls)
  kSoapReply,     ///< a whole SOAP-over-HTTP response (soap calls)
  kSoapFragment,  ///< one Body element of a SOAP batch response
};

/// Default reply-cache depth: sized to the retry horizon (see the file
/// comment), not to available memory.
inline constexpr std::size_t kDefaultDedupCapacity = 256;

class DedupCache {
 public:
  /// Reply storage below this many bytes is always reused, so small
  /// replies of varying size never churn the allocator.
  static constexpr std::size_t kRetainFloor = 256;

  explicit DedupCache(std::size_t capacity = kDefaultDedupCapacity,
                      obs::Counter* hits = nullptr)
      : capacity_(std::clamp<std::size_t>(capacity, 1, kMaxCapacity)), hits_(hits) {}

  DedupCache(const DedupCache&) = delete;
  DedupCache& operator=(const DedupCache&) = delete;

  /// If `call_id` already executed under `framing`, hands its cached
  /// reply to `sink` as a std::span<const std::uint8_t> and returns true;
  /// a hit means the caller must replay these bytes instead of
  /// dispatching. No copy: the span is valid only inside `sink`, which
  /// runs under the cache lock and must not call back into the cache.
  template <typename Sink>
  bool replay(Framing framing, std::string_view call_id, Sink&& sink) {
    if (call_id.empty()) return false;
    const std::size_t hash = hash_of(framing, call_id);
    std::lock_guard lock(mu_);
    if (!enabled_) return false;
    const std::uint32_t at = find(framing, call_id, hash);
    if (at == kEmpty) return false;
    ++hit_count_;
    if (hits_ != nullptr) hits_->add();
    const std::vector<std::uint8_t>& reply = slots_[at].reply;
    sink(std::span<const std::uint8_t>(reply.data(), reply.size()));
    return true;
  }

  /// Copying form of replay(): the cached reply for `call_id`, if any.
  std::optional<ByteBuffer> lookup(Framing framing, std::string_view call_id) {
    std::optional<ByteBuffer> out;
    replay(framing, call_id, [&](std::span<const std::uint8_t> bytes) {
      out.emplace(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    });
    return out;
  }

  /// Records the serialized reply for `call_id` after the handler ran,
  /// copying `reply` into the evicted slot's storage. A duplicate id keeps
  /// its first reply. Dispatch *faults* are cached too — the handler
  /// executed, and a retry must observe the same outcome, not a second
  /// execution.
  void store(Framing framing, std::string_view call_id,
             std::span<const std::uint8_t> reply) {
    if (call_id.empty()) return;
    const std::size_t hash = hash_of(framing, call_id);
    std::lock_guard lock(mu_);
    if (!enabled_) return;
    if (find(framing, call_id, hash) != kEmpty) return;
    std::uint32_t at;
    if (slots_.size() < capacity_) {
      at = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      at = oldest_;  // FIFO: overwrite the oldest call in place
      oldest_ = (oldest_ + 1) % static_cast<std::uint32_t>(capacity_);
      unindex(at);
    }
    Slot& slot = slots_[at];
    slot.id.assign(call_id);
    slot.framing = framing;
    slot.hash = hash;
    if (slot.reply.capacity() > std::max(2 * reply.size(), kRetainFloor)) {
      std::vector<std::uint8_t>().swap(slot.reply);  // drop oversized storage
    }
    slot.reply.assign(reply.begin(), reply.end());
    if (2 * slots_.size() > index_.size()) {
      rebuild_index();  // lazy growth, keeps the load factor <= 1/2
    } else {
      index_[probe_for_empty(hash)] = at;
    }
  }

  void set_enabled(bool enabled) {
    std::lock_guard lock(mu_);
    enabled_ = enabled;
  }
  bool enabled() const {
    std::lock_guard lock(mu_);
    return enabled_;
  }

  std::uint64_t hits() const {
    std::lock_guard lock(mu_);
    return hit_count_;
  }
  std::size_t size() const {
    std::lock_guard lock(mu_);
    return slots_.size();
  }
  /// Heap bytes held for cached replies (capacity, not size).
  std::size_t retained_bytes() const {
    std::lock_guard lock(mu_);
    std::size_t total = 0;
    for (const Slot& slot : slots_) total += slot.reply.capacity();
    return total;
  }

 private:
  struct Slot {
    std::string id;
    Framing framing = Framing::kXdrFrame;
    std::size_t hash = 0;
    std::vector<std::uint8_t> reply;
  };
  static constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 30;

  std::size_t mask() const { return index_.size() - 1; }

  static std::size_t hash_of(Framing framing, std::string_view call_id) {
    return std::hash<std::string_view>{}(call_id) ^
           static_cast<std::size_t>(framing) * 0x9e3779b97f4a7c15ULL;
  }

  /// Slot holding (`framing`, `call_id`), or kEmpty.
  std::uint32_t find(Framing framing, std::string_view call_id, std::size_t hash) const {
    if (index_.empty()) return kEmpty;
    for (std::size_t i = hash & mask();; i = (i + 1) & mask()) {
      const std::uint32_t at = index_[i];
      if (at == kEmpty) return kEmpty;
      const Slot& slot = slots_[at];
      if (slot.hash == hash && slot.framing == framing && slot.id == call_id) return at;
    }
  }

  std::size_t probe_for_empty(std::size_t hash) const {
    std::size_t i = hash & mask();
    while (index_[i] != kEmpty) i = (i + 1) & mask();
    return i;
  }

  /// Removes slot `at` from the index by backward-shift deletion: later
  /// entries of the probe run move into the hole when it lies on their
  /// probe path, so lookups never need tombstones.
  void unindex(std::uint32_t at) {
    std::size_t hole = slots_[at].hash & mask();
    while (index_[hole] != at) hole = (hole + 1) & mask();
    for (std::size_t i = (hole + 1) & mask(); index_[i] != kEmpty; i = (i + 1) & mask()) {
      const std::size_t home = slots_[index_[i]].hash & mask();
      if (((i - home) & mask()) >= ((i - hole) & mask())) {
        index_[hole] = index_[i];
        hole = i;
      }
    }
    index_[hole] = kEmpty;
  }

  void rebuild_index() {
    index_.assign(std::max<std::size_t>(8, index_.size() * 2), kEmpty);
    for (std::uint32_t at = 0; at < slots_.size(); ++at) {
      index_[probe_for_empty(slots_[at].hash)] = at;
    }
  }

  const std::size_t capacity_;
  obs::Counter* const hits_;  ///< optional global h2.resil.dedup_hits
  mutable std::mutex mu_;
  bool enabled_ = true;
  std::uint64_t hit_count_ = 0;
  std::vector<Slot> slots_;           ///< FIFO ring; grows lazily to capacity_
  std::uint32_t oldest_ = 0;          ///< next slot to overwrite once full
  std::vector<std::uint32_t> index_;  ///< power-of-two open-addressing table
};

}  // namespace h2::resil

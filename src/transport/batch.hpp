// BatchChannel — adaptive RPC batching over any net::Channel. Callers
// enqueue() calls and redeem Tickets; the channel packs pending calls into
// ONE invoke_batch() wire message, flushed explicitly or automatically
// when the batch fills (max_batch) or has lingered too long in virtual
// time (max_linger). This is the client half of the paper's localization
// argument applied to the wire: when N calls must traverse the full
// stub/encoder/socket/server chain anyway, traverse it once, not N times.
//
// Single-threaded by design: enqueue, flush and take must be called from
// one thread (over SockNet the wire I/O happens inside that thread's
// blocking call; the mux thread never touches the batch state).
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "transport/rpc.hpp"

namespace h2::net {

/// The idempotency key every stamping client attaches: "h2c-<serial>".
/// Serials come from one Transport::next_call_serial() stream, so ids are
/// unique across every channel of a network — a batch sub-call and a
/// singleton retry can never collide.
std::string stamp_call_id(std::uint64_t serial);

/// When a BatchChannel flushes on its own.
struct BatchPolicy {
  /// Auto-flush when this many calls are pending. 1 degenerates to
  /// unbatched pass-through; the channel clamps the value to
  /// [1, net::kMaxBatchCalls], the most calls a server takes in one frame.
  std::size_t max_batch = 16;
  /// Auto-flush an enqueue() arriving this long (virtual time) after the
  /// oldest pending call. 0 = flush only on size/explicit flush/take.
  Nanos max_linger = 0;
  /// Stamp each sub-call with a "h2c-<serial>" idempotency key at
  /// enqueue time, so a resilient inner channel re-sends the same ids.
  bool attach_call_ids = true;
};

class BatchChannel final : public Channel {
 public:
  /// Redeemable handle for one enqueued call. Valid until the result is
  /// taken; flushing invalidates nothing.
  struct Ticket {
    std::uint64_t serial = 0;
  };

  BatchChannel(std::unique_ptr<Channel> inner, Transport& net, BatchPolicy policy);

  /// Queues one call; may auto-flush (the max_batch'th call flushes the
  /// batch it completes; a call arriving max_linger after the oldest
  /// pending one flushes the stragglers first).
  Ticket enqueue(std::string operation, std::vector<Value> params);

  /// Sends every pending call as one batch. No-op when empty. Returns the
  /// transport status (per-call results are redeemed via take()).
  Status flush();

  /// Redeems a ticket, flushing first if its call is still pending.
  /// A ticket can be taken once; redeeming it again is kNotFound.
  Result<Value> take(Ticket ticket);

  std::size_t pending() const { return pending_.size(); }

  // Channel interface: invoke() preserves program order by flushing any
  // pending batch before the direct call goes out.
  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override;
  Status invoke_batch(std::span<const BatchItem> calls,
                      std::vector<Result<Value>>& results) override;
  const char* binding_name() const override { return inner_->binding_name(); }
  CallStats last_stats() const override { return inner_->last_stats(); }
  void set_call_id(std::string call_id) override { inner_->set_call_id(std::move(call_id)); }
  const Endpoint* remote() const override { return inner_->remote(); }

  const BatchPolicy& policy() const { return policy_; }
  /// Batches actually sent (auto + explicit), for tests/benches.
  std::uint64_t flushes() const { return flushes_; }

 private:
  struct Completed {
    std::uint64_t serial;
    Result<Value> result;
  };

  std::unique_ptr<Channel> inner_;
  Transport& net_;
  BatchPolicy policy_;
  std::vector<BatchItem> pending_;
  std::vector<std::uint64_t> pending_serials_;
  Nanos oldest_pending_ = 0;
  /// Flush order; callers usually redeem tickets in that order, and
  /// erasing the front of a deque is O(1), so an in-order drain is linear.
  std::deque<Completed> completed_;
  std::uint64_t flushes_ = 0;
};

std::unique_ptr<BatchChannel> make_batch_channel(std::unique_ptr<Channel> inner,
                                                 Transport& net,
                                                 BatchPolicy policy = {});

}  // namespace h2::net

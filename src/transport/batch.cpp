#include "transport/batch.hpp"

#include <algorithm>
#include <charconv>

namespace h2::net {

// Formatted without the std::to_string round trip: this runs on every
// stamped call, so the stamp should cost one SSO string at most.
std::string stamp_call_id(std::uint64_t serial) {
  char buf[24] = {'h', '2', 'c', '-'};
  auto [end, ec] = std::to_chars(buf + 4, buf + sizeof(buf), serial);
  (void)ec;  // 20 digits always fit
  return std::string(buf, end);
}

BatchChannel::BatchChannel(std::unique_ptr<Channel> inner, Transport& net,
                           BatchPolicy policy)
    : inner_(std::move(inner)), net_(net), policy_(policy) {
  policy_.max_batch = std::clamp<std::size_t>(policy_.max_batch, 1, kMaxBatchCalls);
}

BatchChannel::Ticket BatchChannel::enqueue(std::string operation,
                                           std::vector<Value> params) {
  // Linger check first: a late arrival must not extend the wait of calls
  // already queued past the policy bound.
  if (policy_.max_linger > 0 && !pending_.empty() &&
      net_.now() - oldest_pending_ >= policy_.max_linger) {
    (void)flush();
  }
  if (pending_.empty()) oldest_pending_ = net_.now();

  Ticket ticket{net_.next_call_serial()};
  BatchItem item;
  item.operation = std::move(operation);
  item.params = std::move(params);
  if (policy_.attach_call_ids) item.call_id = stamp_call_id(ticket.serial);
  pending_.push_back(std::move(item));
  pending_serials_.push_back(ticket.serial);

  if (pending_.size() >= policy_.max_batch) (void)flush();
  return ticket;
}

Status BatchChannel::flush() {
  if (pending_.empty()) return Status::success();
  ++flushes_;
  std::vector<Result<Value>> results;
  Status status = inner_->invoke_batch(pending_, results);
  // The Channel contract fills `results` on both outcomes; guard anyway so
  // a short reply from a misbehaving inner channel cannot lose tickets.
  const Error short_reply = err::internal("batch reply missing this sub-call");
  for (std::size_t i = 0; i < pending_serials_.size(); ++i) {
    completed_.push_back(
        {pending_serials_[i],
         i < results.size() ? std::move(results[i]) : Result<Value>(short_reply)});
  }
  pending_.clear();
  pending_serials_.clear();
  return status;
}

Result<Value> BatchChannel::take(Ticket ticket) {
  for (std::uint64_t serial : pending_serials_) {
    if (serial == ticket.serial) {
      (void)flush();
      break;
    }
  }
  // In-order redemption hits the front, where deque::erase is O(1).
  for (auto it = completed_.begin(); it != completed_.end(); ++it) {
    if (it->serial == ticket.serial) {
      Result<Value> result = std::move(it->result);
      completed_.erase(it);
      return result;
    }
  }
  return err::not_found("batch ticket " + std::to_string(ticket.serial) +
                        " unknown or already taken");
}

Result<Value> BatchChannel::invoke(std::string_view operation,
                                   std::span<const Value> params) {
  (void)flush();  // preserve program order: queued calls go out first
  return inner_->invoke(operation, params);
}

Status BatchChannel::invoke_batch(std::span<const BatchItem> calls,
                                  std::vector<Result<Value>>& results) {
  (void)flush();
  return inner_->invoke_batch(calls, results);
}

std::unique_ptr<BatchChannel> make_batch_channel(std::unique_ptr<Channel> inner,
                                                 Transport& net, BatchPolicy policy) {
  return std::make_unique<BatchChannel>(std::move(inner), net, policy);
}

}  // namespace h2::net

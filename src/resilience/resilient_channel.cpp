#include "resilience/resilient_channel.hpp"

#include <algorithm>

#include "transport/batch.hpp"

namespace h2::resil {

ResilientChannel::ResilientChannel(std::unique_ptr<net::Channel> inner,
                                   net::Transport& net, CallPolicy policy,
                                   CircuitBreaker* breaker, std::string endpoint_key)
    : inner_(std::move(inner)),
      net_(net),
      policy_(policy),
      breaker_(breaker),
      endpoint_key_(std::move(endpoint_key)),
      // One serial per channel keeps jitter streams distinct between
      // channels while staying a pure function of construction order.
      rng_(policy.jitter_seed ^ net.next_call_serial()),
      c_retries_(net.metrics().counter("h2.resil.retries")),
      c_deadline_(net.metrics().counter("h2.resil.deadline_exceeded")),
      c_fastfail_(net.metrics().counter("h2.resil.breaker_fastfail")) {}

void ResilientChannel::set_call_id(std::string id) {
  forced_call_id_ = std::move(id);
}

template <typename Attempt>
auto ResilientChannel::call_with_retries(std::string_view label, Attempt&& attempt)
    -> decltype(attempt()) {
  const Nanos start = net_.now();
  last_attempts_ = 0;
  bool maybe_exec = false;
  Error last_error = err::unavailable("no attempt made");
  for (int attempt_no = 1; attempt_no <= policy_.max_attempts; ++attempt_no) {
    if (policy_.deadline > 0 && net_.now() - start >= policy_.deadline) {
      c_deadline_.add();
      return Error(ErrorCode::kTimeout,
                   "deadline exceeded calling '" + std::string(label) + "' on " +
                       endpoint_key_ + " (" + last_error.message() + ")");
    }
    if (breaker_ != nullptr && !breaker_->allow(net_.now())) {
      c_fastfail_.add();
      last_error = err::unavailable("circuit open for " + endpoint_key_);
      // Fall through to backoff: advancing virtual time is what lets the
      // breaker's cooldown elapse and admit a half-open probe.
    } else {
      ++last_attempts_;
      if (last_attempts_ > 1) c_retries_.add();
      auto outcome = attempt();
      const Nanos after = net_.now();
      if (outcome.ok()) {
        if (breaker_ != nullptr) breaker_->record(true, after);
        return outcome;
      }
      const ErrorCode code = outcome.error().code();
      // Application-level answers (kNotFound, a SOAP fault, ...) mean the
      // host is healthy: success for the breaker, final for the caller.
      if (breaker_ != nullptr) breaker_->record(!transient(code), after);
      if (!transient(code)) return outcome;
      if (maybe_executed(code)) maybe_exec = true;
      last_error = outcome.error();
    }
    if (attempt_no < policy_.max_attempts) {
      net_.sleep_for(backoff_delay(policy_, attempt_no, rng_));
    }
  }

  if (maybe_exec) {
    // Some attempt may have reached the dispatcher; only a same-id retry
    // (not a failover) would be safe, and the budget is spent.
    return Error(ErrorCode::kTimeout,
                 "retries exhausted calling '" + std::string(label) + "' on " +
                     endpoint_key_ + "; a reply was lost (" + last_error.message() + ")");
  }
  return last_error.context("retries exhausted calling '" + std::string(label) +
                            "' on " + endpoint_key_);
}

Result<Value> ResilientChannel::invoke(std::string_view operation,
                                       std::span<const Value> params) {
  if (policy_.attach_call_id) {
    // Every retry of this logical call re-sends the SAME id — that is the
    // whole at-most-once contract with the server's DedupCache.
    inner_->set_call_id(forced_call_id_.empty()
                            ? net::stamp_call_id(net_.next_call_serial())
                            : forced_call_id_);
  }
  return call_with_retries(operation,
                           [&] { return inner_->invoke(operation, params); });
}

Status ResilientChannel::invoke_batch(std::span<const net::BatchItem> calls,
                                      std::vector<Result<Value>>& results) {
  if (calls.empty()) {
    results.clear();
    return Status::success();
  }

  // Sub-call ids make a re-sent batch dedup-safe; stamp any the caller
  // (usually a BatchChannel) left empty. One copy, reused by every attempt
  // so all re-sends carry the SAME ids.
  std::vector<net::BatchItem> stamped;
  std::span<const net::BatchItem> effective = calls;
  if (policy_.attach_call_id &&
      std::any_of(calls.begin(), calls.end(),
                  [](const net::BatchItem& item) { return item.call_id.empty(); })) {
    stamped.assign(calls.begin(), calls.end());
    for (net::BatchItem& item : stamped) {
      if (item.call_id.empty()) item.call_id = net::stamp_call_id(net_.next_call_serial());
    }
    effective = stamped;
  }

  const std::string label = "batch[" + std::to_string(calls.size()) + "]";
  Status status = call_with_retries(
      label, [&] { return inner_->invoke_batch(effective, results); });
  if (!status.ok()) results.assign(calls.size(), Result<Value>(status.error()));
  return status;
}

std::unique_ptr<net::Channel> make_resilient_channel(
    std::unique_ptr<net::Channel> inner, net::Transport& net, CallPolicy policy,
    CircuitBreaker* breaker, std::string endpoint_key) {
  return std::make_unique<ResilientChannel>(std::move(inner), net, policy, breaker,
                                            std::move(endpoint_key));
}

}  // namespace h2::resil

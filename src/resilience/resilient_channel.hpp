// ResilientChannel — the retry/deadline/breaker decorator over any
// net::Channel. One invoke() is a *logical call*: a loop of up to
// policy.max_attempts transport attempts against the same endpoint, all
// stamped with the same idempotency key so the server-side DedupCache
// makes re-sends safe even for non-idempotent operations.
//
// Retry rules (see policy.hpp for the classification):
//   - kUnavailable  → retry after backoff (request never executed)
//   - kTimeout      → retry after backoff (same call id ⇒ dedup-safe)
//   - anything else → application answer; returned immediately
// Between attempts the channel advances the owning network's VirtualClock
// by a jittered exponential backoff — retrying costs virtual time, which
// is what lets the deadline and breaker cooldown mechanics work at all in
// a simulated world.
//
// On exhaustion the error is classified for the caller above (the
// FailoverChannel): kTimeout if ANY attempt may have executed — failing
// over then could double-apply — else kUnavailable, meaning it is safe to
// try a different replica.
#pragma once

#include <memory>
#include <string>

#include "resilience/breaker.hpp"
#include "resilience/policy.hpp"
#include "transport/rpc.hpp"

namespace h2::resil {

class ResilientChannel final : public net::Channel {
 public:
  /// `breaker` may be null (no breaker protection); if non-null it must
  /// outlive the channel (registry-owned). `endpoint_key` names the
  /// target for error messages (typically the remote host name).
  ResilientChannel(std::unique_ptr<net::Channel> inner, net::Transport& net,
                   CallPolicy policy, CircuitBreaker* breaker,
                   std::string endpoint_key);

  Result<Value> invoke(std::string_view operation,
                       std::span<const Value> params) override;
  /// Same retry/deadline/breaker loop around ONE wire message for the
  /// whole batch. Sub-call ids left empty by the caller are stamped once
  /// so re-sent batches stay at-most-once per sub-call.
  Status invoke_batch(std::span<const net::BatchItem> calls,
                      std::vector<Result<Value>>& results) override;
  const char* binding_name() const override { return inner_->binding_name(); }
  net::CallStats last_stats() const override { return inner_->last_stats(); }
  void set_call_id(std::string id) override;
  const net::Endpoint* remote() const override { return inner_->remote(); }

  const CallPolicy& policy() const { return policy_; }
  int last_attempts() const { return last_attempts_; }

 private:
  /// The one deadline/breaker/retry/backoff loop behind invoke() and
  /// invoke_batch(). `attempt` makes one inner call and returns its
  /// Result<Value> or Status; the loop returns the first success or
  /// application answer, else the exhaustion error. `label` names the
  /// call in error messages ('op' or 'batch[N]').
  template <typename Attempt>
  auto call_with_retries(std::string_view label, Attempt&& attempt)
      -> decltype(attempt());

  std::unique_ptr<net::Channel> inner_;
  net::Transport& net_;
  CallPolicy policy_;
  CircuitBreaker* breaker_;
  std::string endpoint_key_;
  Rng rng_;  ///< jitter stream, isolated from the harness main PRNG
  int last_attempts_ = 0;
  std::string forced_call_id_;  ///< non-empty: caller-pinned idempotency key
  obs::Counter& c_retries_;
  obs::Counter& c_deadline_;
  obs::Counter& c_fastfail_;
};

/// Convenience factory mirroring the make_*_channel free functions.
std::unique_ptr<net::Channel> make_resilient_channel(
    std::unique_ptr<net::Channel> inner, net::Transport& net, CallPolicy policy,
    CircuitBreaker* breaker, std::string endpoint_key);

}  // namespace h2::resil

// The batch halves of the fault-tolerance stack, pinned next to their
// singleton twins: ResilientChannel::invoke_batch (deadline, breaker,
// retry exhaustion, lost replies, stamped sub-call ids) and
// FailoverChannel::invoke_batch (sticky-primary replica walk). Each
// exhaustion path is asserted with its exact message for the single call
// ('op') and the batch ('batch[N]'), and every failed batch must fill
// every result slot with the batch's error.
#include <gtest/gtest.h>

#include "container/container.hpp"
#include "dvm/dvm.hpp"
#include "plugins/standard.hpp"
#include "resilience/breaker.hpp"
#include "resilience/dedup.hpp"
#include "resilience/failover.hpp"
#include "resilience/policy.hpp"
#include "resilience/resilient_channel.hpp"
#include "transport/rpc.hpp"

namespace h2::resil {
namespace {

/// Asserts a failed batch: `status` carries `code` and `message`, and
/// every one of `size` result slots holds that same error.
void expect_batch_failed(const Status& status,
                         const std::vector<Result<Value>>& results, std::size_t size,
                         ErrorCode code, const std::string& message) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), code);
  EXPECT_EQ(status.error().message(), message);
  ASSERT_EQ(results.size(), size);
  for (const Result<Value>& slot : results) {
    ASSERT_FALSE(slot.ok());
    EXPECT_EQ(slot.error().code(), code);
    EXPECT_EQ(slot.error().message(), message);
  }
}

/// Stale slots a failed batch must overwrite (wrong count, all "ok").
std::vector<Result<Value>> stale_results() {
  return std::vector<Result<Value>>(5, Result<Value>(Value::of_void()));
}

// ---- ResilientChannel::invoke_batch ------------------------------------------

class ResilientBatchTest : public ::testing::Test {
 protected:
  static constexpr std::uint16_t kPort = 9100;

  void SetUp() override {
    client_ = *net_.add_host("client");
    server_ = *net_.add_host("server");
    mux_ = std::make_shared<net::DispatcherMux>();
    mux_->add("bump", [this](std::span<const Value>) -> Result<Value> {
      ++executions_;
      return Value::of_int(executions_, "return");
    });
    mux_->add("reject", [](std::span<const Value>) -> Result<Value> {
      return err::invalid_argument("bad request");
    });
    dedup_ = std::make_shared<DedupCache>(64);
    handle_.emplace(*net::serve_xdr(net_, server_, kPort, mux_, dedup_));
  }

  std::unique_ptr<ResilientChannel> make_channel(CallPolicy policy,
                                                 CircuitBreaker* breaker = nullptr,
                                                 std::string host = "server") {
    return std::make_unique<ResilientChannel>(
        net::make_xdr_channel(net_, client_, {"xdr", std::move(host), kPort, ""}), net_,
        policy, breaker, "server");
  }

  static std::vector<net::BatchItem> bumps(std::size_t count) {
    std::vector<net::BatchItem> items(count);
    for (net::BatchItem& item : items) item.operation = "bump";
    return items;
  }

  void drop_every_call() {
    net_.set_fault_hook([](const net::MessageInfo& info) {
      net::FaultDecision d;
      d.drop = info.is_call;
      return d;
    });
  }

  void lose_every_reply() {
    net_.set_fault_hook([](const net::MessageInfo& info) {
      net::FaultDecision d;
      d.drop_reply = info.is_call;
      return d;
    });
  }

  net::SimNetwork net_;
  net::HostId client_ = 0, server_ = 0;
  std::shared_ptr<net::DispatcherMux> mux_;
  std::shared_ptr<DedupCache> dedup_;
  std::optional<net::ServerHandle> handle_;
  int executions_ = 0;
};

TEST_F(ResilientBatchTest, DeadlineExceededIsTimeoutForSingleAndBatch) {
  drop_every_call();
  CallPolicy policy;
  policy.deadline = 3 * kMillisecond;
  policy.initial_backoff = 2 * kMillisecond;
  policy.jitter = 0.0;
  policy.max_attempts = 100;

  auto single = make_channel(policy)->invoke("bump", {});
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.error().code(), ErrorCode::kTimeout);
  EXPECT_EQ(single.error().message(),
            "deadline exceeded calling 'bump' on server (xdr call bump: simnet: "
            "request lost, client -> server:9100)");

  auto channel = make_channel(policy);
  auto results = stale_results();
  Status status = channel->invoke_batch(bumps(2), results);
  expect_batch_failed(status, results, 2, ErrorCode::kTimeout,
                      "deadline exceeded calling 'batch[2]' on server (xdr batch: "
                      "simnet: request lost, client -> server:9100)");
  // 0 ms and 2 ms attempts; the third would start at 6 ms, past the deadline.
  EXPECT_EQ(channel->last_attempts(), 2);
  EXPECT_EQ(executions_, 0);
  EXPECT_EQ(net_.metrics().counter_value("h2.resil.deadline_exceeded"), 2u);
}

TEST_F(ResilientBatchTest, OpenBreakerFailsFastForSingleAndBatch) {
  CircuitBreaker breaker(BreakerConfig{.window = 2, .min_calls = 2,
                                       .failure_threshold = 0.5,
                                       .cooldown = 500 * kMillisecond});
  breaker.record(false, net_.clock().now());
  breaker.record(false, net_.clock().now());
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  CallPolicy policy;
  policy.deadline = 0;
  policy.max_attempts = 2;

  auto single = make_channel(policy, &breaker)->invoke("bump", {});
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(single.error().message(),
            "retries exhausted calling 'bump' on server: circuit open for server");

  auto channel = make_channel(policy, &breaker);
  auto results = stale_results();
  Status status = channel->invoke_batch(bumps(3), results);
  expect_batch_failed(status, results, 3, ErrorCode::kUnavailable,
                      "retries exhausted calling 'batch[3]' on server: circuit open "
                      "for server");
  EXPECT_EQ(channel->last_attempts(), 0);  // nothing reached the wire
  EXPECT_EQ(executions_, 0);
  EXPECT_EQ(net_.stats().messages, 0u);
  EXPECT_EQ(net_.metrics().counter_value("h2.resil.breaker_fastfail"), 4u);
}

TEST_F(ResilientBatchTest, UnavailableExhaustionForSingleAndBatch) {
  drop_every_call();
  CallPolicy policy;
  policy.deadline = 0;
  policy.max_attempts = 3;

  auto single = make_channel(policy)->invoke("bump", {});
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(single.error().message(),
            "retries exhausted calling 'bump' on server: xdr call bump: simnet: "
            "request lost, client -> server:9100");

  auto channel = make_channel(policy);
  auto results = stale_results();
  Status status = channel->invoke_batch(bumps(2), results);
  expect_batch_failed(status, results, 2, ErrorCode::kUnavailable,
                      "retries exhausted calling 'batch[2]' on server: xdr batch: "
                      "simnet: request lost, client -> server:9100");
  EXPECT_EQ(channel->last_attempts(), 3);
  EXPECT_EQ(executions_, 0);
  EXPECT_EQ(net_.metrics().counter_value("h2.resil.retries"), 4u);
}

TEST_F(ResilientBatchTest, LostReplyExhaustionIsTimeoutAndExecutesOnce) {
  lose_every_reply();
  CallPolicy policy;
  policy.deadline = 0;
  policy.max_attempts = 3;

  auto single = make_channel(policy)->invoke("bump", {});
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.error().code(), ErrorCode::kTimeout);
  EXPECT_EQ(single.error().message(),
            "retries exhausted calling 'bump' on server; a reply was lost (xdr call "
            "bump: simnet: reply lost, server:9100 -> client)");
  ASSERT_EQ(executions_, 1);

  auto channel = make_channel(policy);
  auto results = stale_results();
  Status status = channel->invoke_batch(bumps(2), results);
  expect_batch_failed(status, results, 2, ErrorCode::kTimeout,
                      "retries exhausted calling 'batch[2]' on server; a reply was "
                      "lost (xdr batch: simnet: reply lost, server:9100 -> client)");
  EXPECT_EQ(channel->last_attempts(), 3);
  // Each sub-call ran once; the two re-sends were answered from the cache
  // (2 hits from the single call, 2 x 2 from the batch).
  EXPECT_EQ(executions_, 3);
  EXPECT_EQ(dedup_->hits(), 6u);
}

TEST_F(ResilientBatchTest, NonTransientErrorsPassStraightThrough) {
  CallPolicy policy;
  policy.deadline = 0;
  policy.max_attempts = 3;

  // A transport-level answer that retrying cannot fix: returned as is,
  // after one attempt, in every slot.
  auto nowhere = make_channel(policy, nullptr, "nowhere");
  auto single = nowhere->invoke("bump", {});
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(single.error().message(), "simnet: no host named 'nowhere'");
  EXPECT_EQ(nowhere->last_attempts(), 1);

  auto results = stale_results();
  Status status = nowhere->invoke_batch(bumps(2), results);
  expect_batch_failed(status, results, 2, ErrorCode::kNotFound,
                      "simnet: no host named 'nowhere'");
  EXPECT_EQ(nowhere->last_attempts(), 1);
  EXPECT_EQ(net_.metrics().counter_value("h2.resil.retries"), 0u);

  // An application error inside a batch is a per-slot verdict, not a
  // batch failure: the batch succeeds after one attempt.
  auto channel = make_channel(policy);
  std::vector<net::BatchItem> items = bumps(3);
  items[1].operation = "reject";
  ASSERT_TRUE(channel->invoke_batch(items, results).ok());
  EXPECT_EQ(channel->last_attempts(), 1);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(results[1].error().message(), "bad request");
  EXPECT_TRUE(results[2].ok());
}

TEST_F(ResilientBatchTest, HttpBadRequestIsNotRetried) {
  // A SOAP batch past the per-frame call limit draws HTTP 400: the request
  // itself is wrong, so the retry loop must stop after one envelope.
  net::SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.mount("svc", mux_).ok());
  ASSERT_TRUE(http.start().ok());
  CallPolicy policy;
  policy.deadline = 0;
  policy.max_attempts = 4;
  ResilientChannel channel(
      net::make_soap_channel(net_, client_, {"http", "server", 8080, "svc"}, "urn:test"),
      net_, policy, nullptr, "server");

  auto results = stale_results();
  Status status = channel.invoke_batch(bumps(net::kMaxBatchCalls + 1), results);
  expect_batch_failed(status, results, net::kMaxBatchCalls + 1,
                      ErrorCode::kInvalidArgument, "soap: http status 400 Bad Request");
  EXPECT_EQ(channel.last_attempts(), 1);
  EXPECT_EQ(net_.stats().calls, 1u);
  EXPECT_EQ(executions_, 0);
}

TEST_F(ResilientBatchTest, EmptyBatchSucceedsWithoutAnAttempt) {
  auto channel = make_channel(CallPolicy{});
  auto results = stale_results();
  ASSERT_TRUE(channel->invoke_batch({}, results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(net_.stats().messages, 0u);
}

/// Inner channel that records the sub-call ids of every batch attempt and
/// fails the first `failures` attempts with kTimeout (maybe executed).
class RecordingChannel final : public net::Channel {
 public:
  explicit RecordingChannel(int failures) : failures_(failures) {}

  Result<Value> invoke(std::string_view, std::span<const Value>) override {
    return Value::of_void();
  }
  Status invoke_batch(std::span<const net::BatchItem> calls,
                      std::vector<Result<Value>>& results) override {
    std::vector<std::string> ids;
    for (const net::BatchItem& item : calls) ids.push_back(item.call_id);
    attempts_.push_back(std::move(ids));
    if (failures_ > 0) {
      --failures_;
      Error lost(ErrorCode::kTimeout, "scripted reply loss");
      results.assign(calls.size(), Result<Value>(lost));
      return lost;
    }
    results.assign(calls.size(), Result<Value>(Value::of_int(1, "return")));
    return Status::success();
  }
  const char* binding_name() const override { return "recording"; }
  net::CallStats last_stats() const override { return {}; }

  const std::vector<std::vector<std::string>>& attempts() const { return attempts_; }

 private:
  int failures_;
  std::vector<std::vector<std::string>> attempts_;
};

TEST(ResilientBatchIds, StampedSubCallIdsAreIdenticalAcrossResends) {
  net::SimNetwork net;
  auto inner = std::make_unique<RecordingChannel>(/*failures=*/2);
  RecordingChannel* recorder = inner.get();
  CallPolicy policy;
  policy.deadline = 0;
  policy.max_attempts = 3;
  ResilientChannel channel(std::move(inner), net, policy, nullptr, "peer");

  std::vector<net::BatchItem> items(3);
  for (net::BatchItem& item : items) item.operation = "op";
  items[1].call_id = "caller-pinned";
  std::vector<Result<Value>> results;
  ASSERT_TRUE(channel.invoke_batch(items, results).ok());
  EXPECT_EQ(channel.last_attempts(), 3);

  const auto& attempts = recorder->attempts();
  ASSERT_EQ(attempts.size(), 3u);
  const std::vector<std::string>& first = attempts.front();
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].rfind("h2c-", 0), 0u) << first[0];
  EXPECT_EQ(first[1], "caller-pinned");  // caller ids are never replaced
  EXPECT_EQ(first[2].rfind("h2c-", 0), 0u) << first[2];
  EXPECT_NE(first[0], first[2]);
  for (const auto& resend : attempts) EXPECT_EQ(resend, first);
  // The caller's items are left untouched.
  EXPECT_TRUE(items[0].call_id.empty());
  EXPECT_TRUE(items[2].call_id.empty());
}

TEST(ResilientBatchIds, NoIdsWhenThePolicyAttachesNone) {
  net::SimNetwork net;
  auto inner = std::make_unique<RecordingChannel>(/*failures=*/0);
  RecordingChannel* recorder = inner.get();
  CallPolicy policy;
  policy.attach_call_id = false;
  ResilientChannel channel(std::move(inner), net, policy, nullptr, "peer");

  std::vector<net::BatchItem> items(2);
  std::vector<Result<Value>> results;
  ASSERT_TRUE(channel.invoke_batch(items, results).ok());
  ASSERT_EQ(recorder->attempts().size(), 1u);
  EXPECT_EQ(recorder->attempts()[0], (std::vector<std::string>{"", ""}));
}

// ---- FailoverChannel::invoke_batch -------------------------------------------

class FailoverBatchTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 3;

  void SetUp() override {
    ASSERT_TRUE(plugins::register_standard_plugins(repo_).ok());
    dvm_ = std::make_unique<dvm::Dvm>("dvm", dvm::make_full_synchrony());
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::string name = "n" + std::to_string(i);
      auto host = *net_.add_host(name);
      containers_.push_back(
          std::make_unique<container::Container>(name, repo_, net_, host));
      ASSERT_TRUE(dvm_->add_node(*containers_.back()).ok());
    }
    // Replicas on n1 and n2 only, so the caller on n0 always goes remote.
    container::DeployOptions options;
    options.expose_xdr = true;
    ASSERT_TRUE(dvm_->deploy("n1", "counter", options).ok());
    ASSERT_TRUE(dvm_->deploy("n2", "counter", options).ok());
    policy_.max_attempts = 2;
  }

  std::unique_ptr<FailoverChannel> make_channel() {
    return std::make_unique<FailoverChannel>(*dvm_, *containers_[0], "CounterService",
                                             policy_,
                                             std::vector{wsdl::BindingKind::kXdr});
  }

  static std::vector<net::BatchItem> adds(const std::string& prefix, std::size_t count) {
    std::vector<net::BatchItem> items(count);
    for (std::size_t i = 0; i < count; ++i) {
      items[i].operation = "add";
      items[i].params = {Value::of_string(prefix + std::to_string(i), "id"),
                         Value::of_int(1, "delta")};
    }
    return items;
  }

  void cut(const std::string& a, const std::string& b) {
    ASSERT_TRUE(net_.partition(*net_.resolve(a), *net_.resolve(b)).ok());
  }

  net::SimNetwork net_;
  kernel::PluginRepository repo_;
  std::vector<std::unique_ptr<container::Container>> containers_;
  std::unique_ptr<dvm::Dvm> dvm_;
  CallPolicy policy_;
};

TEST_F(FailoverBatchTest, BatchFailsOverToSurvivingReplicaAndAnnounces) {
  std::vector<std::string> events;
  auto subscription = containers_[0]->kernel().events().subscribe(
      "dvm/failover", [&](const Value& payload) {
        events.push_back(payload.as_string().ok() ? *payload.as_string() : "?");
      });

  auto channel = make_channel();
  std::vector<Result<Value>> results;
  ASSERT_TRUE(channel->invoke_batch(adds("a", 2), results).ok());
  EXPECT_EQ(channel->current_node(), "n1");  // membership order
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(*results[1]->as_int(), 2);

  ASSERT_TRUE(dvm_->crash_node("n1").ok());
  Status status = channel->invoke_batch(adds("b", 3), results);
  ASSERT_TRUE(status.ok()) << status.error().message();
  EXPECT_EQ(channel->current_node(), "n2");
  ASSERT_EQ(results.size(), 3u);
  // n2 saw none of the first batch: its counter starts from zero.
  EXPECT_EQ(*results[0]->as_int(), 1);
  EXPECT_EQ(*results[2]->as_int(), 3);
  EXPECT_EQ(net_.metrics().counter_value("h2.resil.failovers"), 1u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], "CounterService:n1->n2");

  // Sticky: the next batch stays on n2 without another announcement.
  ASSERT_TRUE(channel->invoke_batch(adds("c", 1), results).ok());
  EXPECT_EQ(channel->current_node(), "n2");
  EXPECT_EQ(events.size(), 1u);
}

TEST_F(FailoverBatchTest, AllReplicasDeadIsTimeoutInEverySlot) {
  auto channel = make_channel();
  std::vector<Result<Value>> results;
  ASSERT_TRUE(channel->invoke_batch(adds("a", 1), results).ok());
  ASSERT_TRUE(dvm_->crash_node("n1").ok());
  ASSERT_TRUE(dvm_->crash_node("n2").ok());

  const std::string expected =
      "no replica available for 'CounterService' (no replica of 'CounterService' "
      "in dvm dvm)";
  const Value params[] = {Value::of_string("single", "id"), Value::of_int(1, "delta")};
  auto single = make_channel()->invoke("add", params);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.error().code(), ErrorCode::kTimeout);
  EXPECT_EQ(single.error().message(), expected);

  results = stale_results();
  Status status = channel->invoke_batch(adds("b", 4), results);
  expect_batch_failed(status, results, 4, ErrorCode::kTimeout, expected);
  EXPECT_EQ(channel->current_node(), "");
}

TEST_F(FailoverBatchTest, EveryReplicaUnreachableIsTimeoutInEverySlot) {
  // Replicas alive but partitioned away: each candidate exhausts its
  // retries with kUnavailable, so the walk ends with the last one's error.
  cut("n0", "n1");
  cut("n0", "n2");
  const Value params[] = {Value::of_string("single", "id"), Value::of_int(1, "delta")};
  auto single = make_channel()->invoke("add", params);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.error().code(), ErrorCode::kTimeout);
  EXPECT_EQ(single.error().message(),
            "no replica available for 'CounterService' (retries exhausted calling "
            "'add' on n2: xdr call add: simnet: n0 cannot reach n2 (partitioned))");

  auto channel = make_channel();
  auto results = stale_results();
  Status status = channel->invoke_batch(adds("b", 2), results);
  expect_batch_failed(status, results, 2, ErrorCode::kTimeout,
                      "no replica available for 'CounterService' (retries exhausted "
                      "calling 'batch[2]' on n2: xdr batch: simnet: n0 cannot reach "
                      "n2 (partitioned))");
  EXPECT_EQ(channel->current_node(), "");
}

TEST_F(FailoverBatchTest, MaybeExecutedBatchIsNotFailedOver) {
  auto channel = make_channel();
  std::vector<Result<Value>> results;
  ASSERT_TRUE(channel->invoke_batch(adds("a", 1), results).ok());
  ASSERT_EQ(channel->current_node(), "n1");

  // Every reply from n1 is lost: the batch may have executed there, so it
  // must come back as kTimeout from n1 and never touch n2.
  const net::HostId n1 = *net_.resolve("n1");
  net_.set_fault_hook([n1](const net::MessageInfo& info) {
    net::FaultDecision d;
    d.drop_reply = info.is_call && info.to == n1;
    return d;
  });
  results = stale_results();
  Status status = channel->invoke_batch(adds("b", 2), results);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kTimeout);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& slot : results) {
    ASSERT_FALSE(slot.ok());
    EXPECT_EQ(slot.error().message(), status.error().message());
  }
  EXPECT_EQ(channel->current_node(), "n1");
  EXPECT_EQ(net_.metrics().counter_value("h2.resil.failovers"), 0u);
}

TEST_F(FailoverBatchTest, EmptyBatchSucceedsWithoutResolving) {
  auto channel = make_channel();
  auto results = stale_results();
  ASSERT_TRUE(channel->invoke_batch({}, results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(channel->current_node(), "");
}

}  // namespace
}  // namespace h2::resil

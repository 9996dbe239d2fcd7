// Adaptive RPC batching: the H2RB/H2RZ multi-call wire format, batch
// dispatch on the XDR and SOAP servers, BatchChannel flush semantics, and
// the at-most-once interplay between re-sent batch frames and the
// server-side DedupCache.
#include "transport/batch.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>

#include "resilience/dedup.hpp"
#include "soap/envelope.hpp"
#include "transport/http.hpp"
#include "transport/marshal.hpp"
#include "transport/rpc.hpp"
#include "util/buffer_pool.hpp"
#include "util/uuid.hpp"

namespace h2::net {
namespace {

std::vector<BatchItem> make_adds(std::size_t count, std::string_view id_prefix = {}) {
  std::vector<BatchItem> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    BatchItem item;
    item.operation = "add";
    item.params.push_back(Value::of_int(static_cast<std::int64_t>(i), "n"));
    if (!id_prefix.empty()) item.call_id = std::string(id_prefix) + std::to_string(i);
    items.push_back(std::move(item));
  }
  return items;
}

// ---- wire format ------------------------------------------------------------

TEST(BatchFrame, EmptyBatchRoundTrips) {
  ByteBuffer frame = marshal_batch_call({});
  EXPECT_TRUE(is_batch_call(frame.bytes()));
  auto views = split_batch_call(frame.bytes());
  ASSERT_TRUE(views.ok()) << views.error().describe();
  EXPECT_TRUE(views->empty());
}

TEST(BatchFrame, SingleCallRoundTrips) {
  auto items = make_adds(1, "id-");
  ByteBuffer frame = marshal_batch_call(items);
  auto views = split_batch_call(frame.bytes());
  ASSERT_TRUE(views.ok());
  ASSERT_EQ(views->size(), 1u);
  auto call = unmarshal_call((*views)[0]);
  ASSERT_TRUE(call.ok()) << call.error().describe();
  EXPECT_EQ(call->operation, "add");
  EXPECT_EQ(call->call_id, "id-0");
  ASSERT_EQ(call->params.size(), 1u);
  EXPECT_EQ(*call->params[0].as_int(), 0);
}

TEST(BatchFrame, LargeBatchRoundTripsAndSubFramesMatchSingletons) {
  auto items = make_adds(512);
  ByteBuffer frame = marshal_batch_call(items);
  auto views = split_batch_call(frame.bytes());
  ASSERT_TRUE(views.ok());
  ASSERT_EQ(views->size(), 512u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    // Each sub-frame is byte-identical to the singleton encoding — that
    // equivalence is what lets batch replies share the DedupCache.
    ByteBuffer solo = marshal_call(items[i].operation, items[i].params);
    ASSERT_EQ((*views)[i].size(), solo.size());
    EXPECT_EQ(0, std::memcmp((*views)[i].data(), solo.bytes().data(), solo.size()));
  }
}

TEST(BatchFrame, TruncatedFrameIsAParseError) {
  ByteBuffer frame = marshal_batch_call(make_adds(3));
  auto truncated = frame.bytes().first(frame.size() - 5);
  auto views = split_batch_call(truncated);
  ASSERT_FALSE(views.ok());
  EXPECT_EQ(views.error().code(), ErrorCode::kParseError);
}

TEST(BatchFrame, CorruptCountAndMagicRejected) {
  // Wrong magic: a singleton call frame is not a batch.
  ByteBuffer solo = marshal_call("noop", {});
  EXPECT_FALSE(is_batch_call(solo.bytes()));
  EXPECT_FALSE(split_batch_call(solo.bytes()).ok());

  // Absurd count (bit-flipped high byte) must be rejected before any
  // allocation is attempted.
  ByteBuffer frame = marshal_batch_call(make_adds(2));
  ByteBuffer evil;
  evil.write_bytes(frame.bytes());
  evil.patch_u32_be(4, 0xFFFFFFFF);
  auto views = split_batch_call(evil.bytes());
  ASSERT_FALSE(views.ok());
  EXPECT_NE(views.error().message().find("exceeds limit"), std::string::npos);

  // Trailing garbage after the last sub-frame.
  ByteBuffer trailing;
  trailing.write_bytes(frame.bytes());
  trailing.write_u32_be(0xDEADBEEF);
  EXPECT_FALSE(split_batch_call(trailing.bytes()).ok());
}

TEST(BatchFrame, ReplySplitterChecksItsOwnMagic) {
  ByteBuffer call_frame = marshal_batch_call(make_adds(1));
  EXPECT_FALSE(is_batch_reply(call_frame.bytes()));
  EXPECT_FALSE(split_batch_reply(call_frame.bytes()).ok());
}

// ---- end-to-end over the bindings -------------------------------------------

class BatchRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = *net_.add_host("client");
    server_ = *net_.add_host("server");
    service_ = std::make_shared<DispatcherMux>();
    service_->add("add", [this](std::span<const Value> params) -> Result<Value> {
      ++executions_;
      auto n = params.empty() ? Result<std::int64_t>(std::int64_t{0})
                              : params[0].as_int();
      if (!n.ok()) return n.error();
      total_ += *n;
      return Value::of_int(total_, "return");
    });
    service_->add("boom", [](std::span<const Value>) -> Result<Value> {
      return err::not_found("deliberate failure");
    });
  }

  SimNetwork net_;
  HostId client_ = 0, server_ = 0;
  std::shared_ptr<DispatcherMux> service_;
  int executions_ = 0;
  std::int64_t total_ = 0;
};

TEST_F(BatchRpcTest, XdrBatchExecutesInOrderWithPerCallResults) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));

  auto items = make_adds(4);
  items[2].operation = "boom";  // app error mid-batch must not stop the rest
  std::vector<Result<Value>> results;
  auto status = channel->invoke_batch(items, results);
  ASSERT_TRUE(status.ok()) << status.error().describe();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(*(*results[0]).as_int(), 0);
  EXPECT_EQ(*(*results[1]).as_int(), 1);
  EXPECT_EQ(results[2].error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(*(*results[3]).as_int(), 4);  // 0 + 1 + 3
  EXPECT_EQ(executions_, 3);

  // The whole batch was one network round trip.
  EXPECT_EQ(net_.stats().calls, 1u);
}

TEST_F(BatchRpcTest, XdrBatchIsOneMessageNotN) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));

  net_.reset_stats();
  std::vector<Result<Value>> results;
  ASSERT_TRUE(channel->invoke_batch(make_adds(64), results).ok());
  EXPECT_EQ(net_.stats().calls, 1u);
  ASSERT_EQ(results.size(), 64u);
  for (const auto& r : results) ASSERT_TRUE(r.ok());
}

TEST_F(BatchRpcTest, EmptyBatchSkipsTheWire) {
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));
  std::vector<Result<Value>> results{Result<Value>(Value::of_void())};
  ASSERT_TRUE(channel->invoke_batch({}, results).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(net_.stats().calls, 0u);
}

TEST_F(BatchRpcTest, DuplicatedBatchFrameReplaysFromDedupCache) {
  auto dedup = std::make_shared<resil::DedupCache>();
  auto handle = serve_xdr(net_, server_, 9001, service_, dedup);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));

  // The SimNetwork duplicate fault re-runs the handler with the same
  // frame — the dedup cache must absorb the second execution entirely.
  net_.set_fault_hook([](const MessageInfo&) {
    FaultDecision d;
    d.duplicates = 1;
    return d;
  });
  std::vector<Result<Value>> results;
  auto status = channel->invoke_batch(make_adds(8, "dup-"), results);
  net_.set_fault_hook(nullptr);
  ASSERT_TRUE(status.ok()) << status.error().describe();
  EXPECT_EQ(executions_, 8);  // not 16
  EXPECT_EQ(dedup->hits(), 8u);
  ASSERT_EQ(results.size(), 8u);
  for (const auto& r : results) ASSERT_TRUE(r.ok());
}

TEST_F(BatchRpcTest, ResentBatchGetsIdenticalCachedReplies) {
  auto dedup = std::make_shared<resil::DedupCache>();
  auto handle = serve_xdr(net_, server_, 9001, service_, dedup);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));

  auto items = make_adds(3, "retry-");
  std::vector<Result<Value>> first, second;
  ASSERT_TRUE(channel->invoke_batch(items, first).ok());
  ASSERT_TRUE(channel->invoke_batch(items, second).ok());
  EXPECT_EQ(executions_, 3);  // the re-send executed nothing
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(*(*second[i]).as_int(), *(*first[i]).as_int());
  }
}

TEST_F(BatchRpcTest, SoapBatchRoundTripsIncludingFaults) {
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());
  auto channel = make_soap_channel(net_, client_,
                                   *Endpoint::parse("http://server:8080/svc"),
                                   "urn:test");

  auto items = make_adds(3);
  items[1].operation = "boom";
  net_.reset_stats();
  std::vector<Result<Value>> results;
  auto status = channel->invoke_batch(items, results);
  ASSERT_TRUE(status.ok()) << status.error().describe();
  EXPECT_EQ(net_.stats().calls, 1u);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(*(*results[0]).as_int(), 0);
  // SOAP faults carry faultstring, not the original ErrorCode.
  ASSERT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error().message().find("deliberate failure"),
            std::string::npos);
  EXPECT_EQ(*(*results[2]).as_int(), 2);
  EXPECT_EQ(executions_, 2);
}

TEST_F(BatchRpcTest, SoapBatchDedupsPerSubCall) {
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());
  auto dedup = std::make_shared<resil::DedupCache>();
  http.set_dedup(dedup);
  auto channel = make_soap_channel(net_, client_,
                                   *Endpoint::parse("http://server:8080/svc"),
                                   "urn:test");

  auto items = make_adds(4, "soap-");
  std::vector<Result<Value>> first, second;
  ASSERT_TRUE(channel->invoke_batch(items, first).ok());
  ASSERT_TRUE(channel->invoke_batch(items, second).ok());
  EXPECT_EQ(executions_, 4);
  ASSERT_EQ(second.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(*(*second[i]).as_int(), *(*first[i]).as_int());
  }
}

/// Posts a SOAP batch envelope of `calls` "add" operations to the server
/// at server:8080/svc with the given BatchCount header value, and returns
/// the parsed HTTP response.
Result<http::Response> post_soap_batch(SimNetwork& net, HostId from,
                                       std::string_view batch_count,
                                       std::size_t calls) {
  std::vector<Value> params{Value::of_int(1, "n")};
  std::vector<soap::BatchCall> ops(calls, soap::BatchCall{"add", params});
  soap::HeaderEntry count;
  count.name = kBatchCountHeaderName;
  count.ns = kBatchHeaderNs;
  count.value = std::string(batch_count);
  http::Request request;
  request.target = "/svc";
  request.headers.set("Content-Type", "text/xml; charset=utf-8");
  request.headers.set("SOAPAction", "\"urn:test#batch\"");
  soap::build_batch_request_into(request.body, "urn:test", ops, {&count, 1});
  ByteBuffer wire = request.serialize("server");
  auto server = net.resolve("server");
  if (!server.ok()) return server.error();
  auto raw = net.call(from, *server, 8080, wire.bytes());
  if (!raw.ok()) return raw.error();
  return http::parse_response(raw->bytes());
}

TEST_F(BatchRpcTest, SoapBatchCountPastTheCallLimitIsRejected) {
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());

  // 2^64 + 1 wraps a size_t digit loop to 1, which would match the one
  // operation element; 4097 genuine calls exceed the XDR frame limit.
  for (auto [count, calls] : {std::pair<std::string_view, std::size_t>{
                                  "18446744073709551617", 1},
                              {"4097", kMaxBatchCalls + 1},
                              {"99999999999999999999999", 3}}) {
    SCOPED_TRACE(count);
    auto response = post_soap_batch(net_, client_, count, calls);
    ASSERT_TRUE(response.ok()) << response.error().describe();
    EXPECT_EQ(response->status, 400);
    auto fault = soap::parse_reply(response->body);
    ASSERT_TRUE(fault.ok()) << fault.error().describe();
    ASSERT_TRUE(fault->is_fault());
    EXPECT_EQ(fault->fault().code, "Client");
    EXPECT_EQ(fault->fault().message, "soap: bad BatchCount header");
  }
  EXPECT_EQ(executions_, 0);

  // At the limit the batch is still served.
  auto full = post_soap_batch(net_, client_, "4096", kMaxBatchCalls);
  ASSERT_TRUE(full.ok()) << full.error().describe();
  EXPECT_EQ(full->status, 200);
  EXPECT_EQ(executions_, static_cast<int>(kMaxBatchCalls));
}

TEST_F(BatchRpcTest, SoapSingletonRequestsStillServed) {
  // The batch-aware server must keep exact singleton behavior.
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());
  auto channel = make_soap_channel(net_, client_,
                                   *Endpoint::parse("http://server:8080/svc"),
                                   "urn:test");
  const Value params[] = {Value::of_int(41, "n")};
  auto r = channel->invoke("add", params);
  ASSERT_TRUE(r.ok()) << r.error().describe();
  EXPECT_EQ(*r->as_int(), 41);
  auto miss = channel->invoke("nope", {});
  ASSERT_FALSE(miss.ok());
  EXPECT_NE(miss.error().message().find("nope"), std::string::npos);
}

TEST_F(BatchRpcTest, DefaultChannelBatchLoopsOverInvoke) {
  auto channel = make_local_channel(*service_);
  std::vector<Result<Value>> results;
  ASSERT_TRUE(channel->invoke_batch(make_adds(5), results).ok());
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(executions_, 5);
  EXPECT_EQ(*(*results[4]).as_int(), 10);  // 0+1+2+3+4
}

// ---- BatchChannel -----------------------------------------------------------

TEST_F(BatchRpcTest, BatchChannelFlushesExplicitlyAndRedeemsTickets) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 16});

  std::vector<BatchChannel::Ticket> tickets;
  for (int i = 0; i < 5; ++i) {
    std::vector<Value> params{Value::of_int(i, "n")};
    tickets.push_back(batch->enqueue("add", std::move(params)));
  }
  EXPECT_EQ(batch->pending(), 5u);
  EXPECT_EQ(net_.stats().calls, 0u);  // nothing sent yet
  ASSERT_TRUE(batch->flush().ok());
  EXPECT_EQ(net_.stats().calls, 1u);
  EXPECT_EQ(batch->pending(), 0u);

  auto last = batch->take(tickets[4]);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last->as_int(), 10);
  // A ticket redeems exactly once.
  EXPECT_EQ(batch->take(tickets[4]).error().code(), ErrorCode::kNotFound);
}

TEST_F(BatchRpcTest, BatchChannelAutoFlushesAtMaxBatch) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 3});

  for (int i = 0; i < 3; ++i) {
    batch->enqueue("add", {Value::of_int(1, "n")});
  }
  // The third enqueue completed the batch and flushed it.
  EXPECT_EQ(batch->pending(), 0u);
  EXPECT_EQ(net_.stats().calls, 1u);
  EXPECT_EQ(batch->flushes(), 1u);
}

TEST_F(BatchRpcTest, MaxBatchAboveTheFrameLimitIsClamped) {
  // A policy past the server's per-frame call limit must not produce
  // frames the server refuses whole: the channel flushes at the limit.
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 5000});

  std::vector<BatchChannel::Ticket> tickets;
  for (int i = 0; i < 5000; ++i) tickets.push_back(batch->enqueue("add", {}));
  EXPECT_EQ(batch->flushes(), 1u);  // the 4096th call flushed
  EXPECT_EQ(batch->pending(), 5000 - kMaxBatchCalls);
  ASSERT_TRUE(batch->flush().ok());
  for (const BatchChannel::Ticket& ticket : tickets) {
    auto result = batch->take(ticket);
    ASSERT_TRUE(result.ok()) << result.error().describe();
  }
  EXPECT_EQ(executions_, 5000);
}

TEST_F(BatchRpcTest, BatchChannelLingerFlushInVirtualTime) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 100, .max_linger = kMillisecond});

  batch->enqueue("add", {Value::of_int(1, "n")});
  batch->enqueue("add", {Value::of_int(2, "n")});
  EXPECT_EQ(batch->pending(), 2u);
  net_.clock().advance(2 * kMillisecond);
  // The next enqueue notices the stragglers are past their linger bound,
  // flushes them, and starts a fresh batch with itself in it.
  batch->enqueue("add", {Value::of_int(3, "n")});
  EXPECT_EQ(batch->pending(), 1u);
  EXPECT_EQ(batch->flushes(), 1u);
}

TEST_F(BatchRpcTest, TakeOfPendingTicketForcesFlush) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 100});
  auto ticket = batch->enqueue("add", {Value::of_int(7, "n")});
  auto result = batch->take(ticket);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->as_int(), 7);
  EXPECT_EQ(batch->pending(), 0u);
}

TEST_F(BatchRpcTest, DirectInvokePreservesProgramOrder) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 100});
  auto ticket = batch->enqueue("add", {Value::of_int(1, "n")});
  // The direct call must observe the queued add: flush-then-invoke.
  const Value direct_params[] = {Value::of_int(10, "n")};
  auto direct = batch->invoke("add", direct_params);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*direct->as_int(), 11);
  ASSERT_TRUE(batch->take(ticket).ok());
}

TEST_F(BatchRpcTest, TransportErrorFillsEveryPendingResult) {
  // No server listening: the whole batch fails as a unit and every
  // ticket redeems to the same transport error.
  auto batch = make_batch_channel(
      make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")), net_,
      BatchPolicy{.max_batch = 100});
  auto t1 = batch->enqueue("add", {Value::of_int(1, "n")});
  auto t2 = batch->enqueue("add", {Value::of_int(2, "n")});
  EXPECT_FALSE(batch->flush().ok());
  EXPECT_EQ(batch->take(t1).error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(batch->take(t2).error().code(), ErrorCode::kUnavailable);
}

// ---- satellites -------------------------------------------------------------

TEST(ByteBufferPoolTest, RecyclesBuffersUpToBound) {
  ByteBufferPool pool(2);
  ByteBuffer a = pool.acquire();
  a.write_bytes(as_byte_span("payload"));
  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);
  ByteBuffer b = pool.acquire();
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(b.size(), 0u);  // recycled buffers come back empty

  pool.release(ByteBuffer{});
  pool.release(ByteBuffer{});
  pool.release(ByteBuffer{});  // over the bound: dropped, not pooled
  EXPECT_EQ(pool.pooled(), 2u);
}

TEST(UuidThreadingTest, ThreadLocalGeneratorsProduceDistinctIds) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 256;
  std::vector<std::vector<std::string>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&per_thread, t] {
      per_thread[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) per_thread[t].push_back(new_uuid());
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::string> all;
  for (const auto& ids : per_thread) all.insert(ids.begin(), ids.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace h2::net

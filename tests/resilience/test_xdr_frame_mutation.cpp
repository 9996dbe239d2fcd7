// Seeded mutation rounds of "H2RB" batch and "H2RC" resilient-call frames
// through serve_xdr with a DedupCache attached. Every byte a peer sends
// is untrusted: a truncated or bit-flipped frame must come back as a
// well-formed reply (a value or an in-band error for each sub-call), or
// as a clean transport error — never a crash, a hang or a malformed
// frame. "Well-formed" is checked strictly: decoding a reply frame and
// marshalling the outcome again must give the same bytes, which fails for
// any frame the decoder had to reject.
#include <gtest/gtest.h>

#include <optional>
#include <random>

#include "resilience/dedup.hpp"
#include "transport/marshal.hpp"
#include "transport/rpc.hpp"
#include "transport/simnet.hpp"

namespace h2::net {
namespace {

std::vector<std::uint8_t> to_vector(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

/// True when `frame` is a reply frame that decodes and re-encodes to
/// itself.
bool round_trips(std::span<const std::uint8_t> frame) {
  ByteBuffer again = marshal_reply(unmarshal_reply(frame));
  return to_vector(again.bytes()) == to_vector(frame);
}

class XdrFrameMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = *net_.add_host("client");
    server_ = *net_.add_host("server");
    auto mux = std::make_shared<DispatcherMux>();
    mux->add("scale", [](std::span<const Value> params) -> Result<Value> {
      if (params.empty()) return err::invalid_argument("scale: no array");
      auto values = params[0].as_doubles();
      if (!values.ok()) return values.error();
      for (double& v : *values) v *= 2;
      return Value::of_doubles(std::move(*values), "return");
    });
    mux->add("add", [](std::span<const Value> params) -> Result<Value> {
      std::int64_t sum = 0;
      for (const Value& p : params) {
        auto n = p.as_int();
        if (!n.ok()) return n.error();
        sum += *n;
      }
      return Value::of_int(sum, "return");
    });
    mux->add("echo", [](std::span<const Value> params) -> Result<Value> {
      return params.empty() ? Value::of_void("return") : params[0];
    });
    mux->add("boom", [](std::span<const Value>) -> Result<Value> {
      return err::unavailable("deliberate failure");
    });
    dedup_ = std::make_shared<resil::DedupCache>(64);
    auto handle = serve_xdr(net_, server_, 9001, mux, dedup_);
    ASSERT_TRUE(handle.ok());
    handle_.emplace(std::move(*handle));
  }

  /// The unmutated frames of one round. Ids are fresh on odd rounds and
  /// repeat on even ones, so mutations hit both the dispatch and the
  /// replay path.
  std::vector<ByteBuffer> base_frames(int round) {
    const std::string tag = round % 2 == 0 ? "fixed" : "r" + std::to_string(round);
    std::vector<BatchItem> items;
    auto item = [&](std::string op, std::vector<Value> params, std::string id) {
      items.push_back({std::move(op), std::move(params), std::move(id)});
    };
    item("scale", {Value::of_doubles({1.0, -0.0, 2.5, 1e300, -7.0, 0.5, 3.0, 4.0}, "v")},
         tag + "-0");
    item("add", {Value::of_int(40, "a"), Value::of_int(2, "b")}, tag + "-1");
    item("boom", {}, tag + "-2");
    item("echo", {Value::of_string("héllo <&>", "s")}, "");
    item("echo", {Value::of_bytes({1, 2, 3, 4, 5}, "b")}, tag + "-4");
    item("echo", {Value::of_bool(true, "t")}, tag + "-5");

    std::vector<ByteBuffer> frames;
    frames.push_back(marshal_batch_call(items));
    for (auto& i : items) i.call_id.clear();
    frames.push_back(marshal_batch_call(items));
    frames.push_back(marshal_call("scale", items[0].params, tag + "-solo"));
    frames.push_back(marshal_call("add", items[1].params, tag + "-add"));
    return frames;
  }

  SimNetwork net_;
  HostId client_ = 0, server_ = 0;
  std::shared_ptr<resil::DedupCache> dedup_;
  std::optional<ServerHandle> handle_;
};

TEST_F(XdrFrameMutationTest, MutatedFramesGetWellFormedRepliesOrCleanErrors) {
  std::mt19937_64 rng(20260417);
  int batch_replies = 0, singleton_replies = 0, values = 0, errors = 0;
  for (int round = 0; round < 3000; ++round) {
    std::vector<ByteBuffer> frames = base_frames(round);
    std::vector<std::uint8_t> bytes = to_vector(frames[rng() % frames.size()].bytes());
    if (rng() % 3 == 0) {
      bytes.resize(rng() % bytes.size());  // truncation
    } else {
      for (std::uint64_t flips = 1 + rng() % 4; flips > 0; --flips) {
        bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      }
    }

    auto reply = net_.call(client_, server_, 9001, bytes);
    if (!reply.ok()) {
      EXPECT_FALSE(reply.error().message().empty()) << "round " << round;
      continue;
    }
    const std::span<const std::uint8_t> answer = reply->bytes();
    auto calls = split_batch_call(bytes);
    if (calls.ok()) {
      // A batch the server could split gets one sub-reply per sub-call.
      ASSERT_TRUE(is_batch_reply(answer)) << "round " << round;
      auto subs = split_batch_reply(answer);
      ASSERT_TRUE(subs.ok()) << "round " << round << ": " << subs.error().describe();
      ASSERT_EQ(subs->size(), calls->size()) << "round " << round;
      for (std::span<const std::uint8_t> sub : *subs) {
        ASSERT_TRUE(round_trips(sub)) << "round " << round;
        (unmarshal_reply(sub).ok() ? values : errors) += 1;
      }
      ++batch_replies;
    } else {
      ASSERT_FALSE(is_batch_reply(answer)) << "round " << round;
      ASSERT_TRUE(round_trips(answer)) << "round " << round;
      (unmarshal_reply(answer).ok() ? values : errors) += 1;
      ++singleton_replies;
    }
  }
  // The rounds must reach both shapes and both outcomes to mean anything.
  EXPECT_GT(batch_replies, 100);
  EXPECT_GT(singleton_replies, 100);
  EXPECT_GT(values, 100);
  EXPECT_GT(errors, 100);
  EXPECT_GT(dedup_->hits(), 0u);
  EXPECT_LE(dedup_->size(), 64u);
}

}  // namespace
}  // namespace h2::net

// End-to-end channel tests: the same dispatcher reached through local,
// xdr, and soap bindings must produce identical results — Figure 5 of the
// paper as an executable assertion.
#include "transport/rpc.hpp"

#include <gtest/gtest.h>

#include "transport/marshal.hpp"
#include "util/rng.hpp"

namespace h2::net {
namespace {

/// A scale-by-two service used across all bindings.
std::shared_ptr<DispatcherMux> make_test_service() {
  auto mux = std::make_shared<DispatcherMux>();
  mux->add("scale", [](std::span<const Value> params) -> Result<Value> {
    if (params.size() != 1) return err::invalid_argument("scale wants 1 param");
    auto values = params[0].as_doubles();
    if (!values.ok()) return values.error();
    for (double& v : *values) v *= 2.0;
    return Value::of_doubles(std::move(*values));
  });
  mux->add("greet", [](std::span<const Value> params) -> Result<Value> {
    auto name = params.empty() ? Result<std::string>(std::string("world"))
                               : params[0].as_string();
    if (!name.ok()) return name.error();
    return Value::of_string("hello " + *name);
  });
  mux->add("boom", [](std::span<const Value>) -> Result<Value> {
    return err::unavailable("deliberate failure");
  });
  return mux;
}

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = *net_.add_host("client");
    server_ = *net_.add_host("server");
    service_ = make_test_service();
  }
  SimNetwork net_;
  HostId client_ = 0, server_ = 0;
  std::shared_ptr<DispatcherMux> service_;
};

TEST_F(RpcTest, DispatcherMuxRoutesAndRejects) {
  std::vector<Value> params{Value::of_string("harness")};
  auto r = service_->dispatch("greet", params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->as_string(), "hello harness");
  EXPECT_EQ(service_->dispatch("nope", {}).error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(service_->size(), 3u);
}

TEST_F(RpcTest, LocalChannelInvokes) {
  auto channel = make_local_channel(*service_);
  std::vector<Value> params{Value::of_doubles({1, 2, 3})};
  auto r = channel->invoke("scale", params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r->as_doubles(), (std::vector<double>{2, 4, 6}));
  EXPECT_STREQ(channel->binding_name(), "local");
  EXPECT_EQ(channel->last_stats().entities_traversed, 1);
  EXPECT_EQ(channel->last_stats().request_bytes, 0u);
}

TEST_F(RpcTest, LocalObjectChannelNamed) {
  auto channel = make_local_channel(*service_, /*instance_bound=*/true);
  EXPECT_STREQ(channel->binding_name(), "localobject");
}

TEST_F(RpcTest, XdrChannelEndToEnd) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto endpoint = *Endpoint::parse("xdr://server:9001");
  auto channel = make_xdr_channel(net_, client_, endpoint);
  std::vector<Value> params{Value::of_doubles({1.5, -2})};
  auto r = channel->invoke("scale", params);
  ASSERT_TRUE(r.ok()) << r.error().describe();
  EXPECT_EQ(*r->as_doubles(), (std::vector<double>{3, -4}));
  EXPECT_GT(channel->last_stats().request_bytes, 0u);
  EXPECT_GT(channel->last_stats().response_bytes, 0u);
  EXPECT_EQ(channel->last_stats().entities_traversed, 4);
}

TEST_F(RpcTest, XdrChannelPropagatesRemoteError) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));
  auto r = channel->invoke("boom", {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kUnavailable);
  EXPECT_NE(r.error().message().find("deliberate failure"), std::string::npos);
}

TEST_F(RpcTest, XdrServerHandleUnbindsOnDestruction) {
  {
    auto handle = serve_xdr(net_, server_, 9001, service_);
    ASSERT_TRUE(handle.ok());
    EXPECT_TRUE(net_.is_listening(server_, 9001));
  }
  EXPECT_FALSE(net_.is_listening(server_, 9001));
}

TEST_F(RpcTest, SoapChannelEndToEnd) {
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());

  auto endpoint = *Endpoint::parse("http://server:8080/svc");
  auto channel = make_soap_channel(net_, client_, endpoint, "urn:test");
  std::vector<Value> params{Value::of_string("soap")};
  auto r = channel->invoke("greet", params);
  ASSERT_TRUE(r.ok()) << r.error().describe();
  EXPECT_EQ(*r->as_string(), "hello soap");
  EXPECT_EQ(channel->last_stats().entities_traversed, 6);
}

TEST_F(RpcTest, SoapFaultComesBackAsError) {
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());
  auto channel = make_soap_channel(net_, client_, *Endpoint::parse("http://server:8080/svc"),
                                   "urn:test");
  auto r = channel->invoke("boom", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message().find("deliberate failure"), std::string::npos);
}

TEST_F(RpcTest, SoapUnknownPathIs404Fault) {
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  auto channel = make_soap_channel(net_, client_, *Endpoint::parse("http://server:8080/nope"),
                                   "urn:test");
  auto r = channel->invoke("greet", {});
  ASSERT_FALSE(r.ok());
  // A replica without the service: kUnavailable, so failover moves on.
  EXPECT_EQ(r.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(r.error().message(), "soap: http status 404 Not Found");
}

TEST_F(RpcTest, SoapMountUnmountLifecycle) {
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  EXPECT_TRUE(http.mount("/svc", service_).ok());
  EXPECT_FALSE(http.mount("svc", service_).ok());  // duplicate (slash-insensitive)
  EXPECT_EQ(http.mounted_count(), 1u);
  EXPECT_TRUE(http.unmount("/svc").ok());
  EXPECT_FALSE(http.unmount("svc").ok());
  http.stop();
  EXPECT_FALSE(http.running());
}

TEST_F(RpcTest, DuplicateMountIsAlreadyExistsForEveryKind) {
  SoapHttpServer http(net_, server_, 8080);
  using MountFn = Status (SoapHttpServer::*)(std::string, std::shared_ptr<Dispatcher>);
  const std::pair<MountFn, const char*> kinds[] = {
      {&SoapHttpServer::mount, "soap server"},
      {&SoapHttpServer::mount_raw, "http server"},
      {&SoapHttpServer::mount_mime, "http server"}};
  for (const auto& [mount, prefix] : kinds) {
    SCOPED_TRACE(prefix);
    ASSERT_TRUE((http.*mount)("/dup", service_).ok());
    auto again = (http.*mount)("dup", service_);  // slash-insensitive
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.error().code(), ErrorCode::kAlreadyExists);
    EXPECT_EQ(again.error().message(),
              std::string(prefix) + ": path '/dup' already mounted");
    // Taken by another kind counts too: one path, one mount.
    MountFn other_kind =
        mount == &SoapHttpServer::mount ? &SoapHttpServer::mount_raw : &SoapHttpServer::mount;
    auto other = (http.*other_kind)("dup", service_);
    ASSERT_FALSE(other.ok());
    EXPECT_EQ(other.error().code(), ErrorCode::kAlreadyExists);
    EXPECT_EQ(http.mounted_count(), 1u);
    ASSERT_TRUE(http.unmount("dup").ok());
  }
}

TEST_F(RpcTest, SoapServerPortConflict) {
  SoapHttpServer first(net_, server_, 8080);
  ASSERT_TRUE(first.start().ok());
  SoapHttpServer second(net_, server_, 8080);
  EXPECT_FALSE(second.start().ok());
}

TEST_F(RpcTest, AllBindingsAgreeOnResult) {
  // The interoperability promise: binding choice changes cost, not results.
  auto xdr_handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(xdr_handle.ok());
  SoapHttpServer http(net_, server_, 8080);
  ASSERT_TRUE(http.start().ok());
  ASSERT_TRUE(http.mount("svc", service_).ok());

  std::vector<std::unique_ptr<Channel>> channels;
  channels.push_back(make_local_channel(*service_));
  channels.push_back(make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001")));
  channels.push_back(make_soap_channel(net_, client_,
                                       *Endpoint::parse("http://server:8080/svc"), "urn:t"));

  Rng rng(21);
  auto input = rng.doubles(64);
  std::vector<Value> params{Value::of_doubles(input)};
  std::vector<double> expected;
  for (double v : input) expected.push_back(v * 2);

  for (auto& channel : channels) {
    auto r = channel->invoke("scale", params);
    ASSERT_TRUE(r.ok()) << channel->binding_name() << ": " << r.error().describe();
    EXPECT_EQ(*r->as_doubles(), expected) << channel->binding_name();
  }

  // And the entity-count ordering from Fig 5 holds.
  EXPECT_LT(1, 4);
  EXPECT_EQ(channels[0]->last_stats().entities_traversed, 1);
  EXPECT_EQ(channels[1]->last_stats().entities_traversed, 4);
  EXPECT_EQ(channels[2]->last_stats().entities_traversed, 6);
  // SOAP puts more bytes on the wire than XDR for the same call.
  EXPECT_GT(channels[2]->last_stats().request_bytes,
            channels[1]->last_stats().request_bytes);
}

TEST_F(RpcTest, PartitionSurfacesAsUnavailable) {
  auto handle = serve_xdr(net_, server_, 9001, service_);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(net_.partition(client_, server_).ok());
  auto channel = make_xdr_channel(net_, client_, *Endpoint::parse("xdr://server:9001"));
  auto r = channel->invoke("greet", {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kUnavailable);
}

TEST(Marshal, ValueRoundTripAllKinds) {
  Rng rng(31);
  std::vector<Value> values{
      Value::of_void("v"),
      Value::of_bool(true, "b"),
      Value::of_int(-77, "i"),
      Value::of_double(2.5, "d"),
      Value::of_string("text with spaces", "s"),
      Value::of_doubles(rng.doubles(33), "arr"),
      Value::of_bytes(rng.bytes(17), "blob"),
  };
  enc::XdrWriter writer;
  for (const auto& v : values) marshal_value(writer, v);
  enc::XdrReader reader(writer.take());
  for (const auto& expected : values) {
    auto got = unmarshal_value(reader);
    ASSERT_TRUE(got.ok()) << expected.describe();
    EXPECT_EQ(*got, expected);
  }
  EXPECT_TRUE(reader.exhausted());
}

TEST(Marshal, CallFrameRoundTrip) {
  std::vector<Value> params{Value::of_int(1, "x"), Value::of_string("y", "name")};
  auto frame = marshal_call("doThing", params);
  auto back = unmarshal_call(frame.bytes());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->operation, "doThing");
  ASSERT_EQ(back->params.size(), 2u);
  EXPECT_EQ(back->params[0], params[0]);
  EXPECT_EQ(back->params[1], params[1]);
}

TEST(Marshal, BadMagicRejected) {
  auto frame = marshal_call("op", {});
  std::vector<std::uint8_t> raw(frame.bytes().begin(), frame.bytes().end());
  raw[0] ^= 0xFF;
  EXPECT_FALSE(unmarshal_call(raw).ok());
  EXPECT_FALSE(unmarshal_reply(raw).ok());
}

TEST(Marshal, ReplyCarriesErrorsFaithfully) {
  auto frame = marshal_reply(Result<Value>(err::not_found("missing plugin")));
  auto back = unmarshal_reply(frame.bytes());
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(back.error().message(), "missing plugin");
}

TEST(Marshal, ReplyCarriesValues) {
  auto frame = marshal_reply(Result<Value>(Value::of_double(6.5, "return")));
  auto back = unmarshal_reply(frame.bytes());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back->as_double(), 6.5);
}

TEST(Marshal, TrailingBytesRejected) {
  auto frame = marshal_call("op", {});
  std::vector<std::uint8_t> raw(frame.bytes().begin(), frame.bytes().end());
  raw.push_back(0);
  raw.push_back(0);
  raw.push_back(0);
  raw.push_back(0);
  EXPECT_FALSE(unmarshal_call(raw).ok());
}

}  // namespace
}  // namespace h2::net

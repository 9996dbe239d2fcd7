#include "container/container.hpp"

#include <gtest/gtest.h>

#include "plugins/standard.hpp"

namespace h2::container {
namespace {

class ContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_host_ = *net_.add_host("A");
    b_host_ = *net_.add_host("B");
    ASSERT_TRUE(plugins::register_standard_plugins(repo_).ok());
    a_ = std::make_unique<Container>("A", repo_, net_, a_host_);
    b_ = std::make_unique<Container>("B", repo_, net_, b_host_);
  }

  net::SimNetwork net_;
  net::HostId a_host_ = 0, b_host_ = 0;
  kernel::PluginRepository repo_;
  std::unique_ptr<Container> a_, b_;
};

TEST_F(ContainerTest, DeployCreatesInstanceWithWsdl) {
  auto id = a_->deploy("time");
  ASSERT_TRUE(id.ok()) << id.error().describe();
  EXPECT_EQ(a_->component_count(), 1u);
  auto defs = a_->describe(*id);
  ASSERT_TRUE(defs.ok());
  EXPECT_EQ(defs->name, "WSTime");
  // Default options: local + localobject endpoints, nothing network-bound.
  EXPECT_EQ(defs->bindings.size(), 2u);
  EXPECT_TRUE(wsdl::validate(*defs).ok());
}

TEST_F(ContainerTest, DeployUnknownPluginFails) {
  EXPECT_FALSE(a_->deploy("ghost").ok());
  EXPECT_EQ(a_->component_count(), 0u);
}

TEST_F(ContainerTest, MultipleInstancesOfSameType) {
  auto first = a_->deploy("lapack");
  auto second = a_->deploy("lapack");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(*first, *second);
  EXPECT_EQ(a_->component_count(), 2u);

  // State is per instance (the whole point of instance binding).
  auto d1 = a_->instance(*first);
  ASSERT_TRUE(d1.ok());
  std::vector<Value> set_params{Value::of_doubles({5.0}, "a")};
  ASSERT_TRUE(d1->dispatch("setMatrix", set_params).ok());
  auto d2 = a_->instance(*second);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*d2->dispatch("dim", {})->as_int(), 0);
  EXPECT_EQ(*d1->dispatch("dim", {})->as_int(), 1);
}

TEST_F(ContainerTest, UndeployRemovesEverything) {
  DeployOptions options;
  options.expose_soap = true;
  options.expose_xdr = true;
  auto id = a_->deploy("ping", options);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(a_->local_registry().size(), 1u);

  ASSERT_TRUE(a_->undeploy(*id).ok());
  EXPECT_EQ(a_->component_count(), 0u);
  EXPECT_EQ(a_->local_registry().size(), 0u);
  EXPECT_FALSE(a_->instance(*id).ok());
  EXPECT_FALSE(a_->undeploy(*id).ok());
}

TEST_F(ContainerTest, SoapAndXdrEndpointsAreLive) {
  DeployOptions options;
  options.expose_soap = true;
  options.expose_xdr = true;
  auto id = a_->deploy("mmul", options);
  ASSERT_TRUE(id.ok());
  auto defs = *a_->describe(*id);

  // Reach it from container B over each network binding.
  for (wsdl::BindingKind kind : {wsdl::BindingKind::kXdr, wsdl::BindingKind::kSoap}) {
    std::vector<wsdl::BindingKind> pref{kind};
    auto channel = b_->open_channel(defs, pref);
    ASSERT_TRUE(channel.ok()) << wsdl::to_string(kind) << ": "
                              << channel.error().describe();
    std::vector<Value> params{Value::of_doubles({1, 0, 0, 1}, "mata"),
                              Value::of_doubles({2, 3, 4, 5}, "matb")};
    auto result = (*channel)->invoke("getResult", params);
    ASSERT_TRUE(result.ok()) << wsdl::to_string(kind);
    EXPECT_EQ(*result->as_doubles(), (std::vector<double>{2, 3, 4, 5}));
  }
}

TEST_F(ContainerTest, CallIdReusedAcrossBindingsGetsItsOwnReplyShape) {
  // One caller-pinned id over xdr, soap and raw http to one component:
  // each binding caches its own reply shape, so each first call executes
  // once and every re-send replays a reply its own client can parse.
  DeployOptions options;
  options.expose_xdr = true;
  options.expose_soap = true;
  options.expose_http = true;
  auto id = a_->deploy("counter", options);
  ASSERT_TRUE(id.ok()) << id.error().describe();
  auto defs = *a_->describe(*id);

  const wsdl::BindingKind kinds[] = {wsdl::BindingKind::kXdr, wsdl::BindingKind::kSoap,
                                     wsdl::BindingKind::kHttp};
  for (int round = 0; round < 2; ++round) {
    std::int64_t expected = 0;
    for (wsdl::BindingKind kind : kinds) {
      std::vector<wsdl::BindingKind> pref{kind};
      auto channel = b_->open_channel(defs, pref);
      ASSERT_TRUE(channel.ok()) << wsdl::to_string(kind) << ": "
                                << channel.error().describe();
      (*channel)->set_call_id("id-1");
      std::vector<Value> params{Value::of_string(wsdl::to_string(kind), "id"),
                                Value::of_int(1, "delta")};
      auto total = (*channel)->invoke("add", params);
      ASSERT_TRUE(total.ok()) << wsdl::to_string(kind) << " round " << round << ": "
                              << total.error().describe();
      EXPECT_EQ(*total->as_int(), ++expected) << wsdl::to_string(kind);
    }
  }
  // Three executions, one per binding; the second round was all replays.
  EXPECT_EQ(a_->dedup().hits(), 3u);
}

TEST_F(ContainerTest, BindingNegotiationPrefersLocalObject) {
  DeployOptions options;
  options.expose_soap = true;
  options.expose_xdr = true;
  auto id = a_->deploy("time", options);
  ASSERT_TRUE(id.ok());
  auto defs = *a_->describe(*id);

  // Same container: should pick localobject (1 entity).
  auto local_channel = a_->open_channel(defs);
  ASSERT_TRUE(local_channel.ok());
  EXPECT_STREQ((*local_channel)->binding_name(), "localobject");

  // Different container: local kinds infeasible, falls through to xdr.
  auto remote_channel = b_->open_channel(defs);
  ASSERT_TRUE(remote_channel.ok());
  EXPECT_STREQ((*remote_channel)->binding_name(), "xdr");
}

TEST_F(ContainerTest, BindingNegotiationRespectsPreferenceOrder) {
  DeployOptions options;
  options.expose_soap = true;
  options.expose_xdr = true;
  auto id = a_->deploy("time", options);
  ASSERT_TRUE(id.ok());
  auto defs = *a_->describe(*id);
  std::vector<wsdl::BindingKind> soap_first{wsdl::BindingKind::kSoap};
  auto channel = b_->open_channel(defs, soap_first);
  ASSERT_TRUE(channel.ok());
  EXPECT_STREQ((*channel)->binding_name(), "soap");
}

TEST_F(ContainerTest, LocalBindingInstantiatesOnDemand) {
  // Describe a service whose local binding names a class not yet deployed
  // here: the container acts as the "port factory" and instantiates it.
  wsdl::ServiceDescriptor d;
  d.name = "WSTime";
  d.operations.push_back({"getTime", {}, ValueKind::kString});
  std::vector<wsdl::EndpointSpec> endpoints{
      {wsdl::BindingKind::kLocal, "local://A", {{"class", "time"}}}};
  auto defs = *wsdl::generate(d, endpoints);

  EXPECT_EQ(a_->component_count(), 0u);
  auto channel = a_->open_channel(defs);
  ASSERT_TRUE(channel.ok()) << channel.error().describe();
  EXPECT_STREQ((*channel)->binding_name(), "local");
  EXPECT_EQ(a_->component_count(), 1u);  // instantiated on demand
  auto result = (*channel)->invoke("getTime", {});
  ASSERT_TRUE(result.ok());
}

TEST_F(ContainerTest, NoFeasibleBindingIsAnError) {
  auto id = a_->deploy("time");  // local-only endpoints
  ASSERT_TRUE(id.ok());
  auto defs = *a_->describe(*id);
  auto channel = b_->open_channel(defs);  // B can't use A's local bindings
  ASSERT_FALSE(channel.ok());
}

TEST_F(ContainerTest, FindLocalByServiceName) {
  ASSERT_TRUE(a_->deploy("time").ok());
  auto record = a_->find_local("WSTimeService");
  ASSERT_TRUE(record.ok()) << record.error().describe();
  EXPECT_EQ(record->plugin_name, "time");
  EXPECT_FALSE(a_->find_local("GhostService").ok());
}

TEST_F(ContainerTest, PublishUnpublishExternalRegistry) {
  reg::XmlRegistry external(net_.clock());
  auto id = a_->deploy("time");
  ASSERT_TRUE(id.ok());

  // Private by default.
  EXPECT_EQ(a_->components()[0].exposure, Exposure::kPrivate);
  auto key = a_->publish(*id, external);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(external.size(), 1u);
  EXPECT_EQ(a_->components()[0].exposure, Exposure::kPublished);

  // The decision is reviewable at any time.
  ASSERT_TRUE(a_->unpublish(*id, external).ok());
  EXPECT_EQ(external.size(), 0u);
  EXPECT_EQ(a_->components()[0].exposure, Exposure::kPrivate);
  EXPECT_FALSE(a_->unpublish(*id, external).ok());
}

TEST_F(ContainerTest, PublishWithLeaseExpires) {
  reg::XmlRegistry external(net_.clock());
  auto id = a_->deploy("time");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(a_->publish(*id, external, kSecond).ok());
  EXPECT_EQ(external.size(), 1u);
  net_.clock().advance(2 * kSecond);
  EXPECT_EQ(external.size(), 0u);
}

TEST_F(ContainerTest, SetExposureBookkeeping) {
  auto id = a_->deploy("time");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(a_->set_exposure(*id, Exposure::kPublished).ok());
  EXPECT_EQ(a_->components()[0].exposure, Exposure::kPublished);
  EXPECT_FALSE(a_->set_exposure("nope", Exposure::kPrivate).ok());
}

TEST_F(ContainerTest, Section6LocalityScenario) {
  // The paper's walkthrough: app logic on the user's node, LAPACK service
  // remote -> upload the component next to the service and use local
  // bindings to minimize latency.
  DeployOptions lapack_options;
  lapack_options.expose_xdr = true;
  auto lapack_id = a_->deploy("lapack", lapack_options);
  ASSERT_TRUE(lapack_id.ok());
  auto lapack_wsdl = *a_->describe(*lapack_id);

  // Phase 1: call from B over the network.
  auto remote = b_->open_channel(lapack_wsdl);
  ASSERT_TRUE(remote.ok());
  EXPECT_STREQ((*remote)->binding_name(), "xdr");
  std::vector<Value> params{Value::of_doubles({1, 2, 3, 4}, "a"),
                            Value::of_doubles({1, 0, 0, 1}, "b")};
  auto r1 = (*remote)->invoke("matmul", params);
  ASSERT_TRUE(r1.ok());
  EXPECT_GT((*remote)->last_stats().request_bytes, 0u);

  // Phase 2: the client component "moves" into container A; the same WSDL
  // now resolves to the localobject binding with zero wire bytes.
  auto colocated = a_->open_channel(lapack_wsdl);
  ASSERT_TRUE(colocated.ok());
  EXPECT_STREQ((*colocated)->binding_name(), "localobject");
  auto r2 = (*colocated)->invoke("matmul", params);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1->as_doubles(), *r2->as_doubles());
  EXPECT_EQ((*colocated)->last_stats().request_bytes, 0u);
}

TEST_F(ContainerTest, LeaseScopedDeployment) {
  DeployOptions options;
  options.lease = kSecond;
  auto id = a_->deploy("ping", options);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(a_->find_local("PingService").ok());
  net_.clock().advance(2 * kSecond);
  // The registry entry evaporated (volatile component)...
  EXPECT_FALSE(a_->find_local("PingService").ok());
  // ...but the instance itself is still owned until undeployed.
  EXPECT_EQ(a_->component_count(), 1u);
}

}  // namespace
}  // namespace h2::container

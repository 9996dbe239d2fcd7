#include "soap/envelope.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "util/rng.hpp"
#include "util/strings.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace h2::soap {
namespace {

TEST(SoapRequest, BuildAndParseScalarParams) {
  std::vector<Value> params{Value::of_string("UTC", "zone"),
                            Value::of_int(3, "precision")};
  auto xml_text = build_request("getTime", "urn:h2:WSTime", params);

  auto call = parse_request(xml_text);
  ASSERT_TRUE(call.ok()) << call.error().describe();
  EXPECT_EQ(call->operation, "getTime");
  EXPECT_EQ(call->service_ns, "urn:h2:WSTime");
  ASSERT_EQ(call->params.size(), 2u);
  EXPECT_EQ(*call->params[0].as_string(), "UTC");
  EXPECT_EQ(call->params[0].name(), "zone");
  EXPECT_EQ(*call->params[1].as_int(), 3);
}

TEST(SoapRequest, NoParams) {
  auto xml_text = build_request("getTime", "urn:t", {});
  auto call = parse_request(xml_text);
  ASSERT_TRUE(call.ok());
  EXPECT_TRUE(call->params.empty());
}

TEST(SoapRequest, DoubleArrayParamsRoundTrip) {
  // The MatMul request from Fig 8: two double[] parameters.
  Rng rng(3);
  auto a = rng.doubles(16);
  auto b = rng.doubles(16);
  std::vector<Value> params{Value::of_doubles(a, "mata"), Value::of_doubles(b, "matb")};
  auto call = parse_request(build_request("getResult", "urn:h2:MatMul", params));
  ASSERT_TRUE(call.ok());
  ASSERT_EQ(call->params.size(), 2u);
  EXPECT_EQ(*call->params[0].as_doubles(), a);
  EXPECT_EQ(*call->params[1].as_doubles(), b);
}

TEST(SoapRequest, BytesParamRoundTrip) {
  Rng rng(5);
  auto payload = rng.bytes(100);
  std::vector<Value> params{Value::of_bytes(payload, "blob")};
  auto call = parse_request(build_request("store", "urn:x", params));
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(*call->params[0].as_bytes(), payload);
}

TEST(SoapRequest, UnnamedParamsGetPositionalNames) {
  std::vector<Value> params{Value::of_int(1), Value::of_int(2)};
  auto call = parse_request(build_request("f", "urn:x", params));
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(call->params[0].name(), "arg0");
  EXPECT_EQ(call->params[1].name(), "arg1");
}

TEST(SoapResponse, ScalarResult) {
  auto xml_text = build_response("getTime", "urn:t", Value::of_string("12:00:00"));
  auto reply = parse_reply(xml_text);
  ASSERT_TRUE(reply.ok());
  ASSERT_FALSE(reply->is_fault());
  EXPECT_EQ(*reply->value().as_string(), "12:00:00");
  EXPECT_EQ(reply->value().name(), "return");
}

TEST(SoapResponse, ArrayResult) {
  Rng rng(8);
  auto data = rng.doubles(64);
  auto reply = parse_reply(build_response("getResult", "urn:mm", Value::of_doubles(data)));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply->value().as_doubles(), data);
}

TEST(SoapResponse, VoidResult) {
  auto reply = parse_reply(build_response("reset", "urn:x", Value::of_void()));
  ASSERT_TRUE(reply.ok());
  ASSERT_FALSE(reply->is_fault());
  EXPECT_EQ(reply->value().kind(), ValueKind::kVoid);
}

TEST(SoapResponse, BoolAndDoubleResults) {
  auto r1 = parse_reply(build_response("f", "urn:x", Value::of_bool(true)));
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(*r1->value().as_bool());
  auto r2 = parse_reply(build_response("f", "urn:x", Value::of_double(-8.25)));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2->value().as_double(), -8.25);
}

TEST(SoapFault, BuildAndParse) {
  Fault fault{"Server", "LAPACK plugin not loaded", "node=B"};
  auto reply = parse_reply(build_fault(fault));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->is_fault());
  EXPECT_EQ(reply->fault().code, "Server");
  EXPECT_EQ(reply->fault().message, "LAPACK plugin not loaded");
  EXPECT_EQ(reply->fault().detail, "node=B");
}

TEST(SoapFault, NoDetail) {
  auto reply = parse_reply(build_fault({"Client", "bad args", ""}));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->fault().detail.empty());
}

TEST(SoapParse, RejectsNonEnvelope) {
  EXPECT_FALSE(parse_request("<NotAnEnvelope/>").ok());
}

TEST(SoapParse, RejectsWrongNamespace) {
  auto text = R"(<Envelope xmlns="urn:wrong"><Body><op/></Body></Envelope>)";
  EXPECT_FALSE(parse_request(text).ok());
}

TEST(SoapParse, RejectsMissingBody) {
  auto text =
      R"(<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Header/></e:Envelope>)";
  EXPECT_FALSE(parse_request(text).ok());
}

TEST(SoapParse, RejectsMultipleBodyChildren) {
  auto text =
      R"(<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/"><e:Body><a/><b/></e:Body></e:Envelope>)";
  EXPECT_FALSE(parse_request(text).ok());
  EXPECT_FALSE(parse_reply(text).ok());
}

TEST(SoapParse, AcceptsForeignPrefixes) {
  // A different SOAP stack might choose other prefixes; only namespaces matter.
  auto text = R"(<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/">
    <s:Body><q:ping xmlns:q="urn:p"><count xsi:type="xsd:long"
      xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">7</count></q:ping></s:Body>
  </s:Envelope>)";
  auto call = parse_request(text);
  ASSERT_TRUE(call.ok()) << call.error().describe();
  EXPECT_EQ(call->operation, "ping");
  EXPECT_EQ(call->service_ns, "urn:p");
  ASSERT_EQ(call->params.size(), 1u);
  EXPECT_EQ(*call->params[0].as_int(), 7);
}

TEST(SoapParse, UntypedElementDefaultsToString) {
  auto text = R"(<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/">
    <s:Body><op xmlns="urn:x"><arg>plain</arg></op></s:Body></s:Envelope>)";
  auto call = parse_request(text);
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(*call->params[0].as_string(), "plain");
}

TEST(SoapValueXml, NilForVoid) {
  auto node = value_to_xml(Value::of_void(), "nothing");
  EXPECT_EQ(node->attr_or("xsi:nil", ""), "true");
  auto back = xml_to_value(*node);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind(), ValueKind::kVoid);
}

TEST(SoapValueXml, BadBooleanRejected) {
  auto parsed = xml::parse_element(R"(<b xsi:type="xsd:boolean">maybe</b>)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(xml_to_value(**parsed).ok());
}

TEST(SoapValueXml, UnsupportedTypeRejected) {
  auto parsed = xml::parse_element(R"(<b xsi:type="xsd:duration">P1D</b>)");
  ASSERT_TRUE(parsed.ok());
  auto v = xml_to_value(**parsed);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error().code(), ErrorCode::kUnsupported);
}

// ---- numeric arrays: fast path vs the DOM reading, byte-exact writer ----------

constexpr std::string_view kEnvelopeOpen =
    "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\""
    " xmlns:SOAP-ENC=\"http://schemas.xmlsoap.org/soap/encoding/\""
    " xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\""
    " xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\"><SOAP-ENV:Body>";
constexpr std::string_view kEnvelopeClose = "</SOAP-ENV:Body></SOAP-ENV:Envelope>";

// A request whose one array parameter holds `items` verbatim.
std::string array_request(std::string_view items) {
  std::string out(kEnvelopeOpen);
  out += "<m:op xmlns:m=\"urn:x\">"
         "<a xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"xsd:double[2]\">";
  out += items;
  out += "</a></m:op>";
  out += kEnvelopeClose;
  return out;
}

// The DOM reading of that parameter: xml::parse + xml_to_value.
Result<Value> dom_array(std::string_view envelope) {
  auto root = xml::parse_element(envelope);
  if (!root.ok()) return root.error();
  const xml::Node* body = (*root)->first_child("Body");
  if (body == nullptr) return err::parse("no Body");
  auto ops = body->element_children();
  if (ops.size() != 1) return err::parse("no operation");
  auto params = ops[0]->element_children();
  if (params.size() != 1) return err::parse("no parameter");
  return xml_to_value(*params[0]);
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// parse_request and the DOM agree on `items`: same verdict, same values
// bit for bit. Returns the parsed values (empty on a shared rejection).
std::vector<double> expect_same_as_dom(std::string_view items) {
  std::string env = array_request(items);
  auto pulled = parse_request(env);
  auto dom = dom_array(env);
  EXPECT_EQ(pulled.ok(), dom.ok()) << env;
  if (!pulled.ok() || !dom.ok()) return {};
  EXPECT_EQ(pulled->params.size(), 1u);
  auto got = pulled->params.at(0).doubles_view();
  EXPECT_TRUE(same_bits(got, dom->doubles_view())) << env;
  return {got.begin(), got.end()};
}

TEST(SoapArrayFastPath, FallbackShapesMatchTheDom) {
  using V = std::vector<double>;
  EXPECT_EQ(expect_same_as_dom("<item>1.5</item><item>-2</item>"), (V{1.5, -2}));
  EXPECT_EQ(expect_same_as_dom("<item> 1.5 </item><item>\n2\t</item>"), (V{1.5, 2}));
  EXPECT_EQ(expect_same_as_dom("<item>1&#46;5</item>"), (V{1.5}));
  EXPECT_EQ(expect_same_as_dom("<item>&#x31;</item><item>2</item>"), (V{1, 2}));
  EXPECT_EQ(expect_same_as_dom("<x:item>1.5</x:item>"), (V{1.5}));
  EXPECT_EQ(expect_same_as_dom("<item a=\"1\">1.5</item>"), (V{1.5}));
  EXPECT_EQ(expect_same_as_dom("<item>1.5</item >"), (V{1.5}));
  EXPECT_EQ(expect_same_as_dom("<item>1</item><!-- c --><item>2</item>"), (V{1, 2}));
  EXPECT_EQ(expect_same_as_dom("<item><![CDATA[1.5]]></item>"), (V{1.5}));
  EXPECT_EQ(expect_same_as_dom("<item>1<!-- c -->5</item>"), (V{15}));
  EXPECT_EQ(expect_same_as_dom("<item>1</item><other>9</other><item>2</item>"), (V{1, 2}));
  EXPECT_EQ(expect_same_as_dom(" <item>1</item> \n <item>2</item> "), (V{1, 2}));
  EXPECT_EQ(expect_same_as_dom("<item>inf</item><item>-0</item>"),
            (V{std::numeric_limits<double>::infinity(), -0.0}));
}

TEST(SoapArrayFastPath, RejectionsMatchTheDom) {
  for (const char* items : {"<item/>", "<item></item>", "<item> </item>",
                            "<item>1.5</itemx>", "<item>1.5x</item>", "<item>1e999</item>",
                            "<item>+1</item>", "<item>1&bogus;</item>",
                            "<item>1.5</item", "<item>1.5"}) {
    SCOPED_TRACE(items);
    EXPECT_FALSE(parse_request(array_request(items)).ok());
    EXPECT_FALSE(dom_array(array_request(items)).ok());
  }
}

TEST(SoapArrayFastPath, EveryTruncationRejected) {
  std::vector<Value> params{Value::of_doubles({1.5, -0.0, 1e21, 5e-324}, "a")};
  std::string request = build_request("op", "urn:x", params);
  std::string response =
      build_response("op", "urn:x", Value::of_doubles({2.5, -7.0, 1e-7}));
  for (std::size_t cut = 0; cut < request.size(); ++cut) {
    std::string_view part(request.data(), cut);
    EXPECT_FALSE(parse_request(part).ok()) << part;
    EXPECT_FALSE(xml::parse_element(part).ok()) << part;
  }
  for (std::size_t cut = 0; cut < response.size(); ++cut) {
    std::string_view part(response.data(), cut);
    EXPECT_FALSE(parse_reply(part).ok()) << part;
    EXPECT_FALSE(xml::parse_element(part).ok()) << part;
  }
}

TEST(SoapArrayGolden, SpecialValuesRequestAndResponse) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values{-0.0,
                                   inf,
                                   -inf,
                                   std::numeric_limits<double>::quiet_NaN(),
                                   std::numeric_limits<double>::denorm_min(),
                                   2.2250738585072009e-308,
                                   -2.2250738585072014e-308,
                                   1e21,
                                   1e-7,
                                   0.1,
                                   123456789012345680.0};
  const std::string items =
      "<item>-0</item><item>inf</item><item>-inf</item><item>nan</item>"
      "<item>5e-324</item><item>2.225073858507201e-308</item>"
      "<item>-2.2250738585072014e-308</item><item>1e+21</item><item>1e-07</item>"
      "<item>0.1</item><item>123456789012345680</item>";
  std::vector<Value> params{Value::of_doubles(values, "a"), Value::of_doubles({}, "e")};
  EXPECT_EQ(build_request("op", "urn:x", params),
            std::string(kEnvelopeOpen) +
                "<m:op xmlns:m=\"urn:x\"><a xsi:type=\"SOAP-ENC:Array\" "
                "SOAP-ENC:arrayType=\"xsd:double[11]\">" +
                items +
                "</a><e xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"xsd:double[0]\"/>"
                "</m:op>" +
                std::string(kEnvelopeClose));
  EXPECT_EQ(build_response("op", "urn:x", Value::of_doubles(values)),
            std::string(kEnvelopeOpen) +
                "<m:opResponse xmlns:m=\"urn:x\"><return xsi:type=\"SOAP-ENC:Array\" "
                "SOAP-ENC:arrayType=\"xsd:double[11]\">" +
                items + "</return></m:opResponse>" + std::string(kEnvelopeClose));

  auto call = parse_request(build_request("op", "urn:x", params));
  ASSERT_TRUE(call.ok()) << call.error().describe();
  auto back = call->params.at(0).doubles_view();
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) {
      EXPECT_TRUE(std::isnan(back[i]));
    } else {
      EXPECT_TRUE(same_bits({&back[i], 1}, {&values[i], 1})) << i;
    }
  }
  EXPECT_TRUE(call->params.at(1).doubles_view().empty());
}

TEST(SoapArrayGolden, LargeArrayMatchesItemByItemReference) {
  Rng rng(16384);
  std::vector<double> values(16384);
  for (double& v : values) {
    // Wide exponents so every digit count and both exponent signs occur.
    v = (rng.next_double() - 0.5) * std::pow(10.0, rng.next_range(-320, 308));
  }
  std::string items;
  for (double v : values) items += "<item>" + str::format_double(v) + "</item>";
  std::vector<Value> params{Value::of_doubles(values, "big")};
  EXPECT_EQ(build_request("op", "urn:x", params),
            std::string(kEnvelopeOpen) +
                "<m:op xmlns:m=\"urn:x\"><big xsi:type=\"SOAP-ENC:Array\" "
                "SOAP-ENC:arrayType=\"xsd:double[16384]\">" +
                items + "</big></m:op>" + std::string(kEnvelopeClose));
  std::string response = build_response("op", "urn:x", Value::of_doubles(values));
  EXPECT_EQ(response, std::string(kEnvelopeOpen) +
                          "<m:opResponse xmlns:m=\"urn:x\"><return xsi:type=\"SOAP-ENC:Array\" "
                          "SOAP-ENC:arrayType=\"xsd:double[16384]\">" +
                          items + "</return></m:opResponse>" + std::string(kEnvelopeClose));
  auto reply = parse_reply(response);
  ASSERT_TRUE(reply.ok()) << reply.error().describe();
  EXPECT_TRUE(same_bits(reply->value().doubles_view(), values));
}

TEST(SoapReplyValue, RvalueAccessorMovesTheArray) {
  auto reply = parse_reply(build_response("op", "urn:x", Value::of_doubles({1, 2, 3})));
  ASSERT_TRUE(reply.ok());
  const double* storage = reply->value().doubles_view().data();
  Value taken = std::move(*reply).value();
  EXPECT_EQ(taken.doubles_view().data(), storage);
  EXPECT_EQ(taken.doubles_view().size(), 3u);
}

}  // namespace
}  // namespace h2::soap

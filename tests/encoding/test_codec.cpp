// Property-style tests over all payload codecs: whatever encode() emits,
// decode() must reproduce exactly (doubles are bit-preserved by raw/xdr/
// soap-base64; soap-xml goes through shortest-round-trip decimal text,
// which also reproduces every finite double exactly).
#include "encoding/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace h2::enc {
namespace {

enum class CodecId { kRaw, kXdr, kSoapXml, kSoapBase64 };

std::unique_ptr<Codec> make(CodecId id) {
  switch (id) {
    case CodecId::kRaw: return make_raw_codec();
    case CodecId::kXdr: return make_xdr_codec();
    case CodecId::kSoapXml: return make_soap_xml_codec();
    case CodecId::kSoapBase64: return make_soap_base64_codec();
  }
  return nullptr;
}

class CodecRoundTrip : public ::testing::TestWithParam<CodecId> {
 protected:
  std::unique_ptr<Codec> codec_ = make(GetParam());
};

TEST_P(CodecRoundTrip, EmptyArray) {
  auto wire = codec_->encode({});
  auto back = codec_->decode(wire);
  ASSERT_TRUE(back.ok()) << back.error().describe();
  EXPECT_TRUE(back->empty());
}

TEST_P(CodecRoundTrip, SingleValue) {
  std::vector<double> values{42.5};
  auto back = codec_->decode(codec_->encode(values));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, values);
}

TEST_P(CodecRoundTrip, SpecialFiniteValues) {
  std::vector<double> values{0.0, -0.0, 1e-308, -1e308, 1.0 / 3.0,
                             3.141592653589793, 6.02214076e23};
  auto back = codec_->decode(codec_->encode(values));
  ASSERT_TRUE(back.ok()) << back.error().describe();
  ASSERT_EQ(back->size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ((*back)[i], values[i]) << "index " << i;
  }
}

TEST_P(CodecRoundTrip, RandomArraysManySizes) {
  Rng rng(1234);
  for (std::size_t n : {1u, 2u, 7u, 64u, 1000u}) {
    auto values = rng.doubles(n, -1e6, 1e6);
    auto wire = codec_->encode(values);
    auto back = codec_->decode(wire);
    ASSERT_TRUE(back.ok()) << codec_->name() << " n=" << n;
    EXPECT_EQ(*back, values) << codec_->name() << " n=" << n;
  }
}

TEST_P(CodecRoundTrip, WireSizeBoundHolds) {
  Rng rng(55);
  for (std::size_t n : {0u, 1u, 10u, 100u}) {
    auto values = rng.doubles(n);
    auto wire = codec_->encode(values);
    EXPECT_LE(wire.size(), codec_->wire_size(n))
        << codec_->name() << " n=" << n;
  }
}

TEST_P(CodecRoundTrip, GarbageInputRejectedOrEmpty) {
  ByteBuffer garbage(std::string_view("this is not a valid payload at all"));
  auto result = codec_->decode(garbage);
  // Every codec must fail cleanly (no crash, no bogus success with data).
  if (result.ok()) {
    EXPECT_TRUE(result->empty()) << codec_->name();
  }
}

TEST_P(CodecRoundTrip, TruncatedWireRejected) {
  Rng rng(66);
  auto values = rng.doubles(32);
  auto wire = codec_->encode(values);
  auto bytes = wire.bytes();
  ByteBuffer truncated(
      std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + bytes.size() / 2));
  auto result = codec_->decode(truncated);
  if (result.ok()) {
    // XML-ish codecs may parse a prefix only if it is well-formed; it must
    // not silently return the full array.
    EXPECT_LT(result->size(), values.size()) << codec_->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values(CodecId::kRaw, CodecId::kXdr,
                                           CodecId::kSoapXml, CodecId::kSoapBase64),
                         [](const ::testing::TestParamInfo<CodecId>& info) {
                           switch (info.param) {
                             case CodecId::kRaw: return "raw";
                             case CodecId::kXdr: return "xdr";
                             case CodecId::kSoapXml: return "soap_xml";
                             case CodecId::kSoapBase64: return "soap_base64";
                           }
                           return "?";
                         });

TEST(CodecSizes, TextEncodingsExpandBinaryOnes) {
  // The paper's claim in miniature: for the same payload, SOAP encodings
  // put more bytes on the wire than XDR.
  Rng rng(7);
  auto values = rng.doubles(1024);
  auto xdr = make_xdr_codec()->encode(values);
  auto soap_b64 = make_soap_base64_codec()->encode(values);
  auto soap_xml = make_soap_xml_codec()->encode(values);
  EXPECT_GT(soap_b64.size(), xdr.size());
  EXPECT_GT(soap_xml.size(), soap_b64.size());
  // base64 alone is ~4/3; with XML framing it must exceed that ratio.
  EXPECT_GE(static_cast<double>(soap_b64.size()) / static_cast<double>(xdr.size()), 4.0 / 3.0);
}

TEST(CodecRegistry, AllCodecsListed) {
  auto codecs = all_codecs();
  ASSERT_EQ(codecs.size(), 4u);
  EXPECT_STREQ(codecs[0]->name(), "raw");
  EXPECT_STREQ(codecs[1]->name(), "xdr");
  EXPECT_STREQ(codecs[2]->name(), "soap-base64");
  EXPECT_STREQ(codecs[3]->name(), "soap-xml");
}

TEST(CodecDetail, RawRejectsCountMismatch) {
  auto codec = make_raw_codec();
  std::vector<double> two{1.0, 2.0};
  auto wire = codec->encode(two);
  std::vector<std::uint8_t> raw(wire.bytes().begin(), wire.bytes().end());
  raw[0] = 3;  // claim 3 values, payload has 2
  EXPECT_FALSE(codec->decode(ByteBuffer(std::move(raw))).ok());
}

TEST(CodecDetail, SoapBase64RejectsCountMismatch) {
  auto codec = make_soap_base64_codec();
  std::vector<double> two{1.0, 2.0};
  auto wire = codec->encode(two);
  std::string text = wire.to_string();
  auto pos = text.find("count=\"2\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "count=\"3\"");
  EXPECT_FALSE(codec->decode(ByteBuffer(text)).ok());
}

TEST(CodecDetail, SoapXmlReadsEveryItemShape) {
  // Bare items take PullParser::simple_element; the rest go through the
  // token loop. Both must give the general reading.
  auto codec = make_soap_xml_codec();
  auto decoded = codec->decode(ByteBuffer(std::string(
      "<array xmlns:x=\"urn:x\"><item>1.5</item><item> 2 </item>"
      "<x:item>3</x:item><item a=\"1\">4</item><item>5&#46;5</item>"
      "<!-- c --><item><![CDATA[6]]></item><other>7</other><item>-0</item></array>")));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(*decoded, (std::vector<double>{1.5, 2, 3, 4, 5.5, 6, -0.0}));
  EXPECT_TRUE(std::signbit(decoded->back()));
  for (const char* bad : {"<array><item>1.5x</item></array>", "<array><item></item></array>",
                          "<array><item>1</itemx></array>", "<array><item>1</item>"}) {
    EXPECT_FALSE(codec->decode(ByteBuffer(std::string(bad))).ok()) << bad;
  }
}

}  // namespace
}  // namespace h2::enc

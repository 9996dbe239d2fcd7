#include "encoding/xdr.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>

#include "util/rng.hpp"

namespace h2::enc {
namespace {

TEST(Xdr, IntWireFormat) {
  XdrWriter w;
  w.put_i32(-2);
  // RFC 4506: two's complement big-endian.
  auto bytes = w.buffer().bytes();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0xFF);
  EXPECT_EQ(bytes[3], 0xFE);
}

TEST(Xdr, ScalarRoundTrips) {
  XdrWriter w;
  w.put_i32(std::numeric_limits<std::int32_t>::min());
  w.put_u32(std::numeric_limits<std::uint32_t>::max());
  w.put_i64(std::numeric_limits<std::int64_t>::min());
  w.put_u64(std::numeric_limits<std::uint64_t>::max());
  w.put_bool(true);
  w.put_bool(false);
  w.put_f32(1.5f);
  w.put_f64(-0.125);

  XdrReader r(w.take());
  EXPECT_EQ(*r.get_i32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(*r.get_u32(), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(*r.get_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(*r.get_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(*r.get_bool());
  EXPECT_FALSE(*r.get_bool());
  EXPECT_EQ(*r.get_f32(), 1.5f);
  EXPECT_EQ(*r.get_f64(), -0.125);
  EXPECT_TRUE(r.exhausted());
}

TEST(Xdr, BoolRejectsOtherValues) {
  XdrWriter w;
  w.put_u32(2);
  XdrReader r(w.take());
  EXPECT_FALSE(r.get_bool().ok());
}

TEST(Xdr, StringPaddingToFourBytes) {
  XdrWriter w;
  w.put_string("abcde");  // 4 len + 5 chars + 3 pad = 12
  EXPECT_EQ(w.size(), 12u);
  XdrReader r(w.take());
  EXPECT_EQ(*r.get_string(), "abcde");
  EXPECT_TRUE(r.exhausted());
}

TEST(Xdr, StringExactMultipleNoPadding) {
  XdrWriter w;
  w.put_string("abcd");
  EXPECT_EQ(w.size(), 8u);
}

TEST(Xdr, NonzeroPaddingRejected) {
  XdrWriter w;
  w.put_string("a");
  auto buf = w.take();
  // Corrupt a padding byte.
  std::vector<std::uint8_t> raw(buf.bytes().begin(), buf.bytes().end());
  raw[6] = 0x7;
  XdrReader r(ByteBuffer(std::move(raw)));
  EXPECT_FALSE(r.get_string().ok());
}

TEST(Xdr, OpaqueVariableAndFixed) {
  std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  XdrWriter w;
  w.put_opaque(payload);
  w.put_opaque_fixed(payload);
  EXPECT_EQ(w.size(), (4u + 8u) + 8u);
  XdrReader r(w.take());
  EXPECT_EQ(*r.get_opaque(), payload);
  EXPECT_EQ(*r.get_opaque_fixed(5), payload);
  EXPECT_TRUE(r.exhausted());
}

TEST(Xdr, F64ArrayWireSize) {
  XdrWriter w;
  std::vector<double> values{1.0, 2.0, 3.0};
  w.put_f64_array(values);
  EXPECT_EQ(w.size(), 4u + 3 * 8u);
}

TEST(Xdr, ArraysRoundTrip) {
  Rng rng(9);
  auto doubles = rng.doubles(100);
  std::vector<float> floats{1.f, -2.5f, 1e-20f};
  std::vector<std::int32_t> ints{0, -1, 65536};

  XdrWriter w;
  w.put_f64_array(doubles);
  w.put_f32_array(floats);
  w.put_i32_array(ints);

  XdrReader r(w.take());
  EXPECT_EQ(*r.get_f64_array(), doubles);
  EXPECT_EQ(*r.get_f32_array(), floats);
  EXPECT_EQ(*r.get_i32_array(), ints);
  EXPECT_TRUE(r.exhausted());
}

TEST(Xdr, ArrayLengthOverrunRejected) {
  // Claim 1000 doubles but provide only 8 bytes.
  XdrWriter w;
  w.put_u32(1000);
  w.put_f64(1.0);
  XdrReader r(w.take());
  auto result = r.get_f64_array();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kParseError);
}

TEST(Xdr, TruncatedScalarRejected) {
  XdrWriter w;
  w.put_u32(7);
  XdrReader r(w.take());
  ASSERT_TRUE(r.get_u32().ok());
  EXPECT_FALSE(r.get_u32().ok());
}

TEST(Xdr, PaddedHelper) {
  EXPECT_EQ(xdr_padded(0), 0u);
  EXPECT_EQ(xdr_padded(1), 4u);
  EXPECT_EQ(xdr_padded(4), 4u);
  EXPECT_EQ(xdr_padded(5), 8u);
}

TEST(Xdr, EmptyContainers) {
  XdrWriter w;
  w.put_string("");
  w.put_opaque({});
  w.put_f64_array({});
  XdrReader r(w.take());
  EXPECT_EQ(*r.get_string(), "");
  EXPECT_TRUE(r.get_opaque()->empty());
  EXPECT_TRUE(r.get_f64_array()->empty());
  EXPECT_TRUE(r.exhausted());
}

// ---- golden big-endian bytes ------------------------------------------------
// Expected bytes are spelled out or built by shifting, independently of
// the bulk byteswap kernels under test.

std::vector<std::uint8_t> be_bytes(std::uint64_t bits) {
  std::vector<std::uint8_t> out;
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  return out;
}

std::vector<std::uint8_t> written(const ByteBuffer& buffer) {
  return {buffer.bytes().begin(), buffer.bytes().end()};
}

TEST(XdrGolden, IntegersAreBigEndian) {
  ByteBuffer b;
  b.write_u16_be(0x0102);
  b.write_u32_be(0x03040506);
  b.write_u64_be(0x0708090A0B0C0D0EULL);
  EXPECT_EQ(written(b), (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                                   12, 13, 14}));
  EXPECT_EQ(*b.read_u16_be(), 0x0102);
  EXPECT_EQ(*b.read_u32_be(), 0x03040506u);
  EXPECT_EQ(*b.read_u64_be(), 0x0708090A0B0C0D0EULL);

  XdrWriter w;
  w.put_u32(0xDEADBEEF);
  w.put_i32(-2);
  w.put_u64(0x8000000000000001ULL);
  w.put_i64(-1);
  EXPECT_EQ(written(w.buffer()),
            (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, 0xFE,
                                       0x80, 0, 0, 0, 0, 0, 0, 1,
                                       0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  XdrReader r(w.take());
  EXPECT_EQ(*r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.get_i32(), -2);
  EXPECT_EQ(*r.get_u64(), 0x8000000000000001ULL);
  EXPECT_EQ(*r.get_i64(), -1);
  EXPECT_TRUE(r.exhausted());
}

// IEEE-754 edge patterns: signed zero, NaNs with payloads (quiet and
// signalling), infinities, the smallest and largest denormals, and one
// plain value. Each must reach the wire and come back bit-for-bit.
const std::vector<std::uint64_t> kEdgeBits = {
    0x8000000000000000ULL,  // -0.0
    0x0000000000000000ULL,  // +0.0
    0x7FF8000000000ABCULL,  // quiet NaN, payload 0xABC
    0xFFF0000000000001ULL,  // negative signalling NaN, payload 1
    0x7FF0000000000000ULL,  // +inf
    0xFFF0000000000000ULL,  // -inf
    0x0000000000000001ULL,  // smallest denormal
    0x800FFFFFFFFFFFFFULL,  // largest negative denormal
    0x3FF0000000000000ULL,  // 1.0
};

TEST(XdrGolden, F64ArrayEdgeValuesAreBitExact) {
  std::vector<double> values;
  for (std::uint64_t bits : kEdgeBits) values.push_back(std::bit_cast<double>(bits));

  XdrWriter w;
  w.put_f64_array(values);
  std::vector<std::uint8_t> expected{0, 0, 0, static_cast<std::uint8_t>(kEdgeBits.size())};
  for (std::uint64_t bits : kEdgeBits) {
    auto be = be_bytes(bits);
    expected.insert(expected.end(), be.begin(), be.end());
  }
  ASSERT_EQ(written(w.buffer()), expected);
  EXPECT_EQ(expected[4], 0x80);  // -0.0 keeps its sign byte

  // Decode from an odd address too: the kernels must not assume alignment.
  std::vector<std::uint8_t> shifted(expected.size() + 1);
  std::memcpy(shifted.data() + 1, expected.data(), expected.size());
  for (std::span<const std::uint8_t> input :
       {std::span<const std::uint8_t>(expected),
        std::span<const std::uint8_t>(shifted).subspan(1)}) {
    XdrReader r(input);
    auto decoded = r.get_f64_array();
    ASSERT_TRUE(decoded.ok()) << decoded.error().describe();
    ASSERT_EQ(decoded->size(), kEdgeBits.size());
    for (std::size_t i = 0; i < kEdgeBits.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>((*decoded)[i]), kEdgeBits[i]) << "element " << i;
    }
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(XdrGolden, BulkArrayMatchesElementwiseScalars) {
  Rng rng(4);
  auto values = rng.doubles(257);
  XdrWriter bulk;
  bulk.put_f64_array(values);
  XdrWriter scalar;
  scalar.put_u32(static_cast<std::uint32_t>(values.size()));
  for (double v : values) scalar.put_f64(v);
  EXPECT_EQ(written(bulk.buffer()), written(scalar.buffer()));

  // At an odd buffer offset (ByteBuffer has no alignment rule).
  ByteBuffer odd;
  odd.write_u8(0xAA);
  odd.write_f64s_be(values);
  ASSERT_EQ(odd.size(), 1 + values.size() * 8);
  EXPECT_EQ(0, std::memcmp(odd.data() + 1, scalar.buffer().data() + 4, values.size() * 8));
}

TEST(XdrGolden, TruncatedF64ArrayIsAParseErrorAtEveryCut) {
  XdrWriter w;
  w.put_f64_array(std::vector<double>{1.0, -0.0, 3.5});
  const ByteBuffer full = w.take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    XdrReader r(full.bytes().first(cut));
    auto decoded = r.get_f64_array();
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError);
  }
  // A hostile count is refused before anything is reserved.
  XdrWriter evil;
  evil.put_u32(0xFFFFFFFF);
  evil.put_f64(1.0);
  XdrReader r(evil.take());
  auto decoded = r.get_f64_array();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError);
}

}  // namespace
}  // namespace h2::enc

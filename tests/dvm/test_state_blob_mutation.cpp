// Seeded mutation rounds through dvm::decode_entries, the decoder of the
// "H2SH" shard blob that answers vget, pull and mpull. The blob comes off
// the wire from a peer, so no input may throw: a count or length the
// remaining bytes cannot hold is kInvalidArgument, never a reserve() of
// 2^64 or a substr() past the end. Blobs the encoder wrote must decode
// and re-encode byte for byte; a mutated blob that still decodes must
// re-encode to a blob that decodes to the same entries.
#include <gtest/gtest.h>

#include <cctype>
#include <random>

#include "dvm/state.hpp"

namespace h2::dvm {
namespace {

std::vector<VersionedEntry> random_entries(std::mt19937_64& rng) {
  std::vector<VersionedEntry> out(rng() % 6);
  for (VersionedEntry& entry : out) {
    // Keys and values carry the blob's own separators and digits, so a
    // decoder that scans instead of counting would misparse them.
    static constexpr char kAlphabet[] = "ab 01\n9H2SH";
    auto text = [&](std::size_t max) {
      std::string s(rng() % (max + 1), '\0');
      for (char& c : s) c = kAlphabet[rng() % (sizeof(kAlphabet) - 1)];
      return s;
    };
    entry.key = text(12);
    entry.deleted = rng() % 4 == 0;
    entry.value = entry.deleted ? "" : text(24);
    entry.version = Version{rng() % 1000, rng()};
  }
  return out;
}

/// Decodes `blob`; on success the entries must survive a re-encode.
void check_decode(std::string_view blob, const std::string& where) {
  Result<std::vector<VersionedEntry>> decoded =
      err::internal("decode_entries did not return");
  ASSERT_NO_THROW(decoded = decode_entries(blob)) << where;
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.error().code(), ErrorCode::kInvalidArgument) << where;
    EXPECT_TRUE(decoded.error().message().starts_with("shard blob: ")) << where;
    return;
  }
  auto again = decode_entries(encode_entries(*decoded));
  ASSERT_TRUE(again.ok()) << where;
  EXPECT_EQ(*again, *decoded) << where;
}

TEST(StateBlobMutation, EncodedBlobsRoundTripByteForByte) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    std::mt19937_64 rng(seed);
    const std::vector<VersionedEntry> entries = random_entries(rng);
    const std::string blob = encode_entries(entries);
    auto decoded = decode_entries(blob);
    ASSERT_TRUE(decoded.ok()) << "seed " << seed << ": " << decoded.error().describe();
    EXPECT_EQ(*decoded, entries) << "seed " << seed;
    EXPECT_EQ(encode_entries(*decoded), blob) << "seed " << seed;
  }
}

TEST(StateBlobMutation, HugeCountIsRejectedNotReserved) {
  for (const char* blob : {"H2SH 18446744073709551615\n", "H2SH 1000000\n0 0 0 0 0\n",
                           "H2SH 2\n0 0 0 0 0\n"}) {
    auto decoded = decode_entries(blob);
    ASSERT_FALSE(decoded.ok()) << blob;
    EXPECT_EQ(decoded.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(decoded.error().message(), "shard blob: truncated");
  }
}

TEST(StateBlobMutation, WrappingEntryLengthsAreRejected) {
  // key_len + value_len wraps to 1: the payload check must not add them.
  for (const char* blob : {"H2SH 1\n1 2 0 18446744073709551615 2\nxy",
                           "H2SH 1\n1 2 0 2 18446744073709551615\nxy",
                           "H2SH 1\n1 2 0 3 0\nxy"}) {
    auto decoded = decode_entries(blob);
    ASSERT_FALSE(decoded.ok()) << blob;
    EXPECT_EQ(decoded.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(decoded.error().message(), "shard blob: truncated entry payload");
  }
}

TEST(StateBlobMutation, SeededMutationsNeverThrow) {
  static const char* const kHugeNumbers[] = {
      "18446744073709551615", "18446744073709551616", "99999999999999999999999",
      "4294967296", "0", "-1"};
  for (std::uint64_t seed = 1; seed <= 20000; ++seed) {
    std::mt19937_64 rng(seed);
    std::string blob = encode_entries(random_entries(rng));
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations && !blob.empty(); ++m) {
      const std::size_t at = rng() % blob.size();
      switch (rng() % 5) {
        case 0:  // truncate
          blob.resize(at);
          break;
        case 1:  // flip a byte
          blob[at] = static_cast<char>(blob[at] ^ (1 + rng() % 255));
          break;
        case 2: {  // replace the number under `at` with a huge one
          std::size_t begin = at, end = at;
          auto digit = [&](std::size_t i) {
            return std::isdigit(static_cast<unsigned char>(blob[i])) != 0;
          };
          while (begin > 0 && digit(begin - 1)) --begin;
          while (end < blob.size() && digit(end)) ++end;
          blob.replace(begin, end - begin, kHugeNumbers[rng() % std::size(kHugeNumbers)]);
          break;
        }
        case 3:  // drop a byte
          blob.erase(at, 1);
          break;
        default:  // duplicate a run
          blob.insert(at, blob.substr(at, rng() % 16));
          break;
      }
    }
    check_decode(blob, "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace h2::dvm

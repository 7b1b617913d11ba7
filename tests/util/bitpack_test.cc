#include "util/bitpack.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace sss {
namespace {

// --- 2-bit codec (the lane kernels' packed2 column encoding).

TEST(Dna2CodecTest, EncodeDecodeAllSymbols) {
  for (int i = 0; i < Dna2Codec::kAlphabetSize; ++i) {
    const char c = Dna2Codec::kAlphabet[i];
    EXPECT_EQ(Dna2Codec::Encode(c), i);
    EXPECT_EQ(Dna2Codec::Decode(static_cast<uint8_t>(i)), c);
  }
}

TEST(Dna2CodecTest, RejectsEverythingOutsideAcgt) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    if (c == 'A' || c == 'C' || c == 'G' || c == 'T') continue;
    EXPECT_EQ(Dna2Codec::Encode(c), Dna2Codec::kInvalidCode) << "byte " << b;
  }
  EXPECT_EQ(Dna2Codec::Encode('N'), Dna2Codec::kInvalidCode);  // no 'N' here
  EXPECT_TRUE(Dna2Codec::IsValid("GATTACA"));
  EXPECT_FALSE(Dna2Codec::IsValid("GATTACAN"));
  EXPECT_TRUE(Dna2Codec::IsValid(""));
}

TEST(Dna2PackTest, KnownLayout) {
  // LSB-first: "ACGT" -> codes 0,1,2,3 -> 0b11'10'01'00 = 0xE4.
  std::vector<uint8_t> packed;
  ASSERT_TRUE(PackDna2Into("ACGT", &packed).ok());
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0], 0xE4);
  // Odd tail is zero-padded: "TG" -> 0b00'00'10'11 = 0x0B.
  packed.clear();
  ASSERT_TRUE(PackDna2Into("TG", &packed).ok());
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0], 0x0B);
}

TEST(Dna2PackTest, EmptyStringPacksToNothing) {
  std::vector<uint8_t> packed;
  ASSERT_TRUE(PackDna2Into("", &packed).ok());
  EXPECT_TRUE(packed.empty());
  EXPECT_EQ(UnpackDna2(packed.data(), 0), "");
}

TEST(Dna2PackTest, InvalidSymbolFailsAndRollsBack) {
  std::vector<uint8_t> packed;
  ASSERT_TRUE(PackDna2Into("GATTACA", &packed).ok());
  const std::vector<uint8_t> before = packed;
  // Invalid symbol in every position of the appended string, including past
  // the first full byte (a partially-written tail must be rolled back too).
  for (const char* bad : {"NACGT", "ACNGT", "ACGTN", "ACGTACGTX"}) {
    EXPECT_FALSE(PackDna2Into(bad, &packed).ok()) << bad;
    EXPECT_EQ(packed, before) << "rollback failed for " << bad;
  }
  EXPECT_EQ(UnpackDna2(packed.data(), 7), "GATTACA");
}

TEST(Dna2PackTest, FuzzRoundTrip) {
  Xoshiro256 rng(0xD2D2D2);
  const char alphabet[] = {'A', 'C', 'G', 'T'};
  for (int iter = 0; iter < 5000; ++iter) {
    // Lengths 0..67 cover empty, every mod-4 remainder, and multi-word runs.
    const size_t len = rng.Uniform(68);
    std::string s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(alphabet[rng.Uniform(4)]);
    }
    std::vector<uint8_t> packed;
    ASSERT_TRUE(PackDna2Into(s, &packed).ok());
    ASSERT_EQ(packed.size(), (len + 3) / 4);
    EXPECT_EQ(UnpackDna2(packed.data(), len), s) << "len=" << len;
  }
}

TEST(Dna2PackTest, FuzzUnpackOfArbitraryBytesRepacks) {
  // UnpackDna2 is total: any byte content decodes to some ACGT string, and
  // packing that string reproduces the bits the symbols occupied.
  Xoshiro256 rng(0xBEEF);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t n = rng.Uniform(40);
    std::vector<uint8_t> raw((n + 3) / 4);
    for (uint8_t& b : raw) b = static_cast<uint8_t>(rng.Uniform(256));
    const std::string text = UnpackDna2(raw.data(), n);
    ASSERT_EQ(text.size(), n);
    EXPECT_TRUE(Dna2Codec::IsValid(text));
    std::vector<uint8_t> repacked;
    ASSERT_TRUE(PackDna2Into(text, &repacked).ok());
    ASSERT_EQ(repacked.size(), raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      // Compare only the bits the n symbols occupy; the final partial
      // byte's padding bits are zeroed by the packer.
      const size_t sym_in_byte = std::min(n - i * 4, size_t{4});
      const uint8_t mask =
          sym_in_byte == 4 ? 0xFF
                           : static_cast<uint8_t>((1u << (2 * sym_in_byte)) - 1);
      EXPECT_EQ(repacked[i], raw[i] & mask) << "iter=" << iter << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace sss

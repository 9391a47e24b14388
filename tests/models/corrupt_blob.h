// Truncation and byte-flip sweeps over a serialized model blob. Parsing a
// damaged blob must return a Status, never abort or allocate what the
// blob merely claims.

#ifndef MGARDP_TESTS_MODELS_CORRUPT_BLOB_H_
#define MGARDP_TESTS_MODELS_CORRUPT_BLOB_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace mgardp {

// Offsets to damage: every byte of the first 512, then every 61st, and the
// last byte.
inline std::vector<std::size_t> SweepOffsets(std::size_t size) {
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < size; i += (i < 512 ? 1 : 61)) {
    offsets.push_back(i);
  }
  if (size > 0 && offsets.back() != size - 1) {
    offsets.push_back(size - 1);
  }
  return offsets;
}

// `parse(bytes)` deserializes and returns a Result. Every proper prefix of
// `blob` and `blob` plus a trailing byte must fail; every single-byte flip
// must return (flips inside floating-point payloads may still parse, as the
// format carries no checksum), and flips at `structural` offsets (magic,
// counts) must fail.
template <typename Parse>
void ExpectCorruptBlobsFailCleanly(const std::string& blob, Parse parse,
                                   const std::vector<std::size_t>& structural) {
  ASSERT_TRUE(parse(blob).ok());
  for (std::size_t len : SweepOffsets(blob.size())) {
    EXPECT_FALSE(parse(blob.substr(0, len)).ok()) << "truncated to " << len;
  }
  EXPECT_FALSE(parse(blob + '\0').ok()) << "trailing byte accepted";
  for (std::size_t at : SweepOffsets(blob.size())) {
    std::string flipped = blob;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
    const bool ok = parse(flipped).ok();
    if (std::find(structural.begin(), structural.end(), at) !=
        structural.end()) {
      EXPECT_FALSE(ok) << "flip at structural offset " << at << " accepted";
    }
  }
}

}  // namespace mgardp

#endif  // MGARDP_TESTS_MODELS_CORRUPT_BLOB_H_

#include "ckpt/format.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace psanim::ckpt {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slice-by-8 tables for the reflected 0xEDB88320 polynomial: table 0 is the
// byte-at-a-time table, and table k advances a byte's contribution past k
// more zero bytes, so eight lookups consume eight input bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

/// Eight bytes as a little-endian word; memcpy keeps unaligned spans safe.
std::uint64_t load_le64(const std::byte* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = load_le64(p) ^ c;
    c = kCrc[7][w & 0xFFu] ^ kCrc[6][(w >> 8) & 0xFFu] ^
        kCrc[5][(w >> 16) & 0xFFu] ^ kCrc[4][(w >> 24) & 0xFFu] ^
        kCrc[3][(w >> 32) & 0xFFu] ^ kCrc[2][(w >> 40) & 0xFFu] ^
        kCrc[1][(w >> 48) & 0xFFu] ^ kCrc[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    c = kCrc[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace psanim::ckpt

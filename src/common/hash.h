#ifndef MUDS_COMMON_HASH_H_
#define MUDS_COMMON_HASH_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace muds {

/// The n <= 8 bytes at `data` as one zero-extended little-endian word, read
/// with fixed-size loads that never pass data + n: a variable-length memcpy
/// is a library call, which on short keys (the ingest interning probe)
/// costs more than the hash itself. Distinct byte strings of one length
/// give distinct words.
inline uint64_t LoadShortWord(const char* data, size_t n) {
  if (n >= 4) {
    uint32_t low;
    uint32_t high;
    std::memcpy(&low, data, 4);
    std::memcpy(&high, data + n - 4, 4);
    return low | (static_cast<uint64_t>(high) << (8 * (n - 4)));
  }
  if (n == 0) return 0;
  const auto byte = [data](size_t i) {
    return static_cast<uint64_t>(static_cast<unsigned char>(data[i]))
           << (8 * i);
  };
  return byte(0) | byte(n / 2) | byte(n - 1);
}
static_assert(std::endian::native == std::endian::little,
              "LoadShortWord's overlapping loads assume a little-endian host");

/// 64-bit string hash over 8-byte chunks (multiply-xor mixing, wyhash-lite
/// constants). Originally the ingest interning hash; shared here so the
/// serving layer's content-addressed result catalog and any other
/// fingerprinting user mix bytes the same way. Callers that need a wider
/// fingerprint hash twice with different seeds — the two streams are
/// decorrelated by the seed entering the initial state.
inline uint64_t HashBytes(const char* data, size_t n,
                          uint64_t seed = 0x9E3779B97F4A7C15ull) {
  uint64_t h = seed ^ (n * 0xA0761D6478BD642Full);
  while (n >= 8) {
    uint64_t k;
    std::memcpy(&k, data, 8);
    k *= 0x9DDFEA08EB382D69ull;
    k ^= k >> 32;
    h = (h ^ k) * 0xC2B2AE3D27D4EB4Full;
    data += 8;
    n -= 8;
  }
  if (n > 0) {
    uint64_t k = LoadShortWord(data, n);  // The 1-7 tail bytes.
    k *= 0x9DDFEA08EB382D69ull;
    k ^= k >> 32;
    h = (h ^ k) * 0xC2B2AE3D27D4EB4Full;
  }
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return h;
}

inline uint64_t HashBytes(std::string_view bytes,
                          uint64_t seed = 0x9E3779B97F4A7C15ull) {
  return HashBytes(bytes.data(), bytes.size(), seed);
}

}  // namespace muds

#endif  // MUDS_COMMON_HASH_H_

// Small hashing utilities shared across STASH modules.
//
// STASH disperses Cells over a zero-hop DHT keyed by geohash, and its
// per-level graphs are hash maps keyed by (geohash, temporal-bin) pairs;
// every module therefore needs a cheap, stable, well-mixed hash that does
// not depend on libstdc++'s identity hash for integers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace stash {

/// 64-bit finalizer from SplitMix64; a strong integer mixer.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a byte string; stable across platforms and runs.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// hash_combine of a value already passed through mix64: callers folding
/// one value into many seeds mix it once.
inline void hash_combine_mixed(std::uint64_t& seed, std::uint64_t mixed) noexcept {
  seed ^= mixed + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// boost-style hash_combine with a 64-bit mixer.
inline void hash_combine(std::uint64_t& seed, std::uint64_t value) noexcept {
  hash_combine_mixed(seed, mix64(value));
}

}  // namespace stash

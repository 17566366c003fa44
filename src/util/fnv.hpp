// 64-bit FNV-1a: the one implementation behind every stable hash in the
// project — self-fuzz input seeds, the feedback loop's novelty features and
// the campaign fingerprint that gates checkpoint and wire compatibility.
// Its output is part of those formats, so it must never change.
#pragma once

#include <cstdint>
#include <string_view>

namespace acf::util {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// Folds one byte into `hash`.
constexpr std::uint64_t fnv1a(std::uint64_t hash, std::uint8_t byte) noexcept {
  return (hash ^ byte) * 0x100000001b3ULL;
}

/// Folds the bytes of `text` in order.
constexpr std::uint64_t fnv1a(std::uint64_t hash, std::string_view text) noexcept {
  for (const char c : text) hash = fnv1a(hash, static_cast<std::uint8_t>(c));
  return hash;
}

/// Folds the eight bytes of `value`, least significant first.
constexpr std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) hash = fnv1a(hash, static_cast<std::uint8_t>(value >> (8 * i)));
  return hash;
}

}  // namespace acf::util

#include "feedback/novelty.hpp"

#include <bit>

#include "util/fnv.hpp"

namespace acf::feedback {

std::uint8_t count_bucket(std::uint64_t count) noexcept {
  if (count <= 3) return static_cast<std::uint8_t>(count == 0 ? 0 : count - 1);
  if (count <= 7) return 3;
  if (count <= 15) return 4;
  if (count <= 31) return 5;
  if (count <= 127) return 6;
  return 7;
}

Feature make_feature(Domain domain, std::uint64_t key, std::uint64_t count) noexcept {
  std::uint64_t hash = util::fnv1a(util::kFnv1aOffset, static_cast<std::uint8_t>(domain));
  hash = util::fnv1a_u64(hash, key);
  return util::fnv1a(hash, count_bucket(count));
}

NoveltyMap::NoveltyMap(std::size_t cells) {
  if (cells < 64) cells = 64;
  cells = std::bit_ceil(cells);
  words_.assign(cells / 64, 0);
  mask_ = cells - 1;
}

std::size_t NoveltyMap::cell_of(Feature feature) const noexcept {
  // Fold the high bits in so small maps still use the whole hash.
  return static_cast<std::size_t>((feature ^ (feature >> 32)) & mask_);
}

bool NoveltyMap::observe(Feature feature) noexcept {
  const std::size_t cell = cell_of(feature);
  std::uint64_t& word = words_[cell / 64];
  const std::uint64_t bit = std::uint64_t{1} << (cell % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  ++occupied_;
  return true;
}

std::size_t NoveltyMap::observe_all(std::span<const Feature> features) noexcept {
  std::size_t fresh = 0;
  for (const Feature feature : features) {
    if (observe(feature)) ++fresh;
  }
  return fresh;
}

bool NoveltyMap::seen(Feature feature) const noexcept {
  const std::size_t cell = cell_of(feature);
  return (words_[cell / 64] >> (cell % 64)) & 1;
}

double NoveltyMap::density() const noexcept {
  const std::size_t total = cells();
  return total == 0 ? 0.0 : static_cast<double>(occupied_) / static_cast<double>(total);
}

void NoveltyMap::reset() noexcept {
  for (std::uint64_t& word : words_) word = 0;
  occupied_ = 0;
}

bool NoveltyMap::restore_words(std::span<const std::uint64_t> words) noexcept {
  if (words.size() != words_.size()) return false;
  occupied_ = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] = words[i];
    occupied_ += static_cast<std::size_t>(std::popcount(words[i]));
  }
  return true;
}

}  // namespace acf::feedback

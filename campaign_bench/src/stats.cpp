#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace campaign_bench {

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) noexcept {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = nearest_rank(values.size(), p);
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

std::size_t samples_beyond(std::size_t n, double p) noexcept {
  if (n == 0) return 0;
  return n - nearest_rank(n, p);
}

std::optional<double> tail_percentile(std::size_t n) noexcept {
  for (const double p : {99.9, 99.0, 90.0}) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return std::nullopt;
}

}  // namespace campaign_bench

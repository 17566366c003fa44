// Small statistics and hashing helpers of the campaign benchmark.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace campaign_bench {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

/// 64-bit FNV-1a over `bytes`, continuing from `hash`.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash = kFnvOffset) noexcept;

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);

inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

/// Samples that lie beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p) noexcept;

/// The percentile rule: the highest of p99.9, p99 and p90 that has at least
/// ten of the n samples beyond it; nullopt when not even p90 has.
std::optional<double> tail_percentile(std::size_t n) noexcept;

}  // namespace campaign_bench

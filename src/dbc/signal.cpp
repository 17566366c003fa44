#include "dbc/signal.hpp"

#include <algorithm>
#include <cmath>

namespace acf::dbc {

namespace {

std::uint64_t low_mask(unsigned bits) noexcept {
  return bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
}

/// Where a signal lies in a payload, read as one little-endian word of the
/// (at most nine) payload bytes it spans: the word's k-th byte is
/// payload[first + k] for Intel order and payload[first - k] for Motorola
/// order, and the raw value sits `shift` bits above the word's LSB.
///
/// Motorola start bits follow the DBC sawtooth (bit 7 of a byte is its first
/// bit on the wire, bit 0 its last), so the MSB's linear index counted
/// MSB-first is byte*8 + (7 - bit), and the signal's bits run on from there.
struct Placement {
  std::size_t first = 0;  // payload index of the word's least significant byte
  std::size_t last = 0;   // highest payload index the signal touches
  unsigned shift = 0;     // raw LSB position within the word, 0..7
  unsigned bytes = 0;     // payload bytes spanned, 1..9
  bool reversed = false;  // Motorola: word bytes run downward in the payload

  explicit Placement(const SignalDef& sig) noexcept {
    const std::size_t start_byte = sig.start_bit / 8u;
    const unsigned start_in_byte = sig.start_bit % 8u;
    if (sig.byte_order == ByteOrder::kLittleEndian) {
      first = start_byte;
      shift = start_in_byte;
      bytes = (shift + sig.bit_length + 7u) / 8u;
      last = first + bytes - 1;
    } else {
      const std::size_t lsb = start_byte * 8 + (7u - start_in_byte) + sig.bit_length - 1;
      last = lsb / 8;
      first = last;
      shift = 7u - static_cast<unsigned>(lsb % 8);
      bytes = static_cast<unsigned>(last - start_byte + 1);
      reversed = true;
    }
  }

  std::size_t at(unsigned k) const noexcept { return reversed ? first - k : first + k; }
};

}  // namespace

double SignalDef::raw_to_physical(std::uint64_t raw) const noexcept {
  const double base = is_signed ? static_cast<double>(sign_extend(raw, bit_length))
                                : static_cast<double>(raw);
  return base * scale + offset;
}

std::uint64_t SignalDef::physical_to_raw(double physical) const noexcept {
  const double unscaled = scale != 0.0 ? (physical - offset) / scale : 0.0;
  const double rounded = std::nearbyint(unscaled);
  const unsigned bits = std::min<unsigned>(bit_length, 64);
  if (bits == 0 || std::isnan(rounded)) return 0;
  const std::uint64_t mask = low_mask(bits);
  // The range bounds are powers of two, exact as doubles at every width;
  // `2^n - 1` is not exact above 53 bits, so compare against the powers and
  // saturate in integers.
  if (is_signed) {
    const double half = std::ldexp(1.0, static_cast<int>(bits) - 1);
    if (rounded >= half) return mask >> 1;            // 2^(n-1) - 1
    if (rounded <= -half) return (mask >> 1) ^ mask;  // -2^(n-1), two's complement
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(rounded)) & mask;
  }
  if (rounded <= 0.0) return 0;
  if (rounded >= std::ldexp(1.0, static_cast<int>(bits))) return mask;
  return static_cast<std::uint64_t>(rounded);
}

bool SignalDef::fits(std::size_t payload_bytes) const noexcept {
  if (bit_length == 0 || bit_length > 64) return false;
  return Placement(*this).last < payload_bytes;
}

bool SignalDef::in_declared_range(double physical) const noexcept {
  if (min == 0.0 && max == 0.0) return true;
  return physical >= min && physical <= max;
}

std::optional<std::uint64_t> extract_raw(const SignalDef& sig,
                                         std::span<const std::uint8_t> payload) noexcept {
  if (!sig.fits(payload.size())) return std::nullopt;
  const Placement place(sig);
  std::uint64_t word = 0;
  for (unsigned k = 0; k < place.bytes && k < 8; ++k) {
    word |= static_cast<std::uint64_t>(payload[place.at(k)]) << (8 * k);
  }
  std::uint64_t raw = word >> place.shift;
  // A ninth byte only occurs when the signal starts mid-byte (shift > 0).
  if (place.bytes == 9) {
    raw |= static_cast<std::uint64_t>(payload[place.at(8)]) << (64 - place.shift);
  }
  return raw & low_mask(sig.bit_length);
}

bool insert_raw(const SignalDef& sig, std::uint64_t raw,
                std::span<std::uint8_t> payload) noexcept {
  if (!sig.fits(payload.size())) return false;
  const Placement place(sig);
  const std::uint64_t mask = low_mask(sig.bit_length);
  const std::uint64_t value = raw & mask;
  auto merge = [&payload](std::size_t index, std::uint64_t bits_mask, std::uint64_t bits) {
    const auto byte_mask = static_cast<std::uint8_t>(bits_mask);
    payload[index] = static_cast<std::uint8_t>((payload[index] & ~byte_mask) |
                                               (static_cast<std::uint8_t>(bits) & byte_mask));
  };
  for (unsigned k = 0; k < place.bytes && k < 8; ++k) {
    merge(place.at(k), (mask << place.shift) >> (8 * k), (value << place.shift) >> (8 * k));
  }
  if (place.bytes == 9) {
    merge(place.at(8), mask >> (64 - place.shift), value >> (64 - place.shift));
  }
  return true;
}
std::optional<double> decode(const SignalDef& sig,
                             std::span<const std::uint8_t> payload) noexcept {
  const auto raw = extract_raw(sig, payload);
  if (!raw) return std::nullopt;
  return sig.raw_to_physical(*raw);
}

bool encode(const SignalDef& sig, double physical, std::span<std::uint8_t> payload) noexcept {
  return insert_raw(sig, sig.physical_to_raw(physical), payload);
}

std::int64_t sign_extend(std::uint64_t raw, std::uint16_t bits) noexcept {
  if (bits == 0 || bits >= 64) return static_cast<std::int64_t>(raw);
  const std::uint64_t sign = 1ULL << (bits - 1);
  const std::uint64_t mask = (1ULL << bits) - 1;
  raw &= mask;
  if (raw & sign) raw |= ~mask;
  return static_cast<std::int64_t>(raw);
}

}  // namespace acf::dbc

// DBC signal bit access against a bit-walk reference.  The library reads and
// writes a signal as one shifted and masked word; the reference here walks
// the signal one bit at a time along the DBC definition (Intel: upward from
// the start bit; Motorola: from the MSB down each byte, then on to bit 7 of
// the next byte).  Every start bit, length and byte order is checked on
// every classic payload length and on the CAN FD lengths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "dbc/signal.hpp"
#include "util/rng.hpp"

namespace acf::dbc {
namespace {

/// Absolute bit positions (byte*8 + bit, bit 0 = LSB) of a signal's bits:
/// raw LSB first for Intel order, raw MSB first for Motorola order.
std::vector<std::size_t> walk(const SignalDef& sig) {
  std::vector<std::size_t> positions;
  std::size_t byte = sig.start_bit / 8;
  std::size_t bit = sig.start_bit % 8;
  for (std::uint16_t i = 0; i < sig.bit_length; ++i) {
    positions.push_back(byte * 8 + bit);
    if (sig.byte_order == ByteOrder::kLittleEndian) {
      if (++bit == 8) {
        bit = 0;
        ++byte;
      }
    } else if (bit == 0) {
      bit = 7;
      ++byte;
    } else {
      --bit;
    }
  }
  return positions;
}

bool reference_fits(const SignalDef& sig, std::size_t payload_bytes) {
  if (sig.bit_length == 0 || sig.bit_length > 64) return false;
  for (std::size_t pos : walk(sig)) {
    if (pos / 8 >= payload_bytes) return false;
  }
  return true;
}

std::optional<std::uint64_t> reference_extract(const SignalDef& sig,
                                               const std::vector<std::uint8_t>& payload) {
  if (!reference_fits(sig, payload.size())) return std::nullopt;
  const auto positions = walk(sig);
  std::uint64_t raw = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const std::uint64_t bit = (std::uint64_t{payload[positions[i] / 8]} >> (positions[i] % 8)) & 1u;
    if (sig.byte_order == ByteOrder::kLittleEndian) {
      raw |= bit << i;
    } else {
      raw = (raw << 1) | bit;
    }
  }
  return raw;
}

bool reference_insert(const SignalDef& sig, std::uint64_t raw,
                      std::vector<std::uint8_t>& payload) {
  if (!reference_fits(sig, payload.size())) return false;
  const auto positions = walk(sig);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const std::size_t source = sig.byte_order == ByteOrder::kLittleEndian
                                   ? i
                                   : positions.size() - 1 - i;
    const auto mask = static_cast<std::uint8_t>(1u << (positions[i] % 8));
    std::uint8_t& byte = payload[positions[i] / 8];
    byte = ((raw >> source) & 1u) != 0 ? static_cast<std::uint8_t>(byte | mask)
                                       : static_cast<std::uint8_t>(byte & ~mask);
  }
  return true;
}

TEST(DbcSignalProperty, WordAccessMatchesBitWalkEverywhere) {
  util::Rng rng(0xDBC5);
  const std::size_t lengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24, 32, 48, 64};
  std::size_t fitting = 0;
  for (const std::size_t payload_bytes : lengths) {
    // Start bits run one byte past the payload, so the not-fitting side of
    // every boundary is covered too.
    for (std::size_t start = 0; start < 8 * payload_bytes + 8; ++start) {
      for (std::uint16_t length = 0; length <= 65; ++length) {
        for (const ByteOrder order : {ByteOrder::kLittleEndian, ByteOrder::kBigEndian}) {
          SignalDef sig;
          sig.start_bit = static_cast<std::uint16_t>(start);
          sig.bit_length = length;
          sig.byte_order = order;
          const bool fits = reference_fits(sig, payload_bytes);
          ASSERT_EQ(sig.fits(payload_bytes), fits)
              << "start " << start << " length " << length << " bytes " << payload_bytes
              << (order == ByteOrder::kBigEndian ? " motorola" : " intel");
          fitting += fits ? 1 : 0;

          std::vector<std::uint8_t> payload(payload_bytes);
          for (auto& byte : payload) byte = rng.next_byte();
          ASSERT_EQ(extract_raw(sig, payload), reference_extract(sig, payload))
              << "start " << start << " length " << length << " bytes " << payload_bytes;

          // Bits above the signal width are dropped; neighbours are kept.
          const std::uint64_t raw = rng.next_u64();
          std::vector<std::uint8_t> expected = payload;
          const bool inserted = insert_raw(sig, raw, payload);
          ASSERT_EQ(inserted, reference_insert(sig, raw, expected));
          ASSERT_EQ(payload, expected)
              << "start " << start << " length " << length << " bytes " << payload_bytes;
        }
      }
    }
  }
  EXPECT_GT(fitting, 100000u);
}

}  // namespace
}  // namespace acf::dbc

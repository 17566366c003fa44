#include "can/wire_codec.hpp"

#include <algorithm>
#include <vector>

#include "can/crc.hpp"

namespace acf::can {

namespace {

// Fixed-form tail after the stuffed region: CRC delimiter, ACK slot,
// ACK delimiter, EOF (7 recessive bits).
constexpr std::size_t kTailBits = 1 + 1 + 1 + 7;
constexpr std::size_t kInterframeSpace = 3;

// The frame's bit layout is emitted through a sink so the materialising
// encoder (BitVec) and the allocation-free length counter below share one
// definition of the wire format.
template <typename Sink>
void emit_value(Sink& sink, std::uint32_t value, int width) {
  for (int shift = width - 1; shift >= 0; --shift) {
    sink(static_cast<std::uint8_t>((value >> shift) & 1));
  }
}

template <typename Sink>
void emit_header_and_data(Sink& sink, const CanFrame& frame) {
  sink(0);  // SOF, dominant
  if (!frame.is_extended()) {
    emit_value(sink, frame.id(), 11);
    sink(frame.is_remote() ? 1 : 0);  // RTR
    sink(0);                          // IDE: standard
    sink(0);                          // r0
  } else {
    emit_value(sink, frame.id() >> 18, 11);  // base id
    sink(1);                                 // SRR, recessive
    sink(1);                                 // IDE: extended
    emit_value(sink, frame.id() & 0x3FFFF, 18);
    sink(frame.is_remote() ? 1 : 0);  // RTR
    sink(0);                          // r1
    sink(0);                          // r0
  }
  emit_value(sink, frame.dlc(), 4);
  for (std::uint8_t byte : frame.payload()) emit_value(sink, byte, 8);
}

template <typename Sink>
void emit_fd_head(Sink& sink, const CanFrame& frame) {
  sink(0);  // SOF
  if (!frame.is_extended()) {
    emit_value(sink, frame.id(), 11);
    sink(0);  // RRS
    sink(0);  // IDE
  } else {
    emit_value(sink, frame.id() >> 18, 11);
    sink(1);  // SRR
    sink(1);  // IDE
    emit_value(sink, frame.id() & 0x3FFFF, 18);
    sink(0);  // RRS
  }
  sink(1);                    // FDF
  sink(0);                    // res
  sink(frame.brs() ? 1 : 0);  // BRS
  sink(0);                    // ESI (error active)
  emit_value(sink, frame.dlc(), 4);
  for (std::uint8_t byte : frame.payload()) emit_value(sink, byte, 8);
}

/// Computes the stuffed-region length of a frame without materialising any
/// bits: the CRC15 register and the stuff-run state live in registers.  The
/// stuffing recurrence mirrors count_stuff_bits() (a stuff bit counts toward
/// the following run), and the CRC step mirrors crc15_bits().
struct WireLengthCounter {
  std::uint16_t crc = 0;
  std::size_t logical = 0;
  std::size_t stuffed = 0;
  std::uint8_t last = 2;  // neither 0 nor 1
  int run = 0;

  void operator()(std::uint8_t bit) {
    const bool do_xor = (((crc & 0x4000) != 0) != (bit != 0));
    crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
    if (do_xor) crc = static_cast<std::uint16_t>(crc ^ 0x4599);
    count(bit);
  }

  // Stuff-count only; used for the CRC field, which is stuffed but does not
  // feed back into the CRC register.
  void count(std::uint8_t bit) {
    ++logical;
    if (bit == last) {
      ++run;
    } else {
      last = bit;
      run = 1;
    }
    if (run == 5) {
      ++stuffed;
      last = static_cast<std::uint8_t>(1 - last);
      run = 1;
    }
  }
};

// ---------------------------------------------------------------------------
// Table-driven fast path for classic frames (the bus model computes a wire
// length for every transmission, so this is the simulator's hottest leaf).
// The per-bit recurrences above are folded into byte-step tables: one CRC15
// table lookup and one stuffing-automaton lookup replace eight branchy bit
// steps each.  Both tables are generated from the bitwise definitions at
// compile time, so they cannot drift from the reference path (and
// codec_property_test cross-checks them against encode_logical + stuff()).

/// CRC15 byte step: T[i] is the register after eight zero-feed bit steps
/// starting from i << 7.  Because the step is GF(2)-linear in (register,
/// input bit), feeding byte b into register c equals
/// ((c << 8) & 0x7FFF) ^ T[(c >> 7) ^ b].
struct Crc15ByteTable {
  std::uint16_t at[256] = {};
};

consteval Crc15ByteTable make_crc15_byte_table() {
  Crc15ByteTable table;
  for (unsigned i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i << 7);
    for (int k = 0; k < 8; ++k) {
      const bool do_xor = (crc & 0x4000) != 0;
      crc = static_cast<std::uint16_t>((crc << 1) & 0x7FFF);
      if (do_xor) crc = static_cast<std::uint16_t>(crc ^ 0x4599);
    }
    table.at[i] = crc;
  }
  return table;
}

constexpr Crc15ByteTable kCrc15Byte = make_crc15_byte_table();

inline std::uint16_t crc15_step_byte(std::uint16_t crc, std::uint8_t byte) {
  return static_cast<std::uint16_t>(((crc << 8) & 0x7FFF) ^
                                    kCrc15Byte.at[((crc >> 7) & 0xFF) ^ byte]);
}

/// Bit-stuffing automaton.  State encodes (last bit, run length): states
/// 0..7 are last*4 + (run-1) for run 1..4 (a run of 5 is resolved
/// immediately by inserting a stuff bit, which resets the run), state 8 is
/// the pre-SOF "no previous bit" start state.  `next`/`added` step a whole
/// byte; `tail_added` finishes a stream with its last 1..7 bits, indexed by
/// those bits behind a leading sentinel 1 ((1 << count) | bits).
struct StuffByteTable {
  std::uint8_t next[9][256] = {};
  std::uint8_t added[9][256] = {};
  std::uint8_t tail_added[9][256] = {};
};

struct StuffWalk {
  std::uint8_t state = 8;
  std::uint8_t added = 0;
};

consteval StuffWalk stuff_walk(unsigned state, unsigned bits, int count) {
  std::uint8_t last = state == 8 ? 2 : static_cast<std::uint8_t>(state / 4);
  int run = state == 8 ? 0 : static_cast<int>(state % 4) + 1;
  StuffWalk walk;
  for (int shift = count - 1; shift >= 0; --shift) {
    const std::uint8_t bit = (bits >> shift) & 1;
    if (bit == last) {
      ++run;
    } else {
      last = bit;
      run = 1;
    }
    if (run == 5) {
      ++walk.added;
      last = static_cast<std::uint8_t>(1 - last);
      run = 1;
    }
  }
  walk.state = static_cast<std::uint8_t>(last * 4 + (run - 1));
  return walk;
}

consteval StuffByteTable make_stuff_byte_table() {
  StuffByteTable table;
  for (unsigned state = 0; state < 9; ++state) {
    for (unsigned byte = 0; byte < 256; ++byte) {
      const StuffWalk walk = stuff_walk(state, byte, 8);
      table.next[state][byte] = walk.state;
      table.added[state][byte] = walk.added;
    }
    for (int count = 1; count < 8; ++count) {
      for (unsigned bits = 0; bits < (1u << count); ++bits) {
        table.tail_added[state][(1u << count) | bits] = stuff_walk(state, bits, count).added;
      }
    }
  }
  return table;
}

constexpr StuffByteTable kStuffByte = make_stuff_byte_table();

/// Stuff bits of a whole SOF..CRC region held MSB-first in two left-aligned
/// words (`bits` in total, at most 128).
std::size_t stuff_bits_in(std::uint64_t hi, std::uint64_t lo, std::size_t bits) {
  std::size_t stuffed = 0;
  std::uint8_t state = 8;
  for (std::uint64_t word : {hi, lo}) {
    std::size_t left = std::min<std::size_t>(bits, 64);
    bits -= left;
    for (; left >= 8; left -= 8, word <<= 8) {
      const auto byte = static_cast<std::uint8_t>(word >> 56);
      stuffed += kStuffByte.added[state][byte];
      state = kStuffByte.next[state][byte];
    }
    if (left != 0) {
      // Only the stream's last bits end short of a byte.
      return stuffed + kStuffByte.tail_added[state][(1u << left) | (word >> (64 - left))];
    }
  }
  return stuffed;
}

/// Classic-frame wire length straight from id, DLC and payload.  The
/// SOF..DLC header is at most 39 bits; left-padding it with zeros to whole
/// bytes leaves a zero-initialised CRC-15 unchanged, so the CRC runs in
/// byte steps only.  The stuff count reads the unpadded region
/// (header | payload | CRC, at most 118 bits) from two 64-bit words.
std::size_t classic_wire_bit_count(const CanFrame& frame) {
  const std::uint64_t rtr = frame.is_remote() ? 1 : 0;
  std::uint64_t header = 0;  // SOF (dominant, 0) .. DLC, right-aligned
  std::size_t header_bits = 0;
  if (!frame.is_extended()) {
    // SOF, id(11), RTR, IDE=0, r0=0, DLC(4)
    header = (std::uint64_t{frame.id()} << 7) | (rtr << 6) | frame.dlc();
    header_bits = 19;
  } else {
    // SOF, base id(11), SRR=1, IDE=1, extension(18), RTR, r1=0, r0=0, DLC(4)
    header = (std::uint64_t{frame.id() >> 18} << 27) | (std::uint64_t{3} << 25) |
             (std::uint64_t{frame.id() & 0x3FFFF} << 7) | (rtr << 6) | frame.dlc();
    header_bits = 39;
  }

  std::uint16_t crc = 0;
  for (std::size_t shift = (header_bits + 7) / 8 * 8; shift != 0;) {
    shift -= 8;
    crc = crc15_step_byte(crc, static_cast<std::uint8_t>(header >> shift));
  }
  std::uint64_t data = 0;  // payload, left-aligned
  const auto payload = frame.payload();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    crc = crc15_step_byte(crc, payload[i]);
    data |= std::uint64_t{payload[i]} << (56 - 8 * i);
  }

  std::uint64_t hi = (header << (64 - header_bits)) | (data >> header_bits);
  std::uint64_t lo = data << (64 - header_bits);
  const std::size_t crc_at = header_bits + 8 * payload.size();
  const std::uint64_t crc_left = std::uint64_t{crc} << 49;
  if (crc_at < 64) {
    hi |= crc_left >> crc_at;
    lo |= crc_left << (64 - crc_at);
  } else {
    lo |= crc_left >> (crc_at - 64);
  }
  const std::size_t region = crc_at + 15;
  return region + stuff_bits_in(hi, lo, region) + kTailBits + kInterframeSpace;
}

}  // namespace

BitVec encode_logical(const CanFrame& frame) {
  if (frame.is_fd()) return {};
  BitVec bits;
  bits.reserve(128);
  auto sink = [&bits](std::uint8_t bit) { bits.push_back(bit); };
  emit_header_and_data(sink, frame);
  const std::uint16_t crc = crc15_bits(bits);
  append_bits(bits, crc, 15);
  return bits;
}

std::optional<CanFrame> decode_logical(std::span<const std::uint8_t> bits) {
  std::size_t pos = 0;
  const auto sof = read_bits(bits, pos, 1);
  if (!sof || *sof != 0) return std::nullopt;
  const auto base_id = read_bits(bits, pos, 11);
  if (!base_id) return std::nullopt;
  const auto bit_after_id = read_bits(bits, pos, 1);  // RTR (std) or SRR (ext)
  const auto ide = read_bits(bits, pos, 1);
  if (!bit_after_id || !ide) return std::nullopt;

  std::uint32_t id = 0;
  bool remote = false;
  IdFormat format = IdFormat::kStandard;
  if (*ide == 0) {
    id = *base_id;
    remote = (*bit_after_id != 0);
    const auto r0 = read_bits(bits, pos, 1);
    if (!r0) return std::nullopt;
  } else {
    format = IdFormat::kExtended;
    if (*bit_after_id != 1) return std::nullopt;  // SRR must be recessive
    const auto ext = read_bits(bits, pos, 18);
    const auto rtr = read_bits(bits, pos, 1);
    const auto r1 = read_bits(bits, pos, 1);
    const auto r0 = read_bits(bits, pos, 1);
    if (!ext || !rtr || !r1 || !r0) return std::nullopt;
    id = (*base_id << 18) | *ext;
    remote = (*rtr != 0);
  }

  const auto dlc = read_bits(bits, pos, 4);
  if (!dlc) return std::nullopt;
  // Classic CAN: DLC 9..15 are transmitted by some controllers but always
  // mean 8 data bytes; preserve the 0..8 clamp here.
  const std::size_t len = remote ? 0 : std::min<std::size_t>(*dlc, kMaxClassicPayload);

  std::vector<std::uint8_t> payload(len);
  for (auto& byte : payload) {
    const auto value = read_bits(bits, pos, 8);
    if (!value) return std::nullopt;
    byte = static_cast<std::uint8_t>(*value);
  }

  // CRC covers everything before the CRC field.
  const std::uint16_t computed = crc15_bits(bits.subspan(0, pos));
  const auto crc = read_bits(bits, pos, 15);
  if (!crc || *crc != computed) return std::nullopt;
  if (pos != bits.size()) return std::nullopt;  // trailing garbage

  if (remote) {
    return CanFrame::remote(id, static_cast<std::uint8_t>(std::min<std::uint32_t>(*dlc, 8)),
                            format);
  }
  return CanFrame::data(id, payload, format);
}

BitVec encode_wire(const CanFrame& frame, bool acked) {
  BitVec logical = encode_logical(frame);
  BitVec wire = stuff(logical);
  wire.push_back(1);                // CRC delimiter
  wire.push_back(acked ? 0 : 1);    // ACK slot (dominant when acknowledged)
  wire.push_back(1);                // ACK delimiter
  for (int i = 0; i < 7; ++i) wire.push_back(1);  // EOF
  return wire;
}

std::optional<CanFrame> decode_wire(std::span<const std::uint8_t> bits) {
  if (bits.size() < kTailBits + 1) return std::nullopt;
  const std::size_t stuffed_len = bits.size() - kTailBits;
  const auto tail = bits.subspan(stuffed_len);
  // CRC delimiter, ACK delimiter and all EOF bits must be recessive; the ACK
  // slot (tail[1]) may be either.
  if (tail[0] != 1 || tail[2] != 1) return std::nullopt;
  for (std::size_t i = 3; i < kTailBits; ++i) {
    if (tail[i] != 1) return std::nullopt;
  }
  const auto logical = unstuff(bits.subspan(0, stuffed_len));
  if (!logical) return std::nullopt;
  return decode_logical(*logical);
}

std::size_t wire_bit_count(const CanFrame& frame) {
  if (!frame.is_fd()) {
    // Classic frames sit on the bus model's hottest path (every transmission
    // prices its wire time), so the length comes from the byte-step tables
    // rather than a per-bit walk.
    return classic_wire_bit_count(frame);
  }
  // CAN FD: dynamic stuffing covers SOF..end-of-data; the CRC field uses
  // fixed stuffing (ISO 11898-1:2015).
  WireLengthCounter head;
  emit_fd_head(head, frame);
  const std::size_t dynamic = head.logical + head.stuffed;
  // CRC field: stuff count (4 bits incl. parity) + CRC17/21, with a fixed
  // stuff bit before the stuff count and before every 4th CRC bit.
  const std::size_t crc_bits = frame.length() <= 16 ? 17 : 21;
  const std::size_t fixed_stuff = 1 + (crc_bits + 3) / 4;
  const std::size_t crc_field = 4 + crc_bits + fixed_stuff;
  return dynamic + crc_field + kTailBits + kInterframeSpace;
}

sim::Duration frame_time(const CanFrame& frame, std::uint32_t nominal_bps,
                         std::uint32_t data_bps) {
  const std::size_t total = wire_bit_count(frame);
  if (!frame.is_fd() || !frame.brs()) {
    return bit_time(nominal_bps) * static_cast<std::int64_t>(total);
  }
  // BRS frames: arbitration header and tail run at the nominal rate, the
  // rest (data + CRC field) at the data rate.
  const std::size_t header = frame.is_extended() ? 36u : 17u;  // SOF..BRS
  const std::size_t tail = kTailBits + kInterframeSpace;
  const std::size_t nominal_bits = header + tail;
  const std::size_t data_bits = total > nominal_bits ? total - nominal_bits : 0;
  return bit_time(nominal_bps) * static_cast<std::int64_t>(nominal_bits) +
         bit_time(data_bps) * static_cast<std::int64_t>(data_bits);
}

std::size_t worst_case_bit_count(std::size_t payload_len, IdFormat format) noexcept {
  payload_len = std::min(payload_len, kMaxClassicPayload);
  // Unstuffed SOF..CRC length:
  const std::size_t logical =
      (format == IdFormat::kStandard ? 19u : 39u) + 8 * payload_len + 15;
  // Stuffing can add at most one bit per four past the first (Bosch 2.0).
  const std::size_t max_stuff = (logical - 1) / 4;
  return logical + max_stuff + kTailBits + kInterframeSpace;
}

}  // namespace acf::can

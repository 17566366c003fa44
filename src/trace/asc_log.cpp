#include "trace/asc_log.hpp"

#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>

#include "trace/timestamp.hpp"
#include "util/codec.hpp"

namespace acf::trace {

std::string to_asc_line(const TimestampedFrame& entry, int channel) {
  const can::CanFrame& frame = entry.frame;
  // Integer formatting (matching %11.6f's layout) so that a printed line
  // parses back to the exact same microsecond, with no float rounding.
  const auto total_ns = static_cast<std::uint64_t>(entry.time.count() < 0 ? 0 : entry.time.count());
  const std::uint64_t secs = total_ns / 1'000'000'000ULL;
  const std::uint64_t micros = (total_ns % 1'000'000'000ULL) / 1'000ULL;
  char head[64];
  std::snprintf(head, sizeof head, "%4llu.%06llu %d  ", static_cast<unsigned long long>(secs),
                static_cast<unsigned long long>(micros), channel);
  std::string id_field = util::hex_u32(frame.id(), frame.is_extended() ? 8 : 3);
  if (frame.is_extended()) id_field += 'x';
  while (id_field.size() < 15) id_field += ' ';

  std::string line = head;
  line += id_field;
  line += " Rx   ";
  if (frame.is_remote()) {
    line += "r ";
    line += std::to_string(frame.dlc());
  } else {
    line += "d ";
    line += std::to_string(frame.length());
    if (frame.length() > 0) {
      line += ' ';
      line += util::hex_bytes(frame.payload());
    }
  }
  return line;
}

std::optional<TimestampedFrame> parse_asc_line(std::string_view line) {
  const std::string_view stamp = util::next_token(line);
  const std::optional<std::int64_t> channel = util::parse_i64(util::next_token(line));
  std::string_view id_token = util::next_token(line);
  const std::string_view direction = util::next_token(line);
  const std::string_view kind = util::next_token(line);
  if (!channel || *channel < std::numeric_limits<int>::min() ||
      *channel > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  const auto time = parse_timestamp(stamp);
  if (!time) return std::nullopt;
  if (direction != "Rx" && direction != "Tx") return std::nullopt;
  if (kind != "d" && kind != "r") return std::nullopt;

  bool extended = false;
  if (!id_token.empty() && (id_token.back() == 'x' || id_token.back() == 'X')) {
    extended = true;
    id_token.remove_suffix(1);
  }
  const auto id = util::parse_hex_u32(id_token);
  if (!id) return std::nullopt;
  const auto format = extended ? can::IdFormat::kExtended : can::IdFormat::kStandard;

  const std::optional<std::uint64_t> dlc = util::parse_u64(util::next_token(line));
  if (!dlc || *dlc > 8) return std::nullopt;

  std::optional<can::CanFrame> frame;
  if (kind == "r") {
    frame = can::CanFrame::remote(*id, static_cast<std::uint8_t>(*dlc), format);
  } else {
    std::vector<std::uint8_t> payload;
    payload.reserve(*dlc);
    for (std::uint64_t i = 0; i < *dlc; ++i) {
      const auto byte = util::parse_hex_byte(util::next_token(line));
      if (!byte) return std::nullopt;
      payload.push_back(*byte);
    }
    frame = can::CanFrame::data(*id, payload, format);
  }
  if (!frame) return std::nullopt;

  TimestampedFrame out;
  out.frame = *frame;
  out.time = *time;
  return out;
}

void write_asc(std::ostream& out, std::span<const TimestampedFrame> frames, int channel) {
  out << "date Sat Jan 1 00:00:00.000 2026\n";
  out << "base hex  timestamps absolute\n";
  out << "internal events logged\n";
  for (const auto& entry : frames) out << to_asc_line(entry, channel) << '\n';
}

std::vector<TimestampedFrame> read_asc(std::istream& in, std::vector<std::string>* errors) {
  std::vector<TimestampedFrame> out;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    // Header/event lines start with a letter; frame lines start with
    // whitespace + digits.
    const std::size_t first = line.find_first_not_of(' ');
    if (first == std::string::npos || !std::isdigit(static_cast<unsigned char>(line[first]))) {
      continue;
    }
    if (auto entry = parse_asc_line(line)) {
      out.push_back(*entry);
    } else if (errors != nullptr) {
      errors->push_back("line " + std::to_string(line_no) + ": unparseable ASC entry");
    }
  }
  return out;
}

}  // namespace acf::trace

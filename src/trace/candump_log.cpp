#include "trace/candump_log.hpp"

#include <charconv>
#include <cstdio>
#include <istream>
#include <ostream>

#include "trace/timestamp.hpp"
#include "util/codec.hpp"

namespace acf::trace {

std::string to_candump_line(const TimestampedFrame& entry, std::string_view channel) {
  const auto total_ns = static_cast<std::uint64_t>(entry.time.count());
  const std::uint64_t secs = total_ns / 1'000'000'000ULL;
  const std::uint64_t micros = (total_ns % 1'000'000'000ULL) / 1'000ULL;
  char head[64];
  std::snprintf(head, sizeof head, "(%llu.%06llu) ", static_cast<unsigned long long>(secs),
                static_cast<unsigned long long>(micros));

  const can::CanFrame& f = entry.frame;
  std::string line = head;
  line.append(channel);
  line.push_back(' ');
  line += util::hex_u32(f.id(), f.is_extended() ? 8 : 3);
  if (f.is_remote()) {
    line += "#R";
    line += static_cast<char>('0' + f.dlc());
  } else if (f.is_fd()) {
    line += "##";
    line += f.brs() ? '1' : '0';
    line += util::hex_bytes(f.payload(), '\0');
  } else {
    line += '#';
    line += util::hex_bytes(f.payload(), '\0');
  }
  return line;
}

std::optional<TimestampedFrame> parse_candump_line(std::string_view line) {
  // "(secs.micros) channel id#data"
  const std::size_t open = line.find('(');
  const std::size_t close = line.find(')');
  if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
    return std::nullopt;
  }
  const std::string_view stamp = line.substr(open + 1, close - open - 1);
  const auto time = parse_timestamp(stamp);
  if (!time) return std::nullopt;

  std::string_view rest = line.substr(close + 1);
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  const std::size_t space = rest.find(' ');
  if (space == std::string_view::npos) return std::nullopt;
  rest = rest.substr(space + 1);  // skip channel name
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);

  const std::size_t hash = rest.find('#');
  if (hash == std::string_view::npos) return std::nullopt;
  const auto id = util::parse_hex_u32(rest.substr(0, hash));
  if (!id) return std::nullopt;
  const can::IdFormat format =
      (hash > 3 || *id > can::kMaxStandardId) ? can::IdFormat::kExtended
                                              : can::IdFormat::kStandard;
  std::string_view body = rest.substr(hash + 1);
  while (!body.empty() && (body.back() == '\r' || body.back() == ' ')) body.remove_suffix(1);

  std::optional<can::CanFrame> frame;
  if (!body.empty() && body.front() == '#') {
    // FD frame: "##<flag><data>"
    body.remove_prefix(1);
    if (body.empty()) return std::nullopt;
    const bool brs = body.front() != '0';
    body.remove_prefix(1);
    const auto bytes = util::parse_hex_bytes(body);
    if (!bytes) return std::nullopt;
    frame = can::CanFrame::fd_data(*id, *bytes, brs, format);
  } else if (!body.empty() && (body.front() == 'R' || body.front() == 'r')) {
    body.remove_prefix(1);
    std::uint8_t dlc = 0;
    if (!body.empty()) {
      if (body.front() < '0' || body.front() > '8') return std::nullopt;
      dlc = static_cast<std::uint8_t>(body.front() - '0');
    }
    frame = can::CanFrame::remote(*id, dlc, format);
  } else {
    const auto bytes = util::parse_hex_bytes(body);
    if (!bytes) return std::nullopt;
    frame = can::CanFrame::data(*id, *bytes, format);
  }
  if (!frame) return std::nullopt;

  TimestampedFrame out;
  out.frame = *frame;
  out.time = *time;
  return out;
}

void write_candump(std::ostream& out, std::span<const TimestampedFrame> frames,
                   std::string_view channel) {
  for (const auto& entry : frames) {
    out << to_candump_line(entry, channel) << '\n';
  }
}

std::vector<TimestampedFrame> read_candump(std::istream& in, std::vector<std::string>* errors) {
  std::vector<TimestampedFrame> out;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (auto entry = parse_candump_line(line)) {
      out.push_back(*entry);
    } else if (errors != nullptr) {
      errors->push_back("line " + std::to_string(line_no) + ": unparseable candump entry");
    }
  }
  return out;
}

}  // namespace acf::trace

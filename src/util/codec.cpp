#include "util/codec.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

namespace acf::util {

namespace {

constexpr char kDigits[] = "0123456789ABCDEF";
constexpr std::string_view kSpace = " \t\n\r\v\f";

int nibble_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

template <typename T>
std::optional<T> from_chars_exact(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  return value;
}

/// Digits as to_chars writes them: "0" is the only one starting with '0'.
bool canonical_digits(std::string_view digits) {
  return !digits.empty() && (digits.front() != '0' || digits.size() == 1);
}

}  // namespace

// ------------------------------------------------------------ numbers -----

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  // from_chars takes no sign for unsigned types; only leading zeros remain.
  if (!canonical_digits(token)) return std::nullopt;
  return from_chars_exact<std::uint64_t>(token);
}

std::optional<std::int64_t> parse_i64(std::string_view token) {
  const bool negative = token.starts_with('-');
  const std::string_view digits = token.substr(negative ? 1 : 0);
  if (!canonical_digits(digits) || (negative && digits == "0")) return std::nullopt;
  return from_chars_exact<std::int64_t>(token);
}

std::optional<double> parse_finite_double(std::string_view token) {
  const std::optional<double> value = from_chars_exact<double>(token);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

// ------------------------------------------------------- tokens, hex -----

std::string_view next_token(std::string_view& text) {
  const std::size_t begin = std::min(text.find_first_not_of(kSpace), text.size());
  const std::size_t end = std::min(text.find_first_of(kSpace, begin), text.size());
  const std::string_view token = text.substr(begin, end - begin);
  text.remove_prefix(end);
  return token;
}

std::string hex_or_dash(std::span<const std::uint8_t> bytes) {
  return bytes.empty() ? "-" : hex_bytes(bytes, '\0');
}

std::string hex_or_dash(std::string_view text) {
  return hex_or_dash({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
}

std::optional<std::string> read_hex_or_dash(std::string_view token) {
  if (token == "-") return std::string{};
  const auto bytes = parse_hex_bytes(token);
  // Only the canonical spelling: re-encoding must give back the token.
  if (!bytes || bytes->empty() || hex_or_dash(*bytes) != token) return std::nullopt;
  return std::string(bytes->begin(), bytes->end());
}

std::string hex_bytes(std::span<const std::uint8_t> bytes, char sep) {
  std::string out;
  out.reserve(bytes.size() * 3);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i != 0 && sep != '\0') out.push_back(sep);
    out.push_back(kDigits[bytes[i] >> 4]);
    out.push_back(kDigits[bytes[i] & 0xf]);
  }
  return out;
}

std::string hex_u32(std::uint32_t value, int width) {
  std::string out;
  for (int shift = (width - 1) * 4; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(value >> shift) & 0xf]);
  }
  return out;
}

std::optional<std::uint8_t> parse_hex_byte(std::string_view text) {
  if (text.starts_with("0x") || text.starts_with("0X")) text.remove_prefix(2);
  if (text.size() > 2) return std::nullopt;
  const std::optional<std::uint32_t> value = parse_hex_u32(text);
  if (!value) return std::nullopt;
  return static_cast<std::uint8_t>(*value);
}

std::optional<std::vector<std::uint8_t>> parse_hex_bytes(std::string_view text) {
  std::vector<std::uint8_t> out;
  int pending = -1;  // high nibble awaiting its partner
  for (const char c : text) {
    if (kSpace.find(c) != std::string_view::npos || c == ':' || c == ',' || c == '.') {
      if (pending >= 0) return std::nullopt;  // odd nibble before separator
      continue;
    }
    const int nib = nibble_value(c);
    if (nib < 0) return std::nullopt;
    if (pending < 0) {
      pending = nib;
    } else {
      out.push_back(static_cast<std::uint8_t>(pending * 16 + nib));
      pending = -1;
    }
  }
  if (pending >= 0) return std::nullopt;
  return out;
}

std::optional<std::uint32_t> parse_hex_u32(std::string_view text) {
  if (text.starts_with("0x") || text.starts_with("0X")) text.remove_prefix(2);
  if (text.empty() || text.size() > 8) return std::nullopt;
  std::uint32_t value = 0;
  for (const char c : text) {
    const int nib = nibble_value(c);
    if (nib < 0) return std::nullopt;
    value = (value << 4) | static_cast<std::uint32_t>(nib);
  }
  return value;
}

bool TokenReader::done() const noexcept {
  return ok_ && rest_.find_first_not_of(kSpace) == std::string_view::npos;
}

std::string_view TokenReader::token() {
  if (!ok_) return {};
  const std::string_view token = next_token(rest_);
  if (token.empty()) ok_ = false;
  return token;
}

void TokenReader::expect(std::string_view word) {
  if (token() != word) ok_ = false;
}

// ------------------------------------------------------------- binary -----

bool ByteReader::take(std::size_t n) noexcept {
  if (!ok_ || n > remaining()) ok_ = false;
  return ok_;
}

std::uint64_t ByteReader::little_endian(std::size_t n) {
  if (!take(n)) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= std::uint64_t{bytes_[pos_++]} << (8 * i);
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str(std::size_t max_bytes) {
  const std::uint32_t len = u32();
  if (len > max_bytes || !take(len)) {
    ok_ = false;
    return {};
  }
  std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return out;
}

std::uint32_t ByteReader::count(std::size_t max, std::size_t min_bytes_each) {
  const std::uint32_t n = u32();
  // A count past the bytes left is a lie about bytes that cannot exist.
  if (n > max || n > remaining() / min_bytes_each) ok_ = false;
  return ok_ ? n : 0;
}

void ByteWriter::little_endian(std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

// -------------------------------------------------------------- files -----

bool write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  if (out && std::rename(tmp.c_str(), path.c_str()) == 0) return true;
  std::remove(tmp.c_str());
  return false;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

}  // namespace acf::util

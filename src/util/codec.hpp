// Codec core: the one module every text and binary format in the repo reads
// numbers, tokens and bytes through — both checkpoints, the corpus file, the
// fleet wire, the metrics snapshot, the eval digest, the attack spec, DBC and
// the trace logs.
//
// The strict readers accept only the exact form their writers emit (no sign
// on unsigned fields, no '+', no leading zeros, no "-0", no overflow, no
// non-finite double, no lower-case or separated hex), so a format built on
// them cannot accept text it would write back differently.  The permissive
// hex parsers are for external logs (candump, ASC) only.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace acf::util {

// --- text numbers --------------------------------------------------------

/// Exactly one decimal token, in the form std::to_chars writes it.
std::optional<std::uint64_t> parse_u64(std::string_view token);
std::optional<std::int64_t> parse_i64(std::string_view token);
/// Exactly one finite double token (std::from_chars general format); nan,
/// inf and values that overflow or underflow to zero are rejected.
std::optional<double> parse_finite_double(std::string_view token);

// --- tokens and hex ------------------------------------------------------

/// Consumes and returns the next whitespace-delimited token of `text`
/// (empty once only whitespace is left).
std::string_view next_token(std::string_view& text);

/// "-" for no bytes, otherwise upper-case hex with no separator.
std::string hex_or_dash(std::span<const std::uint8_t> bytes);
std::string hex_or_dash(std::string_view text);
/// Reads exactly what hex_or_dash writes, as raw bytes in a string.
std::optional<std::string> read_hex_or_dash(std::string_view token);

/// "1C 21 17 71" style rendering (upper-case, `sep` separated, none for
/// '\0') as used by the paper's capture tables (Table II / Table IV).
std::string hex_bytes(std::span<const std::uint8_t> bytes, char sep = ' ');
/// Fixed-width upper-case hex of an integer, e.g. hex_u32(0x43a, 4) == "043A".
std::string hex_u32(std::uint32_t value, int width);
/// Permissive external-log parsers: "1C" / "0x1c"; "1C 21 17" / "1C2117"
/// (space, ':', ',' or '.' separated); an unsigned hex integer.
std::optional<std::uint8_t> parse_hex_byte(std::string_view text);
std::optional<std::vector<std::uint8_t>> parse_hex_bytes(std::string_view text);
std::optional<std::uint32_t> parse_hex_u32(std::string_view text);

/// Sticky-failing cursor over whitespace-separated text, the text twin of
/// ByteReader: once a read fails every later read fails too, so a parser
/// checks ok() once per record instead of after every field.
class TokenReader {
 public:
  explicit TokenReader(std::string_view text) : rest_(text) {}

  bool ok() const noexcept { return ok_; }
  /// ok() and nothing but whitespace left.
  bool done() const noexcept;

  /// The next token; fails at end of input.
  std::string_view token();
  /// Consumes the next token and fails unless it is `word`.
  void expect(std::string_view word);
  std::uint64_t u64() { return checked(parse_u64(token())); }
  std::int64_t i64() { return checked(parse_i64(token())); }
  std::string hex_or_dash() { return checked(read_hex_or_dash(token())); }
  /// `key` followed by its value.
  std::uint64_t u64(std::string_view key) { expect(key); return u64(); }
  std::int64_t i64(std::string_view key) { expect(key); return i64(); }
  std::string hex_or_dash(std::string_view key) { expect(key); return hex_or_dash(); }

 private:
  template <typename T>
  T checked(std::optional<T> value) {
    if (!value) ok_ = false;
    return value.value_or(T{});
  }

  std::string_view rest_;
  bool ok_ = true;
};

// --- binary --------------------------------------------------------------

/// Bounds-checked little-endian cursor that can only fail closed: a short
/// read returns zero and latches !ok().
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool done() const noexcept { return ok_ && remaining() == 0; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(little_endian(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(little_endian(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(little_endian(4)); }
  std::uint64_t u64() { return little_endian(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();  // IEEE bit pattern via u64: exact, canonical
  /// Length-prefixed string (u32 + bytes), capped at `max_bytes`.
  std::string str(std::size_t max_bytes);
  /// A u32 element count, bounded before anything is allocated: it fails
  /// above `max`, or when `min_bytes_each` bytes per element are not left.
  std::uint32_t count(std::size_t max, std::size_t min_bytes_each);

 private:
  bool take(std::size_t n) noexcept;
  std::uint64_t little_endian(std::size_t n);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { little_endian(v, 2); }
  void u32(std::uint32_t v) { little_endian(v, 4); }
  void u64(std::uint64_t v) { little_endian(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view s);

  std::vector<std::uint8_t> take() { return std::move(out_); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return out_; }

 private:
  void little_endian(std::uint64_t v, std::size_t n);

  std::vector<std::uint8_t> out_;
};

// --- files ---------------------------------------------------------------

/// Writes `path` + ".tmp", then renames it over `path`: a crash mid-save
/// leaves the previous file intact instead of a torn one.
bool write_file_atomic(const std::string& path, std::string_view contents);
/// The whole file, or nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path);

}  // namespace acf::util

#include "fuzzer/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/codec.hpp"

namespace acf::fuzzer {

namespace {

constexpr const char* kMagic = "ACF-CHECKPOINT";

// Bounds on counts a hostile stream can demand before any content has
// validated them.  Generator states are a handful of words (xoshiro uses 4);
// findings and frame windows may legitimately be large, so their declared
// counts only cap the up-front reserve() — the vectors still grow naturally
// as real content parses, keeping memory proportional to input size.
constexpr std::size_t kMaxStateWords = 1024;
constexpr std::size_t kMaxAdvanceReserve = 4096;

// Generator names are written as a single token; whitespace and other
// non-printable bytes are percent-escaped so a hostile or merely unusual
// name ("mutation v2") cannot desynchronise the line-oriented stream.
std::string escape_name(const std::string& name) {
  if (name.empty()) return "-";
  std::string out;
  out.reserve(name.size());
  for (const char raw : name) {
    const auto c = static_cast<unsigned char>(raw);
    if (c <= 0x20 || c == 0x7F || c == '%') {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X", c);
      out += buf;
    } else {
      out.push_back(raw);
    }
  }
  if (out == "-") return "%2D";  // a literal "-" must not read back as empty
  return out;
}

/// Inverse of escape_name on exactly its outputs: an escape it would not
/// have written ("%41", lower-case hex) is rejected, not normalised.
std::optional<std::string> unescape_name(std::string_view token) {
  if (token == "-") return std::string{};
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out.push_back(token[i]);
      continue;
    }
    if (i + 2 >= token.size()) return std::nullopt;
    const auto byte = util::parse_hex_byte(token.substr(i + 1, 2));
    if (!byte) return std::nullopt;
    out.push_back(static_cast<char>(*byte));
    i += 2;
  }
  if (escape_name(out) != token) return std::nullopt;
  return out;
}

void write_frame(std::ostream& out, const trace::TimestampedFrame& entry) {
  const can::CanFrame& frame = entry.frame;
  out << "frame " << entry.time.count() << ' '
      << (frame.is_fd() ? 'F' : frame.is_remote() ? 'R' : 'D') << ' '
      << (frame.is_extended() ? 'E' : 'S') << ' ' << frame.id() << ' ';
  if (frame.is_fd()) out << (frame.brs() ? 1 : 0) << ' ';
  if (frame.is_remote()) {
    out << static_cast<unsigned>(frame.dlc()) << '\n';
  } else {
    out << util::hex_or_dash(frame.payload()) << '\n';
  }
}

std::optional<trace::TimestampedFrame> read_frame(util::TokenReader& in) {
  const std::int64_t time_ns = in.i64("frame");
  const std::string_view kind = in.token();
  const std::string_view format_code = in.token();
  const std::uint64_t id = in.u64();
  if (!in.ok() || (kind != "D" && kind != "R" && kind != "F") ||
      (format_code != "E" && format_code != "S") || id > can::kMaxExtendedId) {
    return std::nullopt;
  }
  const auto format = format_code == "E" ? can::IdFormat::kExtended : can::IdFormat::kStandard;
  const auto id32 = static_cast<std::uint32_t>(id);
  std::optional<can::CanFrame> frame;
  if (kind == "R") {
    // Validate before narrowing: 260 must not silently become 4.
    const std::uint64_t dlc = in.u64();
    if (!in.ok() || dlc > can::kMaxClassicPayload) return std::nullopt;
    frame = can::CanFrame::remote(id32, static_cast<std::uint8_t>(dlc), format);
  } else {
    const std::uint64_t brs = kind == "F" ? in.u64() : 0;
    const std::string text = in.hex_or_dash();
    const std::span payload(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    if (!in.ok() || brs > 1) return std::nullopt;
    frame = kind == "F" ? can::CanFrame::fd_data(id32, payload, brs == 1, format)
                        : can::CanFrame::data(id32, payload, format);
  }
  if (!frame) return std::nullopt;
  return trace::TimestampedFrame{*frame, sim::SimTime{time_ns}};
}

/// `count` frame lines; the declared count only caps the up-front reserve.
bool read_frames(util::TokenReader& in, std::uint64_t count,
                 std::vector<trace::TimestampedFrame>& out) {
  out.reserve(std::min<std::uint64_t>(count, kMaxAdvanceReserve));
  for (std::uint64_t f = 0; f < count; ++f) {
    const auto entry = read_frame(in);
    if (!entry) return false;
    out.push_back(*entry);
  }
  return true;
}

}  // namespace

std::string CampaignCheckpoint::to_string() const {
  std::ostringstream out;
  out << kMagic << ' ' << kVersion << '\n';
  out << "frames_sent " << frames_sent << '\n';
  out << "send_failures " << send_failures << '\n';
  out << "elapsed_ns " << elapsed.count() << '\n';
  out << "generator " << escape_name(generator_name) << '\n';
  out << "state " << generator_state.size();
  for (const std::uint64_t word : generator_state) out << ' ' << word;
  out << '\n';
  out << "findings " << findings.size() << '\n';
  for (const Finding& finding : findings) {
    out << "verdict " << static_cast<int>(finding.observation.verdict) << '\n';
    out << "time_ns " << finding.observation.time.count() << '\n';
    out << "detail " << util::hex_or_dash(finding.observation.detail) << '\n';
    out << "at_frame " << finding.frames_sent << '\n';
    out << "seed " << finding.seed << '\n';
    out << "gen " << escape_name(finding.generator) << '\n';
    out << "recent " << finding.recent_frames.size() << '\n';
    for (const auto& entry : finding.recent_frames) write_frame(out, entry);
  }
  out << "window " << recent_frames.size() << '\n';
  for (const auto& entry : recent_frames) write_frame(out, entry);
  out << "end\n";
  return out.str();
}

std::optional<CampaignCheckpoint> CampaignCheckpoint::from_string(std::string_view text) {
  util::TokenReader in(text);
  if (in.u64(kMagic) != kVersion || !in.ok()) return std::nullopt;
  CampaignCheckpoint checkpoint;
  checkpoint.frames_sent = in.u64("frames_sent");
  checkpoint.send_failures = in.u64("send_failures");
  checkpoint.elapsed = sim::Duration{in.i64("elapsed_ns")};
  in.expect("generator");
  std::optional<std::string> name = unescape_name(in.token());
  const std::uint64_t state_words = in.u64("state");
  if (!in.ok() || !name || state_words > kMaxStateWords) return std::nullopt;
  checkpoint.generator_name = std::move(*name);
  checkpoint.generator_state.resize(state_words);
  for (std::uint64_t& word : checkpoint.generator_state) word = in.u64();
  const std::uint64_t finding_count = in.u64("findings");
  if (!in.ok()) return std::nullopt;
  checkpoint.findings.reserve(std::min<std::uint64_t>(finding_count, kMaxAdvanceReserve));
  for (std::uint64_t i = 0; i < finding_count; ++i) {
    Finding finding;
    const std::uint64_t verdict = in.u64("verdict");
    finding.observation.time = sim::SimTime{in.i64("time_ns")};
    finding.observation.detail = in.hex_or_dash("detail");
    finding.frames_sent = in.u64("at_frame");
    finding.seed = in.u64("seed");
    in.expect("gen");
    std::optional<std::string> generator = unescape_name(in.token());
    const std::uint64_t recent_count = in.u64("recent");
    if (!in.ok() || !generator ||
        verdict > static_cast<std::uint64_t>(oracle::Verdict::kFailure) ||
        !read_frames(in, recent_count, finding.recent_frames)) {
      return std::nullopt;
    }
    finding.observation.verdict = static_cast<oracle::Verdict>(verdict);
    finding.generator = std::move(*generator);
    checkpoint.findings.push_back(std::move(finding));
  }
  if (!read_frames(in, in.u64("window"), checkpoint.recent_frames)) return std::nullopt;
  in.expect("end");
  if (!in.done()) return std::nullopt;
  return checkpoint;
}

bool CampaignCheckpoint::save(const std::string& path) const {
  return util::write_file_atomic(path, to_string());
}

std::optional<CampaignCheckpoint> CampaignCheckpoint::load(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) return std::nullopt;
  return from_string(*text);
}

}  // namespace acf::fuzzer

#include "ids/eval_codec.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace acf::ids {

namespace {

std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void append_bins(std::ostringstream& out, const std::vector<std::uint64_t>& bins) {
  bool any = false;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i] == 0) continue;
    if (any) out << ',';
    out << i << ':' << bins[i];
    any = true;
  }
  if (!any) out << '-';
}

/// "key=value" accessor over the line's tokens; empty view when absent.
class Fields {
 public:
  explicit Fields(std::string_view text) {
    while (!text.empty()) {
      const std::size_t space = text.find(' ');
      const std::string_view token = text.substr(0, space);
      if (!token.empty()) tokens_.push_back(token);
      if (space == std::string_view::npos) break;
      text.remove_prefix(space + 1);
    }
  }

  std::size_t size() const { return tokens_.size(); }
  std::string_view token(std::size_t i) const { return tokens_[i]; }

  std::string_view value(std::string_view key) const {
    for (const std::string_view token : tokens_) {
      if (token.size() > key.size() + 1 && token.substr(0, key.size()) == key &&
          token[key.size()] == '=') {
        return token.substr(key.size() + 1);
      }
    }
    return {};
  }

 private:
  std::vector<std::string_view> tokens_;
};

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) return false;  // would wrap
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

bool parse_double(std::string_view text, double& out) {
  if (text.empty() || text.size() >= 64) return false;
  char buffer[64];
  text.copy(buffer, text.size());
  buffer[text.size()] = '\0';
  char* end = nullptr;
  const double value = std::strtod(buffer, &end);
  // Overflow yields ±HUGE_VAL, so the finiteness test also rejects it;
  // underflow rounds toward zero like any other decimal rounding.
  if (end != buffer + text.size() || !std::isfinite(value)) return false;
  out = value;
  return true;
}

/// "-" or a comma list of bin:count pairs; an absent field, an empty pair
/// or a bin past the histogram is malformed.
bool parse_bins(std::string_view text, std::vector<std::uint64_t>& bins) {
  if (text == "-") return true;
  if (text.empty()) return false;
  while (true) {
    const std::size_t comma = text.find(',');
    const std::string_view pair = text.substr(0, comma);
    const std::size_t colon = pair.find(':');
    if (colon == std::string_view::npos) return false;
    std::uint64_t index = 0, count = 0;
    if (!parse_u64(pair.substr(0, colon), index)) return false;
    if (!parse_u64(pair.substr(colon + 1), count)) return false;
    if (index >= bins.size()) return false;
    bins[index] = count;
    if (comma == std::string_view::npos) return true;
    text.remove_prefix(comma + 1);
  }
}

}  // namespace

std::string encode_eval_totals(const TrialEval& eval) {
  std::ostringstream out;
  out << kEvalDigestMarker << "totals attack=" << eval.attack_frames
      << " legit=" << eval.legit_frames << " trained=" << eval.pipeline.frames_trained
      << " scored=" << eval.pipeline.frames_scored
      << " raised=" << eval.pipeline.alerts_raised
      << " suppressed=" << eval.pipeline.alerts_suppressed
      << " dropped=" << eval.pipeline.alerts_dropped;
  return out.str();
}

std::string encode_detector_eval(const DetectorEval& detector) {
  std::ostringstream out;
  out << kEvalDigestMarker << "det name=" << detector.name
      << " thr=" << num(detector.threshold) << " tp=" << detector.tp
      << " fp=" << detector.fp << " tn=" << detector.tn << " fn=" << detector.fn
      << " lat=" << num(detector.detection_latency) << " ab=";
  append_bins(out, detector.attack_bins);
  out << " lb=";
  append_bins(out, detector.legit_bins);
  return out.str();
}

bool decode_eval_line(std::string_view line, TrialEval& eval) {
  const std::size_t at = line.find(kEvalDigestMarker);
  if (at == std::string_view::npos) return false;
  const Fields fields(line.substr(at + kEvalDigestMarker.size()));
  if (fields.size() == 0) return false;

  if (fields.token(0) == "totals") {
    TrialEval parsed = eval;  // only commit on a fully valid line
    if (!parse_u64(fields.value("attack"), parsed.attack_frames)) return false;
    if (!parse_u64(fields.value("legit"), parsed.legit_frames)) return false;
    if (!parse_u64(fields.value("trained"), parsed.pipeline.frames_trained)) return false;
    if (!parse_u64(fields.value("scored"), parsed.pipeline.frames_scored)) return false;
    if (!parse_u64(fields.value("raised"), parsed.pipeline.alerts_raised)) return false;
    if (!parse_u64(fields.value("suppressed"), parsed.pipeline.alerts_suppressed)) {
      return false;
    }
    if (!parse_u64(fields.value("dropped"), parsed.pipeline.alerts_dropped)) return false;
    eval = std::move(parsed);
    return true;
  }

  if (fields.token(0) == "det") {
    DetectorEval det;
    const std::string_view name = fields.value("name");
    if (name.empty()) return false;
    det.name = std::string(name);
    if (!parse_double(fields.value("thr"), det.threshold)) return false;
    if (!parse_u64(fields.value("tp"), det.tp)) return false;
    if (!parse_u64(fields.value("fp"), det.fp)) return false;
    if (!parse_u64(fields.value("tn"), det.tn)) return false;
    if (!parse_u64(fields.value("fn"), det.fn)) return false;
    if (!parse_double(fields.value("lat"), det.detection_latency)) return false;
    if (!parse_bins(fields.value("ab"), det.attack_bins)) return false;
    if (!parse_bins(fields.value("lb"), det.legit_bins)) return false;
    eval.detectors.push_back(std::move(det));
    return true;
  }

  return false;
}

}  // namespace acf::ids

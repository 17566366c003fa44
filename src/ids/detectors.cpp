#include "ids/detectors.hpp"

#include <algorithm>
#include <cmath>

namespace acf::ids {

namespace {

constexpr double kUnknownIdScore = 1.0;
constexpr double kUnseenDlcScore = 0.75;

double clamp01(double x) noexcept { return std::clamp(x, 0.0, 1.0); }

std::uint16_t dlc_bit(const can::CanFrame& frame) noexcept {
  return static_cast<std::uint16_t>(1u << (frame.dlc() & 0x0F));
}

}  // namespace

// ----------------------------------------------------------- allowlist -----

AllowlistDetector::AllowlistDetector() : Detector(0.5) {}

AllowlistDetector::AllowlistDetector(const dbc::Database& database) : Detector(0.5) {
  for (const dbc::MessageDef& message : database.messages()) {
    allowed_[message.id] = static_cast<std::uint16_t>(
        allowed_[message.id] | static_cast<std::uint16_t>(1u << (message.dlc & 0x0F)));
  }
}

void AllowlistDetector::train(const can::CanFrame& frame, sim::SimTime) {
  allowed_[frame.id()] = static_cast<std::uint16_t>(allowed_[frame.id()] | dlc_bit(frame));
}

double AllowlistDetector::score(const can::CanFrame& frame, sim::SimTime) {
  const auto it = allowed_.find(frame.id());
  if (it == allowed_.end()) return kUnknownIdScore;
  if ((it->second & dlc_bit(frame)) == 0) return kUnseenDlcScore;
  return 0.0;
}

// ---------------------------------------------------- dlc consistency -----

DlcConsistencyDetector::DlcConsistencyDetector(const dbc::Database& database)
    : Detector(0.5) {
  for (const dbc::MessageDef& message : database.messages()) {
    declared_dlc_[message.id] = message.dlc;
  }
}

double DlcConsistencyDetector::score(const can::CanFrame& frame, sim::SimTime) {
  const auto it = declared_dlc_.find(frame.id());
  if (it == declared_dlc_.end()) return 0.0;  // undeclared: not this job
  // Same check as MessageDef::dlc_matches — one implementation of the
  // paper's hardening, used here to detect and in the BCM to reject.
  return (frame.is_remote() || frame.dlc() != it->second) ? 1.0 : 0.0;
}

// --------------------------------------------------------------- timing -----

TimingDetector::TimingDetector(TimingConfig config) : Detector(0.5), config_(config) {}

void TimingDetector::train(const can::CanFrame& frame, sim::SimTime time) {
  Training& t = training_[frame.id()];
  if (t.frames++ == 0) {
    t.last = time;
    return;
  }
  const double gap = sim::to_seconds(time - t.last);
  t.last = time;
  if (t.frames == 2) {
    t.mean_gap = gap;
    t.mean_dev = gap * 0.25;
    return;
  }
  const double dev = std::abs(gap - t.mean_gap);
  t.mean_gap += config_.alpha * (gap - t.mean_gap);
  t.mean_dev += config_.alpha * (dev - t.mean_dev);
}

void TimingDetector::finalize_training() {
  bands_.clear();
  for (const auto& [id, t] : training_) {
    if (t.frames < config_.min_train_frames || t.mean_gap <= 0.0) continue;
    const double tolerance =
        std::max(config_.dev_gain * t.mean_dev, config_.floor_fraction * t.mean_gap);
    const double lo = t.mean_gap - tolerance;
    if (lo > 0.0) bands_.emplace(id, lo);
  }
}

double TimingDetector::score(const can::CanFrame& frame, sim::SimTime time) {
  const auto band = bands_.find(frame.id());
  if (band == bands_.end()) return 0.0;
  const auto [it, first] = last_seen_.try_emplace(frame.id(), time);
  if (first) return 0.0;
  const double gap = sim::to_seconds(time - it->second);
  it->second = time;
  if (gap >= band->second) return 0.0;
  return clamp01(1.0 - gap / band->second);
}

void TimingDetector::reset() { last_seen_.clear(); }

double TimingDetector::lower_bound_s(std::uint32_t id) const {
  const auto it = bands_.find(id);
  return it == bands_.end() ? -1.0 : it->second;
}

// ---------------------------------------------------------------- range -----

RangeDetector::RangeDetector(const dbc::Database& database) : Detector(0.5) {
  for (const dbc::MessageDef& message : database.messages()) {
    RangedMessage ranged;
    for (const dbc::SignalDef& signal : message.signals) {
      if (signal.min != signal.max) ranged.signals.push_back(signal);
    }
    if (!ranged.signals.empty()) messages_.emplace(message.id, std::move(ranged));
  }
}

double RangeDetector::score(const can::CanFrame& frame, sim::SimTime) {
  const auto it = messages_.find(frame.id());
  if (it == messages_.end() || frame.is_remote()) return 0.0;
  std::size_t decoded = 0;
  std::size_t violations = 0;
  for (const dbc::SignalDef& signal : it->second.signals) {
    const auto physical = dbc::decode(signal, frame.payload());
    if (!physical) continue;  // short frame: the signal is absent, not wrong
    ++decoded;
    if (!signal.in_declared_range(*physical)) ++violations;
  }
  if (decoded == 0) return 0.0;
  return static_cast<double>(violations) / static_cast<double>(decoded);
}

// -------------------------------------------------------------- entropy -----

EntropyDetector::EntropyDetector(EntropyConfig config) : Detector(0.6), config_(config) {
  if (config_.window_frames == 0) config_.window_frames = 1;
  config_.min_frames = std::max<std::size_t>(1, std::min(config_.min_frames,
                                                         config_.window_frames));
  const std::size_t max_count = config_.window_frames * can::kMaxClassicPayload;
  log2_.resize(max_count + 1);
  c_log2_c_.resize(max_count + 1);  // entry 0 stays 0: an empty bin adds nothing
  for (std::size_t c = 1; c <= max_count; ++c) {
    log2_[c] = std::log2(static_cast<double>(c));
    c_log2_c_[c] = static_cast<double>(c) * std::log2(static_cast<double>(c));
  }
}

EntropyDetector::Window& EntropyDetector::window_for(std::uint32_t id) {
  Window& window = windows_[id];
  if (window.ring.empty()) window.ring.resize(config_.window_frames);
  return window;
}

void EntropyDetector::push(Window& window, const can::CanFrame& frame) {
  // Subtracting or adding the empty bin's 0.0 leaves the sum bit-identical:
  // it starts at +0.0 and can never become -0.0.
  auto count_delta = [&window, this](std::uint8_t value, std::int32_t delta) {
    std::uint32_t& c = window.counts[value];
    window.sum_c_log_c -= c_log2_c_[c];
    c = static_cast<std::uint32_t>(static_cast<std::int64_t>(c) + delta);
    window.sum_c_log_c += c_log2_c_[c];
  };
  if (window.frames == window.ring.size()) {
    Window::Slot& old = window.ring[window.head];
    for (std::size_t i = 0; i < old.length; ++i) count_delta(old.bytes[i], -1);
    window.bytes_total -= old.length;
    --window.frames;
  }
  Window::Slot& slot = window.ring[window.head];
  const auto payload = frame.payload();
  slot.length = static_cast<std::uint8_t>(std::min(payload.size(), slot.bytes.size()));
  for (std::size_t i = 0; i < slot.length; ++i) {
    slot.bytes[i] = payload[i];
    count_delta(payload[i], +1);
  }
  window.bytes_total += slot.length;
  ++window.frames;
  window.head = (window.head + 1) % window.ring.size();
}

double EntropyDetector::normalized_entropy(const Window& window) const {
  const double n = static_cast<double>(window.bytes_total);
  if (n <= 1.0) return 0.0;
  const double log2_n = log2_[window.bytes_total];
  const double entropy = log2_n - window.sum_c_log_c / n;
  const double max_entropy = std::min(8.0, log2_n);
  if (max_entropy <= 0.0) return 0.0;
  return clamp01(entropy / max_entropy);
}

void EntropyDetector::train(const can::CanFrame& frame, sim::SimTime) {
  push(window_for(frame.id()), frame);
}

void EntropyDetector::finalize_training() {
  baseline_.clear();
  for (const auto& [id, window] : windows_) {
    if (window.frames >= config_.min_frames) baseline_.emplace(id, normalized_entropy(window));
  }
  training_done_ = true;
}

double EntropyDetector::score(const can::CanFrame& frame, sim::SimTime) {
  Window& window = window_for(frame.id());
  push(window, frame);
  if (window.frames < config_.min_frames) return 0.0;
  const double h = normalized_entropy(window);
  const auto base = baseline_.find(frame.id());
  if (base == baseline_.end() || base->second >= 1.0) return h;
  return clamp01((h - base->second) / (1.0 - base->second));
}

void EntropyDetector::reset() {
  // Drop window contents but keep learned baselines.
  for (auto& [id, window] : windows_) {
    window = Window{};
  }
}

double EntropyDetector::window_entropy(std::uint32_t id) const {
  const auto it = windows_.find(id);
  return it == windows_.end() ? 0.0 : normalized_entropy(it->second);
}

// ----------------------------------------------------------------- set -----

std::vector<std::unique_ptr<Detector>> standard_detectors(const dbc::Database& database) {
  std::vector<std::unique_ptr<Detector>> detectors;
  detectors.push_back(std::make_unique<AllowlistDetector>(database));
  detectors.push_back(std::make_unique<TimingDetector>());
  detectors.push_back(std::make_unique<RangeDetector>(database));
  detectors.push_back(std::make_unique<EntropyDetector>());
  return detectors;
}

}  // namespace acf::ids

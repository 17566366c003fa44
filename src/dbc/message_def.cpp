#include "dbc/message_def.hpp"

#include <array>

namespace acf::dbc {

namespace {

/// The one frame-assembly path behind both encode overloads: `pack` fills a
/// zeroed DLC-sized stack payload through dbc::encode(const SignalDef&, ...).
template <typename Pack>
std::optional<can::CanFrame> assemble(const MessageDef& message, Pack&& pack) {
  std::array<std::uint8_t, can::kMaxClassicPayload> buffer{};
  if (message.dlc > buffer.size()) return std::nullopt;
  const std::span<std::uint8_t> payload(buffer.data(), message.dlc);
  if (!pack(payload)) return std::nullopt;
  return can::CanFrame::data(message.id, payload, message.format);
}

}  // namespace

const SignalDef* MessageDef::signal(std::string_view sig_name) const noexcept {
  for (const auto& sig : signals) {
    if (sig.name == sig_name) return &sig;
  }
  return nullptr;
}

bool MessageDef::dlc_matches(const can::CanFrame& frame) const noexcept {
  return !frame.is_remote() && frame.dlc() == dlc;
}

std::optional<can::CanFrame> MessageDef::encode(
    std::initializer_list<double> values) const noexcept {
  if (values.size() != signals.size()) return std::nullopt;
  return assemble(*this, [&](std::span<std::uint8_t> payload) {
    const double* value = values.begin();
    for (const SignalDef& sig : signals) {
      if (!dbc::encode(sig, *value++, payload)) return false;
    }
    return true;
  });
}

std::optional<can::CanFrame> MessageDef::encode(
    const std::map<std::string, double>& values) const {
  return assemble(*this, [&](std::span<std::uint8_t> payload) {
    for (const auto& [sig_name, value] : values) {
      const SignalDef* sig = signal(sig_name);
      if (sig == nullptr || !dbc::encode(*sig, value, payload)) return false;
    }
    return true;
  });
}

std::map<std::string, double> MessageDef::decode(const can::CanFrame& frame) const {
  std::map<std::string, double> out;
  for (const auto& sig : signals) {
    if (const auto value = dbc::decode(sig, frame.payload())) {
      out.emplace(sig.name, *value);
    }
  }
  return out;
}

}  // namespace acf::dbc

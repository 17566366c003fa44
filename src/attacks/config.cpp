#include "attacks/config.hpp"

#include "util/codec.hpp"

namespace acf::attacks {

const char* to_string(AttackFamily family) noexcept {
  switch (family) {
    case AttackFamily::kFlood: return "flood";
    case AttackFamily::kSpoof: return "spoof";
    case AttackFamily::kMasquerade: return "masquerade";
    case AttackFamily::kReplay: return "replay";
    case AttackFamily::kSuspension: return "suspension";
    case AttackFamily::kBusOff: return "bus-off";
    case AttackFamily::kGatewayProbe: return "gateway-probe";
    case AttackFamily::kUdsSession: return "uds-session";
    case AttackFamily::kObdScan: return "obd-scan";
    case AttackFamily::kXcpTamper: return "xcp-tamper";
  }
  return "unknown";
}

const char* to_string(AttackBus bus) noexcept {
  return bus == AttackBus::kPowertrain ? "powertrain" : "body";
}

constexpr std::uint8_t kVersion = 1;

bool attack_spec_valid(const AttackSpec& spec) noexcept {
  if (static_cast<std::uint8_t>(spec.family) >= kAttackFamilyCount) return false;
  if (static_cast<std::uint8_t>(spec.bus) > 1) return false;
  if (spec.target_id > kMaxTargetId) return false;
  if (spec.period_us < kMinPeriodUs || spec.period_us > kMaxPeriodUs) return false;
  if (spec.burst < 1 || spec.burst > kMaxBurst) return false;
  if (spec.payload_len > 8) return false;
  for (std::size_t i = spec.payload_len; i < spec.payload.size(); ++i) {
    if (spec.payload[i] != 0) return false;  // canonical zero padding
  }
  return true;
}

std::vector<std::uint8_t> encode_attack_spec(const AttackSpec& spec) {
  util::ByteWriter out;
  out.u8(kVersion);
  out.u8(static_cast<std::uint8_t>(spec.family));
  out.u8(static_cast<std::uint8_t>(spec.bus));
  out.u8(spec.payload_len);
  out.u32(spec.target_id);
  out.u32(spec.period_us);
  out.u16(spec.burst);
  for (const std::uint8_t byte : spec.payload) out.u8(byte);
  return out.take();
}

std::optional<AttackSpec> decode_attack_spec(std::span<const std::uint8_t> bytes) {
  util::ByteReader in(bytes);
  if (in.u8() != kVersion) return std::nullopt;
  AttackSpec spec;
  spec.family = static_cast<AttackFamily>(in.u8());
  spec.bus = static_cast<AttackBus>(in.u8());
  spec.payload_len = in.u8();
  spec.target_id = in.u32();
  spec.period_us = in.u32();
  spec.burst = in.u16();
  for (std::uint8_t& byte : spec.payload) byte = in.u8();
  if (!in.done() || !attack_spec_valid(spec)) return std::nullopt;
  return spec;
}

}  // namespace acf::attacks

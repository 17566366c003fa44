#include "vehicle/body_control.hpp"

namespace acf::vehicle {

namespace {
// The legitimate command frame (paper Fig. 13): byte0 = command (0x10 lock /
// 0x20 unlock), then 5F 01 00 <seq> 20 00, DLC 7 (declared in the signal
// database — the DLC-checking predicate validates against that declaration,
// the same dlc_matches check the ids::DlcConsistencyDetector runs).  The
// bytes after the command byte form the prefix checked by hardened
// predicates.
constexpr std::uint8_t kExpectedPrefix[4] = {0x00 /*cmd placeholder*/, 0x5F, 0x01, 0x00};
}  // namespace

BodyControlModule::BodyControlModule(sim::Scheduler& scheduler, can::VirtualBus& bus,
                                     UnlockPredicate predicate)
    : Ecu(scheduler, bus, "BCM"), predicate_(predicate) {
  enable_uds(dbc::kUdsBcmRequest, dbc::kUdsBcmResponse);
  uds_server()->set_did(0xF190, {'W', 'V', 'W', 'Z', 'Z', 'Z', '1', 'K', 'Z', 'A',
                                 'W', '0', '0', '0', '0', '1', '7'});
  uds_server()->set_did(0xF195, {'2', '.', '0', '.', '9'});

  // Values in each message's signal declaration order (target_vehicle_db).
  add_periodic(std::chrono::milliseconds(100), [this]() -> std::optional<can::CanFrame> {
    return door_status_.encode({/*LockState*/ unlocked_ ? 1.0 : 0.0,
                                /*DriverDoorOpen*/ 0.0,
                                /*PassengerDoorOpen*/ 0.0,
                                /*InteriorLight*/ unlocked_ ? 1.0 : 0.0});
  });
  add_periodic(std::chrono::milliseconds(100), [this]() -> std::optional<can::CanFrame> {
    return cluster_display_.encode({/*DisplayMode*/ 0.0,
                                    /*DisplayArg*/ 0.0,
                                    /*OdometerKm*/ odometer_km_,
                                    /*TripKm*/ 104.2});
  });
}

void BodyControlModule::on_power_on() {
  // Lock state is held in the actuator; a module reboot does not move it.
}

bool BodyControlModule::matches(const can::CanFrame& frame, std::uint8_t command) const {
  const auto payload = frame.payload();
  if (predicate_.check_length && !body_command_.dlc_matches(frame)) {
    return false;
  }
  const std::size_t checked = std::min<std::size_t>(predicate_.bytes_checked,
                                                    sizeof kExpectedPrefix);
  if (payload.size() < checked || checked == 0) return false;
  if (payload[0] != command) return false;
  for (std::size_t i = 1; i < checked; ++i) {
    if (payload[i] != kExpectedPrefix[i]) return false;
  }
  return true;
}

void BodyControlModule::actuate(bool unlocked, std::uint8_t command) {
  unlocked_ = unlocked;
  if (unlocked) {
    ++unlock_events_;
  } else {
    ++lock_events_;
  }
  if (actuator_listener_) actuator_listener_(unlocked);
  send_ack(command, true);
}

void BodyControlModule::send_ack(std::uint8_t command, bool ok) {
  if (const auto frame = body_ack_.encode({/*AckCommand*/ static_cast<double>(command),
                                           /*AckResult*/ ok ? 1.0 : 0.0})) {
    send(*frame);
  }
}

void BodyControlModule::handle_frame(const can::CanFrame& frame, sim::SimTime) {
  if (frame.id() != dbc::kMsgBodyCommand || frame.is_remote() || frame.length() == 0) return;

  if (predicate_.require_auth) {
    if (verifier_ == nullptr ||
        verifier_->verify_command(frame) != security::VerifyResult::kOk) {
      ++rejected_commands_;
      return;
    }
    const std::uint8_t command = verifier_->last_command();
    if (command == dbc::kCmdUnlock) {
      actuate(true, dbc::kCmdUnlock);
    } else if (command == dbc::kCmdLock) {
      actuate(false, dbc::kCmdLock);
    } else {
      ++rejected_commands_;  // authentic but unknown command
    }
    return;
  }

  if (matches(frame, dbc::kCmdUnlock)) {
    actuate(true, dbc::kCmdUnlock);
    return;
  }
  if (matches(frame, dbc::kCmdLock)) {
    actuate(false, dbc::kCmdLock);
    return;
  }
  ++rejected_commands_;
}

}  // namespace acf::vehicle

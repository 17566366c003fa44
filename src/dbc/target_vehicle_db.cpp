#include "dbc/target_vehicle_db.hpp"

#include <stdexcept>

#include "dbc/parser.hpp"

namespace acf::dbc {

namespace {

SignalDef sig(std::string name, std::uint16_t start, std::uint16_t length, double scale = 1.0,
              double offset = 0.0, bool is_signed = false, double min = 0.0, double max = 0.0,
              std::string unit = "") {
  SignalDef s;
  s.name = std::move(name);
  s.start_bit = start;
  s.bit_length = length;
  s.byte_order = ByteOrder::kLittleEndian;
  s.is_signed = is_signed;
  s.scale = scale;
  s.offset = offset;
  s.min = min;
  s.max = max;
  s.unit = std::move(unit);
  return s;
}

Database build_target_vehicle_database() {
  Database db;

  {
    MessageDef m;
    m.id = kMsgEngineData;
    m.name = "ENGINE_DATA";
    m.dlc = 8;
    m.sender = "ECM";
    m.cycle_time_ms = 10;
    // RPM is signed on purpose: several production gauges treat the raw
    // field as two's complement, which is exactly what lets a fuzzed frame
    // display a negative RPM (paper Fig. 8).
    m.signals.push_back(sig("EngineRPM", 0, 16, 0.25, 0.0, true, 0, 8000, "rpm"));
    m.signals.push_back(sig("ThrottlePct", 16, 8, 0.4, 0.0, false, 0, 100, "%"));
    m.signals.push_back(sig("CoolantTempC", 24, 8, 1.0, -40.0, false, -40, 215, "degC"));
    m.signals.push_back(sig("EngineRunning", 32, 1));
    m.signals.push_back(sig("FuelRate", 40, 16, 0.05, 0.0, false, 0, 3000, "mg/s"));
    db.add(std::move(m));
  }
  {
    MessageDef m;
    m.id = kMsgVehicleSpeed;
    m.name = "VEHICLE_SPEED";
    m.dlc = 8;
    m.sender = "ECM";
    m.cycle_time_ms = 20;
    m.signals.push_back(sig("SpeedKph", 0, 16, 0.01, 0.0, false, 0, 300, "km/h"));
    m.signals.push_back(sig("AccelPct", 16, 8, 0.4, 0.0, false, 0, 100, "%"));
    m.signals.push_back(sig("BrakeActive", 24, 1));
    m.signals.push_back(sig("GearPosition", 56, 4, 1.0, 0.0, false, 0, 8));
    m.signals.push_back(sig("SpeedValid", 61, 1));
    m.signals.push_back(sig("CruiseEngaged", 62, 1));
    db.add(std::move(m));
  }
  {
    MessageDef m;
    m.id = kMsgWheelSpeeds;
    m.name = "WHEEL_SPEEDS";
    m.dlc = 8;
    m.sender = "ABS";
    m.cycle_time_ms = 20;
    m.signals.push_back(sig("WheelFL", 0, 16, 0.01, 0.0, false, 0, 300, "km/h"));
    m.signals.push_back(sig("WheelFR", 16, 16, 0.01, 0.0, false, 0, 300, "km/h"));
    m.signals.push_back(sig("WheelRL", 32, 16, 0.01, 0.0, false, 0, 300, "km/h"));
    m.signals.push_back(sig("WheelRR", 48, 16, 0.01, 0.0, false, 0, 300, "km/h"));
    db.add(std::move(m));
  }
  {
    MessageDef m;
    m.id = kMsgPowertrainStatus;
    m.name = "POWERTRAIN_STATUS";
    m.dlc = 8;
    m.sender = "ECM";
    m.cycle_time_ms = 100;
    m.signals.push_back(sig("OilTempC", 0, 8, 1.0, -40.0, false, -40, 215, "degC"));
    m.signals.push_back(sig("OilPressureKpa", 8, 8, 4.0, 0.0, false, 0, 1000, "kPa"));
    m.signals.push_back(sig("IntakeTempC", 16, 8, 1.0, -40.0, false, -40, 215, "degC"));
    m.signals.push_back(sig("BatteryVolts", 24, 8, 0.1, 0.0, false, 0, 25.5, "V"));
    m.signals.push_back(sig("FuelLevelPct", 32, 8, 0.4, 0.0, false, 0, 100, "%"));
    m.signals.push_back(sig("AmbientTempC", 40, 8, 1.0, -40.0, false, -40, 215, "degC"));
    // Bytes 6..7 are reserved and transmitted as 0xFF by the ECM (matching
    // the "FF FF" tail visible in the paper's Table II capture of 0x43A).
    m.signals.push_back(sig("Reserved", 48, 16, 1.0, 0.0, false, 0, 65535));
    db.add(std::move(m));
  }
  {
    MessageDef m;
    m.id = kMsgClusterDisplay;
    m.name = "CLUSTER_DISPLAY";
    m.dlc = 8;
    m.sender = "BCM";
    m.cycle_time_ms = 100;
    m.signals.push_back(sig("DisplayMode", 0, 8));
    m.signals.push_back(sig("DisplayArg", 8, 8));
    m.signals.push_back(sig("OdometerKm", 16, 24, 0.1, 0.0, false, 0, 1677721, "km"));
    m.signals.push_back(sig("TripKm", 40, 16, 0.1, 0.0, false, 0, 6553.5, "km"));
    db.add(std::move(m));
  }
  {
    MessageDef m;
    m.id = kMsgTelltales;
    m.name = "TELLTALES";
    m.dlc = 8;
    m.sender = "ECM";
    m.cycle_time_ms = 100;
    m.signals.push_back(sig("MilOn", 0, 1));
    m.signals.push_back(sig("OilWarning", 1, 1));
    m.signals.push_back(sig("BatteryWarning", 2, 1));
    m.signals.push_back(sig("CoolantWarning", 3, 1));
    m.signals.push_back(sig("AbsWarning", 4, 1));
    m.signals.push_back(sig("AirbagWarning", 5, 1));
    m.signals.push_back(sig("DtcCount", 8, 8, 1.0, 0.0, false, 0, 255));
    db.add(std::move(m));
  }
  {
    MessageDef m;
    m.id = kMsgBodyCommand;
    m.name = "BODY_COMMAND";
    m.dlc = 7;  // the paper's lock/unlock app transmits DLC 7 on id 0x215
    m.sender = "IVI";
    m.cycle_time_ms = 0;  // event-driven
    m.signals.push_back(sig("Command", 0, 8));
    m.signals.push_back(sig("Source", 8, 8));
    m.signals.push_back(sig("SessionId", 16, 16));
    m.signals.push_back(sig("SequenceNum", 32, 8));
    db.add(std::move(m));
  }
  {
    MessageDef m;
    m.id = kMsgBodyAck;
    m.name = "BODY_ACK";
    m.dlc = 2;
    m.sender = "BCM";
    m.cycle_time_ms = 0;
    m.signals.push_back(sig("AckCommand", 0, 8));
    m.signals.push_back(sig("AckResult", 8, 8));
    db.add(std::move(m));
  }
  {
    MessageDef m;
    m.id = kMsgDoorStatus;
    m.name = "DOOR_STATUS";
    m.dlc = 4;
    m.sender = "BCM";
    m.cycle_time_ms = 100;
    m.signals.push_back(sig("LockState", 0, 1));  // 0 locked, 1 unlocked
    m.signals.push_back(sig("DriverDoorOpen", 1, 1));
    m.signals.push_back(sig("PassengerDoorOpen", 2, 1));
    m.signals.push_back(sig("InteriorLight", 8, 1));
    db.add(std::move(m));
  }
  return db;
}

}  // namespace

const Database& target_vehicle_database() {
  // Built once, on first use; C++ guarantees the initialisation is
  // thread-safe, so concurrent fleet workers all see this one instance.
  static const Database db = build_target_vehicle_database();
  return db;
}

const MessageDef& target_message(std::uint32_t id) {
  const MessageDef* message = target_vehicle_database().by_id(id);
  if (message == nullptr) throw std::out_of_range("no target-vehicle message with that id");
  return *message;
}

const SignalDef& target_signal(std::uint32_t message_id, std::string_view name) {
  const SignalDef* signal = target_message(message_id).signal(name);
  if (signal == nullptr) throw std::out_of_range("no target-vehicle signal with that name");
  return *signal;
}

std::string target_vehicle_dbc_text() {
  const std::string nodes[] = {"ECM", "ABS", "BCM", "IVI", "CLUSTER", "GATEWAY"};
  return to_dbc_text(target_vehicle_database(), nodes);
}

}  // namespace acf::dbc

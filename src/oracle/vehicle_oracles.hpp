// Vehicle-level oracles: the simulator-internal and physical-response
// monitoring channels from the paper's oracle discussion — watching the
// lock LED / unlock acknowledgement, component heartbeats (crash), the
// cluster's warning state, and signal plausibility.
#pragma once

#include <cstdint>
#include <vector>

#include "can/bus.hpp"
#include "dbc/target_vehicle_db.hpp"
#include "oracle/oracle.hpp"
#include "vehicle/body_control.hpp"
#include "vehicle/instrument_cluster.hpp"

namespace acf::oracle {

/// Detects activation of the unlock security function.
///
/// Two channels, mirroring the paper's oracle discussion:
///  - the BODY_ACK acknowledgement frame on the bus (the paper's testbench
///    augmentation) — pure network monitoring;
///  - the BCM's actuator state (the LED / "a sensor on the door lock") —
///    physical monitoring.
/// When the physical channel is available it is authoritative: a listen-only
/// tap cannot tell who transmitted a frame, so a fuzzer blasting random
/// frames will eventually forge the ack id itself (~1 in 674k full-space
/// frames) and spoof a network-only oracle.  That false-positive mode is a
/// concrete instance of the oracle problem the paper raises; the
/// ack_frames_seen() counter exposes it for study.
class UnlockOracle final : public Oracle, private can::BusListener {
 public:
  UnlockOracle(can::VirtualBus& bus, const vehicle::BodyControlModule* bcm = nullptr);
  ~UnlockOracle() override;

  std::string_view name() const override { return "unlock"; }
  std::optional<Observation> poll(sim::SimTime now) override;
  void reset() override;

  bool unlock_detected() const noexcept { return reported_; }
  sim::SimTime unlock_time() const noexcept { return ack_time_; }
  /// Unlock-ack frames observed on the bus (genuine or forged).
  std::uint64_t ack_frames_seen() const noexcept { return ack_count_; }

 private:
  void on_frame(const can::CanFrame& frame, sim::SimTime time) override;

  can::VirtualBus& bus_;
  can::NodeId node_;
  const vehicle::BodyControlModule* bcm_;
  bool ack_seen_ = false;
  bool reported_ = false;
  std::uint64_t ack_count_ = 0;
  sim::SimTime ack_time_{0};
};

/// Fails when any watched ECU reports crashed() — the heartbeat-loss /
/// debug-interface channel.
class ComponentCrashOracle final : public Oracle {
 public:
  void watch(const ecu::Ecu& target) { targets_.push_back(&target); }

  std::string_view name() const override { return "component-crash"; }
  std::optional<Observation> poll(sim::SimTime now) override;
  void reset() override { reported_ = false; }

 private:
  std::vector<const ecu::Ecu*> targets_;
  bool reported_ = false;
};

/// Watches the instrument cluster: MIL / warning illumination and the
/// latched crash display (the paper's physical observables on the bench).
class ClusterStateOracle final : public Oracle {
 public:
  explicit ClusterStateOracle(const vehicle::InstrumentCluster& cluster)
      : cluster_(cluster) {}

  std::string_view name() const override { return "cluster-state"; }
  std::optional<Observation> poll(sim::SimTime now) override;
  void reset() override;

 private:
  const vehicle::InstrumentCluster& cluster_;
  bool warning_reported_ = false;
  bool crash_reported_ = false;
};

/// Decodes frames against the signal database and reports values outside
/// their declared ranges (the "comparison module" style oracle of [17]).
class SignalPlausibilityOracle final : public Oracle, private can::BusListener {
 public:
  SignalPlausibilityOracle(can::VirtualBus& bus, dbc::Database database);
  ~SignalPlausibilityOracle() override;
  // The bus holds this object's address, and the last-violation handles
  // point into its own database.
  SignalPlausibilityOracle(const SignalPlausibilityOracle&) = delete;
  SignalPlausibilityOracle& operator=(const SignalPlausibilityOracle&) = delete;

  std::string_view name() const override { return "signal-plausibility"; }
  std::optional<Observation> poll(sim::SimTime now) override;
  void reset() override;

  std::uint64_t violations() const noexcept { return violations_; }

 private:
  void on_frame(const can::CanFrame& frame, sim::SimTime time) override;

  can::VirtualBus& bus_;
  can::NodeId node_;
  dbc::Database db_;
  std::uint64_t violations_ = 0;
  std::uint64_t reported_violations_ = 0;
  // The last violation, formatted only when poll() reports it.
  const dbc::MessageDef* last_message_ = nullptr;
  const dbc::SignalDef* last_signal_ = nullptr;
  double last_value_ = 0.0;
  sim::SimTime last_time_{0};
};

}  // namespace acf::oracle

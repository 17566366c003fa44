#include "oracle/vehicle_oracles.hpp"

#include <cstdio>

namespace acf::oracle {

UnlockOracle::UnlockOracle(can::VirtualBus& bus, const vehicle::BodyControlModule* bcm)
    : bus_(bus), bcm_(bcm) {
  node_ = bus_.attach(*this, "oracle.unlock", {}, /*listen_only=*/true);
}

UnlockOracle::~UnlockOracle() { bus_.detach(node_); }

void UnlockOracle::on_frame(const can::CanFrame& frame, sim::SimTime time) {
  if (frame.id() == dbc::kMsgBodyAck && frame.length() >= 2 &&
      frame.payload()[0] == dbc::kCmdUnlock && frame.payload()[1] != 0) {
    ++ack_count_;
    // Keep the *latest* ack time until a report is made: under physical
    // confirmation the genuine ack is the one immediately preceding the
    // confirming poll (earlier acks on a fuzzed bus may be forged traffic).
    if (!reported_) {
      if (!ack_seen_) ack_seen_ = true;
      ack_time_ = time;
    }
  }
}

std::optional<Observation> UnlockOracle::poll(sim::SimTime now) {
  if (reported_) return std::nullopt;
  if (bcm_ != nullptr) {
    // Physical channel available: the actuator is authoritative (an ack
    // frame alone may be the fuzzer's own forged traffic).
    if (!bcm_->unlocked()) return std::nullopt;
    reported_ = true;
    // The genuine ack precedes the poll tick; use its exact bus time when we
    // have one, otherwise the poll time.
    if (!ack_seen_) ack_time_ = now;
    return Observation{Verdict::kFailure,
                       "unlock security function activated without authorisation", ack_time_};
  }
  // Network-monitoring only: trust the ack frame (spoofable; see header).
  if (!ack_seen_) return std::nullopt;
  reported_ = true;
  return Observation{Verdict::kFailure,
                     "unlock acknowledgement observed on the bus", ack_time_};
}

void UnlockOracle::reset() {
  ack_seen_ = false;
  reported_ = false;
  ack_count_ = 0;
  ack_time_ = sim::SimTime{0};
}

std::optional<Observation> ComponentCrashOracle::poll(sim::SimTime now) {
  if (reported_) return std::nullopt;
  for (const ecu::Ecu* target : targets_) {
    if (target->crashed()) {
      reported_ = true;
      return Observation{Verdict::kFailure,
                         "component '" + target->name() + "' crashed: " +
                             target->crash_reason(),
                         now};
    }
  }
  return std::nullopt;
}

std::optional<Observation> ClusterStateOracle::poll(sim::SimTime now) {
  if (!crash_reported_ && cluster_.crash_latched()) {
    crash_reported_ = true;
    return Observation{Verdict::kFailure,
                       "cluster display latched '" + cluster_.display_text() +
                           "' (persists across power cycles)",
                       now};
  }
  if (!warning_reported_ && cluster_.any_warning_lit()) {
    warning_reported_ = true;
    char detail[128];
    std::snprintf(detail, sizeof detail,
                  "cluster warnings lit (MIL=%d, sounds=%llu, needle travel=%.0f)",
                  cluster_.mil_on() ? 1 : 0,
                  static_cast<unsigned long long>(cluster_.warning_sounds()),
                  cluster_.needle_travel());
    return Observation{Verdict::kSuspicious, detail, now};
  }
  return std::nullopt;
}

void ClusterStateOracle::reset() {
  warning_reported_ = false;
  crash_reported_ = false;
}

SignalPlausibilityOracle::SignalPlausibilityOracle(can::VirtualBus& bus, dbc::Database database)
    : bus_(bus), db_(std::move(database)) {
  node_ = bus_.attach(*this, "oracle.plausibility", {}, /*listen_only=*/true);
}

SignalPlausibilityOracle::~SignalPlausibilityOracle() { bus_.detach(node_); }

void SignalPlausibilityOracle::on_frame(const can::CanFrame& frame, sim::SimTime time) {
  const dbc::MessageDef* def = db_.by_id(frame.id());
  if (def == nullptr || frame.is_remote()) return;
  for (const auto& sig : def->signals) {
    const auto value = dbc::decode(sig, frame.payload());
    if (!value || sig.in_declared_range(*value)) continue;
    ++violations_;
    last_message_ = def;
    last_signal_ = &sig;
    last_value_ = *value;
    last_time_ = time;
  }
}

std::optional<Observation> SignalPlausibilityOracle::poll(sim::SimTime) {
  if (violations_ == reported_violations_) return std::nullopt;
  reported_violations_ = violations_;
  char detail[128];
  std::snprintf(detail, sizeof detail, "%s.%s = %.1f outside [%g, %g]",
                last_message_->name.c_str(), last_signal_->name.c_str(), last_value_,
                last_signal_->min, last_signal_->max);
  return Observation{Verdict::kSuspicious, detail, last_time_};
}

void SignalPlausibilityOracle::reset() {
  violations_ = 0;
  reported_violations_ = 0;
  last_message_ = nullptr;
  last_signal_ = nullptr;
}

}  // namespace acf::oracle

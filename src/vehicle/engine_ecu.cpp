#include "vehicle/engine_ecu.hpp"

#include <algorithm>
#include <cmath>

namespace acf::vehicle {

namespace {
constexpr auto kControlPeriod = std::chrono::milliseconds(10);
constexpr std::uint32_t kDtcImplausibleWheelSpeed = 0x0C0100;
}  // namespace

std::vector<DrivePhase> default_drive_cycle() {
  using std::chrono::seconds;
  return {
      {seconds(20), 800.0, 0.0, 5.0},     // idle
      {seconds(15), 2800.0, 40.0, 45.0},  // accelerate
      {seconds(40), 2200.0, 70.0, 25.0},  // cruise
      {seconds(15), 3400.0, 95.0, 60.0},  // overtake
      {seconds(20), 2000.0, 60.0, 20.0},  // settle
      {seconds(10), 900.0, 0.0, 5.0},     // brake to stop
  };
}

EngineEcu::EngineEcu(sim::Scheduler& scheduler, can::VirtualBus& bus,
                     std::vector<DrivePhase> cycle)
    : Ecu(scheduler, bus, "ECM"), cycle_(std::move(cycle)) {
  if (cycle_.empty()) cycle_ = default_drive_cycle();
  for (const auto& phase : cycle_) cycle_length_ += phase.duration;

  scheduler.schedule_every(kControlPeriod, [this] {
    if (!powered() || crashed()) return;
    control_tick();
  });

  // J1979 emissions diagnostics on the standard ids (also enables UDS on
  // the same physical pair; UDS and OBD modes do not collide: SIDs differ).
  enable_uds(dbc::kUdsEngineRequest, dbc::kUdsEngineResponse);
  obd::ObdDataSource source;
  source.rpm = [this] { return rpm_; };
  source.speed_kph = [this] { return speed_kph_; };
  source.coolant_c = [this] { return coolant_c_; };
  source.throttle_pct = [this] { return throttle_pct_; };
  source.dtcs = [this] {
    std::vector<std::uint16_t> out;
    for (const auto& dtc : dtcs().all()) {
      out.push_back(static_cast<std::uint16_t>(dtc.code & 0xFFFF));
    }
    return out;
  };
  source.clear_dtcs = [this] { dtcs().clear_all(); };
  obd_ = std::make_unique<obd::ObdServer>(
      scheduler, [this](const can::CanFrame& frame) { return send(frame); },
      dbc::kUdsEngineRequest, std::move(source));

  // Values in each message's signal declaration order (target_vehicle_db).
  add_periodic(kControlPeriod, [this]() -> std::optional<can::CanFrame> {
    return engine_data_.encode({/*EngineRPM*/ rpm_,
                                /*ThrottlePct*/ throttle_pct_,
                                /*CoolantTempC*/ coolant_c_,
                                /*EngineRunning*/ 1.0,
                                /*FuelRate*/ 50.0 + rpm_ * 0.3});
  });
  add_periodic(std::chrono::milliseconds(20), [this]() -> std::optional<can::CanFrame> {
    const double gear = speed_kph_ < 1 ? 0 : std::clamp(speed_kph_ / 20.0 + 1.0, 1.0, 6.0);
    return vehicle_speed_.encode({/*SpeedKph*/ speed_kph_,
                                  /*AccelPct*/ throttle_pct_,
                                  /*BrakeActive*/ throttle_pct_ < 2.0 && speed_kph_ > 1.0 ? 1.0 : 0.0,
                                  /*GearPosition*/ std::floor(gear),
                                  /*SpeedValid*/ 1.0,
                                  /*CruiseEngaged*/ 0.0});
  });
  add_periodic(std::chrono::milliseconds(100), [this]() -> std::optional<can::CanFrame> {
    return powertrain_status_.encode({/*OilTempC*/ coolant_c_ * 0.9,
                                      /*OilPressureKpa*/ 180.0 + rpm_ * 0.05,
                                      /*IntakeTempC*/ 23.0,
                                      /*BatteryVolts*/ 14.1,
                                      /*FuelLevelPct*/ fuel_pct_,
                                      /*AmbientTempC*/ 17.0,
                                      /*Reserved*/ 65535.0});
  });
  add_periodic(std::chrono::milliseconds(100), [this]() -> std::optional<can::CanFrame> {
    return telltales_.encode({/*MilOn*/ dtcs().mil_requested() ? 1.0 : 0.0,
                              /*OilWarning*/ 0.0,
                              /*BatteryWarning*/ 0.0,
                              /*CoolantWarning*/ coolant_c_ > 115.0 ? 1.0 : 0.0,
                              /*AbsWarning*/ 0.0,
                              /*AirbagWarning*/ 0.0,
                              /*DtcCount*/ static_cast<double>(dtcs().count())});
  });
}

void EngineEcu::on_power_on() {
  rpm_ = 800.0;
  speed_kph_ = 0.0;
  throttle_pct_ = 5.0;
  governor_disturbance_ = 0.0;
  idle_roughness_ = 0.0;
}

void EngineEcu::control_tick() {
  // Locate the current phase within the repeating cycle.
  const auto now = scheduler().now();
  auto offset = sim::Duration{now.count() % cycle_length_.count()};
  const DrivePhase* phase = &cycle_.front();
  for (const auto& p : cycle_) {
    if (offset < p.duration) {
      phase = &p;
      break;
    }
    offset -= p.duration;
  }

  // First-order tracking toward the phase targets.
  const double dt = sim::to_seconds(kControlPeriod);
  const double rpm_tau = 1.2;
  const double speed_tau = 4.0;
  double rpm_target = phase->target_rpm;

  // Idle governor: compensates engine load using wheel-speed feedback.  A
  // disturbance (e.g. fuzzed WHEEL_SPEEDS frames) shakes the idle target.
  rpm_target += governor_disturbance_;
  governor_disturbance_ *= std::exp(-dt / 0.5);  // decays in ~0.5 s

  // Small deterministic idle hunt (a positional oscillation of the target,
  // so idle traffic is not perfectly constant).
  const double t = sim::to_seconds(now);
  rpm_target += 8.0 * std::sin(t * 5.0);

  rpm_ += (rpm_target - rpm_) * (dt / rpm_tau);
  speed_kph_ += (phase->target_speed_kph - speed_kph_) * (dt / speed_tau);
  throttle_pct_ = phase->throttle_pct;

  coolant_c_ = std::min(92.0, coolant_c_ + dt * 0.4);
  fuel_pct_ = std::max(5.0, fuel_pct_ - dt * 0.0004 * (1.0 + rpm_ / 2000.0));
  odometer_km_ += speed_kph_ * dt / 3600.0;

  const double delta = std::fabs(rpm_ - last_rpm_);
  last_rpm_ = rpm_;
  // Peak-hold with ~1 s decay.
  idle_roughness_ = std::max(delta, idle_roughness_ * (1.0 - dt));
}

void EngineEcu::handle_frame(const can::CanFrame& frame, sim::SimTime time) {
  if (obd_) obd_->handle_frame(frame, time);
  if (frame.id() != dbc::kMsgWheelSpeeds || frame.is_remote()) return;
  const auto fl = dbc::decode(wheel_fl_, frame.payload());
  const auto fr = dbc::decode(wheel_fr_, frame.payload());
  if (!fl || !fr) return;
  const double avg = (*fl + *fr) / 2.0;

  // Plausibility: wheel speed must roughly agree with our own road speed.
  const double discrepancy = std::fabs(avg - speed_kph_);
  if (discrepancy > 25.0) {
    ++implausible_inputs_;
    // The governor reacts before the plausibility monitor confirms the
    // fault — this transient reaction is the erratic idle the paper saw.
    governor_disturbance_ = std::clamp(discrepancy * 4.0, 0.0, 600.0);
    if (implausible_inputs_ % 16 == 0) {
      dtcs().raise(kDtcImplausibleWheelSpeed, "wheel speed implausible vs road speed");
    }
    return;
  }
  wheel_speed_avg_ = avg;
}

}  // namespace acf::vehicle

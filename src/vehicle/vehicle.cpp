#include "vehicle/vehicle.hpp"

namespace acf::vehicle {

AbsEcu::AbsEcu(sim::Scheduler& scheduler, can::VirtualBus& bus, const EngineEcu& engine)
    : Ecu(scheduler, bus, "ABS"), engine_(engine) {
  add_periodic(std::chrono::milliseconds(20), [this]() -> std::optional<can::CanFrame> {
    const double v = engine_.speed_kph();
    // Per-wheel deltas: slight differential offsets as in a gentle curve.
    return wheel_speeds_.encode({/*WheelFL*/ v * 1.002,
                                 /*WheelFR*/ v * 0.998,
                                 /*WheelRL*/ v * 1.001,
                                 /*WheelRR*/ v * 0.999});
  });
}

void AbsEcu::handle_frame(const can::CanFrame&, sim::SimTime) {}

Vehicle::Vehicle(sim::Scheduler& scheduler, VehicleConfig config) {
  powertrain_ = std::make_unique<can::VirtualBus>(scheduler, config.powertrain_bus);
  body_ = std::make_unique<can::VirtualBus>(scheduler, config.body_bus);

  engine_ = std::make_unique<EngineEcu>(scheduler, *powertrain_, config.drive_cycle);
  abs_ = std::make_unique<AbsEcu>(scheduler, *powertrain_, *engine_);
  cluster_ = std::make_unique<InstrumentCluster>(scheduler, *body_);
  bcm_ = std::make_unique<BodyControlModule>(scheduler, *body_, config.unlock_predicate);
  head_unit_ = std::make_unique<HeadUnit>(scheduler, *body_);

  ForwardRule p_to_b = config.gateway_filtering ? GatewayEcu::default_powertrain_to_body()
                                                : ForwardRule{true, {}};
  ForwardRule b_to_p = config.gateway_filtering ? GatewayEcu::default_body_to_powertrain()
                                                : ForwardRule{true, {}};
  gateway_ = std::make_unique<GatewayEcu>(*powertrain_, *body_, std::move(p_to_b),
                                          std::move(b_to_p));
}

UnlockTestbench::UnlockTestbench(sim::Scheduler& scheduler, UnlockPredicate predicate,
                                 can::BusConfig bus_config) {
  bus_ = std::make_unique<can::VirtualBus>(scheduler, bus_config);
  head_unit_ = std::make_unique<HeadUnit>(scheduler, *bus_);
  bcm_ = std::make_unique<BodyControlModule>(scheduler, *bus_, predicate);
  if (predicate.require_auth) {
    // A factory-provisioned session key shared by the command endpoints.
    const security::Key128 key = {0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
                                  0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C};
    head_unit_->install_auth_key(key);
    bcm_->install_auth_key(key);
  }
}

}  // namespace acf::vehicle

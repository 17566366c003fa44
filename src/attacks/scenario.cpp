#include "attacks/scenario.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

#include "dbc/target_vehicle_db.hpp"
#include "obd/obd.hpp"
#include "xcp/xcp.hpp"

namespace acf::attacks {

void AttackScenario::disarm(AttackContext& ctx) {
  for (const sim::EventId event : events_) ctx.scheduler.cancel(event);
  events_.clear();
}

transport::CanTransport& AttackScenario::injection_transport(AttackContext& ctx) const {
  return spec_.bus == AttackBus::kPowertrain ? ctx.powertrain : ctx.body;
}

AttackBus observed_bus(const AttackSpec& spec) noexcept {
  if (spec.family != AttackFamily::kGatewayProbe) return spec.bus;
  return spec.bus == AttackBus::kPowertrain ? AttackBus::kBody : AttackBus::kPowertrain;
}

namespace {

/// The forged frame a spec describes: its payload bytes when given, else
/// zeros at the id's DBC-declared DLC (8 for undeclared ids).
std::optional<can::CanFrame> forged_frame(const AttackSpec& spec) {
  std::vector<std::uint8_t> payload;
  if (spec.payload_len > 0) {
    payload.assign(spec.payload.begin(), spec.payload.begin() + spec.payload_len);
  } else {
    const dbc::MessageDef* def = dbc::target_vehicle_database().by_id(spec.target_id);
    payload.assign(def ? def->dlc : 8, 0x00);
  }
  return can::CanFrame::data(spec.target_id, payload);
}

std::uint64_t injected(AttackContext& ctx) {
  return ctx.powertrain.stats().frames_sent + ctx.body.stats().frames_sent;
}

// ------------------------------------------------------------- flood ------

/// Arbitration starvation: `burst` maximum-priority frames per period.  The
/// id-0 flood wins every contest, so legitimate traffic only fits in the
/// gaps the attacker leaves.
class FloodScenario final : public AttackScenario {
 public:
  using AttackScenario::AttackScenario;

  void arm(AttackContext& ctx) override {
    const auto frame = forged_frame(spec_);
    if (!frame) return;
    schedule(ctx, period(), [this, ctx, flood = *frame]() mutable {
      for (std::uint16_t i = 0; i < spec_.burst; ++i) injection_transport(ctx).send(flood);
    });
  }

  std::optional<oracle::Observation> impact(AttackContext& ctx) const override {
    std::ostringstream detail;
    detail << "bus flood: " << injected(ctx) << " frames at id 0x" << std::hex
           << spec_.target_id << " on the " << to_string(spec_.bus) << " bus";
    return oracle::Observation{oracle::Verdict::kSuspicious, detail.str(),
                               ctx.scheduler.now()};
  }
};

// ------------------------------------------------------------- spoof ------

/// Out-cadencing a live periodic signal with forged data; last-value-wins
/// consumers follow whichever sender wrote most recently, and the attacker
/// writes more often.
class SpoofScenario final : public AttackScenario {
 public:
  using AttackScenario::AttackScenario;

  void arm(AttackContext& ctx) override {
    const auto frame = forged_frame(spec_);
    if (!frame) return;
    schedule(ctx, period(), [this, ctx, forged = *frame]() mutable {
      injection_transport(ctx).send(forged);
    });
    // Sample the victim gauge against the engine's real state: a sustained
    // split is the attack's observable success.
    schedule(ctx, std::chrono::milliseconds(10), [this, ctx] {
      const double deviation =
          ctx.vehicle.cluster().rpm_gauge() - ctx.vehicle.engine().rpm();
      if (deviation < -500.0 || deviation > 500.0) {
        if (!deceived_) {
          deceived_ = true;
          deceived_at_ = ctx.scheduler.now();
        }
      }
    });
  }

  std::optional<oracle::Observation> impact(AttackContext& ctx) const override {
    if (deceived_) {
      std::ostringstream detail;
      detail << "cluster gauge follows forged id 0x" << std::hex << spec_.target_id
             << std::dec << " (first deceived at " << sim::format_millis(deceived_at_)
             << " ms)";
      return oracle::Observation{oracle::Verdict::kFailure, detail.str(), deceived_at_};
    }
    return oracle::Observation{oracle::Verdict::kSuspicious,
                               "spoof frames injected without observable gauge split",
                               ctx.scheduler.now()};
  }

 private:
  bool deceived_ = false;
  sim::SimTime deceived_at_{0};
};

// -------------------------------------------------------- masquerade ------

/// Period- and payload-matched clone of a live id: the tap remembers the
/// victim's last transmitted payload and re-emits it at the victim's own
/// cadence (optionally overriding the first payload_len bytes), so content
/// detectors see nothing and only timing is left to notice the doubled rate.
class MasqueradeScenario final : public AttackScenario {
 public:
  using AttackScenario::AttackScenario;

  void prepare(AttackContext& ctx) override {
    injection_transport(ctx).set_rx_callback(
        [this](const can::CanFrame& frame, sim::SimTime) {
          if (frame.id() != spec_.target_id) return;
          last_payload_.assign(frame.payload().begin(), frame.payload().end());
        });
  }

  void arm(AttackContext& ctx) override {
    schedule(ctx, period(), [this, ctx]() mutable {
      if (last_payload_.empty()) return;
      std::vector<std::uint8_t> payload = last_payload_;
      for (std::size_t i = 0; i < spec_.payload_len && i < payload.size(); ++i) {
        payload[i] = spec_.payload[i];
      }
      if (const auto clone = can::CanFrame::data(spec_.target_id, payload)) {
        if (injection_transport(ctx).send(*clone)) ++cloned_;
      }
    });
  }

  std::optional<oracle::Observation> impact(AttackContext& ctx) const override {
    std::ostringstream detail;
    detail << "masqueraded " << cloned_ << " payload-matched frames of id 0x" << std::hex
           << spec_.target_id;
    return oracle::Observation{oracle::Verdict::kSuspicious, detail.str(),
                               ctx.scheduler.now()};
  }

 private:
  std::vector<std::uint8_t> last_payload_;
  std::uint64_t cloned_ = 0;
};

// ------------------------------------------------------------ replay ------

/// Hoppe & Dittman's window lift: record the command id during the benign
/// window, replay the recording cyclically later.  Succeeds when a replayed
/// command re-actuates the door lock.
class ReplayScenario final : public AttackScenario {
 public:
  using AttackScenario::AttackScenario;

  void prepare(AttackContext& ctx) override {
    injection_transport(ctx).set_rx_callback(
        [this](const can::CanFrame& frame, sim::SimTime) {
          if (frame.id() != spec_.target_id || recorded_.size() >= 64) return;
          if (armed_) return;  // the window closed when the attack started
          recorded_.push_back(frame);
        });
  }

  void arm(AttackContext& ctx) override {
    armed_ = true;
    unlock_baseline_ = ctx.vehicle.bcm().unlock_events();
    if (recorded_.empty()) return;
    schedule(ctx, period(), [this, ctx]() mutable {
      injection_transport(ctx).send(recorded_[next_++ % recorded_.size()]);
    });
  }

  std::optional<oracle::Observation> impact(AttackContext& ctx) const override {
    const std::uint64_t unlocks = ctx.vehicle.bcm().unlock_events() - unlock_baseline_;
    std::ostringstream detail;
    if (unlocks > 0) {
      detail << "replayed command window re-actuated unlock " << unlocks << " times ("
             << recorded_.size() << " frames captured)";
      return oracle::Observation{oracle::Verdict::kFailure, detail.str(),
                                 ctx.scheduler.now()};
    }
    detail << "replayed " << recorded_.size() << " captured frames without actuation";
    return oracle::Observation{oracle::Verdict::kSuspicious, detail.str(),
                               ctx.scheduler.now()};
  }

 private:
  std::vector<can::CanFrame> recorded_;
  std::size_t next_ = 0;
  std::uint64_t unlock_baseline_ = 0;
  bool armed_ = false;
};

// -------------------------------------------------------- suspension ------

/// ECU suspension: power the victim down, then impersonate its periodic id
/// at the matched cadence — the bus sees an uninterrupted (but forged)
/// stream.  The victim here is the ABS module (kMsgWheelSpeeds sender).
class SuspensionScenario final : public AttackScenario {
 public:
  using AttackScenario::AttackScenario;

  void arm(AttackContext& ctx) override {
    ctx.vehicle.abs().power_off();
    const auto frame = forged_frame(spec_);
    if (!frame) return;
    schedule(ctx, period(), [this, ctx, forged = *frame]() mutable {
      if (injection_transport(ctx).send(forged)) ++impersonated_;
    });
  }

  std::optional<oracle::Observation> impact(AttackContext& ctx) const override {
    std::ostringstream detail;
    detail << "victim ECU suspended; " << impersonated_
           << " impersonation frames of id 0x" << std::hex << spec_.target_id;
    const auto verdict =
        impersonated_ > 0 ? oracle::Verdict::kFailure : oracle::Verdict::kSuspicious;
    return oracle::Observation{verdict, detail.str(), ctx.scheduler.now()};
  }

 private:
  std::uint64_t impersonated_ = 0;
};

// ----------------------------------------------------------- bus-off ------

/// Bus-off forcing: repeated transmit errors charged to the victim push its
/// TEC past 255 (fault confinement silences it); the attacker then owns the
/// victim's id.  Errors are injected through the bus's error-state channel
/// (`force_tx_errors`), the model's stand-in for the bit-level dominant
/// overwrite of Cho & Shin's bus-off attack.
class BusOffScenario final : public AttackScenario {
 public:
  using AttackScenario::AttackScenario;

  void arm(AttackContext& ctx) override {
    const can::NodeId victim = victim_node(ctx);
    const auto frame = forged_frame(spec_);
    schedule(ctx, period(), [this, ctx, victim, frame]() mutable {
      can::VirtualBus& bus = spec_.bus == AttackBus::kPowertrain
                                 ? ctx.vehicle.powertrain_bus()
                                 : ctx.vehicle.body_bus();
      bus.force_tx_errors(victim, spec_.burst);
      // The off state itself can be shorter than the tick (auto-recovery is
      // ~2.8 ms at 500 kb/s), so latch on the cumulative bus-off event
      // count instead of sampling the transient mode.
      if (bus.error_state(victim).bus_off_events() > 0 && !victim_off_) {
        victim_off_ = true;
        victim_off_at_ = ctx.scheduler.now();
      }
      if (frame) injection_transport(ctx).send(*frame);
    });
  }

  std::optional<oracle::Observation> impact(AttackContext& ctx) const override {
    if (victim_off_) {
      std::ostringstream detail;
      detail << "victim driven to bus-off at " << sim::format_millis(victim_off_at_)
             << " ms; attacker owns id 0x" << std::hex << spec_.target_id;
      return oracle::Observation{oracle::Verdict::kFailure, detail.str(), victim_off_at_};
    }
    return oracle::Observation{oracle::Verdict::kSuspicious,
                               "transmit errors charged without reaching bus-off",
                               ctx.scheduler.now()};
  }

 private:
  can::NodeId victim_node(AttackContext& ctx) const {
    return spec_.bus == AttackBus::kPowertrain ? ctx.vehicle.engine().node_id()
                                               : ctx.vehicle.bcm().node_id();
  }

  bool victim_off_ = false;
  sim::SimTime victim_off_at_{0};
};

// ----------------------------------------------------- gateway probe ------

/// Gateway traversal sweep from the exposed bus: alternates ids the
/// diagnostic whitelist is expected to pass with random ids it must block,
/// and counts what actually made it to the far side.
class GatewayProbeScenario final : public AttackScenario {
 public:
  using AttackScenario::AttackScenario;

  void arm(AttackContext& ctx) override {
    baseline_ = traversed(ctx);
    schedule(ctx, period(), [this, ctx]() mutable {
      std::uint32_t id = 0;
      switch (probe_++ % 3) {
        case 0: id = dbc::kUdsEngineRequest; break;
        case 1: id = obd::kObdFunctionalRequest; break;
        default: id = static_cast<std::uint32_t>(ctx.rng.next_below(0x800)); break;
      }
      std::array<std::uint8_t, 8> payload{};
      ctx.rng.fill(payload);
      if (const auto frame = can::CanFrame::data(id, payload)) {
        injection_transport(ctx).send(*frame);
      }
    });
  }

  std::optional<oracle::Observation> impact(AttackContext& ctx) const override {
    const std::uint64_t through = traversed(ctx) - baseline_;
    std::ostringstream detail;
    detail << probe_ << " probes injected, " << through << " traversed the gateway";
    return oracle::Observation{oracle::Verdict::kSuspicious, detail.str(),
                               ctx.scheduler.now()};
  }

 private:
  std::uint64_t traversed(AttackContext& ctx) const {
    const vehicle::GatewayStats& stats = ctx.vehicle.gateway().stats();
    return spec_.bus == AttackBus::kBody ? stats.forwarded_b_to_p
                                         : stats.forwarded_p_to_b;
  }

  std::uint64_t baseline_ = 0;
  std::uint64_t probe_ = 0;
};

// ------------------------------------------------------- uds session ------

/// Diagnostic-session abuse against a UDS server: session escalation, a
/// SecurityAccess seed request followed by RNG-driven wrong keys, tester
/// present, and DID read/write attempts — the scan pattern of an attacker
/// with OBD-port access and no credentials.
class UdsSessionScenario final : public AttackScenario {
 public:
  using AttackScenario::AttackScenario;

  void arm(AttackContext& ctx) override {
    schedule(ctx, period(), [this, ctx]() mutable {
      std::array<std::uint8_t, 8> payload{};
      switch (step_++ % 6) {
        case 0: payload = {0x02, 0x10, 0x03}; break;  // extended session
        case 1: payload = {0x02, 0x27, 0x01}; break;  // request seed
        case 2:                                       // wrong key attempt
          payload = {0x06, 0x27, 0x02,
                     ctx.rng.next_byte(), ctx.rng.next_byte(),
                     ctx.rng.next_byte(), ctx.rng.next_byte()};
          break;
        case 3: payload = {0x02, 0x3E, 0x00}; break;              // tester present
        case 4: payload = {0x03, 0x22, 0xF1, 0x90}; break;        // read DID
        default:                                                  // write DID
          payload = {0x05, 0x2E, 0xF1, 0x90, ctx.rng.next_byte()};
          break;
      }
      if (const auto frame = can::CanFrame::data(spec_.target_id, payload)) {
        injection_transport(ctx).send(*frame);
      }
    });
  }

  std::optional<oracle::Observation> impact(AttackContext& ctx) const override {
    std::ostringstream detail;
    detail << "diagnostic session attack: " << step_ << " requests to id 0x" << std::hex
           << spec_.target_id;
    return oracle::Observation{oracle::Verdict::kSuspicious, detail.str(),
                               ctx.scheduler.now()};
  }

 private:
  std::uint64_t step_ = 0;
};

// ---------------------------------------------------------- OBD scan ------

/// OBD-II reconnaissance on the functional id: mode 01 PID sweep with
/// interleaved DTC and VIN requests — the paper's "diagnostic protocols are
/// a documented, vehicle-independent attack surface" angle.
class ObdScanScenario final : public AttackScenario {
 public:
  using AttackScenario::AttackScenario;

  void arm(AttackContext& ctx) override {
    schedule(ctx, period(), [this, ctx]() mutable {
      std::array<std::uint8_t, 8> payload{};
      switch (step_ % 8) {
        case 6: payload = {0x01, 0x03}; break;        // mode 03: stored DTCs
        case 7: payload = {0x02, 0x09, 0x02}; break;  // mode 09: VIN
        default:
          payload = {0x02, 0x01, static_cast<std::uint8_t>(ctx.rng.next_below(0x60))};
          break;
      }
      ++step_;
      if (const auto frame = can::CanFrame::data(spec_.target_id, payload)) {
        injection_transport(ctx).send(*frame);
      }
    });
  }

  std::optional<oracle::Observation> impact(AttackContext& ctx) const override {
    std::ostringstream detail;
    detail << "OBD scan: " << step_ << " functional requests";
    return oracle::Observation{oracle::Verdict::kSuspicious, detail.str(),
                               ctx.scheduler.now()};
  }

 private:
  std::uint64_t step_ = 0;
};

// -------------------------------------------------------- XCP tamper ------

/// XCP memory tamper as a scripted state machine (CONNECT, SET_MTA,
/// DOWNLOAD, repeat) against the instrument cluster's calibration slave:
/// each write forces the MIL flag on, the "extra monitoring capabilities
/// may be used by the attackers" scenario.
class XcpTamperScenario final : public AttackScenario {
 public:
  using AttackScenario::AttackScenario;

  void prepare(AttackContext& ctx) override {
    transport::CanTransport& transport = injection_transport(ctx);
    master_.emplace(spec_.target_id, spec_.target_id + 1,
                    [&transport](const can::CanFrame& frame) { return transport.send(frame); });
    transport.set_rx_callback([this](const can::CanFrame& frame, sim::SimTime time) {
      master_->handle_frame(frame, time);
    });
  }

  void arm(AttackContext& ctx) override {
    schedule(ctx, period(), [this, ctx]() mutable {
      const std::uint32_t address = vehicle::InstrumentCluster::kXcpAddrFlags;
      switch (step_++ % 3) {
        case 0: master_->connect(); break;
        case 1: master_->set_mta(address); break;
        default: {
          const std::array<std::uint8_t, 1> mil_on = {0x01};
          master_->download(address, mil_on);
          break;
        }
      }
    });
  }

  std::optional<oracle::Observation> impact(AttackContext& ctx) const override {
    if (ctx.vehicle.cluster().mil_on()) {
      return oracle::Observation{oracle::Verdict::kFailure,
                                 "MIL forced on through the XCP calibration channel",
                                 ctx.scheduler.now()};
    }
    std::ostringstream detail;
    detail << "XCP tamper: " << step_ << " commands without acknowledged write";
    return oracle::Observation{oracle::Verdict::kSuspicious, detail.str(),
                               ctx.scheduler.now()};
  }

 private:
  std::optional<xcp::XcpMaster> master_;
  std::uint64_t step_ = 0;
};

}  // namespace

std::unique_ptr<AttackScenario> make_scenario(const AttackSpec& spec) {
  switch (spec.family) {
    case AttackFamily::kFlood: return std::make_unique<FloodScenario>(spec);
    case AttackFamily::kSpoof: return std::make_unique<SpoofScenario>(spec);
    case AttackFamily::kMasquerade: return std::make_unique<MasqueradeScenario>(spec);
    case AttackFamily::kReplay: return std::make_unique<ReplayScenario>(spec);
    case AttackFamily::kSuspension: return std::make_unique<SuspensionScenario>(spec);
    case AttackFamily::kBusOff: return std::make_unique<BusOffScenario>(spec);
    case AttackFamily::kGatewayProbe: return std::make_unique<GatewayProbeScenario>(spec);
    case AttackFamily::kUdsSession: return std::make_unique<UdsSessionScenario>(spec);
    case AttackFamily::kObdScan: return std::make_unique<ObdScanScenario>(spec);
    case AttackFamily::kXcpTamper: return std::make_unique<XcpTamperScenario>(spec);
  }
  throw std::invalid_argument("make_scenario: unknown attack family");
}

}  // namespace acf::attacks

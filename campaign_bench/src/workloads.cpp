#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "dbc/target_vehicle_db.hpp"
#include "feedback/worlds.hpp"
#include "fleet/jsonl.hpp"
#include "fleet/worlds.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "ids/detectors.hpp"
#include "ids/pipeline.hpp"
#include "layers.hpp"
#include "metrics/metrics.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace campaign_bench {

using namespace acf;

std::string campaign_jsonl(const fleet::TrialPlan& plan,
                           std::span<const fleet::TrialOutcome> outcomes) {
  std::ostringstream out;
  fleet::JsonlExporter(out).write_all(plan, outcomes);
  return std::move(out).str();
}

void Capture::add(std::size_t trial, std::vector<can::CanFrame> frames) {
  std::lock_guard<std::mutex> lock(mutex_);
  by_trial_[trial] = std::move(frames);
}

std::vector<can::CanFrame> Capture::frames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<can::CanFrame> all;
  for (const auto& [trial, frames] : by_trial_) all.insert(all.end(), frames.begin(), frames.end());
  return all;
}

namespace {

/// Plan base seed of a workload: element `salt` of the SplitMix64 stream of
/// the workload seed, so the three workloads draw unrelated trial seeds.
std::uint64_t base_seed(std::uint64_t seed, std::size_t salt) {
  return fleet::TrialPlan::seed_for(seed, salt);
}

std::uint64_t registry_count(metrics::Registry& registry, std::string_view name) {
  return registry.counter(name).value();
}

/// Publishes the world's end-of-trial metrics, timed when traced.
template <typename Publish>
void publish_timed(bool traced, LayerTallies& tallies, Publish&& publish) {
  if (!traced) {
    publish();
    return;
  }
  const std::int64_t start = now_ns();
  publish();
  tallies[Layer::kMetricsPublish].add(now_ns() - start);
}

bool captures(const Capture* capture, const fleet::TrialSpec& spec) {
  return capture != nullptr && spec.trial_index < kCaptureTrials;
}

/// Deposits the frames of one trial's taps, in tap order.
void deposit(Capture* capture, std::size_t trial,
             std::initializer_list<const trace::CaptureTap*> taps) {
  std::vector<can::CanFrame> frames;
  for (const trace::CaptureTap* tap : taps) {
    if (tap == nullptr) continue;
    for (const trace::TimestampedFrame& entry : tap->frames()) frames.push_back(entry.frame);
  }
  if (capture != nullptr && !frames.empty()) capture->add(trial, std::move(frames));
}

// ---------------------------------------------------------------------------
// table5_fleet

std::vector<fleet::UnlockArm> table5_arms() {
  return {{vehicle::UnlockPredicate::single_id_and_byte(), fuzzer::FuzzConfig::full_random(),
           std::chrono::hours(24)},
          {vehicle::UnlockPredicate::id_byte_and_length(), fuzzer::FuzzConfig::full_random(),
           std::chrono::hours(24)}};
}

/// The benchmark's twin of fleet::unlock_world_factory's world (the
/// program's UnlockWorld is private to src/fleet/worlds.cpp): the same
/// parts, built in the same order (so bus node order is unchanged), with
/// the attacker transport, generator and oracle behind timing decorators
/// when traced.  It must be kept in step with src/fleet/worlds.cpp; the
/// traced table5_fleet run checks its counters and its untraced speed
/// against the program's world.
class UnlockTwinWorld final : public fleet::World, public InstrumentedWorld {
 public:
  UnlockTwinWorld(const fleet::UnlockArm& arm, const fleet::TrialSpec& spec, bool traced,
                  metrics::Registry* registry, Capture* capture)
      : traced_(traced), trial_(spec.trial_index), registry_(registry), capture_(capture),
        bench_(scheduler_, arm.predicate),
        attacker_(bench_.bus(), "attacker"),
        timed_attacker_(attacker_, tallies_[Layer::kTransportSend]),
        timed_oracles_(oracles_, tallies_[Layer::kOraclePoll]) {
    oracles_.add(std::make_unique<oracle::UnlockOracle>(bench_.bus(), &bench_.bcm()));
    fuzzer::FuzzConfig fuzz = arm.fuzz;
    fuzz.seed = spec.seed;
    generator_ = std::make_unique<fuzzer::RandomGenerator>(fuzz);
    timed_generator_ =
        std::make_unique<TimedGenerator>(*generator_, tallies_[Layer::kFuzzerNext]);
    fuzzer::CampaignConfig config;
    config.tx_period = fuzz.tx_period;
    config.max_duration = spec.sim_budget.count() > 0 ? spec.sim_budget : arm.default_budget;
    config.oracle_period = std::chrono::milliseconds(10);
    config.record_suspicious = false;
    transport::CanTransport& port =
        traced_ ? static_cast<transport::CanTransport&>(timed_attacker_) : attacker_;
    fuzzer::FrameGenerator& generator =
        traced_ ? static_cast<fuzzer::FrameGenerator&>(*timed_generator_) : *generator_;
    oracle::Oracle& oracles =
        traced_ ? static_cast<oracle::Oracle&>(timed_oracles_) : oracles_;
    campaign_ = std::make_unique<fuzzer::FuzzCampaign>(scheduler_, port, generator, &oracles,
                                                       config);
    if (traced_ && captures(capture_, spec)) {
      tap_ = std::make_unique<trace::CaptureTap>(bench_.bus(), "bench.capture",
                                                 kCaptureFramesPerTrial);
    }
  }

  fuzzer::CampaignResult run() override {
    fuzzer::CampaignResult result = campaign_->run();
    if (registry_ != nullptr) {
      publish_timed(traced_, tallies_, [this] {
        scheduler_.publish_metrics(*registry_);
        bench_.bus().publish_metrics(*registry_);
      });
    }
    deposit(capture_, trial_, {tap_.get()});
    return result;
  }

  std::uint64_t bus_frames() override { return bench_.bus().stats().frames_delivered; }
  std::uint64_t scheduler_events() override { return scheduler_.executed_events(); }
  const LayerTallies& tallies() const override { return tallies_; }

 private:
  bool traced_;
  LayerTallies tallies_;
  std::size_t trial_;
  metrics::Registry* registry_ = nullptr;
  Capture* capture_ = nullptr;
  sim::Scheduler scheduler_{256};
  vehicle::UnlockTestbench bench_;
  transport::VirtualBusTransport attacker_;
  TimedTransport timed_attacker_;
  oracle::CompositeOracle oracles_;
  TimedOracle timed_oracles_;
  std::unique_ptr<fuzzer::RandomGenerator> generator_;
  std::unique_ptr<TimedGenerator> timed_generator_;
  std::unique_ptr<fuzzer::FuzzCampaign> campaign_;
  std::unique_ptr<trace::CaptureTap> tap_;
};

fleet::WorldFactory twin_factory(bool traced, metrics::Registry* registry, Capture* capture) {
  auto arms = std::make_shared<const std::vector<fleet::UnlockArm>>(table5_arms());
  return [arms, traced, registry, capture](const fleet::TrialSpec& spec)
             -> std::unique_ptr<fleet::World> {
    return std::make_unique<UnlockTwinWorld>(arms->at(spec.arm), spec, traced, registry,
                                             capture);
  };
}

class Table5Fleet final : public Workload {
 public:
  std::string_view name() const override { return "table5_fleet"; }
  bool decorates_frame_path() const override { return true; }

  fleet::TrialPlan plan(std::uint64_t seed, Size size) const override {
    // A 20-minute simulated budget per trial bounds the heavy-tailed trial
    // lengths (geometric waits) enough that the fleet's idle tail is a
    // stable share of the makespan across seeds, while stragglers remain.
    const bool full = size == Size::kFull;
    return fleet::TrialPlan({"Single id and byte", "Single id, byte plus data length"},
                            full ? 24 : 2, base_seed(seed, 1),
                            full ? std::chrono::seconds(1200) : std::chrono::seconds(60));
  }

  fleet::WorldFactory factory(bool traced, metrics::Registry* registry,
                              Capture* capture) const override {
    if (!traced) return fleet::unlock_world_factory(table5_arms(), registry);
    return twin_factory(true, registry, capture);
  }

  fleet::WorldFactory untraced_twin(metrics::Registry* registry) const override {
    return twin_factory(false, registry, nullptr);
  }

  std::uint64_t frames(metrics::Registry& registry,
                       std::span<const fleet::TrialOutcome>) const override {
    return registry_count(registry, "can.bus.frames_delivered");
  }

  bool outcome_ok(const fleet::TrialOutcome& outcome) const override {
    return outcome.completed() && outcome.send_failures == 0 && outcome.frames_sent > 0 &&
           (outcome.stop_reason == fuzzer::StopReason::kFailureDetected ||
            outcome.stop_reason == fuzzer::StopReason::kDurationElapsed);
  }
};

// ---------------------------------------------------------------------------
// vehicle_ids

constexpr auto kVehicleTrainWindow = std::chrono::seconds(4);
constexpr auto kVehicleFuzzWindow = std::chrono::seconds(4);

std::vector<std::uint32_t> vehicle_fuzz_ids() {
  std::vector<std::uint32_t> ids = dbc::target_vehicle_database().ids();
  std::erase(ids, dbc::kMsgClusterDisplay);
  return ids;
}

/// The two-bus vehicle under IDS: a pipeline and a plausibility oracle on
/// each bus, the fuzzer on the OBD port (the body bus, gateway forwarding
/// everything, as in Fig. 7).  Trains both pipelines on a clean window,
/// freezes them, then fuzzes for a fixed simulated horizon.  Traced, the
/// OBD transport, generator, oracle set and every detector are timed.
class VehicleIdsWorld final : public fleet::World, public InstrumentedWorld {
 public:
  VehicleIdsWorld(const fleet::TrialSpec& spec, bool traced, metrics::Registry* registry,
                  Capture* capture)
      : traced_(traced), trial_(spec.trial_index), registry_(registry), capture_(capture),
        car_(scheduler_, config()),
        obd_(car_.body_bus(), "obd"), timed_obd_(obd_, tallies_[Layer::kTransportSend]),
        timed_oracles_(oracles_, tallies_[Layer::kOraclePoll]),
        generator_(fuzzer::FuzzConfig::targeted(vehicle_fuzz_ids(), spec.seed)),
        timed_generator_(generator_, tallies_[Layer::kFuzzerNext]) {
    const dbc::Database database = dbc::target_vehicle_database();
    for (ids::Pipeline* pipeline : {&powertrain_ids_, &body_ids_}) {
      for (auto& detector : ids::standard_detectors(database)) {
        const Layer layer = detector_layer(detector->name());
        if (traced_ && layer != Layer::kCount) {
          detector = std::make_unique<TimedDetector>(std::move(detector), tallies_[layer]);
        }
        pipeline->add(std::move(detector));
      }
    }
    powertrain_ids_.attach(car_.powertrain_bus(), "ids.powertrain");
    body_ids_.attach(car_.body_bus(), "ids.body");
    oracles_.add(std::make_unique<oracle::SignalPlausibilityOracle>(car_.powertrain_bus(),
                                                                     database));
    oracles_.add(std::make_unique<oracle::SignalPlausibilityOracle>(car_.body_bus(), database));

    fuzzer::CampaignConfig campaign;
    campaign.max_duration = spec.sim_budget;
    campaign.stop_on_failure = false;
    campaign.record_suspicious = false;  // as every fleet world of the program
    transport::CanTransport& port = traced_ ? static_cast<transport::CanTransport&>(timed_obd_)
                                            : obd_;
    fuzzer::FrameGenerator& generator =
        traced_ ? static_cast<fuzzer::FrameGenerator&>(timed_generator_) : generator_;
    oracle::Oracle& oracles =
        traced_ ? static_cast<oracle::Oracle&>(timed_oracles_) : oracles_;
    campaign_ =
        std::make_unique<fuzzer::FuzzCampaign>(scheduler_, port, generator, &oracles, campaign);
    if (traced_ && captures(capture_, spec)) {
      powertrain_tap_ = std::make_unique<trace::CaptureTap>(
          car_.powertrain_bus(), "powertrain.capture", kCaptureFramesPerTrial / 2);
      body_tap_ = std::make_unique<trace::CaptureTap>(car_.body_bus(), "body.capture",
                                                      kCaptureFramesPerTrial / 2);
    }
  }

  fuzzer::CampaignResult run() override {
    powertrain_ids_.begin_training();
    body_ids_.begin_training();
    scheduler_.run_for(kVehicleTrainWindow);
    powertrain_ids_.begin_detection();
    body_ids_.begin_detection();
    fuzzer::CampaignResult result = campaign_->run();
    if (registry_ != nullptr) {
      publish_timed(traced_, tallies_, [this] {
        scheduler_.publish_metrics(*registry_);
        car_.powertrain_bus().publish_metrics(*registry_);
        car_.body_bus().publish_metrics(*registry_);
        registry_->absorb(powertrain_ids_.registry().snapshot());
        registry_->absorb(body_ids_.registry().snapshot());
      });
    }
    deposit(capture_, trial_, {powertrain_tap_.get(), body_tap_.get()});
    return result;
  }

  std::uint64_t bus_frames() override {
    return car_.powertrain_bus().stats().frames_delivered +
           car_.body_bus().stats().frames_delivered;
  }
  std::uint64_t scheduler_events() override { return scheduler_.executed_events(); }
  const LayerTallies& tallies() const override { return tallies_; }

 private:
  static vehicle::VehicleConfig config() {
    vehicle::VehicleConfig config;
    config.gateway_filtering = false;
    return config;
  }

  bool traced_;
  std::size_t trial_;
  LayerTallies tallies_;
  metrics::Registry* registry_ = nullptr;
  Capture* capture_ = nullptr;
  sim::Scheduler scheduler_{512};
  vehicle::Vehicle car_;
  ids::Pipeline powertrain_ids_;
  ids::Pipeline body_ids_;
  transport::VirtualBusTransport obd_;
  TimedTransport timed_obd_;
  oracle::CompositeOracle oracles_;
  TimedOracle timed_oracles_;
  fuzzer::RandomGenerator generator_;
  TimedGenerator timed_generator_;
  std::unique_ptr<fuzzer::FuzzCampaign> campaign_;
  std::unique_ptr<trace::CaptureTap> powertrain_tap_;
  std::unique_ptr<trace::CaptureTap> body_tap_;
};

class VehicleIds final : public Workload {
 public:
  std::string_view name() const override { return "vehicle_ids"; }
  bool decorates_frame_path() const override { return true; }

  fleet::TrialPlan plan(std::uint64_t seed, Size size) const override {
    return fleet::TrialPlan({"OBD targeted, IDS on both buses"},
                            size == Size::kFull ? 64 : 4, base_seed(seed, 2),
                            kVehicleFuzzWindow);
  }

  fleet::WorldFactory factory(bool traced, metrics::Registry* registry,
                              Capture* capture) const override {
    return [traced, registry, capture](const fleet::TrialSpec& spec)
               -> std::unique_ptr<fleet::World> {
      return std::make_unique<VehicleIdsWorld>(spec, traced, registry, capture);
    };
  }

  std::uint64_t frames(metrics::Registry& registry,
                       std::span<const fleet::TrialOutcome>) const override {
    return registry_count(registry, "can.bus.frames_delivered");
  }

  bool outcome_ok(const fleet::TrialOutcome& outcome) const override {
    return outcome.completed() && outcome.send_failures == 0 && outcome.frames_sent > 0 &&
           outcome.stop_reason == fuzzer::StopReason::kDurationElapsed;
  }
};

// ---------------------------------------------------------------------------
// feedback_fleet

class FeedbackFleet final : public Workload {
 public:
  std::string_view name() const override { return "feedback_fleet"; }
  bool decorates_frame_path() const override { return false; }

  fleet::TrialPlan plan(std::uint64_t seed, Size size) const override {
    return fleet::TrialPlan({"feedback, single id and byte"}, size == Size::kFull ? 512 : 8,
                            base_seed(seed, 3), std::chrono::seconds(600));
  }

  /// The feedback world builds its testbenches inside the loop, out of the
  /// benchmark's reach, so traced and untraced campaigns use the same
  /// program factory; its layers are read from the registry and trial spans.
  fleet::WorldFactory factory(bool, metrics::Registry* registry, Capture*) const override {
    return feedback::feedback_world_factory({feedback::FeedbackArm{}}, registry);
  }

  /// The loop's testbenches are not reachable from outside, so this counts
  /// the frames the fuzzer sent through them.
  std::uint64_t frames(metrics::Registry&,
                       std::span<const fleet::TrialOutcome> outcomes) const override {
    std::uint64_t frames = 0;
    for (const fleet::TrialOutcome& outcome : outcomes) frames += outcome.frames_sent;
    return frames;
  }

  bool outcome_ok(const fleet::TrialOutcome& outcome) const override {
    return outcome.completed() && outcome.send_failures == 0 && outcome.frames_sent > 0 &&
           (outcome.stop_reason == fuzzer::StopReason::kFailureDetected ||
            outcome.stop_reason == fuzzer::StopReason::kDurationElapsed);
  }
};

const Table5Fleet kTable5;
const VehicleIds kVehicleIds;
const FeedbackFleet kFeedback;

}  // namespace

std::vector<const Workload*> all_workloads() { return {&kTable5, &kVehicleIds, &kFeedback}; }

const Workload* find_workload(std::string_view name) {
  for (const Workload* workload : all_workloads()) {
    if (workload->name() == name) return workload;
  }
  return nullptr;
}

}  // namespace campaign_bench

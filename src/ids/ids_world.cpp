#include "ids/ids_world.hpp"

#include <stdexcept>
#include <utility>

#include "dbc/target_vehicle_db.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "ids/detectors.hpp"
#include "ids/eval_codec.hpp"
#include "metrics/metrics.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::ids {

namespace {

/// One detector-evaluation trial: the Table V bench plus a tapped pipeline.
/// Train on clean traffic, freeze, fuzz with labeling, ship the eval.
class IdsUnlockWorld final : public fleet::World {
 public:
  IdsUnlockWorld(const IdsArm& arm, const fleet::TrialSpec& spec, metrics::Registry* registry)
      : registry_(registry), bench_(scheduler_, arm.predicate),
        attacker_(bench_.bus(), "attacker"), pipeline_(arm.pipeline), seed_(spec.seed),
        train_window_(arm.train_window) {
    auto detectors = arm.detectors ? arm.detectors()
                                   : standard_detectors(dbc::target_vehicle_database());
    for (auto& detector : detectors) pipeline_.add(std::move(detector));
    pipeline_.attach(bench_.bus(), "ids-tap");
    evaluator_ = std::make_unique<PipelineEvaluator>(pipeline_);

    oracles_.add(std::make_unique<oracle::UnlockOracle>(bench_.bus(), &bench_.bcm()));
    fuzzer::FuzzConfig fuzz = arm.fuzz;
    fuzz.seed = spec.seed;
    generator_ = std::make_unique<fuzzer::RandomGenerator>(fuzz);
    fuzzer::CampaignConfig config;
    config.tx_period = fuzz.tx_period;
    config.max_duration =
        spec.sim_budget.count() > 0 ? spec.sim_budget : arm.default_budget;
    config.oracle_period = std::chrono::milliseconds(10);
    config.record_suspicious = false;
    campaign_ = std::make_unique<fuzzer::FuzzCampaign>(scheduler_, attacker_, *generator_,
                                                       &oracles_, config);
    campaign_->set_on_frame_sent([this](const can::CanFrame& frame, sim::SimTime) {
      evaluator_->labeler().note_injected(frame);
    });
  }

  fuzzer::CampaignResult run() override {
    // Clean training window: only the bench's own ECUs are transmitting.
    pipeline_.begin_training();
    scheduler_.run_for(train_window_);
    pipeline_.begin_detection();
    fuzzer::CampaignResult result = campaign_->run();
    TrialEval eval = evaluator_->take();
    eval.pipeline = pipeline_.counters();
    if (registry_) {
      publish_trial_metrics(*registry_, scheduler_, {&bench_.bus()}, pipeline_, eval);
    }
    append_eval_findings(result, eval, scheduler_.now(), std::string(generator_->name()),
                         seed_);
    return result;
  }

 private:
  metrics::Registry* registry_ = nullptr;
  // Pre-sized like fleet::UnlockWorld: per-trial construction stays
  // allocation-flat across a sweep's thousands of worlds.
  sim::Scheduler scheduler_{256};
  vehicle::UnlockTestbench bench_;
  transport::VirtualBusTransport attacker_;
  Pipeline pipeline_;
  std::uint64_t seed_;
  sim::Duration train_window_;
  std::unique_ptr<PipelineEvaluator> evaluator_;
  oracle::CompositeOracle oracles_;
  std::unique_ptr<fuzzer::RandomGenerator> generator_;
  std::unique_ptr<fuzzer::FuzzCampaign> campaign_;
};

}  // namespace

fleet::WorldFactory ids_unlock_world_factory(std::vector<IdsArm> arms,
                                             metrics::Registry* registry) {
  if (arms.empty()) throw std::invalid_argument("ids_unlock_world_factory: no arms");
  auto shared = std::make_shared<const std::vector<IdsArm>>(std::move(arms));
  return [shared, registry](const fleet::TrialSpec& spec) -> std::unique_ptr<fleet::World> {
    return std::make_unique<IdsUnlockWorld>(shared->at(spec.arm), spec, registry);
  };
}

void append_eval_findings(fuzzer::CampaignResult& result, const TrialEval& eval,
                          sim::SimTime time, std::string generator, std::uint64_t seed) {
  const auto record = [&](std::string line) {
    fuzzer::Finding finding;
    finding.observation = {oracle::Verdict::kNominal, std::move(line), time};
    finding.frames_sent = result.frames_sent;
    finding.generator = generator;
    finding.seed = seed;
    result.findings.push_back(std::move(finding));
  };
  record(encode_eval_totals(eval));
  for (const DetectorEval& detector : eval.detectors) record(encode_detector_eval(detector));
}

void publish_trial_metrics(metrics::Registry& registry, const sim::Scheduler& scheduler,
                           std::initializer_list<const can::VirtualBus*> buses,
                           Pipeline& pipeline, const TrialEval& eval) {
  scheduler.publish_metrics(registry);
  for (const can::VirtualBus* bus : buses) bus->publish_metrics(registry);
  registry.absorb(pipeline.registry().snapshot());
  for (const DetectorEval& detector : eval.detectors) {
    if (detector.detection_latency >= 0.0) {
      registry.timer("ids.latency." + detector.name).record(detector.detection_latency);
    }
  }
}

TrialEval eval_from_outcome(const fleet::TrialOutcome& outcome) {
  TrialEval eval;
  if (!outcome.completed()) return eval;
  for (const std::string& line : outcome.findings) decode_eval_line(line, eval);
  return eval;
}

std::vector<ArmIdsReport> merge_outcome_evals(const fleet::TrialPlan& plan,
                                              std::span<const fleet::TrialOutcome> outcomes) {
  std::vector<TrialEval> evals(plan.trial_count());
  for (const fleet::TrialOutcome& outcome : outcomes) {
    if (outcome.spec.trial_index < evals.size()) {
      evals[outcome.spec.trial_index] = eval_from_outcome(outcome);
    }
  }
  std::vector<ArmIdsReport> reports(plan.arm_count());
  for (std::size_t arm = 0; arm < plan.arm_count(); ++arm) {
    reports[arm].label = plan.arm_label(arm);
  }
  for (std::size_t index = 0; index < evals.size(); ++index) {
    const TrialEval& eval = evals[index];
    if (!eval.valid()) continue;  // failed, skipped or digest-less trial
    ArmIdsReport& report = reports[plan.spec(index).arm];
    if (report.detectors.empty()) report.detectors.resize(eval.detectors.size());
    ++report.trials;
    report.attack_frames += eval.attack_frames;
    report.legit_frames += eval.legit_frames;
    report.pipeline.frames_trained += eval.pipeline.frames_trained;
    report.pipeline.frames_scored += eval.pipeline.frames_scored;
    report.pipeline.alerts_raised += eval.pipeline.alerts_raised;
    report.pipeline.alerts_suppressed += eval.pipeline.alerts_suppressed;
    report.pipeline.alerts_dropped += eval.pipeline.alerts_dropped;
    for (std::size_t d = 0; d < eval.detectors.size() && d < report.detectors.size(); ++d) {
      ArmIdsReport::PerDetector& per = report.detectors[d];
      per.merged.merge_counts(eval.detectors[d]);
      if (eval.detectors[d].tp > 0) {
        ++per.trials_detected;
        if (eval.detectors[d].detection_latency >= 0.0) {
          per.latency.add(eval.detectors[d].detection_latency);
        }
      }
    }
  }
  return reports;
}

}  // namespace acf::ids

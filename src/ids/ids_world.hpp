// Fleet-scale detector evaluation: detector arms as trial matrices.
//
// An IdsArm describes one experimental condition — which unlock predicate
// guards the bench, what fuzz space the attacker draws from, how long the
// clean training window runs, and which detectors the pipeline carries.
// ids_unlock_world_factory builds one isolated Table V world per trial with
// a pipeline tapped onto the bench bus: the world trains on clean ECU
// traffic, freezes the models, then fuzzes with ground-truth labeling.
//
// Every IDS world (these and the attack catalog's) ships its TrialEval as
// digest findings in its own outcome (ids/eval_codec.hpp), and
// merge_outcome_evals rebuilds the per-arm reports from the outcome list —
// so the merged report is a pure function of the plan, whatever executor,
// thread count or wire produced the outcomes.
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "fleet/trial.hpp"
#include "fleet/trial_plan.hpp"
#include "fleet/worlds.hpp"
#include "ids/evaluation.hpp"
#include "ids/pipeline.hpp"
#include "sim/scheduler.hpp"
#include "util/stats.hpp"

namespace acf::ids {

/// Builds the detector set for one trial world (called on the worker
/// thread; must not capture mutable shared state).  Default: the standard
/// four detectors over the target-vehicle database.
using DetectorSetFactory = std::function<std::vector<std::unique_ptr<Detector>>()>;

struct IdsArm {
  vehicle::UnlockPredicate predicate = vehicle::UnlockPredicate::single_id_and_byte();
  fuzzer::FuzzConfig fuzz = fuzzer::FuzzConfig::full_random();
  /// Clean-traffic training window before the attack starts.
  sim::Duration train_window{std::chrono::seconds(30)};
  /// Fallback fuzz budget when the TrialPlan does not impose one.
  sim::Duration default_budget{std::chrono::hours(24)};
  PipelineConfig pipeline;
  /// Empty => standard_detectors(target_vehicle_database()).
  DetectorSetFactory detectors;
};

/// WorldFactory for the detector-evaluation unlock worlds.  The campaign
/// stops at the first unlock (the Table V endpoint); detector metrics cover
/// every frame scored until then, and reach the outcome as digest findings
/// appended after the campaign (so time-to-failure is the unlock's).
///
/// When `registry` is non-null each world calls publish_trial_metrics into
/// it at trial end.  The registry must outlive every world.
fleet::WorldFactory ids_unlock_world_factory(std::vector<IdsArm> arms,
                                             metrics::Registry* registry = nullptr);

/// Appends `eval` to `result` as nominal digest findings stamped at `time`:
/// the totals line, then one line per detector.  Nominal verdicts leave
/// first_failure() and the outcome's time-to-failure untouched.
void append_eval_findings(fuzzer::CampaignResult& result, const TrialEval& eval,
                          sim::SimTime time, std::string generator, std::uint64_t seed);

/// The end-of-trial publish every IDS world makes when given a registry:
/// scheduler and bus totals (`sim.scheduler.*`, `can.bus.*`), the
/// pipeline's counters (`ids.pipeline.*`, `ids.alerts.<detector>`), and one
/// `ids.latency.<detector>` timer sample per detector that fired on attack
/// traffic — so the registry's p99 is the fleet-wide detection-latency
/// quantile.  Published once per trial, so the shared registry's counters
/// are order-independent sums.
void publish_trial_metrics(metrics::Registry& registry, const sim::Scheduler& scheduler,
                           std::initializer_list<const can::VirtualBus*> buses,
                           Pipeline& pipeline, const TrialEval& eval);

/// Merged per-arm, per-detector fleet report.
struct ArmIdsReport {
  struct PerDetector {
    /// Counts and histograms summed over the arm's trials.
    DetectorEval merged;
    /// Per-trial detection latencies (Welford; CI via Student-t).
    util::RunningStats latency;
    /// Trials in which the detector raised at least one true positive.
    std::size_t trials_detected = 0;

    /// Wilson 95% interval for the per-trial detection rate.
    util::Interval detection_rate_ci(std::size_t trials) const {
      return util::wilson_interval_95(trials_detected, trials);
    }
  };

  std::string label;
  std::size_t trials = 0;  // trials with a valid evaluation
  std::uint64_t attack_frames = 0;
  std::uint64_t legit_frames = 0;
  /// Pipeline-side counters summed over the arm's trials; cross-checks the
  /// evaluation-side tallies (see TrialEval).
  PipelineCounters pipeline;
  std::vector<PerDetector> detectors;
};

/// Decodes the evaluation an IDS world left in `outcome`'s digest findings
/// (invalid when the trial did not complete or carried no digest).
TrialEval eval_from_outcome(const fleet::TrialOutcome& outcome);

/// Rebuilds per-arm reports from the outcomes' digest findings, folding in
/// trial-index order — the same merged report whatever executor, thread
/// count or wire produced the outcomes.
std::vector<ArmIdsReport> merge_outcome_evals(const fleet::TrialPlan& plan,
                                              std::span<const fleet::TrialOutcome> outcomes);

}  // namespace acf::ids

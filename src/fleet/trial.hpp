// Fleet trials: the unit of work of the parallel campaign orchestrator.
//
// Every trial is one fully isolated discrete-event world (scheduler, virtual
// bus, target, transport, generator, oracles) constructed on the worker
// thread that runs it — the world-isolation rule that makes the fleet
// embarrassingly parallel without a single lock in the simulation core.  A
// TrialSpec is pure data (arm, replica, derived seed); a TrialOutcome is the
// pure-data result the aggregator and exporter consume.  Neither carries
// wall-clock timestamps, so fleet output is a function of the plan alone,
// byte-identical regardless of thread count or scheduling order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fuzzer/campaign.hpp"
#include "sim/time.hpp"

namespace acf::fleet {

/// Immutable description of one trial, derived from the TrialPlan.
struct TrialSpec {
  /// Global index in the plan; the sharding and aggregation key.
  std::size_t trial_index = 0;
  /// Index of the arm (experimental condition) this trial belongs to.
  std::size_t arm = 0;
  /// Replica number within the arm (0-based).
  std::size_t replica = 0;
  /// Generator seed, derived from the plan's base seed via SplitMix64 on
  /// trial_index — independent of which worker runs the trial.
  std::uint64_t seed = 0;
  /// Per-trial simulated-time budget the world must honour as its campaign
  /// max_duration (zero = the world's own default).
  sim::Duration sim_budget{0};
};

enum class TrialStatus : std::uint8_t {
  kCompleted,  // the world ran its campaign to a StopReason
  kFailed,     // the world threw; error holds the exception text
  kSkipped,    // cancelled before the trial started
};

const char* to_string(TrialStatus status) noexcept;

/// Result of one trial, reduced to what aggregation and export need.  All
/// times are simulated seconds; wall-clock never enters an outcome.
struct TrialOutcome {
  TrialSpec spec;
  TrialStatus status = TrialStatus::kSkipped;
  fuzzer::StopReason stop_reason = fuzzer::StopReason::kStillRunning;
  std::uint64_t frames_sent = 0;
  std::uint64_t send_failures = 0;
  /// Simulated time the campaign ran.
  double sim_seconds = 0.0;
  /// Simulated seconds until the first failure verdict; negative when the
  /// trial ended without one (timeout / frame limit / error).
  double time_to_failure = -1.0;
  /// One summary line per finding, in detection order.
  std::vector<std::string> findings;
  /// Exception text when status == kFailed.
  std::string error;

  bool completed() const noexcept { return status == TrialStatus::kCompleted; }
  bool failure_detected() const noexcept { return completed() && time_to_failure >= 0.0; }
  /// Completed without the oracle firing — the bench's "timeout" case that
  /// must never be folded into a time-to-failure mean as -1.
  bool timed_out() const noexcept { return completed() && time_to_failure < 0.0; }
  /// Status and stop reason name real enumerators and both times are
  /// finite: what every outcome decoder (fleet wire, fleet checkpoint)
  /// demands before it accepts an outcome.  A NaN time_to_failure is neither
  /// detected nor timed out, so it must never reach the aggregator.
  bool valid() const noexcept;
};

/// Converts a finished campaign result into an outcome for `spec`.
TrialOutcome outcome_from_result(const TrialSpec& spec, const fuzzer::CampaignResult& result);

/// One isolated simulation world.  Constructed per trial on the worker
/// thread; destroyed there too.  Implementations own every piece of
/// simulation state they touch — sharing anything mutable across worlds
/// breaks both determinism and thread safety.
class World {
 public:
  virtual ~World() = default;

  /// Drives the world's campaign to completion and returns its result.
  virtual fuzzer::CampaignResult run() = 0;
};

/// Builds the world for one trial.  Called on the worker thread that will
/// run the trial; must not capture mutable state shared with other trials.
using WorldFactory = std::function<std::unique_ptr<World>(const TrialSpec&)>;

/// Adapts a plain callable `CampaignResult(const TrialSpec&)` into a
/// WorldFactory, for worlds simple enough not to warrant a class.
WorldFactory world_from(std::function<fuzzer::CampaignResult(const TrialSpec&)> run_trial);

}  // namespace acf::fleet

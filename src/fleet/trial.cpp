#include "fleet/trial.hpp"

#include <cmath>

namespace acf::fleet {

const char* to_string(TrialStatus status) noexcept {
  switch (status) {
    case TrialStatus::kCompleted: return "completed";
    case TrialStatus::kFailed: return "failed";
    case TrialStatus::kSkipped: return "skipped";
  }
  return "?";
}

bool TrialOutcome::valid() const noexcept {
  return status <= TrialStatus::kSkipped && stop_reason <= fuzzer::StopReason::kTransportDead &&
         std::isfinite(sim_seconds) && std::isfinite(time_to_failure);
}

TrialOutcome outcome_from_result(const TrialSpec& spec, const fuzzer::CampaignResult& result) {
  TrialOutcome outcome;
  outcome.spec = spec;
  outcome.status = TrialStatus::kCompleted;
  outcome.stop_reason = result.reason;
  outcome.frames_sent = result.frames_sent;
  outcome.send_failures = result.send_failures;
  outcome.sim_seconds = sim::to_seconds(result.elapsed);
  if (const fuzzer::Finding* failure = result.first_failure()) {
    outcome.time_to_failure = sim::to_seconds(failure->observation.time);
  }
  outcome.findings.reserve(result.findings.size());
  for (const fuzzer::Finding& finding : result.findings) {
    outcome.findings.push_back(finding.summary());
  }
  return outcome;
}

WorldFactory world_from(std::function<fuzzer::CampaignResult(const TrialSpec&)> run_trial) {
  // The callable is shared across workers, so it must be stateless or
  // immutable — the same contract the WorldFactory itself carries.
  using TrialFn = std::function<fuzzer::CampaignResult(const TrialSpec&)>;
  class CallableWorld final : public World {
   public:
    CallableWorld(std::shared_ptr<const TrialFn> fn, const TrialSpec& spec)
        : fn_(std::move(fn)), spec_(spec) {}
    fuzzer::CampaignResult run() override { return (*fn_)(spec_); }

   private:
    std::shared_ptr<const TrialFn> fn_;
    TrialSpec spec_;
  };
  auto shared = std::make_shared<const TrialFn>(std::move(run_trial));
  return [shared](const TrialSpec& spec) -> std::unique_ptr<World> {
    return std::make_unique<CallableWorld>(shared, spec);
  };
}

}  // namespace acf::fleet

#include "fleet/aggregator.hpp"

namespace acf::fleet {

double ArmReport::median() const {
  if (median_cached) return cached_median;
  return util::median(samples);
}

void ArmReport::finalize_median() {
  cached_median = util::median_in_place(samples);
  median_cached = true;
}

Aggregator::Aggregator(const TrialPlan& plan) : finding_slots_(plan.arm_count()) {
  report_.arms.resize(plan.arm_count());
  for (std::size_t arm = 0; arm < plan.arm_count(); ++arm) {
    report_.arms[arm].label = plan.arm_label(arm);
  }
}

void Aggregator::add(const TrialOutcome& outcome) {
  ArmReport& arm = report_.arms.at(outcome.spec.arm);
  ++arm.trials;
  ++report_.trials;
  arm.frames_sent += outcome.frames_sent;
  report_.frames_sent += outcome.frames_sent;
  switch (outcome.status) {
    case TrialStatus::kSkipped:
      ++arm.skipped;
      ++report_.skipped;
      return;
    case TrialStatus::kFailed:
      ++arm.errors;
      ++report_.errors;
      return;
    case TrialStatus::kCompleted:
      break;
  }
  if (outcome.failure_detected()) {
    ++arm.detected;
    arm.median_cached = false;  // sample set is about to change
    // One-sample accumulator merged in, exercising the same parallel-Welford
    // combine a sharded reduction would use.
    util::RunningStats sample;
    sample.add(outcome.time_to_failure);
    arm.time_to_failure.merge(sample);
    arm.samples.push_back(outcome.time_to_failure);
  } else {
    ++arm.timeouts;
  }
  auto& slots = finding_slots_[outcome.spec.arm];
  for (const std::string& summary : outcome.findings) {
    const auto [slot, inserted] = slots.try_emplace(summary, arm.findings.size());
    if (inserted) {
      arm.findings.emplace_back(summary, 1);
    } else {
      ++arm.findings[slot->second].second;
    }
  }
}

void Aggregator::add_all(std::span<const TrialOutcome> outcomes) {
  for (const TrialOutcome& outcome : outcomes) add(outcome);
}

FleetReport aggregate(const TrialPlan& plan, std::span<const TrialOutcome> outcomes) {
  Aggregator aggregator(plan);
  aggregator.add_all(outcomes);
  FleetReport report = aggregator.report();
  for (ArmReport& arm : report.arms) arm.finalize_median();
  return report;
}

}  // namespace acf::fleet

// Aggregator: reduces per-trial outcomes into per-arm statistics — mean,
// median and Student-t 95% confidence interval of time-to-failure, timeout
// and error counts kept strictly apart from the detection sample (a -1
// sentinel must never poison a mean), and findings deduplicated by summary.
//
// Outcomes are folded in trial-index order whatever order the workers
// finished in, and per-trial accumulators are combined with the existing
// parallel-Welford RunningStats::merge, so the report is a pure function of
// the plan: identical at 1 thread and at 64.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/trial.hpp"
#include "fleet/trial_plan.hpp"
#include "util/stats.hpp"

namespace acf::fleet {

/// Statistics for one arm of the trial matrix.
struct ArmReport {
  std::string label;
  std::size_t trials = 0;    // outcomes folded in
  std::size_t detected = 0;  // trials whose oracle reported a failure
  std::size_t timeouts = 0;  // completed without a failure verdict
  std::size_t errors = 0;    // trials that threw (TrialStatus::kFailed)
  std::size_t skipped = 0;   // cancelled before start
  std::uint64_t frames_sent = 0;
  /// Moments over time-to-failure, detection trials only (simulated s).
  util::RunningStats time_to_failure;
  /// The detection samples themselves, trial-index order (for the median).
  std::vector<double> samples;
  /// Deduplicated finding summaries with occurrence counts, first-seen order.
  std::vector<std::pair<std::string, std::size_t>> findings;

  /// Cached by finalize_median(); falls back to the copying util::median for
  /// hand-built reports that never finalized.
  double median() const;
  /// Selects the median in place (reorders `samples`, O(n), no copy) and
  /// caches it — called once per arm when aggregation completes, so report
  /// printing never re-copies a million-trial sample set.
  void finalize_median();
  util::Interval ci95() const { return util::confidence_interval_95(time_to_failure); }

  bool median_cached = false;
  double cached_median = 0.0;
};

struct FleetReport {
  std::vector<ArmReport> arms;
  std::size_t trials = 0;
  std::size_t errors = 0;
  std::size_t skipped = 0;
  std::uint64_t frames_sent = 0;
};

class Aggregator {
 public:
  explicit Aggregator(const TrialPlan& plan);

  /// Folds one outcome into its arm.  Outcomes may arrive in any order;
  /// add_all() below is the deterministic entry point.
  void add(const TrialOutcome& outcome);

  /// Folds a full executor result in trial-index order.
  void add_all(std::span<const TrialOutcome> outcomes);

  const FleetReport& report() const noexcept { return report_; }

 private:
  FleetReport report_;
  /// Per arm: summary -> its slot in ArmReport::findings, so deduplication
  /// stays linear in the number of findings.
  std::vector<std::unordered_map<std::string, std::size_t>> finding_slots_;
};

/// One-shot convenience: aggregate an executor result for its plan.
FleetReport aggregate(const TrialPlan& plan, std::span<const TrialOutcome> outcomes);

}  // namespace acf::fleet

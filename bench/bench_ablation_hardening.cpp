// Ablation A6: match-predicate hardening sweep.  The paper's §VI closes
// with "If the change had been to check for a two byte value the time
// increase would have been even greater" — this bench runs the whole ladder:
// command byte only, +DLC, +1 further payload byte, reporting measured mean
// time-to-unlock (with a Student-t 95% CI over the fleet's replicas)
// against the analytic geometric mean.  Runs on the fleet orchestrator:
// `--runs N --threads T` shards the rungs' replicas across a worker pool.
//
// The 2-byte rung's asymptotic mean at 1 ms over the full id space is ~14
// days of bus time, so it is measured on a reduced id window and rescaled —
// valid because the id draw is independent of the payload draw, making the
// time-to-hit exactly inversely proportional to id-space size and transmit
// rate (the A1/A5 ablations verify both proportionalities empirically).
#include "analysis/combinatorics.hpp"
#include "bench_util.hpp"
#include "ids/detectors.hpp"
#include "ids/ids_world.hpp"

int main(int argc, char** argv) {
  using namespace acf;
  const bench::FleetArgs args = bench::parse_fleet_args(argc, argv, 6);
  bench::header("Ablation A6", "Unlock-predicate hardening ladder (" +
                                   std::to_string(args.runs) + " runs per rung)");

  struct Rung {
    const char* label;
    vehicle::UnlockPredicate predicate;
    double hit_probability;  // per full-space fuzzed frame at 1 ms
    fuzzer::FuzzConfig fuzz;
    double rescale;  // measured time x rescale = full-space @1ms equivalent
  };
  auto fast_small = [] {
    // 8-id window around the command id at 4 kHz: x(2048/8) x4 = x1024.
    fuzzer::FuzzConfig fuzz = fuzzer::FuzzConfig::around_id(0x215, 3);
    fuzz.tx_period = std::chrono::microseconds(250);
    return fuzz;
  };
  const Rung rungs[] = {
      {"byte0 (paper row 1)", {1, false}, (8.0 / 9.0) / 2048 / 256,
       fuzzer::FuzzConfig::full_random(), 1.0},
      {"byte0 + DLC (paper row 2)", {1, true}, (1.0 / 9.0) / 2048 / 256,
       fuzzer::FuzzConfig::full_random(), 1.0},
      {"2 bytes + DLC (sec.VI projection)", {2, true}, (1.0 / 9.0) / 2048 / 256 / 256,
       fast_small(), 1024.0},
  };

  std::vector<std::string> labels;
  std::vector<fleet::UnlockArm> arms;
  for (const Rung& rung : rungs) {
    labels.push_back(rung.label);
    arms.push_back({rung.predicate, rung.fuzz, std::chrono::hours(24 * 40)});
  }
  fleet::TrialPlan plan(labels, static_cast<std::size_t>(args.runs), args.seed);
  fleet::ExecutorConfig executor_config;
  executor_config.threads = args.threads;
  fleet::Executor executor(executor_config);
  fleet::ProgressReporter progress;
  const auto outcomes = executor.run(plan, fleet::unlock_world_factory(std::move(arms)),
                                     &progress);
  const fleet::FleetReport report = fleet::aggregate(plan, outcomes);

  analysis::TextTable table({"Predicate", "P(hit)/frame", "Analytic mean @1ms",
                             "Measured mean", "95% CI", "Timeouts", "Runs"});
  for (std::size_t i = 0; i < std::size(rungs); ++i) {
    const Rung& rung = rungs[i];
    const fleet::ArmReport& arm = report.arms[i];
    const double analytic_s = 1.0 / rung.hit_probability / 1000.0;
    const util::Interval ci = arm.ci95();
    table.add_row({rung.label,
                   analysis::format_number(rung.hit_probability * 1e6, 3) + "e-6",
                   analysis::humanize_duration(analytic_s),
                   analysis::humanize_duration(arm.time_to_failure.mean() * rung.rescale) +
                       (rung.rescale != 1.0 ? " (rescaled)" : ""),
                   "[" + analysis::humanize_duration(ci.lo * rung.rescale) + ", " +
                       analysis::humanize_duration(ci.hi * rung.rescale) + "]",
                   std::to_string(arm.timeouts), std::to_string(arm.trials)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Beyond two checked bytes the analytic mean at 1 ms is:\n");
  std::printf("  3 bytes + DLC: %s;  4 bytes + DLC: %s\n",
              analysis::humanize_duration(9.0 * 2048 * 256.0 * 256 * 256 / 1000).c_str(),
              analysis::humanize_duration(9.0 * 2048 * 256.0 * 256 * 256 * 256 / 1000).c_str());
  std::printf("Shape: every additional checked byte multiplies attacker cost by 256 —\n"
              "the paper's \"simple modifications to a design improve security\".\n\n");

  // The DLC rung, re-expressed as detection instead of prevention: an
  // ids::DlcConsistencyDetector watching the *unhardened* bench flags
  // exactly the frames the hardened predicate rejects — both sides call
  // MessageDef::dlc_matches, so Table V's one-line hardening and the IDS
  // path share one implementation.
  {
    ids::IdsArm arm;  // weak predicate, detection-side hardening only
    arm.fuzz = fast_small();
    arm.train_window = std::chrono::seconds(10);
    arm.detectors = [] {
      std::vector<std::unique_ptr<ids::Detector>> detectors;
      detectors.push_back(
          std::make_unique<ids::DlcConsistencyDetector>(dbc::target_vehicle_database()));
      return detectors;
    };
    fleet::TrialPlan ids_plan({"DLC check as detector"},
                              static_cast<std::size_t>(args.runs), args.seed,
                              std::chrono::minutes(5));
    fleet::Executor ids_executor(executor_config);
    const auto reports = ids::merge_outcome_evals(
        ids_plan, ids_executor.run(ids_plan, ids::ids_unlock_world_factory({arm})));
    const ids::ArmIdsReport::PerDetector& det = reports[0].detectors.at(0);
    const util::Interval rate = det.detection_rate_ci(reports[0].trials);
    std::printf("Detection-side DLC hardening (same dlc_matches check, weak bench):\n");
    std::printf("  wrong-DLC 0x215 frames flagged: precision %.3f, false positives %llu,\n"
                "  detected in %zu/%zu trials (Wilson 95%% CI [%.2f, %.2f]), "
                "mean latency %s s\n",
                det.merged.precision(), static_cast<unsigned long long>(det.merged.fp),
                det.trials_detected, reports[0].trials, rate.lo, rate.hi,
                det.latency.count() > 0 ? analysis::format_number(det.latency.mean(), 3).c_str()
                                        : "-");
  }
  return 0;
}

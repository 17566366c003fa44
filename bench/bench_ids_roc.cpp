// IDS evaluation: per-detector precision/recall/F1, ROC sweep, AUC and mean
// detection latency for the four standard detectors watching the Table V
// unlock world — the defense-side complement of bench_table5_unlock.  Runs
// on the fleet orchestrator with ground-truth frame labeling at the source
// (every fuzzer-injected frame is noted at send time), so the confusion
// counts are exact, not heuristic.
//
// `--jsonl PATH` exports one line per (arm, detector) with the merged
// metrics and the ROC curve; the export is byte-identical at any --threads
// for a given seed (each trial's evaluation rides in its outcome as digest
// findings, merged in trial-index order).  `--attacks` runs the same
// fleet section over the attack-scenario catalog instead.
//
// A second section reproduces the Fig. 4 / Fig. 5 contrast as a detector
// property: the entropy detector trained on captured vehicle traffic must
// separate a held-out clean window from fuzz traffic with AUC > 0.9 (the
// bench exits non-zero if it does not).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "attacks/attack_world.hpp"
#include "bench_util.hpp"
#include "ids/detectors.hpp"
#include "ids/ids_world.hpp"
#include "trace/capture.hpp"

namespace {

struct IdsRocArgs {
  acf::bench::FleetArgs fleet;
  std::string jsonl_path;
  /// Evaluate the attack-scenario catalog (one arm per family) instead of
  /// the Table V unlock world.
  bool attacks = false;
};

IdsRocArgs parse_args(int argc, char** argv) {
  IdsRocArgs args;
  args.fleet.runs = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      args.fleet.runs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      args.fleet.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.fleet.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--jsonl") == 0 && i + 1 < argc) {
      args.jsonl_path = argv[++i];
    } else if (std::strcmp(argv[i], "--attacks") == 0) {
      args.attacks = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      args.fleet.metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-interval") == 0 && i + 1 < argc) {
      args.fleet.metrics_interval = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--runs N] [--threads T] [--seed S] [--jsonl PATH]\n"
                   "          [--attacks] [--metrics-out PATH] [--metrics-interval N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (args.fleet.runs <= 0) args.fleet.runs = 8;
  return args;
}

std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

/// One line per (arm, detector).  When `families` is non-null (the attack
/// matrix) its entries run parallel to `reports` and each line carries the
/// attack family next to the arm label.
void write_jsonl(std::ostream& out, const std::vector<acf::ids::ArmIdsReport>& reports,
                 const std::vector<std::string>* families = nullptr) {
  using acf::ids::RocPoint;
  for (std::size_t arm_index = 0; arm_index < reports.size(); ++arm_index) {
    const acf::ids::ArmIdsReport& arm = reports[arm_index];
    for (const acf::ids::ArmIdsReport::PerDetector& det : arm.detectors) {
      const acf::util::Interval rate = det.detection_rate_ci(arm.trials);
      out << "{\"arm\":\"" << arm.label << "\",";
      if (families != nullptr) out << "\"family\":\"" << (*families)[arm_index] << "\",";
      out << "\"detector\":\"" << det.merged.name
          << "\",\"threshold\":" << num(det.merged.threshold) << ",\"tp\":" << det.merged.tp
          << ",\"fp\":" << det.merged.fp << ",\"tn\":" << det.merged.tn
          << ",\"fn\":" << det.merged.fn << ",\"precision\":" << num(det.merged.precision())
          << ",\"recall\":" << num(det.merged.recall()) << ",\"f1\":" << num(det.merged.f1())
          << ",\"fpr\":" << num(det.merged.false_positive_rate())
          << ",\"auc\":" << num(det.merged.auc()) << ",\"mean_latency_s\":";
      if (det.latency.count() > 0) {
        out << num(det.latency.mean());
      } else {
        out << "null";
      }
      out << ",\"trials_detected\":" << det.trials_detected << ",\"trials\":" << arm.trials
          << ",\"rate_ci\":[" << num(rate.lo) << ',' << num(rate.hi) << "],\"roc\":[";
      const std::vector<RocPoint> roc = det.merged.roc(11);
      for (std::size_t i = 0; i < roc.size(); ++i) {
        if (i) out << ',';
        out << "{\"t\":" << num(roc[i].threshold) << ",\"tpr\":" << num(roc[i].tpr)
            << ",\"fpr\":" << num(roc[i].fpr) << '}';
      }
      out << "]}\n";
    }
  }
}

void print_reports(const std::vector<acf::ids::ArmIdsReport>& reports) {
  using namespace acf;
  for (const ids::ArmIdsReport& arm : reports) {
    std::printf("Arm \"%s\": %zu trials, %llu attack / %llu legitimate frames scored\n",
                arm.label.c_str(), arm.trials,
                static_cast<unsigned long long>(arm.attack_frames),
                static_cast<unsigned long long>(arm.legit_frames));
    analysis::TextTable table({"Detector", "Thresh", "Prec", "Recall", "F1", "FPR", "AUC",
                               "Latency (s)", "Detected", "Rate 95% CI"});
    for (const ids::ArmIdsReport::PerDetector& det : arm.detectors) {
      const util::Interval rate = det.detection_rate_ci(arm.trials);
      table.add_row(
          {det.merged.name, analysis::format_number(det.merged.threshold, 2),
           analysis::format_number(det.merged.precision(), 3),
           analysis::format_number(det.merged.recall(), 3),
           analysis::format_number(det.merged.f1(), 3),
           analysis::format_number(det.merged.false_positive_rate(), 4),
           analysis::format_number(det.merged.auc(), 3),
           det.latency.count() > 0 ? analysis::format_number(det.latency.mean(), 3) : "-",
           std::to_string(det.trials_detected) + "/" + std::to_string(arm.trials),
           "[" + analysis::format_number(rate.lo, 2) + ", " +
               analysis::format_number(rate.hi, 2) + "]"});
    }
    std::printf("%s\n", table.to_string().c_str());

    std::printf("ROC sweep (threshold: TPR/FPR):\n");
    for (const ids::ArmIdsReport::PerDetector& det : arm.detectors) {
      std::printf("  %-10s", det.merged.name.c_str());
      for (const ids::RocPoint& point : det.merged.roc(6)) {
        std::printf("  %.1f: %.2f/%.3f", point.threshold, point.tpr, point.fpr);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
}

/// Pipeline registry counters vs the evaluator's ground-truth tallies: two
/// independent paths over the same frames, so every scored frame must be
/// labeled and every over-threshold score must raise or suppress an alert.
/// Drift between them means one side miscounted — fail the bench.
bool counters_cross_check(const std::vector<acf::ids::ArmIdsReport>& reports) {
  using namespace acf;
  bool counters_ok = true;
  for (const ids::ArmIdsReport& arm : reports) {
    const std::uint64_t labeled = arm.attack_frames + arm.legit_frames;
    std::uint64_t over_threshold = 0;
    for (const ids::ArmIdsReport::PerDetector& det : arm.detectors) {
      over_threshold += det.merged.tp + det.merged.fp;
    }
    const ids::PipelineCounters& pipe = arm.pipeline;
    if (pipe.frames_scored != labeled ||
        pipe.alerts_raised + pipe.alerts_suppressed != over_threshold) {
      std::fprintf(stderr,
                   "FAIL arm \"%s\": pipeline counters disagree with evaluator "
                   "(scored %llu vs labeled %llu; raised+suppressed %llu vs "
                   "tp+fp %llu)\n",
                   arm.label.c_str(),
                   static_cast<unsigned long long>(pipe.frames_scored),
                   static_cast<unsigned long long>(labeled),
                   static_cast<unsigned long long>(pipe.alerts_raised +
                                                   pipe.alerts_suppressed),
                   static_cast<unsigned long long>(over_threshold));
      counters_ok = false;
    }
  }
  std::printf(
      "pipeline/evaluator cross-check (scored==labeled, raised+suppressed==tp+fp): %s\n",
      counters_ok ? "[ok]" : "[FAIL]");
  return counters_ok;
}

/// The fleet section of both modes: run the plan, print the outcome table
/// under `outcome_caption` and the per-arm detector reports, export JSONL,
/// cross-check the counters.  Each trial ships its evaluation back as
/// digest findings, so the reports here are the same ones a distributed
/// run reconstructs from remote outcomes.  `families` (the attack matrix)
/// runs parallel to the plan's arms and labels each JSONL line.
bool run_ids_fleet(const IdsRocArgs& args, const acf::fleet::TrialPlan& plan,
                   const acf::fleet::WorldFactory& factory, acf::bench::FleetMetrics& metrics,
                   const char* outcome_caption,
                   const std::vector<std::string>* families = nullptr) {
  using namespace acf;
  const std::vector<fleet::TrialOutcome> outcomes =
      bench::run_fleet(plan, factory, args.fleet, "ids-roc", &metrics);
  const fleet::FleetReport fleet_report = fleet::aggregate(plan, outcomes);
  const std::vector<ids::ArmIdsReport> reports = ids::merge_outcome_evals(plan, outcomes);

  std::printf("%s\n", outcome_caption);
  bench::print_fleet_report(fleet_report);
  print_reports(reports);

  if (!args.jsonl_path.empty()) {
    std::ofstream out(args.jsonl_path);
    write_jsonl(out, reports, families);
    std::printf("wrote %s (byte-identical at any --threads for a given --seed)\n\n",
                args.jsonl_path.c_str());
  }

  const bool counters_ok = counters_cross_check(reports);
  return counters_ok && fleet_report.errors == 0;
}

/// Fig. 4 vs Fig. 5 as a detector property: train on the first half of a
/// captured drive, score the held-out half against targeted fuzz frames.
double entropy_capture_vs_fuzz_auc() {
  using namespace acf;
  sim::Scheduler scheduler;
  vehicle::Vehicle car(scheduler);
  trace::CaptureTap tap(car.powertrain_bus(), "tap");
  scheduler.run_for(std::chrono::seconds(30));
  const auto& frames = tap.frames();

  ids::EntropyDetector detector;
  const std::size_t half = frames.size() / 2;
  std::vector<std::uint32_t> seen_ids;
  for (std::size_t i = 0; i < half; ++i) {
    detector.train(frames[i].frame, frames[i].time);
    if (std::find(seen_ids.begin(), seen_ids.end(), frames[i].frame.id()) == seen_ids.end()) {
      seen_ids.push_back(frames[i].frame.id());
    }
  }
  detector.finalize_training();

  ids::DetectorEval eval;
  for (std::size_t i = half; i < frames.size(); ++i) {
    ++eval.legit_bins[ids::DetectorEval::bin_of(
        detector.score(frames[i].frame, frames[i].time))];
  }
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::targeted(seen_ids));
  for (int i = 0; i < 4000; ++i) {
    const sim::SimTime when = std::chrono::seconds(60) + i * std::chrono::milliseconds(1);
    ++eval.attack_bins[ids::DetectorEval::bin_of(detector.score(*generator.next(), when))];
  }
  return eval.auc();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acf;
  const IdsRocArgs args = parse_args(argc, argv);
  const std::size_t runs = static_cast<std::size_t>(args.fleet.runs);
  // Declared before the world factories: the registry outlives every world.
  bench::FleetMetrics metrics;
  metrics::Registry* registry = args.fleet.metrics_out ? &metrics.registry : nullptr;
  if (args.attacks) {
    bench::header("IDS evaluation: attack catalog",
                  "Per-(attack, detector) matrix over the scenario families (" +
                      std::to_string(args.fleet.runs) + " trials per arm)");
    const std::vector<attacks::AttackArm> arms = attacks::standard_attack_arms();
    std::vector<std::string> labels;
    std::vector<std::string> families;
    for (const attacks::AttackArm& arm : arms) {
      labels.push_back(arm.label);
      families.push_back(attacks::to_string(arm.spec.family));
    }
    const fleet::TrialPlan plan(labels, runs, args.fleet.seed);
    const bool ok = run_ids_fleet(
        args, plan, attacks::attack_world_factory(arms, registry), metrics,
        "Attack impact (kFailure findings -> detected / time-to-failure):", &families);
    return ok ? 0 : 1;
  }

  bench::header("IDS evaluation",
                "Detector precision/recall/ROC on the Table V unlock world (" +
                    std::to_string(args.fleet.runs) + " runs per arm, 1 ms tx period)");
  std::vector<ids::IdsArm> arms(2);
  arms[1].predicate = vehicle::UnlockPredicate::id_byte_and_length();
  const fleet::TrialPlan plan({"Single id and byte", "Single id, byte plus data length"},
                              runs, args.fleet.seed);
  const bool fleet_ok =
      run_ids_fleet(args, plan, ids::ids_unlock_world_factory(arms, registry), metrics,
                    "Unlock times (the attack these detectors watch):");

  const double auc = entropy_capture_vs_fuzz_auc();
  std::printf("Entropy detector, captured (Fig. 4) vs fuzz (Fig. 5) traffic: AUC %.3f  %s\n",
              auc, auc > 0.9 ? "[ok: > 0.9]" : "[FAIL: expected > 0.9]");
  return (auc > 0.9 && fleet_ok) ? 0 : 1;
}

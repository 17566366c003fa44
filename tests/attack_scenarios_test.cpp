// Attack scenario catalog: determinism, labeling and evaluation-matrix
// guarantees for the per-family campaign arms.
//
// The contracts under test, in the order the ISSUE states them:
//  - the catalog covers every attack family exactly once, with valid specs;
//  - the spec codec is a strict canonical round-trip (the self-fuzz target
//    enforces the negative space; the positive space is pinned here);
//  - every family labels its injected frames at the source, so the
//    evaluator's ground-truth counts are exact, never heuristic;
//  - the per-trial evaluation survives the digest-findings round-trip that
//    carries it over the remote wire;
//  - the merged per-(attack, detector) matrix is identical at any executor
//    thread count, and the fleet_run binary produces byte-identical trial
//    JSONL in-process and distributed (--serve/--workers).
//
// Suites are named Attack* so the TSan CI leg picks them up by regex.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "attacks/attack_world.hpp"
#include "attacks/config.hpp"
#include "fleet/executor.hpp"
#include "fleet/jsonl.hpp"
#include "ids/eval_codec.hpp"

namespace acf::attacks {
namespace {

/// Catalog arms with CI-scale windows: long enough for the pipeline to
/// train and every family to land its effect, short enough for sanitizer
/// legs.  Same shrink for every test here so expectations compose.
std::vector<AttackArm> fast_arms() {
  std::vector<AttackArm> arms = standard_attack_arms();
  for (AttackArm& arm : arms) {
    arm.train_window = std::chrono::seconds(1);
    arm.attack_window = std::chrono::milliseconds(500);
  }
  return arms;
}

fleet::TrialSpec spec_for(const fleet::TrialPlan& plan, std::size_t trial_index) {
  return plan.spec(trial_index);
}

// ----------------------------------------------------------- catalog ------

TEST(AttackCatalog, CoversEveryFamilyExactlyOnce) {
  const std::vector<AttackArm> arms = standard_attack_arms();
  ASSERT_EQ(arms.size(), kAttackFamilyCount);
  std::set<AttackFamily> families;
  std::set<std::string> labels;
  for (const AttackArm& arm : arms) {
    EXPECT_TRUE(attack_spec_valid(arm.spec)) << arm.label;
    families.insert(arm.spec.family);
    labels.insert(arm.label);
  }
  EXPECT_EQ(families.size(), kAttackFamilyCount) << "a family is missing or duplicated";
  EXPECT_EQ(labels.size(), arms.size()) << "labels must be unique (matrix rows)";
}

TEST(AttackCatalog, FamilyNamesAreStable) {
  // The family string is the JSONL "family" field; renames break consumers.
  EXPECT_STREQ(to_string(AttackFamily::kFlood), "flood");
  EXPECT_STREQ(to_string(AttackFamily::kSpoof), "spoof");
  EXPECT_STREQ(to_string(AttackFamily::kMasquerade), "masquerade");
  EXPECT_STREQ(to_string(AttackFamily::kReplay), "replay");
  EXPECT_STREQ(to_string(AttackFamily::kSuspension), "suspension");
  EXPECT_STREQ(to_string(AttackFamily::kBusOff), "bus-off");
  EXPECT_STREQ(to_string(AttackFamily::kGatewayProbe), "gateway-probe");
  EXPECT_STREQ(to_string(AttackFamily::kUdsSession), "uds-session");
  EXPECT_STREQ(to_string(AttackFamily::kObdScan), "obd-scan");
  EXPECT_STREQ(to_string(AttackFamily::kXcpTamper), "xcp-tamper");
}

// ------------------------------------------------------------- codec ------

TEST(AttackConfigCodec, RoundTripsEveryCatalogSpec) {
  for (const AttackArm& arm : standard_attack_arms()) {
    const std::vector<std::uint8_t> bytes = encode_attack_spec(arm.spec);
    ASSERT_EQ(bytes.size(), kAttackSpecBytes) << arm.label;
    const std::optional<AttackSpec> decoded = decode_attack_spec(bytes);
    ASSERT_TRUE(decoded.has_value()) << arm.label;
    EXPECT_TRUE(*decoded == arm.spec) << arm.label;
    // Canonical: one spec, one byte representation.
    EXPECT_EQ(encode_attack_spec(*decoded), bytes) << arm.label;
  }
}

TEST(AttackConfigCodec, RejectsMalformedEncodings) {
  const std::vector<std::uint8_t> good = encode_attack_spec(standard_attack_arms()[0].spec);

  EXPECT_FALSE(decode_attack_spec({}).has_value());
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
  EXPECT_FALSE(decode_attack_spec(truncated).has_value());
  std::vector<std::uint8_t> oversized = good;
  oversized.push_back(0);
  EXPECT_FALSE(decode_attack_spec(oversized).has_value());

  std::vector<std::uint8_t> bad_version = good;
  bad_version[0] = 2;
  EXPECT_FALSE(decode_attack_spec(bad_version).has_value());

  std::vector<std::uint8_t> bad_family = good;
  bad_family[1] = kAttackFamilyCount;
  EXPECT_FALSE(decode_attack_spec(bad_family).has_value());

  std::vector<std::uint8_t> bad_bus = good;
  bad_bus[2] = 2;
  EXPECT_FALSE(decode_attack_spec(bad_bus).has_value());

  // payload_len 0 with a nonzero padding byte: non-canonical, rejected.
  std::vector<std::uint8_t> dirty_padding = good;
  dirty_padding[3] = 0;
  dirty_padding[21] = 0xFF;
  EXPECT_FALSE(decode_attack_spec(dirty_padding).has_value());

  AttackSpec out_of_bounds = standard_attack_arms()[0].spec;
  out_of_bounds.period_us = kMinPeriodUs - 1;
  EXPECT_FALSE(attack_spec_valid(out_of_bounds));
  out_of_bounds.period_us = kMaxPeriodUs + 1;
  EXPECT_FALSE(attack_spec_valid(out_of_bounds));
  out_of_bounds = standard_attack_arms()[0].spec;
  out_of_bounds.target_id = kMaxTargetId + 1;
  EXPECT_FALSE(attack_spec_valid(out_of_bounds));
  out_of_bounds = standard_attack_arms()[0].spec;
  out_of_bounds.burst = 0;
  EXPECT_FALSE(attack_spec_valid(out_of_bounds));
}

// ------------------------------------------------------ ground truth ------

TEST(AttackGroundTruth, EveryFamilyLabelsItsInjectedFrames) {
  const std::vector<AttackArm> arms = fast_arms();
  const fleet::TrialPlan plan(
      [&arms] {
        std::vector<std::string> labels;
        for (const AttackArm& arm : arms) labels.push_back(arm.label);
        return labels;
      }(),
      1, 0xACF);
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const AttackTrialResult trial = run_attack_trial(arms[i], spec_for(plan, i));
    ASSERT_TRUE(trial.eval.valid()) << arms[i].label;
    // The scenario injected and the labeler caught every frame at source:
    // the evaluator saw real attack traffic, not heuristically guessed.
    EXPECT_GT(trial.eval.attack_frames, 0u) << arms[i].label;
    EXPECT_GT(trial.eval.legit_frames, 0u) << arms[i].label;
    // Everything the pipeline scored was labeled one way or the other.
    EXPECT_EQ(trial.eval.pipeline.frames_scored,
              trial.eval.attack_frames + trial.eval.legit_frames)
        << arms[i].label;
    // Training happened before the attack started.
    EXPECT_GT(trial.eval.pipeline.frames_trained, 0u) << arms[i].label;
    EXPECT_GT(trial.attack_start.count(), 0) << arms[i].label;
  }
}

TEST(AttackGroundTruth, ImpactVerdictsReachTheOutcome) {
  // The families with a concrete objective report kFailure, which the
  // fleet layer turns into detected=1 + time_to_failure.  Spot-check the
  // clearest three: spoof (gauge split), bus-off (victim silenced),
  // xcp-tamper (MIL forced).
  const std::vector<AttackArm> arms = fast_arms();
  const fleet::TrialPlan plan({"spoof-rpm", "busoff-engine", "xcp-tamper"}, 1, 0xACF);
  std::size_t checked = 0;
  for (const AttackArm& arm : arms) {
    std::size_t plan_index = 0;
    bool in_plan = false;
    for (std::size_t a = 0; a < plan.arm_count(); ++a) {
      if (plan.arm_label(a) == arm.label) {
        plan_index = a;
        in_plan = true;
      }
    }
    if (!in_plan) continue;
    const fleet::TrialSpec trial_spec = spec_for(plan, plan_index);
    const AttackTrialResult trial = run_attack_trial(arm, trial_spec);
    const fleet::TrialOutcome outcome = fleet::outcome_from_result(trial_spec, trial.result);
    EXPECT_TRUE(outcome.failure_detected()) << arm.label;
    EXPECT_GE(outcome.time_to_failure, 0.0) << arm.label;
    ++checked;
  }
  EXPECT_EQ(checked, 3u);
}

// ------------------------------------------------------------ digest ------

TEST(AttackEvalDigest, SurvivesTheFindingsRoundTrip) {
  const std::vector<AttackArm> arms = fast_arms();
  const fleet::TrialPlan plan({arms[1].label}, 1, 0x5EED);  // spoof-rpm
  const AttackTrialResult direct = run_attack_trial(arms[1], spec_for(plan, 0));

  // Re-encode the evaluation the way the world ships it, then decode the
  // way the merge does, and compare every count.
  std::vector<std::string> lines;
  lines.push_back(ids::encode_eval_totals(direct.eval));
  for (const ids::DetectorEval& det : direct.eval.detectors) {
    lines.push_back(ids::encode_detector_eval(det));
  }
  ids::TrialEval decoded;
  for (const std::string& line : lines) ASSERT_TRUE(ids::decode_eval_line(line, decoded));

  EXPECT_EQ(decoded.attack_frames, direct.eval.attack_frames);
  EXPECT_EQ(decoded.legit_frames, direct.eval.legit_frames);
  EXPECT_EQ(decoded.pipeline.frames_trained, direct.eval.pipeline.frames_trained);
  EXPECT_EQ(decoded.pipeline.frames_scored, direct.eval.pipeline.frames_scored);
  EXPECT_EQ(decoded.pipeline.alerts_raised, direct.eval.pipeline.alerts_raised);
  ASSERT_EQ(decoded.detectors.size(), direct.eval.detectors.size());
  for (std::size_t d = 0; d < decoded.detectors.size(); ++d) {
    EXPECT_EQ(decoded.detectors[d].name, direct.eval.detectors[d].name);
    EXPECT_EQ(decoded.detectors[d].tp, direct.eval.detectors[d].tp);
    EXPECT_EQ(decoded.detectors[d].fp, direct.eval.detectors[d].fp);
    EXPECT_EQ(decoded.detectors[d].tn, direct.eval.detectors[d].tn);
    EXPECT_EQ(decoded.detectors[d].fn, direct.eval.detectors[d].fn);
    EXPECT_EQ(decoded.detectors[d].attack_bins, direct.eval.detectors[d].attack_bins);
    EXPECT_EQ(decoded.detectors[d].legit_bins, direct.eval.detectors[d].legit_bins);
  }
}

// ------------------------------------------------------- determinism ------

/// Flattens the pieces of an outcome that cross the wire: status, stop
/// reason, counters and every finding string.
std::string outcome_fingerprint(const std::vector<fleet::TrialOutcome>& outcomes) {
  std::ostringstream out;
  for (const fleet::TrialOutcome& outcome : outcomes) {
    out << outcome.spec.trial_index << '|' << static_cast<int>(outcome.status) << '|'
        << fuzzer::to_string(outcome.stop_reason) << '|' << outcome.frames_sent << '|'
        << outcome.send_failures << '|' << outcome.time_to_failure << '\n';
    for (const std::string& finding : outcome.findings) out << finding << '\n';
  }
  return out.str();
}

TEST(AttackDeterminism, OutcomesAndMatrixIdenticalAcrossThreadCounts) {
  const std::vector<AttackArm> arms = fast_arms();
  std::vector<std::string> labels;
  for (const AttackArm& arm : arms) labels.push_back(arm.label);
  const fleet::TrialPlan plan(labels, 1, 0xACF);

  std::vector<std::string> fingerprints;
  std::vector<std::string> matrices;
  for (const unsigned threads : {1u, 4u, 8u}) {
    fleet::ExecutorConfig config;
    config.threads = threads;
    fleet::Executor executor(config);
    const std::vector<fleet::TrialOutcome> outcomes =
        executor.run(plan, attack_world_factory(arms));
    fingerprints.push_back(outcome_fingerprint(outcomes));

    std::ostringstream matrix;
    for (const ids::ArmIdsReport& report : ids::merge_outcome_evals(plan, outcomes)) {
      matrix << report.label << ' ' << report.attack_frames << ' ' << report.legit_frames;
      for (const ids::ArmIdsReport::PerDetector& det : report.detectors) {
        matrix << ' ' << det.merged.name << ':' << det.merged.tp << '/' << det.merged.fp
               << '/' << det.merged.tn << '/' << det.merged.fn << '@'
               << det.trials_detected;
      }
      matrix << '\n';
    }
    matrices.push_back(matrix.str());
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]) << "threads 1 vs 4";
  EXPECT_EQ(fingerprints[0], fingerprints[2]) << "threads 1 vs 8";
  EXPECT_EQ(matrices[0], matrices[1]);
  EXPECT_EQ(matrices[0], matrices[2]);
  EXPECT_FALSE(matrices[0].empty());
}

// ------------------------------------------- distributed (process) --------

std::string temp_path(const std::string& stem) {
  return testing::TempDir() + stem + "_" + std::to_string(::getpid());
}

int run_fleet_bin(const std::string& args) {
  const std::string command =
      std::string(ACF_FLEET_RUN_BIN) + " " + args + " > /dev/null 2> /dev/null";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AttackDistributed, FleetRunJsonlByteIdenticalInProcessAndDistributed) {
  const std::string local = temp_path("attacks_local") + ".jsonl";
  const std::string dist = temp_path("attacks_dist") + ".jsonl";
  ASSERT_EQ(run_fleet_bin("--attacks --runs 1 --threads 2 --seed 0xACF --jsonl " + local),
            0);
  ASSERT_EQ(run_fleet_bin("--attacks --runs 1 --serve 0 --workers 2 --seed 0xACF --jsonl " +
                          dist),
            0);
  const std::string local_bytes = slurp(local);
  ASSERT_FALSE(local_bytes.empty());
  EXPECT_EQ(local_bytes, slurp(dist));
  std::remove(local.c_str());
  std::remove(dist.c_str());
}

}  // namespace
}  // namespace acf::attacks

// Intrusion-detection subsystem tests: detector models, pipeline alert
// merging, the alert->finding oracle bridge, ground-truth evaluation, clean
// candump replay (zero false positives) and fleet-scale determinism.  All
// suites are named Ids* so the TSan CI leg can select them together with the
// fleet suites via `ctest -R '^(Fleet|Ids)'`.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dbc/target_vehicle_db.hpp"
#include "fleet/executor.hpp"
#include "fleet/jsonl.hpp"
#include "fuzzer/generator.hpp"
#include "ids/alert_oracle.hpp"
#include "ids/detectors.hpp"
#include "ids/eval_codec.hpp"
#include "ids/evaluation.hpp"
#include "ids/ids_world.hpp"
#include "ids/pipeline.hpp"
#include "sim/scheduler.hpp"
#include "trace/candump_log.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::ids {
namespace {

using can::CanFrame;
using sim::SimTime;
using namespace std::chrono_literals;

/// Minimal database: one 4-byte message carrying one ranged signal.
dbc::Database tiny_db() {
  dbc::Database db;
  dbc::MessageDef m;
  m.id = 0x100;
  m.name = "TINY";
  m.dlc = 4;
  dbc::SignalDef s;
  s.name = "Value";
  s.start_bit = 0;
  s.bit_length = 8;
  s.min = 0.0;
  s.max = 100.0;
  m.signals.push_back(s);
  db.add(std::move(m));
  return db;
}

// ----------------------------------------------------------- detectors -----

TEST(IdsAllowlist, DbSeededThenExtendedByTraining) {
  AllowlistDetector detector(tiny_db());
  EXPECT_EQ(detector.known_ids(), 1u);
  // Declared id at the declared DLC is clean.
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {1, 2, 3, 4}), 0ns), 0.0);
  // Declared id at an unseen DLC is suspicious, unknown id is maximal.
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {1, 2}), 0ns), 0.75);
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x200, {0}), 0ns), 1.0);
  // Training extends the allowlist with observed traffic.
  detector.train(CanFrame::data_std(0x200, {0}), 0ns);
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x200, {0}), 0ns), 0.0);
}

TEST(IdsDlcConsistency, FlagsOnlyDeclaredIdMismatches) {
  DlcConsistencyDetector detector(tiny_db());
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {1, 2, 3, 4}), 0ns), 0.0);
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {1, 2, 3}), 0ns), 1.0);
  EXPECT_DOUBLE_EQ(detector.score(*CanFrame::remote(0x100, 4), 0ns), 1.0);
  // Undeclared ids are the allowlist's job, not this detector's.
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x7AB, {1}), 0ns), 0.0);
}

// The detector and the hardened BCM predicate must share one DLC check
// (MessageDef::dlc_matches): a short command the BCM rejects is exactly a
// frame the detector flags.
TEST(IdsDlcConsistency, AgreesWithHardenedBcmPredicate) {
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler, vehicle::UnlockPredicate::id_byte_and_length());
  DlcConsistencyDetector detector(dbc::target_vehicle_database());
  transport::VirtualBusTransport attacker(bench.bus(), "attacker");

  // DLC 1 unlock command: detector flags it AND the hardened BCM rejects it.
  const CanFrame short_cmd = CanFrame::data_std(dbc::kMsgBodyCommand, {dbc::kCmdUnlock});
  EXPECT_DOUBLE_EQ(detector.score(short_cmd, 0ns), 1.0);
  attacker.send(short_cmd);
  scheduler.run_for(10ms);
  EXPECT_EQ(bench.bcm().unlock_events(), 0u);

  // The legitimate DLC-7 command passes both.
  const CanFrame good_cmd = CanFrame::data_std(
      dbc::kMsgBodyCommand, {dbc::kCmdUnlock, 0x5F, 0x01, 0x00, 0x01, 0x20, 0x00});
  EXPECT_DOUBLE_EQ(detector.score(good_cmd, 0ns), 0.0);
  attacker.send(good_cmd);
  scheduler.run_for(10ms);
  EXPECT_EQ(bench.bcm().unlock_events(), 1u);
}

TEST(IdsTiming, LearnsPeriodAndFlagsMidCycleInjection) {
  TimingDetector detector;
  const CanFrame frame = CanFrame::data_std(0x21A, {0, 0, 0, 0});
  for (int i = 0; i < 50; ++i) {
    detector.train(frame, SimTime(i * 100ms));
  }
  detector.finalize_training();
  ASSERT_EQ(detector.modeled_ids(), 1u);
  const double lo = detector.lower_bound_s(0x21A);
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(lo, 0.1);
  // The first detection frame only seeds the arrival clock.
  EXPECT_DOUBLE_EQ(detector.score(frame, 5000ms), 0.0);
  // On-schedule frames stay clean; a frame 1 ms later is flagrant.
  EXPECT_DOUBLE_EQ(detector.score(frame, 5100ms), 0.0);
  EXPECT_GT(detector.score(frame, 5101ms), 0.9);
  // Unmodeled ids (too few training frames) never score.
  EXPECT_DOUBLE_EQ(detector.lower_bound_s(0x599), -1.0);
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x599, {1}), 5102ms), 0.0);
}

TEST(IdsRange, ScoresOutOfRangeSignalFraction) {
  RangeDetector detector(tiny_db());
  // Value 50 is inside [0,100]; raw 0xFF decodes to 255, outside.
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {50, 0, 0, 0}), 0ns), 0.0);
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {0xFF, 0, 0, 0}), 0ns), 1.0);
  // Undeclared id and too-short frames (signal absent) score 0.
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x300, {0xFF}), 0ns), 0.0);
}

TEST(IdsRange, FlagsNegativeRpmFromFuzzedBits) {
  // Paper Fig. 8: random bits in ENGINE_DATA decode as negative RPM.
  RangeDetector detector(dbc::target_vehicle_database());
  const CanFrame fuzzed = CanFrame::data_std(
      dbc::kMsgEngineData, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF});
  EXPECT_GT(detector.score(fuzzed, 0ns), 0.5);
}

TEST(IdsEntropy, SeparatesConstantTrafficFromRandomPayloads) {
  EntropyDetector detector;
  const CanFrame constant = CanFrame::data_std(0x300, {0x10, 0x20, 0x30, 0x40});
  for (int i = 0; i < 64; ++i) detector.train(constant, SimTime(i * 1ms));
  detector.finalize_training();
  EXPECT_LT(detector.window_entropy(0x300), 0.4);

  // Clean traffic keeps scoring at its baseline.
  EXPECT_LT(detector.score(constant, 100ms), 0.1);

  // Random payloads on the same id drive the window toward uniform.
  fuzzer::FuzzConfig fuzz = fuzzer::FuzzConfig::targeted({0x300});
  fuzzer::RandomGenerator generator(fuzz);
  double last = 0.0;
  for (int i = 0; i < 64; ++i) {
    last = detector.score(*generator.next(), SimTime(200ms + i * 1ms));
  }
  EXPECT_GT(last, 0.6);
}

/// The entropy detector's arithmetic with a std::log2 call per term, in the
/// same order as the detector's incremental updates.
class ReferenceEntropy {
 public:
  explicit ReferenceEntropy(EntropyConfig config) : config_(config) {}

  double score(const CanFrame& frame) {
    Window& window = windows_[frame.id()];
    push(window, frame);
    if (window.frames.size() < config_.min_frames) return 0.0;
    const double h = normalized(window);
    const auto base = baseline_.find(frame.id());
    if (base == baseline_.end() || base->second >= 1.0) return h;
    return std::clamp((h - base->second) / (1.0 - base->second), 0.0, 1.0);
  }
  void train(const CanFrame& frame) { push(windows_[frame.id()], frame); }
  void finalize_training() {
    for (const auto& [id, window] : windows_) {
      if (window.frames.size() >= config_.min_frames) baseline_[id] = normalized(window);
    }
  }
  void reset() { windows_.clear(); }

 private:
  struct Window {
    std::deque<std::vector<std::uint8_t>> frames;
    std::array<std::uint32_t, 256> counts{};
    double sum = 0.0;
    std::uint64_t bytes = 0;
  };

  void count_delta(Window& window, std::uint8_t value, int delta) {
    std::uint32_t& c = window.counts[value];
    if (c > 0) window.sum -= static_cast<double>(c) * std::log2(c);
    c = static_cast<std::uint32_t>(static_cast<int>(c) + delta);
    if (c > 0) window.sum += static_cast<double>(c) * std::log2(c);
  }
  void push(Window& window, const CanFrame& frame) {
    if (window.frames.size() == config_.window_frames) {
      for (std::uint8_t byte : window.frames.front()) count_delta(window, byte, -1);
      window.bytes -= window.frames.front().size();
      window.frames.pop_front();
    }
    const auto payload = frame.payload();
    window.frames.emplace_back(payload.begin(), payload.end());
    for (std::uint8_t byte : payload) count_delta(window, byte, +1);
    window.bytes += payload.size();
  }
  static double normalized(const Window& window) {
    const double n = static_cast<double>(window.bytes);
    if (n <= 1.0) return 0.0;
    const double entropy = std::log2(n) - window.sum / n;
    const double max_entropy = std::min(8.0, std::log2(n));
    if (max_entropy <= 0.0) return 0.0;
    return std::clamp(entropy / max_entropy, 0.0, 1.0);
  }

  EntropyConfig config_;
  std::map<std::uint32_t, Window> windows_;
  std::map<std::uint32_t, double> baseline_;
};

TEST(IdsEntropy, ScoresEqualTheLog2ReferenceBitForBit) {
  EntropyConfig config;
  config.window_frames = 5;
  config.min_frames = 3;
  EntropyDetector detector(config);
  ReferenceEntropy reference(config);
  util::Rng rng(0xE27);
  auto random_frame = [&rng] {
    std::vector<std::uint8_t> payload(rng.next_below(9));
    // A small byte alphabet repeats values, so bin counts climb and fall.
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next_below(6) * 37);
    return *CanFrame::data(0x100 + static_cast<std::uint32_t>(rng.next_below(3)), payload);
  };
  for (int i = 0; i < 200; ++i) {
    const CanFrame frame = random_frame();
    detector.train(frame, SimTime(i * 1ms));
    reference.train(frame);
  }
  detector.finalize_training();
  reference.finalize_training();
  for (int i = 0; i < 3000; ++i) {
    if (i == 1500) {
      detector.reset();
      reference.reset();
    }
    const CanFrame frame = random_frame();
    EXPECT_EQ(detector.score(frame, SimTime(i * 1ms)), reference.score(frame))
        << "frame " << i << " " << frame.to_string();
  }
}

TEST(IdsDetectors, StandardSetCarriesFourDetectors) {
  const auto detectors = standard_detectors(dbc::target_vehicle_database());
  ASSERT_EQ(detectors.size(), 4u);
  EXPECT_EQ(detectors[0]->name(), "allowlist");
  EXPECT_EQ(detectors[1]->name(), "timing");
  EXPECT_EQ(detectors[2]->name(), "range");
  EXPECT_EQ(detectors[3]->name(), "entropy");
}

// ------------------------------------------------------------- pipeline -----

TEST(IdsPipeline, CooldownMergesRepeatAlerts) {
  Pipeline pipeline;
  const std::size_t idx = pipeline.add(std::make_unique<DlcConsistencyDetector>(tiny_db()));
  pipeline.begin_training();
  pipeline.observe(CanFrame::data_std(0x100, {1, 2, 3, 4}), 0ns);
  pipeline.begin_detection();

  const CanFrame bad = CanFrame::data_std(0x100, {1});
  pipeline.observe(bad, 1000ms);   // alert
  pipeline.observe(bad, 1100ms);   // inside the 1 s cooldown: suppressed
  pipeline.observe(bad, 2500ms);   // past the cooldown: second alert
  const PipelineCounters counters = pipeline.counters();
  EXPECT_EQ(counters.frames_trained, 1u);
  EXPECT_EQ(counters.frames_scored, 3u);
  EXPECT_EQ(counters.alerts_raised, 2u);
  EXPECT_EQ(counters.alerts_suppressed, 1u);
  EXPECT_EQ(pipeline.alerts_for(idx), 2u);

  const std::vector<Alert> alerts = pipeline.drain_alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].detector_name, "dlc-consistency");
  EXPECT_EQ(alerts[0].can_id, 0x100u);
  EXPECT_DOUBLE_EQ(alerts[0].score, 1.0);
  EXPECT_EQ(alerts[0].time, SimTime(1000ms));
  EXPECT_NE(alerts[0].to_string().find("dlc-consistency id=0x100"), std::string::npos);
  EXPECT_TRUE(pipeline.drain_alerts().empty());
}

TEST(IdsPipeline, BoundedAlertQueueCountsDrops) {
  PipelineConfig config;
  config.max_pending_alerts = 2;
  Pipeline pipeline(config);
  pipeline.add(std::make_unique<AllowlistDetector>(tiny_db()));
  pipeline.begin_detection();
  // Four distinct unknown ids: no cooldown merging, queue bounded at 2.
  for (std::uint32_t id = 0x400; id < 0x404; ++id) {
    pipeline.observe(CanFrame::data_std(id, {0}), 0ns);
  }
  EXPECT_EQ(pipeline.counters().alerts_raised, 4u);
  EXPECT_EQ(pipeline.counters().alerts_dropped, 2u);
  EXPECT_EQ(pipeline.drain_alerts().size(), 2u);
}

TEST(IdsPipeline, ScoreHookSeesEveryDetectorInOrder) {
  Pipeline pipeline;
  pipeline.add(std::make_unique<AllowlistDetector>(tiny_db()));
  pipeline.add(std::make_unique<DlcConsistencyDetector>(tiny_db()));
  std::vector<std::vector<double>> rows;
  pipeline.set_score_hook(
      [&rows](const CanFrame&, SimTime, std::span<const double> scores) {
        rows.emplace_back(scores.begin(), scores.end());
      });
  pipeline.begin_detection();
  pipeline.observe(CanFrame::data_std(0x100, {1, 2}), 0ns);  // known id, wrong dlc
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0][0], 0.75);  // allowlist: unseen DLC
  EXPECT_DOUBLE_EQ(rows[0][1], 1.0);   // dlc-consistency: mismatch
}

TEST(IdsPipeline, BusTapObservesEcuTrafficInvisibly) {
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler);
  Pipeline pipeline;
  pipeline.add(std::make_unique<AllowlistDetector>(dbc::target_vehicle_database()));
  pipeline.attach(bench.bus(), "ids-tap");
  pipeline.begin_training();
  scheduler.run_for(1s);
  // The BCM's two 100 ms periodics alone give ~20 frames.
  EXPECT_GE(pipeline.counters().frames_trained, 18u);
  pipeline.begin_detection();
  scheduler.run_for(1s);
  EXPECT_GE(pipeline.counters().frames_scored, 18u);
  EXPECT_EQ(pipeline.counters().alerts_raised, 0u);  // clean bench traffic
  pipeline.detach();
}

TEST(IdsPipeline, DetectionIsAPureFunctionOfTheStream) {
  auto run = [](std::vector<std::string>& out) {
    Pipeline pipeline;
    pipeline.add(std::make_unique<AllowlistDetector>(tiny_db()));
    pipeline.add(std::make_unique<TimingDetector>());
    pipeline.begin_training();
    for (int i = 0; i < 20; ++i) {
      pipeline.observe(CanFrame::data_std(0x100, {1, 2, 3, 4}), SimTime(i * 100ms));
    }
    pipeline.begin_detection();
    for (int i = 0; i < 20; ++i) {
      pipeline.observe(CanFrame::data_std(0x100, {1, 2, 3, 4}), SimTime(2s + i * 100ms));
      pipeline.observe(CanFrame::data_std(0x5A5, {9}), SimTime(2s + i * 100ms + 1ms));
    }
    for (const Alert& alert : pipeline.drain_alerts()) out.push_back(alert.to_string());
  };
  std::vector<std::string> first, second;
  run(first);
  run(second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --------------------------------------------------------- alert oracle -----

TEST(IdsAlertOracle, BridgesAlertBatchesToObservations) {
  Pipeline pipeline;
  pipeline.add(std::make_unique<AllowlistDetector>(tiny_db()));
  AlertOracle oracle(pipeline);
  pipeline.begin_detection();
  EXPECT_FALSE(oracle.poll(0ns).has_value());

  pipeline.observe(CanFrame::data_std(0x400, {0}), 500ms);
  pipeline.observe(CanFrame::data_std(0x401, {0}), 600ms);
  const auto observation = oracle.poll(1000ms);
  ASSERT_TRUE(observation.has_value());
  EXPECT_EQ(observation->verdict, oracle::Verdict::kSuspicious);
  EXPECT_EQ(observation->time, SimTime(500ms));  // first alert of the batch
  EXPECT_NE(observation->detail.find("ids: 2 alert(s)"), std::string::npos);
  EXPECT_EQ(oracle.alerts_reported(), 2u);
  // Drained: the next poll is quiet.
  EXPECT_FALSE(oracle.poll(2000ms).has_value());
}

// ----------------------------------------------------------- evaluation -----

TEST(IdsEvaluation, FrameLabelerMatchesFifoByContent) {
  FrameLabeler labeler;
  const CanFrame frame = CanFrame::data_std(0x123, {0xAB, 0xCD});
  labeler.note_injected(frame);
  labeler.note_injected(frame);
  EXPECT_EQ(labeler.injected(), 2u);
  EXPECT_TRUE(labeler.consume_if_attack(frame));
  EXPECT_TRUE(labeler.consume_if_attack(frame));
  EXPECT_FALSE(labeler.consume_if_attack(frame));  // both notes consumed
  EXPECT_FALSE(labeler.consume_if_attack(CanFrame::data_std(0x123, {0xAB})));
  EXPECT_EQ(labeler.matched(), 2u);
  EXPECT_EQ(labeler.outstanding(), 0u);
}

TEST(IdsEvaluation, ConfusionCountsAndRocFromHistograms) {
  DetectorEval eval;
  eval.threshold = 0.5;
  // Perfectly separated scores: attacks at 0.9, legitimate at 0.1.
  eval.attack_bins[DetectorEval::bin_of(0.9)] = 90;
  eval.fn = 10;
  eval.attack_bins[DetectorEval::bin_of(0.2)] = 10;
  eval.tp = 90;
  eval.legit_bins[DetectorEval::bin_of(0.1)] = 200;
  eval.tn = 200;
  EXPECT_DOUBLE_EQ(eval.precision(), 1.0);
  EXPECT_DOUBLE_EQ(eval.recall(), 0.9);
  EXPECT_NEAR(eval.f1(), 2.0 * 0.9 / 1.9, 1e-12);
  EXPECT_DOUBLE_EQ(eval.false_positive_rate(), 0.0);
  EXPECT_GT(eval.auc(), 0.94);

  const std::vector<RocPoint> roc = eval.roc(11);
  ASSERT_EQ(roc.size(), 11u);
  EXPECT_DOUBLE_EQ(roc.front().tpr, 1.0);  // threshold 0: everything alerts
  EXPECT_DOUBLE_EQ(roc.front().fpr, 1.0);
  EXPECT_DOUBLE_EQ(roc.back().tpr, 0.0);  // threshold 1: nothing reaches it
  EXPECT_DOUBLE_EQ(roc.back().fpr, 0.0);
  // TPR/FPR are monotone non-increasing in the threshold.
  for (std::size_t i = 1; i < roc.size(); ++i) {
    EXPECT_LE(roc[i].tpr, roc[i - 1].tpr);
    EXPECT_LE(roc[i].fpr, roc[i - 1].fpr);
  }

  DetectorEval other;
  other.tp = 10;
  other.attack_bins[DetectorEval::bin_of(0.9)] = 10;
  eval.merge_counts(other);
  EXPECT_EQ(eval.tp, 100u);
  EXPECT_EQ(eval.attack_bins[DetectorEval::bin_of(0.9)], 100u);
}

TEST(IdsEvaluation, EvaluatorLabelsAndTimesDetections) {
  Pipeline pipeline;
  pipeline.add(std::make_unique<DlcConsistencyDetector>(tiny_db()));
  PipelineEvaluator evaluator(pipeline);
  pipeline.begin_detection();

  // Legitimate frame: clean score, counted as a true negative.
  pipeline.observe(CanFrame::data_std(0x100, {1, 2, 3, 4}), 1000ms);
  // Injected wrong-DLC frame: the labeler marks it, the detector fires.
  const CanFrame attack = CanFrame::data_std(0x100, {1});
  evaluator.labeler().note_injected(attack);
  pipeline.observe(attack, 2000ms);

  const TrialEval& eval = evaluator.eval();
  ASSERT_TRUE(eval.valid());
  EXPECT_EQ(eval.legit_frames, 1u);
  EXPECT_EQ(eval.attack_frames, 1u);
  const DetectorEval& det = eval.detectors[0];
  EXPECT_EQ(det.name, "dlc-consistency");
  EXPECT_EQ(det.tn, 1u);
  EXPECT_EQ(det.tp, 1u);
  EXPECT_EQ(det.fp, 0u);
  EXPECT_EQ(det.fn, 0u);
  // First true positive on the first attack frame: zero latency.
  EXPECT_DOUBLE_EQ(det.detection_latency, 0.0);
}

// Acceptance criterion: the entropy detector separates captured vehicle
// traffic (Fig. 4) from fuzz traffic (Fig. 5) with AUC > 0.9.
TEST(IdsEvaluation, EntropySeparatesCapturedFromFuzzTraffic) {
  sim::Scheduler scheduler;
  vehicle::Vehicle car(scheduler);
  trace::CaptureTap tap(car.powertrain_bus(), "tap");
  scheduler.run_for(20s);
  const auto& frames = tap.frames();
  ASSERT_GT(frames.size(), 400u);

  // Train on the first half of the capture, score the second half as the
  // legitimate class.
  EntropyDetector detector;
  const std::size_t half = frames.size() / 2;
  std::vector<std::uint32_t> seen_ids;
  for (std::size_t i = 0; i < half; ++i) {
    detector.train(frames[i].frame, frames[i].time);
    if (std::find(seen_ids.begin(), seen_ids.end(), frames[i].frame.id()) == seen_ids.end()) {
      seen_ids.push_back(frames[i].frame.id());
    }
  }
  detector.finalize_training();

  DetectorEval eval;
  for (std::size_t i = half; i < frames.size(); ++i) {
    ++eval.legit_bins[DetectorEval::bin_of(detector.score(frames[i].frame, frames[i].time))];
  }
  // The attack class: random payloads over the same id population.
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::targeted(seen_ids));
  for (int i = 0; i < 2000; ++i) {
    const CanFrame frame = *generator.next();
    ++eval.attack_bins[DetectorEval::bin_of(detector.score(frame, SimTime(30s + i * 1ms)))];
  }
  EXPECT_GT(eval.auc(), 0.9);
}

// ------------------------------------------------------ candump replay -----

// Satellite requirement: a clean capture replayed through a trained pipeline
// must raise zero false positives on every detector.
TEST(IdsReplay, CleanCandumpReplayRaisesNoAlerts) {
  // Capture 30 s of clean bench traffic.
  std::string log_text;
  {
    sim::Scheduler scheduler;
    vehicle::UnlockTestbench bench(scheduler);
    trace::CaptureTap tap(bench.bus(), "tap");
    scheduler.run_for(30s);
    ASSERT_GT(tap.size(), 100u);
    std::ostringstream out;
    trace::write_candump(out, tap.frames());
    log_text = out.str();
  }

  // Round-trip through the candump text format.
  std::istringstream in(log_text);
  std::vector<std::string> errors;
  const auto frames = trace::read_candump(in, &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_GT(frames.size(), 100u);

  // Train on the log, freeze, then replay the same clean log in detection.
  Pipeline pipeline;
  for (auto& detector : standard_detectors(dbc::target_vehicle_database())) {
    pipeline.add(std::move(detector));
  }
  pipeline.begin_training();
  for (const auto& entry : frames) pipeline.observe(entry.frame, entry.time);
  pipeline.begin_detection();
  for (const auto& entry : frames) pipeline.observe(entry.frame, entry.time);

  const PipelineCounters counters = pipeline.counters();
  EXPECT_EQ(counters.frames_scored, frames.size());
  EXPECT_EQ(counters.alerts_raised, 0u) << [&] {
    std::string detail;
    for (const Alert& alert : pipeline.drain_alerts()) detail += alert.to_string() + "\n";
    return detail;
  }();
  for (std::size_t i = 0; i < pipeline.detector_count(); ++i) {
    EXPECT_EQ(pipeline.alerts_for(i), 0u) << pipeline.detector(i).name();
  }
}

// ----------------------------------------------------------- eval codec -----

TEST(IdsEvalCodec, RejectsCountsPastUint64AndLeavesEvalUnchanged) {
  TrialEval eval;
  ASSERT_TRUE(decode_eval_line(
      "ids-eval/1 totals attack=18446744073709551615 legit=2 trained=3 scored=4 raised=5 "
      "suppressed=6 dropped=7",
      eval));
  EXPECT_EQ(eval.attack_frames, 18446744073709551615ULL);
  // 2^64 + 1 used to wrap to 1.
  EXPECT_FALSE(decode_eval_line(
      "ids-eval/1 totals attack=18446744073709551617 legit=2 trained=3 scored=4 raised=5 "
      "suppressed=6 dropped=7",
      eval));
  EXPECT_FALSE(decode_eval_line(
      "ids-eval/1 det name=x thr=0.5 tp=99999999999999999999 fp=0 tn=0 fn=0 lat=-1 ab=- "
      "lb=-",
      eval));
  EXPECT_FALSE(decode_eval_line(
      "ids-eval/1 det name=x thr=0.5 tp=0 fp=0 tn=0 fn=0 lat=-1 ab=7:18446744073709551616 "
      "lb=-",
      eval));
  EXPECT_EQ(eval.attack_frames, 18446744073709551615ULL);
  EXPECT_EQ(eval.legit_frames, 2u);
  EXPECT_TRUE(eval.detectors.empty());
}

TEST(IdsEvalCodec, RejectsNonFiniteThresholdAndLatency) {
  TrialEval eval;
  EXPECT_FALSE(decode_eval_line(
      "ids-eval/1 det name=x thr=nan tp=1 fp=2 tn=3 fn=4 lat=inf ab=- lb=-", eval));
  EXPECT_FALSE(decode_eval_line(
      "ids-eval/1 det name=x thr=nan tp=1 fp=2 tn=3 fn=4 lat=0.25 ab=- lb=-", eval));
  EXPECT_FALSE(decode_eval_line(
      "ids-eval/1 det name=x thr=0.5 tp=1 fp=2 tn=3 fn=4 lat=inf ab=- lb=-", eval));
  EXPECT_FALSE(decode_eval_line(
      "ids-eval/1 det name=x thr=0.5 tp=1 fp=2 tn=3 fn=4 lat=1e999 ab=- lb=-", eval));
  EXPECT_TRUE(eval.detectors.empty());
  // The same line with finite values decodes, subnormals included.
  ASSERT_TRUE(decode_eval_line(
      "ids-eval/1 det name=x thr=0.5 tp=1 fp=2 tn=3 fn=4 lat=4.9406564584124654e-324 "
      "ab=0:1,255:2 lb=-",
      eval));
  ASSERT_EQ(eval.detectors.size(), 1u);
  EXPECT_EQ(eval.detectors[0].detection_latency, 4.9406564584124654e-324);
  EXPECT_EQ(eval.detectors[0].attack_bins[0], 1u);
  EXPECT_EQ(eval.detectors[0].attack_bins[255], 2u);
}

TEST(IdsEvalCodec, RejectsMalformedHistograms) {
  TrialEval eval;
  const char* const lines[] = {
      "ids-eval/1 det name=x thr=0.5 tp=0 fp=0 tn=0 fn=0 lat=-1 ab=256:1 lb=-",
      "ids-eval/1 det name=x thr=0.5 tp=0 fp=0 tn=0 fn=0 lat=-1 ab=1:1, lb=-",
      "ids-eval/1 det name=x thr=0.5 tp=0 fp=0 tn=0 fn=0 lat=-1 ab=1 lb=-",
      "ids-eval/1 det name=x thr=0.5 tp=0 fp=0 tn=0 fn=0 lat=-1 lb=-",
  };
  for (const char* line : lines) EXPECT_FALSE(decode_eval_line(line, eval)) << line;
  EXPECT_TRUE(eval.detectors.empty());
}

// ----------------------------------------------------------- fleet eval -----

/// Fast detector-evaluation fleet: reduced id window at 4 kHz so the unlock
/// oracle fires within simulated seconds.
std::vector<IdsArm> fast_ids_arms() {
  fuzzer::FuzzConfig fast = fuzzer::FuzzConfig::around_id(0x215, 3);
  fast.tx_period = std::chrono::microseconds(250);
  IdsArm weak;
  weak.fuzz = fast;
  weak.train_window = 5s;
  IdsArm hardened = weak;
  hardened.predicate = vehicle::UnlockPredicate::id_byte_and_length();
  return {weak, hardened};
}

TEST(IdsFleet, EvaluationIsThreadCountInvariant) {
  const fleet::TrialPlan plan({"weak", "hardened"}, 3, 0xACF17EE7ULL,
                              std::chrono::minutes(5));
  std::vector<ArmIdsReport> reference;
  for (const unsigned threads : {1u, 4u}) {
    fleet::ExecutorConfig config;
    config.threads = threads;
    config.progress_period = std::chrono::milliseconds(0);
    fleet::Executor executor(config);
    const auto outcomes = executor.run(plan, ids_unlock_world_factory(fast_ids_arms()));
    for (const auto& outcome : outcomes) {
      EXPECT_EQ(outcome.status, fleet::TrialStatus::kCompleted);
    }
    const std::vector<ArmIdsReport> reports = merge_outcome_evals(plan, outcomes);
    ASSERT_EQ(reports.size(), 2u);
    if (threads == 1) {
      reference = reports;
      // The fuzz phase must actually exercise the detectors.
      EXPECT_GT(reports[0].attack_frames, 0u);
      EXPECT_GT(reports[0].legit_frames, 0u);
      ASSERT_EQ(reports[0].detectors.size(), 4u);
      continue;
    }
    for (std::size_t arm = 0; arm < reports.size(); ++arm) {
      const ArmIdsReport& a = reports[arm];
      const ArmIdsReport& b = reference[arm];
      EXPECT_EQ(a.trials, b.trials);
      EXPECT_EQ(a.attack_frames, b.attack_frames);
      EXPECT_EQ(a.legit_frames, b.legit_frames);
      ASSERT_EQ(a.detectors.size(), b.detectors.size());
      for (std::size_t d = 0; d < a.detectors.size(); ++d) {
        const ArmIdsReport::PerDetector& da = a.detectors[d];
        const ArmIdsReport::PerDetector& db = b.detectors[d];
        EXPECT_EQ(da.merged.tp, db.merged.tp);
        EXPECT_EQ(da.merged.fp, db.merged.fp);
        EXPECT_EQ(da.merged.tn, db.merged.tn);
        EXPECT_EQ(da.merged.fn, db.merged.fn);
        EXPECT_EQ(da.merged.attack_bins, db.merged.attack_bins);
        EXPECT_EQ(da.merged.legit_bins, db.merged.legit_bins);
        EXPECT_EQ(da.trials_detected, db.trials_detected);
        EXPECT_EQ(da.latency.count(), db.latency.count());
        EXPECT_DOUBLE_EQ(da.latency.mean(), db.latency.mean());
        EXPECT_DOUBLE_EQ(da.merged.auc(), db.merged.auc());
      }
    }
  }
}

TEST(IdsFleet, AllowlistCatchesBlindFuzzWithHighRecall) {
  const fleet::TrialPlan plan({"weak"}, 2, 0xACF17EE7ULL, std::chrono::minutes(5));
  fleet::Executor executor({.threads = 2, .progress_period = std::chrono::milliseconds(0)});
  std::vector<IdsArm> arms = {fast_ids_arms()[0]};
  const std::vector<ArmIdsReport> reports =
      merge_outcome_evals(plan, executor.run(plan, ids_unlock_world_factory(std::move(arms))));
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].detectors.size(), 4u);
  const ArmIdsReport::PerDetector& allowlist = reports[0].detectors[0];
  // The fast fuzz window spans ids 0x212..0x218 of which only 0x215 is
  // declared: ~6/7 of injected frames hit undeclared ids and most 0x215
  // frames carry an unseen DLC, so recall is near one...
  EXPECT_GT(allowlist.merged.recall(), 0.8);
  // ...and clean bench traffic never alerts.
  EXPECT_EQ(allowlist.merged.fp, 0u);
  EXPECT_EQ(allowlist.trials_detected, reports[0].trials);
  const util::Interval ci = allowlist.detection_rate_ci(reports[0].trials);
  EXPECT_GT(ci.lo, 0.2);
  EXPECT_GT(ci.hi, 0.99);
}

TEST(IdsFleet, OutcomesCarryConsistentEvalsAndExportIdenticallyAcrossThreads) {
  const fleet::TrialPlan plan({"weak", "hardened"}, 3, 0xACF17EE7ULL,
                              std::chrono::minutes(5));
  std::vector<std::string> exports;
  for (const unsigned threads : {1u, 4u}) {
    fleet::Executor executor({.threads = threads,
                              .progress_period = std::chrono::milliseconds(0)});
    const auto outcomes = executor.run(plan, ids_unlock_world_factory(fast_ids_arms()));
    std::ostringstream jsonl;
    fleet::JsonlExporter(jsonl).write_all(plan, outcomes);
    exports.push_back(jsonl.str());

    ASSERT_EQ(outcomes.size(), plan.trial_count());
    for (const fleet::TrialOutcome& outcome : outcomes) {
      ASSERT_TRUE(outcome.completed());
      // The unlock still ends the trial: the digest findings that follow
      // it are nominal and leave time-to-failure on the unlock.
      EXPECT_TRUE(outcome.failure_detected()) << outcome.spec.trial_index;
      const TrialEval eval = eval_from_outcome(outcome);
      ASSERT_TRUE(eval.valid()) << outcome.spec.trial_index;
      std::uint64_t over_threshold = 0;
      for (const DetectorEval& det : eval.detectors) over_threshold += det.tp + det.fp;
      EXPECT_EQ(eval.pipeline.frames_scored, eval.attack_frames + eval.legit_frames)
          << outcome.spec.trial_index;
      EXPECT_EQ(eval.pipeline.alerts_raised + eval.pipeline.alerts_suppressed,
                over_threshold)
          << outcome.spec.trial_index;
    }
  }
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_FALSE(exports[0].empty());
}

}  // namespace
}  // namespace acf::ids

// Self-tests of the campaign benchmark:
//  - the percentile rule (highest percentile with at least ten samples
//    beyond it, reported with its count);
//  - decorator transparency: the generator and detector decorators hand
//    back exactly what the wrapped objects do, and on a small plan of every
//    workload the traced worlds write byte-identical JSONL to the untraced
//    ones, with the decorators really on the call path;
//  - the replay call counts repeat exactly.
//
//   python3 campaign_bench/run.py --selftest     (or run the built binary)
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "dbc/target_vehicle_db.hpp"
#include "fleet/executor.hpp"
#include "fuzzer/generator.hpp"
#include "ids/detectors.hpp"
#include "layers.hpp"
#include "metrics/metrics.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace campaign_bench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void percentile_rule() {
  check(!tail_percentile(0) && !tail_percentile(99), "fewer than 100 samples: no tail percentile");
  check(tail_percentile(100) == 90.0 && samples_beyond(100, 90.0) == 10,
        "100 samples: p90 with 10 beyond");
  check(tail_percentile(999) == 90.0 && samples_beyond(999, 99.0) == 9,
        "999 samples: p99 has only 9 beyond, so p90");
  check(tail_percentile(1000) == 99.0 && samples_beyond(1000, 99.0) == 10,
        "1000 samples: p99 with 10 beyond");
  check(tail_percentile(10'000) == 99.9 && samples_beyond(10'000, 99.9) == 10,
        "10000 samples: p99.9 with 10 beyond");
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  check(median(values) == 50.0 && percentile(values, 90.0) == 90.0 &&
            percentile(values, 100.0) == 100.0,
        "nearest-rank percentiles of 1..100");
  check(percentile({}, 50.0) == 0.0, "percentile of no samples is 0");
}

/// The decorators forward every value unchanged.  (Outcome digests alone
/// cannot show this: a trial that times out records no frame content.)
void decorators_forward() {
  const acf::fuzzer::FuzzConfig config = acf::fuzzer::FuzzConfig::full_random(0xDEC0);
  acf::fuzzer::RandomGenerator plain(config);
  acf::fuzzer::RandomGenerator wrapped(config);
  Tally tally;
  TimedGenerator timed(wrapped, tally);
  bool same = timed.name() == plain.name();
  for (int i = 0; i < 100'000 && same; ++i) same = timed.next() == plain.next();
  same = same && timed.generated() == plain.generated() &&
         timed.save_state() == plain.save_state() && tally.calls == 100'000;
  check(same, "TimedGenerator yields the wrapped generator's stream, state and count");

  const acf::dbc::Database database = acf::dbc::target_vehicle_database();
  auto plain_detectors = acf::ids::standard_detectors(database);
  auto wrapped_detectors = acf::ids::standard_detectors(database);
  acf::fuzzer::RandomGenerator clean(acf::fuzzer::FuzzConfig::targeted(database.ids(), 1));
  acf::fuzzer::RandomGenerator fuzz(acf::fuzzer::FuzzConfig::full_random(2));
  std::vector<acf::can::CanFrame> training;
  std::vector<acf::can::CanFrame> scoring;
  for (int i = 0; i < 5'000; ++i) training.push_back(*clean.next());
  for (int i = 0; i < 5'000; ++i) scoring.push_back(i % 2 ? *fuzz.next() : *clean.next());
  bool scores_match = true;
  for (std::size_t d = 0; d < plain_detectors.size(); ++d) {
    acf::ids::Detector& reference = *plain_detectors[d];
    Tally detector_tally;
    TimedDetector decorated(std::move(wrapped_detectors[d]), detector_tally);
    scores_match = scores_match && decorated.name() == reference.name() &&
                   decorated.threshold() == reference.threshold();
    for (std::size_t i = 0; i < training.size(); ++i) {
      const acf::sim::SimTime time{static_cast<std::int64_t>(i) * 1'000'000};
      reference.train(training[i], time);
      decorated.train(training[i], time);
    }
    reference.finalize_training();
    decorated.finalize_training();
    for (std::size_t i = 0; i < scoring.size() && scores_match; ++i) {
      const acf::sim::SimTime time{static_cast<std::int64_t>(i + training.size()) * 1'000'000};
      scores_match = decorated.score(scoring[i], time) == reference.score(scoring[i], time);
    }
    scores_match = scores_match && detector_tally.calls == scoring.size();
  }
  check(scores_match, "TimedDetector keeps name and threshold and returns the wrapped scores");
}

struct Campaign {
  std::string jsonl;
  LayerTallies tallies;
  std::map<std::string, std::uint64_t> counters;
};

/// A small campaign of the workload's traced or untraced worlds, or, with
/// `twin`, of its untraced twin of the program's worlds.
Campaign run_small(const Workload& workload, bool traced, Capture* capture, bool twin = false) {
  const acf::fleet::TrialPlan plan = workload.plan(0x5E1F, Size::kSmall);
  acf::metrics::Registry registry;
  TrialRecorder recorder(false, 0);
  acf::fleet::ExecutorConfig config;
  config.threads = 2;
  config.progress_period = std::chrono::milliseconds(0);
  config.registry = &registry;
  const std::vector<acf::fleet::TrialOutcome> outcomes = acf::fleet::Executor(config).run(
      plan, recorded(twin ? workload.untraced_twin(&registry)
                          : workload.factory(traced, &registry, capture),
                     recorder));
  Campaign campaign{campaign_jsonl(plan, outcomes), {}, {}};
  for (const TrialRecord& record : recorder.take_records()) campaign.tallies.merge(record.tallies);
  for (const acf::metrics::CounterSnap& counter : registry.snapshot().counters) {
    campaign.counters[counter.name] = counter.value;
  }
  return campaign;
}

void decorator_transparency() {
  for (const Workload* workload : all_workloads()) {
    const std::string name(workload->name());
    const Campaign plain = run_small(*workload, false, nullptr);
    Capture capture;
    const Campaign traced = run_small(*workload, true, &capture);
    check(!plain.jsonl.empty() && fnv1a(plain.jsonl) == fnv1a(traced.jsonl),
          name + ": traced JSONL digest equals the untraced one");
    if (workload->untraced_twin(nullptr)) {
      const Campaign twin = run_small(*workload, false, nullptr, /*twin=*/true);
      check(fnv1a(plain.jsonl) == fnv1a(twin.jsonl) && plain.counters == twin.counters,
            name + ": the untraced twin matches the program's worlds in JSONL and counters");
    }
    if (workload->decorates_frame_path()) {
      check(traced.tallies[Layer::kTransportSend].calls > 0 &&
                traced.tallies[Layer::kFuzzerNext].calls > 0 &&
                traced.tallies[Layer::kOraclePoll].calls > 0,
            name + ": transport, fuzzer and oracle decorators were called");
      check(!capture.frames().empty(), name + ": the traced campaign captured frames");
    }
    if (name == "vehicle_ids") {
      check(traced.tallies[Layer::kIdsAllowlist].calls > 0 &&
                traced.tallies[Layer::kIdsEntropy].calls > 0,
            name + ": detector decorators were called");
      check(plain.tallies[Layer::kIdsAllowlist].calls == 0,
            name + ": untraced worlds time nothing");
    }
  }
}

void replay_counts_repeat() {
  const Workload& table5 = *find_workload("table5_fleet");
  Capture first;
  Capture second;
  run_small(table5, true, &first);
  run_small(table5, true, &second);
  const std::vector<acf::can::CanFrame> frames = first.frames();
  check(frames.size() == second.frames().size(), "captures of one plan have equal size");
  const ReplayFigures a = run_replays(frames);
  const ReplayFigures b = run_replays(second.frames());
  check(a.frame_time.calls == b.frame_time.calls && a.dbc_decode.calls == b.dbc_decode.calls &&
            a.dbc_encode.calls == b.dbc_encode.calls &&
            a.database_build.calls == b.database_build.calls &&
            a.testbench_build.calls == b.testbench_build.calls,
        "replay call counts repeat exactly");
  check(a.frame_time.calls == frames.size() * kCodecPasses &&
            a.dbc_decode.calls == frames.size() * kDbcPasses &&
            a.database_build.calls == kDatabaseBuilds &&
            a.testbench_build.calls == kTestbenchBuilds,
        "replay call counts follow from the capture size");
}

}  // namespace

int main() {
  percentile_rule();
  decorators_forward();
  decorator_transparency();
  replay_counts_repeat();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

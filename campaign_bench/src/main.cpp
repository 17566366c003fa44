// campaign_bench: times whole fuzz campaigns of the simulator.
//
//   campaign_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--expect-digest HEX]
//                  [--out-dir DIR] [--commit TEXT] [--setup-only]
//
// Untraced (--trace 0) it repeats the workload's fleet campaign until S
// seconds have passed and at least 100 full-load trials were timed, and reports the
// end-to-end metrics.  Traced (--trace 1) it spends half the time on
// untraced repetitions and half on traced ones, adds small traced probes of
// the other workloads for layers this one does not run, replays captured
// frames through the codec and DBC layers, and reports the per-layer
// metrics.  --setup-only builds what the first campaign builds before its
// first dispatch, prints the set-up time (the process's CPU time so far)
// and stops.  The last stdout line is
// one JSON object: correct, attempted, failed, metrics.
// campaign_bench/run.py builds and drives this binary.
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet/aggregator.hpp"
#include "fleet/executor.hpp"
#include "layers.hpp"
#include "metrics/metrics.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace campaign_bench;
using acf::fleet::TrialOutcome;
using acf::fleet::TrialPlan;

/// Trials an untraced run times at least, so p90 has ten samples beyond it.
constexpr std::size_t kMinTrialSamples = 100;
/// Fleet worker threads: one per core of the 4-core reference host, fixed so
/// that results from hosts with other core counts stay comparable.
constexpr unsigned kThreads = 4;
/// Largest relative gap between the untraced wall time of the benchmark's
/// twin worlds and of the program's own worlds on the same trials before the
/// twin counts as out of step with the program.  Paired in-step twins read
/// within about 1.5 % of the program on the 4-vCPU reference host.
constexpr double kTwinTolerance = 0.10;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::optional<std::uint64_t> expect_digest;
  std::string out_dir;
  std::string commit = "unknown";
  bool setup_only = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "campaign_bench: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 0);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--expect-digest") {
      options.expect_digest = std::strtoull(value().c_str(), nullptr, 16);
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else if (arg == "--commit") {
      options.commit = value();
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The machine's CPU time counters, from the first line of /proc/stat.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  std::uint64_t field = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> field; ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss would also count the pre-exec image of the process
/// that spawned us.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// CPU time of the whole process, all threads, since it was created (the
/// exec and the dynamic loader included).  Like the thread clock it leaves
/// out stolen time and waits for a core.
std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// One campaign repetition.

/// Which worlds a campaign runs: the program's own (untraced); "paired",
/// which runs each trial in the program's world and in the benchmark's
/// untraced twin of it (see Workload::untraced_twin); or the traced worlds.
enum class Flavor { kProgram, kPaired, kTraced };

const char* flavor_name(Flavor flavor) {
  return flavor == Flavor::kTraced ? "traced" : flavor == Flavor::kPaired ? "paired" : "untraced";
}

/// What the paired trials of a campaign found.
struct PairTimes {
  std::mutex mutex;
  std::vector<double> twin_over_program;  // CPU time ratio, one per trial
  std::size_t mismatches = 0;             // trials whose twin result differed
};

/// Worlds that run each trial twice on the pool thread, back to back, in the
/// program's world and in the twin (alternating which goes first), so both
/// see the same core at nearly the same time.  Each run is timed on the
/// thread's CPU clock, so time the host takes from the thread counts for
/// neither.  They return the program's result; the twin publishes no
/// metrics, so the campaign's outcomes and counters are the program's.
acf::fleet::WorldFactory paired_factory(const Workload& workload,
                                        acf::metrics::Registry* registry, PairTimes* pairs) {
  return acf::fleet::world_from([program = workload.factory(false, registry, nullptr),
                                 twin = workload.untraced_twin(nullptr),
                                 pairs](const acf::fleet::TrialSpec& spec) {
    const auto timed_run = [&spec](const acf::fleet::WorldFactory& factory,
                                   acf::fuzzer::CampaignResult& result) {
      const std::int64_t start = thread_cpu_ns();
      result = factory(spec)->run();
      return thread_cpu_ns() - start;
    };
    acf::fuzzer::CampaignResult mine;
    acf::fuzzer::CampaignResult theirs;
    std::int64_t program_ns = 0;
    std::int64_t twin_ns = 0;
    if (spec.trial_index % 2 == 0) {
      program_ns = timed_run(program, mine);
      twin_ns = timed_run(twin, theirs);
    } else {
      twin_ns = timed_run(twin, theirs);
      program_ns = timed_run(program, mine);
    }
    const bool same = mine.frames_sent == theirs.frames_sent && mine.reason == theirs.reason &&
                      mine.elapsed == theirs.elapsed;
    std::lock_guard<std::mutex> lock(pairs->mutex);
    if (!same) ++pairs->mismatches;
    if (program_ns > 0) {
      pairs->twin_over_program.push_back(static_cast<double>(twin_ns) /
                                         static_cast<double>(program_ns));
    }
    return mine;
  });
}

/// Everything a campaign builds before its first trial is dispatched.  The
/// set-up probe builds one too, so that it stops where the measured run's
/// set-up clock stops.
struct Rig {
  Rig(const Workload& workload, Flavor flavor, Capture* capture, std::uint32_t rep_index)
      : recorder(/*keep_spans=*/flavor == Flavor::kTraced, rep_index),
        factory(recorded(flavor == Flavor::kPaired
                             ? paired_factory(workload, &registry, &pairs)
                             : workload.factory(flavor == Flavor::kTraced, &registry, capture),
                         recorder)),
        executor(config(&registry)) {}

  static acf::fleet::ExecutorConfig config(acf::metrics::Registry* registry) {
    acf::fleet::ExecutorConfig config;
    config.threads = kThreads;
    config.progress_period = std::chrono::milliseconds(0);
    config.registry = registry;
    return config;
  }

  acf::metrics::Registry registry;
  PairTimes pairs;
  TrialRecorder recorder;
  acf::fleet::WorldFactory factory;
  acf::fleet::Executor executor;
};

struct Rep {
  Flavor flavor = Flavor::kProgram;
  bool traced = false;     // flavor == Flavor::kTraced
  bool captured = false;   // a capture tap sat on the buses (adds bus deliveries)
  double wall_s = 0;       // first dispatch .. report and JSONL written
  double lost_s = 0;       // trial time the workers did not run, per pool thread
  double makespan_s = 0;   // first dispatch .. last trial returned
  double report_ms = 0;    // fleet::aggregate + JsonlExporter
  double aggregate_ms = 0;  // fleet::aggregate alone
  std::uint64_t frames = 0;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> line_digests;  // one per trial, index order
  std::vector<bool> outcome_ok;             // one per trial, index order
  bool report_ok = false;
  std::vector<TrialRecord> records;
  std::vector<Span> spans;
  std::map<std::string, std::uint64_t> counters;  // the campaign registry's counters
  std::vector<double> twin_over_program;          // paired campaigns only
  std::size_t twin_mismatches = 0;                // paired campaigns only
  std::string jsonl;  // kept for the run's first campaign only
};

/// Runs one campaign.  When `setup_cpu_ns` is non-null and still 0, this is
/// the run's first campaign: it stores the process CPU time at its dispatch
/// there and keeps its JSONL.
Rep run_campaign(const Workload& workload, const TrialPlan& plan, Flavor flavor,
                 Capture* capture, std::uint32_t rep_index, std::int64_t* setup_cpu_ns) {
  Rep rep;
  rep.flavor = flavor;
  rep.traced = flavor == Flavor::kTraced;
  rep.captured = rep.traced && capture != nullptr;
  Rig rig(workload, flavor, capture, rep_index);

  const bool first = setup_cpu_ns != nullptr && *setup_cpu_ns == 0;
  if (first) *setup_cpu_ns = process_cpu_ns();
  const std::int64_t dispatch = now_ns();
  const std::vector<TrialOutcome> outcomes = rig.executor.run(plan, rig.factory);
  const std::int64_t pool_done = now_ns();
  const acf::fleet::FleetReport report = acf::fleet::aggregate(plan, outcomes);
  const std::int64_t aggregated = now_ns();
  const std::string jsonl = campaign_jsonl(plan, outcomes);
  const std::int64_t done = now_ns();

  rep.wall_s = static_cast<double>(done - dispatch) * 1e-9;
  rep.makespan_s = static_cast<double>(pool_done - dispatch) * 1e-9;
  rep.report_ms = static_cast<double>(done - pool_done) * 1e-6;
  rep.aggregate_ms = static_cast<double>(aggregated - pool_done) * 1e-6;
  rep.frames = workload.frames(rig.registry, outcomes);
  rep.digest = fnv1a(jsonl);
  if (first) rep.jsonl = jsonl;
  std::size_t begin = 0;
  while (begin < jsonl.size()) {
    std::size_t end = jsonl.find('\n', begin);
    if (end == std::string::npos) end = jsonl.size();
    rep.line_digests.push_back(fnv1a(std::string_view(jsonl).substr(begin, end - begin)));
    begin = end + 1;
  }
  for (const TrialOutcome& outcome : outcomes) rep.outcome_ok.push_back(workload.outcome_ok(outcome));
  rep.report_ok = report.trials == plan.trial_count() && report.errors == 0 &&
                  report.skipped == 0 && rep.line_digests.size() == plan.trial_count();
  rep.records = rig.recorder.take_records();
  std::int64_t lost_ns = 0;
  for (const TrialRecord& record : rep.records) {
    lost_ns += std::max<std::int64_t>(0, record.wall_ns() - record.cpu_ns());
  }
  rep.lost_s = static_cast<double>(lost_ns) * 1e-9 / kThreads;
  rep.spans = rig.recorder.take_spans();
  if (rep.traced) {
    rep.spans.push_back({"campaign", ~std::uint64_t{0}, rep_index, dispatch, done, ""});
    rep.spans.push_back({"report", ~std::uint64_t{0}, rep_index, pool_done, done, "campaign"});
    rep.spans.push_back({"aggregate", ~std::uint64_t{0}, rep_index, pool_done, aggregated, "report"});
    rep.spans.push_back({"jsonl", ~std::uint64_t{0}, rep_index, aggregated, done, "report"});
  }
  for (const acf::metrics::CounterSnap& counter : rig.registry.snapshot().counters) {
    rep.counters[counter.name] = counter.value;
  }
  rep.twin_over_program = std::move(rig.pairs.twin_over_program);
  rep.twin_mismatches = rig.pairs.mismatches;
  return rep;
}

/// Frames per second of the campaign's wall time less the time its trials
/// were kept off a core (hypervisor steal, waits for a core), averaged over
/// the pool threads.  On a shared virtual host that lost time follows the
/// neighbours' load, not the program; idle pool threads in a campaign's
/// tail still count.  (Trials fit in the pool's makespan, so lost_s is
/// below wall_s.)
double frames_per_s(const Rep& rep) {
  return static_cast<double>(rep.frames) / (rep.wall_s - rep.lost_s);
}

double wall_frames_per_s(const Rep& rep) { return static_cast<double>(rep.frames) / rep.wall_s; }

double median_fps(const std::vector<Rep>& reps, Flavor flavor) {
  std::vector<double> rates;
  for (const Rep& rep : reps) {
    if (rep.flavor == flavor) rates.push_back(frames_per_s(rep));
  }
  return median(std::move(rates));
}

/// CPU ns per fuzz frame of the campaign's full-load trials: those that
/// returned before its last trial was dispatched.  Until then every pool
/// thread is busy, so these trials ran at a fixed concurrency; trials that
/// overlap the campaign's tail run faster on a less loaded host, and how
/// many do depends on the seed's trial lengths, not on the program.  The
/// trial's thread CPU time (world construction and run()) is used, not its
/// wall time, so that host steal does not show as program cost.
std::vector<double> full_load_cpu_ns_per_frame(const Rep& rep) {
  std::int64_t last_dispatch = 0;
  for (const TrialRecord& record : rep.records) {
    last_dispatch = std::max(last_dispatch, record.build_start_ns);
  }
  std::vector<double> samples;
  for (const TrialRecord& record : rep.records) {
    if (record.run_end_ns <= last_dispatch && record.fuzz_frames > 0) {
      samples.push_back(static_cast<double>(record.cpu_ns()) /
                        static_cast<double>(record.fuzz_frames));
    }
  }
  return samples;
}

/// Correctness bookkeeping across every campaign of the run.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Names of the registry counters on which two campaigns disagree.  A
/// capture tap is one more listener on its bus, so `can.bus.deliveries` is
/// skipped when either campaign captured.
std::vector<std::string> counter_mismatches(const Rep& rep, const Rep& reference) {
  std::map<std::string, std::uint64_t> mine = rep.counters;
  std::map<std::string, std::uint64_t> theirs = reference.counters;
  if (rep.captured || reference.captured) {
    mine.erase("can.bus.deliveries");
    theirs.erase("can.bus.deliveries");
  }
  std::vector<std::string> names;
  for (const auto& [name, value] : mine) {
    const auto it = theirs.find(name);
    if (it == theirs.end() || it->second != value) names.push_back(name);
  }
  for (const auto& [name, value] : theirs) {
    if (!mine.contains(name)) names.push_back(name);
  }
  return names;
}

/// Checks one repetition against a reference campaign of the program's own
/// worlds on the same plan and against the expected digest; counts failed
/// trials.
void judge(const Rep& rep, const Rep& reference, std::optional<std::uint64_t> expected,
           const std::string& label, Verdict& verdict) {
  const std::size_t trials = rep.outcome_ok.size();
  verdict.attempted += trials;
  if (!rep.report_ok) verdict.fail(label + ": fleet report incomplete or has errors");
  if (expected && rep.digest != *expected) {
    verdict.failed += trials;
    verdict.fail(label + ": digest " + hex64(rep.digest) + " != expected " + hex64(*expected));
    return;
  }
  const std::vector<std::string> counters = counter_mismatches(rep, reference);
  if (!counters.empty()) {
    std::string names;
    for (const std::string& name : counters) names += (names.empty() ? "" : ", ") + name;
    verdict.failed += trials;
    verdict.fail(label + ": registry counters differ from the reference campaign: " + names);
    return;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < trials; ++i) {
    const bool same = i < reference.line_digests.size() && i < rep.line_digests.size() &&
                      rep.line_digests[i] == reference.line_digests[i];
    if (!rep.outcome_ok[i] || !same) ++bad;
  }
  if (bad > 0) {
    verdict.failed += bad;
    verdict.fail(label + ": " + std::to_string(bad) + " trial(s) failed or differ from the " +
                 "reference repetition (digest " + hex64(rep.digest) + " vs " +
                 hex64(reference.digest) + ")");
  }
}

/// Runs repetitions, cycling through `flavors`, until `seconds` have passed
/// and, when `min_samples` is set, that many full-load trials were timed.
void repeat(const Workload& workload, const TrialPlan& plan,
            const std::vector<Flavor>& flavors, double seconds, std::size_t min_samples,
            std::vector<Rep>& reps, std::int64_t* setup_cpu_ns) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t samples = 0;
  std::size_t made = 0;
  do {
    reps.push_back(run_campaign(workload, plan, flavors[made % flavors.size()], nullptr,
                                static_cast<std::uint32_t>(reps.size()), setup_cpu_ns));
    samples += full_load_cpu_ns_per_frame(reps.back()).size();
    ++made;
  } while (made % flavors.size() != 0 || now_ns() < deadline || samples < min_samples);
}

// ---------------------------------------------------------------------------
// Metric output.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;   // where the figure comes from (human-readable only)
  double calls = -1;  // calls or samples behind the value (printed as n=); < 0 = none
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-30s %14.6g %-8s", metric.name.c_str(), metric.value, metric.unit.c_str());
    if (metric.calls >= 0) std::printf(" n=%-12.0f", metric.calls);
    std::printf(" %s\n", metric.note.c_str());
  }
}

/// Adds a timed per-call metric and its call count.
void add_timed(std::vector<Metric>& out, const std::string& name, const Tally& tally,
               double ns_per_unit, const std::string& unit, const std::string& note) {
  const double per_call =
      tally.calls ? static_cast<double>(tally.ns) / static_cast<double>(tally.calls) : 0.0;
  out.push_back({name, per_call / ns_per_unit, unit, note, static_cast<double>(tally.calls)});
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics.

std::vector<Metric> end_to_end(const std::vector<Rep>& reps, double setup_s) {
  std::vector<double> ns_per_frame;
  std::vector<double> wall_ms;
  std::vector<double> wall_fps;
  for (const Rep& rep : reps) {
    wall_fps.push_back(wall_frames_per_s(rep));
    const std::vector<double> samples = full_load_cpu_ns_per_frame(rep);
    ns_per_frame.insert(ns_per_frame.end(), samples.begin(), samples.end());
    for (const TrialRecord& record : rep.records) {
      wall_ms.push_back(static_cast<double>(record.wall_ns()) * 1e-6);
    }
  }
  const std::size_t n = ns_per_frame.size();
  const std::optional<double> tail = tail_percentile(n);
  std::vector<Metric> metrics;
  metrics.push_back({"frames_per_s", median_fps(reps, Flavor::kProgram), "frames/s",
                     "median over campaigns, lost worker time taken out",
                     static_cast<double>(reps.size())});
  metrics.push_back({"trial_cpu_ns_per_frame_p50", median(ns_per_frame), "ns",
                     "full-load trials, thread CPU time", static_cast<double>(n)});
  metrics.push_back({"trial_cpu_ns_per_frame_p90", percentile(ns_per_frame, 90.0), "ns",
                     tail && *tail >= 90.0
                         ? std::to_string(samples_beyond(n, 90.0)) + " samples beyond"
                         : "TOO FEW SAMPLES FOR p90",
                     static_cast<double>(n)});
  metrics.push_back({"setup_s", setup_s, "s", "process CPU time; run.py takes the median"});
  metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "process peak resident set"});

  std::printf("wall-clock frames/s, lost worker time included: %.6g (median over campaigns)\n",
              median(wall_fps));
  const std::size_t wn = wall_ms.size();
  std::printf("trial wall time: p50 %.3f ms (n=%zu)", median(wall_ms), wn);
  if (const std::optional<double> wall_tail = tail_percentile(wn)) {
    std::printf(", p%g %.3f ms (%zu samples beyond)", *wall_tail,
                percentile(wall_ms, *wall_tail), samples_beyond(wn, *wall_tail));
  }
  std::printf("\n");
  return metrics;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics.

/// Everything a set of traced repetitions says about the layers.
struct TracedSummary {
  std::string source;  // "in-situ" or "probe:<workload>"
  LayerTallies tallies;
  std::uint64_t bus_frames = 0;
  std::uint64_t events = 0;
  std::int64_t run_ns = 0;  // Σ world_run spans
  std::map<std::string, std::uint64_t> counters;
};

TracedSummary summarize(const std::vector<Rep>& reps, std::string source) {
  TracedSummary summary;
  summary.source = std::move(source);
  for (const Rep& rep : reps) {
    if (!rep.traced) continue;
    for (const TrialRecord& record : rep.records) {
      summary.tallies.merge(record.tallies);
      summary.bus_frames += record.bus_frames;
      summary.events += record.scheduler_events;
      summary.run_ns += record.run_end_ns - record.build_end_ns;
    }
    for (const auto& [name, value] : rep.counters) summary.counters[name] += value;
  }
  return summary;
}

std::vector<Metric> per_layer(const std::vector<Rep>& reps,
                              const TracedSummary& frame_path, const TracedSummary& ids,
                              const TracedSummary& feedback, const ReplayFigures& replay,
                              const std::string& replay_note) {
  std::vector<Metric> metrics;
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  // World self time: the trial span minus the decorated child calls, per
  // frame, over this workload's own traced trials.
  {
    std::int64_t trial_ns = 0;
    std::int64_t child_ns = 0;
    std::uint64_t frames = 0;
    for (const Rep& rep : reps) {
      if (!rep.traced) continue;
      for (const TrialRecord& record : rep.records) {
        trial_ns += record.wall_ns();
        child_ns += record.tallies.total_ns();
        frames += record.instrumented ? record.bus_frames : record.fuzz_frames;
      }
    }
    metrics.push_back({"world.self_ns_per_frame",
                       ratio(static_cast<double>(trial_ns - child_ns), static_cast<double>(frames)),
                       "ns", "in-situ, per frame", static_cast<double>(frames)});
  }

  metrics.push_back({"sim.events_per_frame",
                     ratio(static_cast<double>(frame_path.events),
                           static_cast<double>(frame_path.bus_frames)),
                     "events/frame", frame_path.source,
                     static_cast<double>(frame_path.bus_frames)});
  add_timed(metrics, "transport.send_ns", frame_path.tallies[Layer::kTransportSend], 1.0, "ns",
            frame_path.source);
  add_timed(metrics, "fuzzer.next_ns", frame_path.tallies[Layer::kFuzzerNext], 1.0, "ns",
            frame_path.source);
  add_timed(metrics, "oracle.poll_ns", frame_path.tallies[Layer::kOraclePoll], 1.0, "ns",
            frame_path.source);
  add_timed(metrics, "metrics.publish_us_per_trial", frame_path.tallies[Layer::kMetricsPublish],
            1e3, "us", frame_path.source);

  add_timed(metrics, "can.frame_time_ns", replay.frame_time, 1.0, "ns", replay_note);
  add_timed(metrics, "dbc.decode_ns_per_frame", replay.dbc_decode, 1.0, "ns", replay_note);
  add_timed(metrics, "dbc.encode_ns_per_frame", replay.dbc_encode, 1.0, "ns", replay_note);
  add_timed(metrics, "dbc.database_build_us", replay.database_build, 1e3, "us",
            "replay, in isolation");
  add_timed(metrics, "vehicle.testbench_build_us", replay.testbench_build, 1e3, "us",
            "replay, in isolation");

  const std::pair<const char*, Layer> detectors[] = {{"allowlist", Layer::kIdsAllowlist},
                                                     {"timing", Layer::kIdsTiming},
                                                     {"range", Layer::kIdsRange},
                                                     {"entropy", Layer::kIdsEntropy}};
  for (const auto& [name, layer] : detectors) {
    add_timed(metrics, std::string("ids.score_ns.") + name, ids.tallies[layer], 1.0, "ns",
              ids.source);
  }

  const auto counter = [&](const char* name) {
    const auto it = feedback.counters.find(name);
    return it == feedback.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double executions = counter("feedback.executions");
  metrics.push_back({"feedback.exec_us", ratio(static_cast<double>(feedback.run_ns) * 1e-3, executions),
                     "us", feedback.source + ", trial run span / executions", executions});
  metrics.push_back({"feedback.novel_frac", ratio(counter("feedback.novel_inputs"), executions),
                     "ratio", feedback.source, executions});
  metrics.push_back({"feedback.trim_frac", ratio(counter("feedback.trim_executions"), executions),
                     "ratio", feedback.source, executions});

  // Fleet-level figures come from this run's untraced program repetitions.
  Tally build;
  Tally report;
  double busy_ns = 0;
  double capacity_ns = 0;
  for (const Rep& rep : reps) {
    if (rep.flavor != Flavor::kProgram) continue;
    for (const TrialRecord& record : rep.records) {
      build.add(record.build_ns());
      busy_ns += static_cast<double>(record.wall_ns());
    }
    report.add(static_cast<std::int64_t>(rep.report_ms * 1e6));
    capacity_ns += rep.makespan_s * 1e9 * kThreads;
  }
  add_timed(metrics, "fleet.world_build_us", build, 1e3, "us", "untraced repetitions");
  add_timed(metrics, "fleet.report_ms", report, 1e6, "ms", "untraced repetitions");
  metrics.push_back({"fleet.busy_frac", ratio(busy_ns, capacity_ns), "ratio",
                     "untraced repetitions", static_cast<double>(build.calls)});

  const double untraced = median_fps(reps, Flavor::kProgram);
  const double traced = median_fps(reps, Flavor::kTraced);
  metrics.push_back({"trace.overhead_frac", ratio(untraced - traced, untraced), "ratio",
                     "untraced vs traced frames_per_s"});
  return metrics;
}

/// The "where the cycles go" table: shares of the traced trials' wall time.
void print_cycles(const std::vector<Rep>& reps) {
  static constexpr const char* kNames[kLayerCount] = {
      "transport.send", "fuzzer.next",      "oracle.poll",  "ids.score allowlist",
      "ids.score timing", "ids.score range", "ids.score entropy", "metrics.publish"};
  std::int64_t trial_ns = 0;
  std::int64_t build_ns = 0;
  double wall_s = 0;
  double report_s = 0;
  double aggregate_s = 0;
  LayerTallies tallies;
  for (const Rep& rep : reps) {
    if (!rep.traced) continue;
    for (const TrialRecord& record : rep.records) {
      trial_ns += record.wall_ns();
      build_ns += record.build_ns();
      tallies.merge(record.tallies);
    }
    wall_s += rep.wall_s;
    report_s += rep.report_ms * 1e-3;
    aggregate_s += rep.aggregate_ms * 1e-3;
  }
  if (trial_ns <= 0) return;
  const auto share = [&](std::int64_t ns) {
    return 100.0 * static_cast<double>(ns) / static_cast<double>(trial_ns);
  };
  std::printf("where the cycles go (traced trials; share of the summed trial wall time):\n");
  std::printf("  %-30s %6.1f %%\n", "world build", share(build_ns));
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (tallies.by_layer[i].calls == 0) continue;
    std::printf("  %-30s %6.1f %%  (%.0f ns/call)\n", kNames[i], share(tallies.by_layer[i].ns),
                static_cast<double>(tallies.by_layer[i].ns) /
                    static_cast<double>(tallies.by_layer[i].calls));
  }
  std::printf("  %-30s %6.1f %%\n", "world self (rest of the run)",
              share(trial_ns - build_ns - tallies.total_ns()));
  if (wall_s > 0) {
    std::printf("  fleet::aggregate %.1f %% and JSONL %.1f %% of the traced campaigns' wall time\n",
                100.0 * aggregate_s / wall_s, 100.0 * (report_s - aggregate_s) / wall_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Share of the machine's CPU time the hypervisor took away during the run:
  // on a shared virtual host it slows every timing, so it goes in the context.
  const CpuTicks ticks_at_start = cpu_ticks();
  const Options options = parse(argc, argv);
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) usage(("unknown workload " + options.workload).c_str());
  const TrialPlan plan = workload->plan(options.seed, Size::kFull);

  if (options.setup_only) {
    // Everything the first campaign builds before its dispatch, then stop:
    // one set-up sample.
    const Rig rig(*workload, Flavor::kProgram, nullptr, 0);
    std::printf("{\"setup_s\": %.9f}\n", static_cast<double>(process_cpu_ns()) * 1e-9);
    return rig.factory ? 0 : 1;
  }

  std::int64_t setup_cpu_ns = 0;
  std::vector<Rep> reps;
  Verdict verdict;
  std::vector<Metric> metrics;
  // Traced, a workload whose traced worlds replace program worlds with the
  // benchmark's twin alternates untraced program and paired campaigns, so
  // the twin's speed is checked against the program's.
  const bool check_twin = options.trace && static_cast<bool>(workload->untraced_twin(nullptr));
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  repeat(*workload, plan,
         check_twin ? std::vector<Flavor>{Flavor::kProgram, Flavor::kPaired}
                    : std::vector<Flavor>{Flavor::kProgram},
         untraced_seconds, options.trace ? 0 : kMinTrialSamples, reps, &setup_cpu_ns);
  const double setup_s = static_cast<double>(setup_cpu_ns) * 1e-9;

  std::vector<Span> spans;
  if (!options.trace) {
    metrics = end_to_end(reps, setup_s);
  } else {
    repeat(*workload, plan, {Flavor::kTraced}, options.seconds / 2, 0, reps, nullptr);

    if (check_twin) {
      std::vector<double> ratios;
      std::size_t mismatches = 0;
      for (const Rep& rep : reps) {
        ratios.insert(ratios.end(), rep.twin_over_program.begin(), rep.twin_over_program.end());
        mismatches += rep.twin_mismatches;
      }
      const double gap = ratios.empty() ? 1.0 : median(ratios) - 1.0;
      std::printf("untraced twin of the program's worlds: median CPU time %+.1f %% of the "
                  "program's on the same trial (n=%zu, tolerance %.0f %%), %zu result "
                  "mismatch(es)\n",
                  100.0 * gap, ratios.size(), 100.0 * kTwinTolerance, mismatches);
      if (mismatches > 0) verdict.fail("the benchmark's twin of the program's worlds differs");
      if (gap > kTwinTolerance || gap < -kTwinTolerance) {
        verdict.fail("the benchmark's twin of the program's worlds runs at a different speed; "
                     "bring campaign_bench/src/workloads.cpp in step with the program");
      }
    }

    // Probes: small traced campaigns, each checked against an untraced
    // campaign of the program's worlds on the same plan.  The first captures
    // the frames of its leading trials for the replays (this workload's own
    // traffic when its worlds are benchmark-built, else the unlock world's);
    // the others time the layers this workload does not run.
    const auto probe = [&](const Workload& other, Capture* capture) {
      const TrialPlan small = other.plan(options.seed, Size::kSmall);
      const Rep reference = run_campaign(other, small, Flavor::kProgram, nullptr, 0, nullptr);
      const std::vector<Rep> probe_reps{
          run_campaign(other, small, Flavor::kTraced, capture, 0, nullptr)};
      judge(probe_reps.front(), reference, std::nullopt, "probe " + std::string(other.name()),
            verdict);
      return summarize(probe_reps, "probe:" + std::string(other.name()));
    };
    const Workload& table5 = *find_workload("table5_fleet");
    const Workload& capturer = workload->decorates_frame_path() ? *workload : table5;
    Capture capture;
    const TracedSummary captured = probe(capturer, &capture);
    const TracedSummary own = summarize(reps, "in-situ");
    const TracedSummary& frame_path = workload->decorates_frame_path() ? own : captured;
    const TracedSummary ids = workload->name() == "vehicle_ids"
                                  ? own
                                  : probe(*find_workload("vehicle_ids"), nullptr);
    const TracedSummary feedback = workload->name() == "feedback_fleet"
                                       ? own
                                       : probe(*find_workload("feedback_fleet"), nullptr);
    const std::vector<acf::can::CanFrame> frames = capture.frames();
    const std::string replay_note = "replay of " + std::to_string(frames.size()) +
                                    " frames captured by probe:" + std::string(capturer.name());
    const ReplayFigures replay = run_replays(frames);
    metrics = per_layer(reps, frame_path, ids, feedback, replay, replay_note);
    print_cycles(reps);
    for (const Rep& rep : reps) spans.insert(spans.end(), rep.spans.begin(), rep.spans.end());
  }

  // Correctness: every repetition against the first one (an untraced
  // program campaign) and the expected digest.
  const Rep& reference = reps.front();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    judge(reps[i], reference, options.expect_digest,
          std::string(flavor_name(reps[i].flavor)) + " campaign " + std::to_string(i),
          verdict);
  }

  const CpuTicks ticks_at_end = cpu_ticks();
  const std::uint64_t ticks = ticks_at_end.total - ticks_at_start.total;
  const double steal_frac =
      ticks ? static_cast<double>(ticks_at_end.steal - ticks_at_start.steal) /
                  static_cast<double>(ticks)
            : 0.0;
  std::printf("context: {\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, "
              "\"threads\": %u, \"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
              "\"cxx_flags\": %s, \"cpu\": %s, \"commit\": %s, \"trials_per_campaign\": %zu, "
              "\"host_steal_frac\": %.4f}\n",
              json_string(options.workload).c_str(), options.seed, options.trace ? 1 : 0,
              kThreads, std::thread::hardware_concurrency(),
              json_string(
#ifdef __clang__
                  std::string("clang ") + __clang_version__
#else
                  std::string("gcc ") + __VERSION__
#endif
                  )
                  .c_str(),
              json_string(BENCH_BUILD_TYPE).c_str(), json_string(BENCH_CXX_FLAGS).c_str(),
              json_string(cpu_model()).c_str(), json_string(options.commit).c_str(),
              plan.trial_count(), steal_frac);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    std::printf("campaign %2zu %-8s %8.3f s (%.3f s lost)  %12" PRIu64
                " frames  %12.0f frames/s  digest %s\n",
                i, flavor_name(rep.flavor), rep.wall_s, rep.lost_s, rep.frames,
                frames_per_s(rep), hex64(rep.digest).c_str());
  }
  if (options.expect_digest) {
    std::printf("digest %s, expected %s: %s\n", hex64(reference.digest).c_str(),
                hex64(*options.expect_digest).c_str(),
                reference.digest == *options.expect_digest ? "match" : "MISMATCH");
  } else {
    std::printf("digest %s (no expected digest for this seed; repetitions checked against "
                "each other)\n",
                hex64(reference.digest).c_str());
  }
  std::printf("failed_frac %.6f (%zu of %zu trials)\n",
              verdict.attempted ? static_cast<double>(verdict.failed) /
                                      static_cast<double>(verdict.attempted)
                                : 0.0,
              verdict.failed, verdict.attempted);
  for (const std::string& problem : verdict.problems) std::printf("FAILED: %s\n", problem.c_str());
  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  print_metrics(metrics);

  if (!options.out_dir.empty()) {
    const std::string stem = options.workload + "-seed" + std::to_string(options.seed) +
                             "-trace" + std::to_string(options.trace ? 1 : 0);
    std::ofstream(options.out_dir + "/outcomes-" + stem + ".jsonl", std::ios::binary)
        << reference.jsonl;
    std::ofstream trials(options.out_dir + "/trials-" + stem + ".csv");
    trials << "campaign,flavor,trial,build_ns,wall_ns,cpu_ns,fuzz_frames\n";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      for (const TrialRecord& record : reps[i].records) {
        trials << i << ',' << flavor_name(reps[i].flavor) << ',' << record.index << ',' << record.build_ns()
               << ',' << record.wall_ns() << ',' << record.cpu_ns() << ',' << record.fuzz_frames
               << '\n';
      }
    }
  }
  if (!options.out_dir.empty() && options.trace) {
    const std::string path = options.out_dir + "/spans-" + options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace1.jsonl";
    if (!write_spans(path, spans)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              verdict.correct ? "true" : "false", verdict.attempted, verdict.failed,
              metrics_json(metrics).c_str());
  return verdict.correct ? 0 : 1;
}

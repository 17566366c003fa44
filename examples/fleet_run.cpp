// fleet_run: CLI driver for the fleet orchestrator.  Shards N replicas of
// the paper's Table V unlock trial (both predicates) across a worker pool,
// prints per-arm mean / 95% CI / median, and optionally exports the full
// per-trial trajectory as JSONL.  Same seed + same runs => byte-identical
// statistics and JSONL at any --threads value.
//
// In-process:    fleet_run --runs 50 --threads 8 --seed 0xACF --jsonl t.jsonl
// Distributed:   fleet_run --runs 50 --serve 0 --workers 3 --jsonl t.jsonl
//   (the coordinator forks 3 worker processes of this same binary; statistics
//    and JSONL come out byte-identical to the in-process run)
// Hand-rolled:   fleet_run --runs 50 --serve 4710   on one terminal, then
//                fleet_run --runs 50 --connect 127.0.0.1:4710   on others —
//   every process must be given the same campaign flags (--runs/--seed/
//   --budget-hours/--fast-world); the handshake fingerprint rejects drift.
#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/report.hpp"
#include "attacks/attack_world.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/executor.hpp"
#include "fleet/jsonl.hpp"
#include "fleet/remote/coordinator.hpp"
#include "fleet/remote/worker.hpp"
#include "feedback/worlds.hpp"
#include "fleet/worlds.hpp"
#include "metrics/metrics.hpp"
#include "metrics/snapshot.hpp"

using namespace acf;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--runs N] [--threads T] [--seed S] [--budget-hours H]\n"
               "          [--jsonl PATH|-] [--fast-world] [--attacks]\n"
               "          [--feedback [--corpus-dir DIR]]\n"
               "          [--serve PORT [--workers K]] [--connect HOST:PORT]\n"
               "          [--checkpoint PATH] [--stop-after N] [--kill-worker-after N]\n"
               "          [--metrics-out PATH] [--metrics-interval N]\n"
               "  --runs N         replicas per arm (default 12)\n"
               "  --threads T      worker threads (default: hardware concurrency)\n"
               "  --seed S         base seed; trial seeds derive via SplitMix64\n"
               "  --budget-hours H per-trial simulated-time budget (default 24)\n"
               "  --jsonl PATH     write one JSON object per trial (- = stdout)\n"
               "  --fast-world     reduced-window unlock world (CI / smoke scale)\n"
               "  --attacks        attack-scenario catalog: one arm per family, IDS\n"
               "                   pipeline on the observed bus, per-(attack, detector)\n"
               "                   evaluation matrix in the report\n"
               "  --feedback       coverage-guided campaigns: novelty-map feedback\n"
               "                   drives the mutator (weak + hardened predicate arms)\n"
               "  --corpus-dir D   with --feedback: seed every trial from D/seed.corpus\n"
               "                   (if present) and write each trial's final corpus to\n"
               "                   D/trial-<index>.corpus\n"
               "  --serve PORT     run as campaign coordinator (0 = ephemeral port)\n"
               "  --workers K      with --serve: fork K worker processes of this binary\n"
               "  --connect H:P    run as campaign worker against a coordinator\n"
               "  --checkpoint P   coordinator: persist progress; resume if P exists\n"
               "  --stop-after N   coordinator: checkpoint and exit after N trials\n"
               "  --kill-worker-after N  SIGKILL the first forked worker after N\n"
               "                   completions (crash-tolerance smoke)\n"
               "  --metrics-out P  stream acf-metrics-v1 JSONL snapshots to P (- = stderr);\n"
               "                   the final line carries the campaign totals\n"
               "  --metrics-interval N  snapshot line every N completed trials\n"
               "                   (default 10; 0 = final line only)\n",
               argv0);
}

struct Options {
  std::size_t runs = 12;
  unsigned threads = 0;
  std::uint64_t seed = 0xACF17EE7ULL;
  long budget_hours = 24;
  const char* jsonl_path = nullptr;
  bool fast_world = false;
  bool attacks = false;
  bool feedback = false;
  std::string corpus_dir;
  bool serve = false;
  std::uint16_t serve_port = 0;
  std::size_t workers = 0;
  std::string connect_host;
  std::uint16_t connect_port = 0;
  std::string checkpoint;
  std::size_t stop_after = 0;
  std::size_t kill_worker_after = 0;
  const char* metrics_path = nullptr;
  std::size_t metrics_interval = 10;
};

struct Campaign {
  fleet::TrialPlan plan;
  fleet::WorldFactory factory;
  std::string world_tag;
};

/// Both sides of the socket rebuild the identical campaign from their own
/// flags; only the fingerprint crosses the wire.  A non-null registry is
/// threaded into the world factory so every trial publishes its scheduler /
/// bus totals; it must outlive every world the factory builds.
Campaign build_campaign(const Options& options, metrics::Registry* registry = nullptr) {
  if (options.attacks) {
    // The scenario catalog: one arm per attack family against the full
    // vehicle, each trial shipping its IDS evaluation back as digest
    // findings, so the merged matrix is identical in-process and remote.
    std::vector<attacks::AttackArm> arms = attacks::standard_attack_arms();
    std::vector<std::string> labels;
    for (const attacks::AttackArm& arm : arms) labels.push_back(arm.label);
    return {fleet::TrialPlan(labels, options.runs, options.seed),
            attacks::attack_world_factory(std::move(arms), registry), "attacks"};
  }
  if (options.feedback) {
    // Coverage-guided campaigns on the unlock testbench: same two predicate
    // arms as the blind-random default, but each trial is one complete
    // feedback loop (novelty map -> corpus -> sequence mutator).
    feedback::FeedbackArm weak;  // predicate defaults to single_id_and_byte
    feedback::FeedbackArm hardened;
    hardened.config.predicate = vehicle::UnlockPredicate::id_byte_and_length();
    return {fleet::TrialPlan({"feedback weak", "feedback hardened"}, options.runs,
                             options.seed, std::chrono::hours(options.budget_hours)),
            feedback::feedback_world_factory({weak, hardened}, registry,
                                             options.corpus_dir),
            "unlock-feedback"};
  }
  if (options.fast_world) {
    fuzzer::FuzzConfig fast = fuzzer::FuzzConfig::around_id(0x215, 3);
    fast.tx_period = std::chrono::microseconds(250);
    return {fleet::TrialPlan({"weak", "hardened"}, options.runs, options.seed),
            fleet::unlock_world_factory(
                {{vehicle::UnlockPredicate::single_id_and_byte(), fast,
                  std::chrono::minutes(5)},
                 {vehicle::UnlockPredicate::id_byte_and_length(), fast,
                  std::chrono::minutes(5)}},
                registry),
            "unlock-fast"};
  }
  return {fleet::TrialPlan({"Single id and byte", "Single id, byte plus data length"},
                           options.runs, options.seed,
                           std::chrono::hours(options.budget_hours)),
          fleet::unlock_world_factory(
              {{vehicle::UnlockPredicate::single_id_and_byte()},
               {vehicle::UnlockPredicate::id_byte_and_length()}},
              registry),
          "unlock"};
}

/// Owns the --metrics-out plumbing for one process: the registry every layer
/// publishes into, the output stream, and the JSONL writer.  Declared before
/// the Campaign in each driver so the registry outlives the worlds.
struct MetricsSink {
  metrics::Registry registry;
  std::ofstream file;
  std::optional<metrics::SnapshotWriter> writer;

  /// Opens `path` ("-" = stderr) and arms the writer; returns false (with a
  /// message) when the file cannot be created.
  bool open(const char* path, const std::string& source) {
    if (std::strcmp(path, "-") == 0) {
      writer.emplace(std::cerr, source);
      return true;
    }
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "fleet_run: cannot open %s\n", path);
      return false;
    }
    writer.emplace(file, source);
    return true;
  }

  /// Final campaign totals: one closing snapshot line plus an operator table
  /// on stderr.  `snap` is the merged fleet-wide view for the distributed
  /// path, or the local registry's snapshot otherwise.
  void finish(const metrics::RegistrySnapshot& snap) {
    double sim_seconds = 0.0;
    for (const auto& timer : snap.timers)
      if (timer.name == "fleet.trial.sim_seconds") sim_seconds = timer.sum;
    if (writer) writer->write(snap, sim_seconds);
    std::fprintf(stderr, "%s", metrics::render_table(snap).c_str());
  }
};

int report_and_export(const Campaign& campaign, const std::vector<fleet::TrialOutcome>& outcomes,
                      const Options& options) {
  const fleet::FleetReport report = fleet::aggregate(campaign.plan, outcomes);

  analysis::TextTable table({"Arm", "n", "Detected", "Timeout", "Error", "Mean (s)",
                             "95% CI (s)", "Median (s)"});
  for (const fleet::ArmReport& arm : report.arms) {
    const util::Interval ci = arm.ci95();
    std::string ci_cell = "[";
    ci_cell += analysis::format_number(ci.lo, 1);
    ci_cell += ", ";
    ci_cell += analysis::format_number(ci.hi, 1);
    ci_cell += "]";
    table.add_row({arm.label, std::to_string(arm.trials), std::to_string(arm.detected),
                   std::to_string(arm.timeouts), std::to_string(arm.errors),
                   analysis::format_number(arm.time_to_failure.mean(), 1), ci_cell,
                   analysis::format_number(arm.median(), 1)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("total frames sent: %llu across %zu trials (%zu errors)\n",
              static_cast<unsigned long long>(report.frames_sent), report.trials,
              report.errors);

  if (campaign.world_tag == "attacks") {
    // Per-(attack, detector) matrix, rebuilt from the outcomes' digest
    // findings — the same numbers whether the outcomes came from the local
    // executor or from remote workers.
    const std::vector<ids::ArmIdsReport> evals =
        ids::merge_outcome_evals(campaign.plan, outcomes);
    for (const ids::ArmIdsReport& arm : evals) {
      std::printf("Attack \"%s\": %zu trials, %llu attack / %llu legitimate frames\n",
                  arm.label.c_str(), arm.trials,
                  static_cast<unsigned long long>(arm.attack_frames),
                  static_cast<unsigned long long>(arm.legit_frames));
      analysis::TextTable matrix(
          {"Detector", "Prec", "Recall", "F1", "FPR", "AUC", "Detected"});
      for (const ids::ArmIdsReport::PerDetector& det : arm.detectors) {
        matrix.add_row({det.merged.name, analysis::format_number(det.merged.precision(), 3),
                        analysis::format_number(det.merged.recall(), 3),
                        analysis::format_number(det.merged.f1(), 3),
                        analysis::format_number(det.merged.false_positive_rate(), 4),
                        analysis::format_number(det.merged.auc(), 3),
                        std::to_string(det.trials_detected) + "/" +
                            std::to_string(arm.trials)});
      }
      std::printf("%s\n", matrix.to_string().c_str());
    }
  }

  if (options.jsonl_path) {
    if (std::strcmp(options.jsonl_path, "-") == 0) {
      fleet::JsonlExporter(std::cout).write_all(campaign.plan, outcomes);
    } else {
      std::ofstream file(options.jsonl_path);
      if (!file) {
        std::fprintf(stderr, "fleet_run: cannot open %s\n", options.jsonl_path);
        return 1;
      }
      fleet::JsonlExporter(file).write_all(campaign.plan, outcomes);
      std::printf("wrote %zu trial records to %s\n", outcomes.size(), options.jsonl_path);
    }
  }
  return report.errors == 0 ? 0 : 1;
}

/// Fork+exec this binary as a worker against 127.0.0.1:port, forwarding the
/// campaign flags so the child rebuilds the identical plan.
pid_t spawn_worker(const Options& options, std::uint16_t port) {
  const std::string endpoint = "127.0.0.1:" + std::to_string(port);
  const std::string runs = std::to_string(options.runs);
  const std::string threads = std::to_string(options.threads);
  char seed[32];
  std::snprintf(seed, sizeof seed, "0x%llx", static_cast<unsigned long long>(options.seed));
  const std::string budget = std::to_string(options.budget_hours);

  std::vector<const char*> args = {"/proc/self/exe", "--connect", endpoint.c_str(),
                                   "--runs",         runs.c_str(), "--threads",
                                   threads.c_str(),  "--seed",     seed,
                                   "--budget-hours", budget.c_str()};
  if (options.fast_world) args.push_back("--fast-world");
  if (options.attacks) args.push_back("--attacks");
  if (options.feedback) args.push_back("--feedback");
  if (!options.corpus_dir.empty()) {
    args.push_back("--corpus-dir");
    args.push_back(options.corpus_dir.c_str());
  }
  args.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv("/proc/self/exe", const_cast<char* const*>(args.data()));
    std::perror("fleet_run: execv");
    std::_Exit(127);
  }
  return pid;
}

int run_coordinator(const Options& options) {
  MetricsSink metrics;
  const Campaign campaign = build_campaign(options);
  fleet::remote::CoordinatorConfig config;
  config.port = options.serve_port;
  config.world_tag = campaign.world_tag;
  config.checkpoint_path = options.checkpoint;
  config.stop_after_completed = options.stop_after;
  if (options.fast_world) {
    // Smoke scale: steal from a SIGKILLed worker within a second.
    config.lease_ttl = std::chrono::milliseconds(1'000);
    config.max_batch = 2;
  }
  if (options.metrics_path) {
    if (!metrics.open(options.metrics_path, "coordinator")) return 1;
    config.registry = &metrics.registry;
    config.snapshot_writer = &*metrics.writer;
    config.snapshot_interval = options.metrics_interval;
  }

  fleet::remote::Coordinator coordinator(campaign.plan, config);
  std::printf("fleet_run: serving %zu trials (%zu arms x %zu replicas) on 127.0.0.1:%u\n",
              campaign.plan.trial_count(), campaign.plan.arm_count(),
              campaign.plan.replicas(), coordinator.port());
  if (coordinator.stats().resumed_done > 0 || coordinator.stats().resumed_leased > 0) {
    std::printf("fleet_run: resumed checkpoint: %zu done, %zu re-queued in-flight\n",
                coordinator.stats().resumed_done, coordinator.stats().resumed_leased);
  }
  std::fflush(stdout);

  std::vector<pid_t> children;
  for (std::size_t i = 0; i < options.workers; ++i) {
    const pid_t pid = spawn_worker(options, coordinator.port());
    if (pid < 0) {
      std::perror("fleet_run: fork");
      return 1;
    }
    children.push_back(pid);
  }

  if (options.kill_worker_after > 0 && !children.empty()) {
    const pid_t victim = children.front();
    const std::size_t after = options.kill_worker_after;
    // `killed` lives in the closure: the coordinator invokes this callback
    // from serve(), long after this block's scope has ended.
    coordinator.set_on_trial_done([victim, after, killed = false](std::size_t done) mutable {
      if (killed || done < after) return;
      killed = true;
      std::fprintf(stderr, "fleet_run: SIGKILL worker pid %d after %zu completions\n",
                   static_cast<int>(victim), done);
      ::kill(victim, SIGKILL);
    });
  }

  fleet::ProgressReporter progress;
  if (options.metrics_path) progress.attach_registry(&metrics.registry);
  const std::vector<fleet::TrialOutcome> outcomes = coordinator.serve(&progress);

  // Campaign over (or paused): reap the children.  Workers exit on the
  // Shutdown frame; anything still alive after that gets escalated.
  for (const pid_t pid : children) {
    int status = 0;
    for (int spins = 0; spins < 100; ++spins) {
      if (::waitpid(pid, &status, WNOHANG) != 0) break;
      ::usleep(20'000);
      if (spins == 50) ::kill(pid, SIGTERM);
    }
    if (::waitpid(pid, &status, WNOHANG) == 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
  }

  const fleet::remote::CoordinatorStats& stats = coordinator.stats();
  std::printf("fleet_run: %zu/%zu trials done | leases issued %llu expired %llu "
              "released %llu | trials stolen %llu | duplicates %llu\n",
              coordinator.done_count(), campaign.plan.trial_count(),
              static_cast<unsigned long long>(stats.leases.leases_issued),
              static_cast<unsigned long long>(stats.leases.leases_expired),
              static_cast<unsigned long long>(stats.leases.leases_released),
              static_cast<unsigned long long>(stats.leases.trials_stolen),
              static_cast<unsigned long long>(stats.leases.duplicate_completions));

  // serve() already wrote the closing merged snapshot line (after the linger
  // window drained the workers' final heartbeats); here we only render the
  // operator table of that same merged view.
  if (options.metrics_path) {
    std::fprintf(stderr, "%s", metrics::render_table(coordinator.merged_metrics()).c_str());
  }

  if (options.stop_after > 0 && coordinator.done_count() < campaign.plan.trial_count()) {
    std::printf("fleet_run: paused after %zu trials; checkpoint at %s\n",
                coordinator.done_count(), options.checkpoint.c_str());
    return 0;  // an orderly pause is a success, not a failed campaign
  }
  return report_and_export(campaign, outcomes, options);
}

int run_worker(const Options& options) {
  // Workers always collect: whether the coordinator wants a merged metrics
  // view is its decision (--metrics-out on the serve side), and the
  // heartbeat totals cost next to nothing to carry.
  metrics::Registry registry;
  const Campaign campaign = build_campaign(options, &registry);
  fleet::remote::WorkerConfig config;
  config.host = options.connect_host;
  config.port = options.connect_port;
  config.threads = options.threads;
  config.world_tag = campaign.world_tag;
  config.name = "pid-" + std::to_string(static_cast<long>(::getpid()));
  config.registry = &registry;
  if (options.fast_world) config.heartbeat_period = std::chrono::milliseconds(200);

  fleet::remote::Worker worker(campaign.plan, campaign.factory, config);
  const fleet::remote::WorkerResult result = worker.run();
  std::fprintf(stderr,
               "fleet_run[%s]: %s after %zu trials, %llu leases "
               "(%llu reconnect attempts)%s%s\n",
               config.name.c_str(),
               result.exit == fleet::remote::WorkerExit::kCampaignComplete ? "complete"
               : result.exit == fleet::remote::WorkerExit::kCoordinatorPaused ? "paused"
               : result.exit == fleet::remote::WorkerExit::kRejected          ? "rejected"
               : result.exit == fleet::remote::WorkerExit::kCancelled        ? "cancelled"
                                                                              : "gave up",
               result.trials_run, static_cast<unsigned long long>(result.leases_served),
               static_cast<unsigned long long>(result.reconnect.attempts),
               result.message.empty() ? "" : ": ", result.message.c_str());
  return (result.exit == fleet::remote::WorkerExit::kCampaignComplete ||
          result.exit == fleet::remote::WorkerExit::kCoordinatorPaused)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const auto take = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* runs_arg = take("--runs")) {
      options.runs = static_cast<std::size_t>(std::strtoul(runs_arg, nullptr, 0));
    } else if (const char* threads_arg = take("--threads")) {
      options.threads = static_cast<unsigned>(std::strtoul(threads_arg, nullptr, 0));
    } else if (const char* seed_arg = take("--seed")) {
      options.seed = std::strtoull(seed_arg, nullptr, 0);
    } else if (const char* budget_arg = take("--budget-hours")) {
      options.budget_hours = std::strtol(budget_arg, nullptr, 0);
    } else if (const char* jsonl_arg = take("--jsonl")) {
      options.jsonl_path = jsonl_arg;
    } else if (std::strcmp(argv[i], "--fast-world") == 0) {
      options.fast_world = true;
    } else if (std::strcmp(argv[i], "--attacks") == 0) {
      options.attacks = true;
    } else if (std::strcmp(argv[i], "--feedback") == 0) {
      options.feedback = true;
    } else if (const char* corpus_arg = take("--corpus-dir")) {
      options.corpus_dir = corpus_arg;
    } else if (const char* serve_arg = take("--serve")) {
      options.serve = true;
      options.serve_port = static_cast<std::uint16_t>(std::strtoul(serve_arg, nullptr, 0));
    } else if (const char* workers_arg = take("--workers")) {
      options.workers = static_cast<std::size_t>(std::strtoul(workers_arg, nullptr, 0));
    } else if (const char* connect_arg = take("--connect")) {
      const char* colon = std::strrchr(connect_arg, ':');
      if (colon == nullptr || colon == connect_arg) {
        usage(argv[0]);
        return 2;
      }
      options.connect_host.assign(connect_arg, static_cast<std::size_t>(colon - connect_arg));
      options.connect_port = static_cast<std::uint16_t>(std::strtoul(colon + 1, nullptr, 0));
    } else if (const char* checkpoint_arg = take("--checkpoint")) {
      options.checkpoint = checkpoint_arg;
    } else if (const char* stop_arg = take("--stop-after")) {
      options.stop_after = static_cast<std::size_t>(std::strtoul(stop_arg, nullptr, 0));
    } else if (const char* kill_arg = take("--kill-worker-after")) {
      options.kill_worker_after =
          static_cast<std::size_t>(std::strtoul(kill_arg, nullptr, 0));
    } else if (const char* metrics_arg = take("--metrics-out")) {
      options.metrics_path = metrics_arg;
    } else if (const char* metrics_interval_arg = take("--metrics-interval")) {
      options.metrics_interval =
          static_cast<std::size_t>(std::strtoul(metrics_interval_arg, nullptr, 0));
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (options.runs == 0 || options.budget_hours <= 0 ||
      (options.serve && !options.connect_host.empty()) ||
      (!options.corpus_dir.empty() && !options.feedback) ||
      (options.feedback && options.fast_world) ||
      (options.attacks && (options.feedback || options.fast_world))) {
    usage(argv[0]);
    return 2;
  }

  if (options.serve) return run_coordinator(options);
  if (!options.connect_host.empty()) return run_worker(options);

  MetricsSink metrics;
  if (options.metrics_path && !metrics.open(options.metrics_path, "local")) return 1;
  const Campaign campaign =
      build_campaign(options, options.metrics_path ? &metrics.registry : nullptr);
  fleet::ExecutorConfig executor_config;
  executor_config.threads = options.threads;
  if (options.metrics_path) {
    executor_config.registry = &metrics.registry;
    executor_config.snapshot_writer = &*metrics.writer;
    executor_config.snapshot_interval = options.metrics_interval;
  }
  fleet::Executor executor(executor_config);
  fleet::ProgressReporter progress;
  if (options.metrics_path) progress.attach_registry(&metrics.registry);
  std::printf("fleet_run: %zu trials (%zu arms x %zu replicas), %u threads, seed 0x%llx\n",
              campaign.plan.trial_count(), campaign.plan.arm_count(),
              campaign.plan.replicas(), executor.effective_threads(campaign.plan.trial_count()),
              static_cast<unsigned long long>(options.seed));
  const std::vector<fleet::TrialOutcome> outcomes =
      executor.run(campaign.plan, campaign.factory, &progress);
  if (options.metrics_path) metrics.finish(metrics.registry.snapshot());
  return report_and_export(campaign, outcomes, options);
}

// Simulation-core perf harness.
//
// Named microbenches over the discrete-event core — scheduler
// schedule/cancel/dispatch, bus broadcast fan-out, and the end-to-end
// unlock-world frames/sec that bounds every Table V-style campaign — each
// run K times with the median wall time reported, emitted as
// BENCH_simcore.json so future PRs have a trajectory to gate against.
//
//   bench_micro [--json PATH] [--repeats K] [--quick] [--only NAME]
//
// The two world benches also compute a trace digest per repeat (the unlock
// world's bus, and both buses of the two-bus vehicle) and the harness
// reports `deterministic: false` (and exits non-zero) if repeats disagree —
// the CI perf-smoke leg gates on crash/nondeterminism only, never on wall
// time, so the leg cannot flake with machine load.  The JSON records the
// compiler, build type, flags, CPU model and git commit it was made with, so
// numbers from different builds or hosts are never compared silently.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "sim/scheduler.hpp"
#include "trace/candump_log.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/fnv.hpp"
#include "vehicle/vehicle.hpp"

namespace {

using namespace acf;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Pre-PR reference: the same harness run against the std::function +
// priority_queue scheduler and per-listener bus delivery, measured on the
// development container immediately before the allocation-free core landed.
// Kept in BENCH_simcore.json so the 3x acceptance gate and future perf PRs
// have a fixed origin to compare against.
struct BaselineRef {
  const char* name;
  double rate;  // items/s on the pre-PR core
};
constexpr BaselineRef kPrePrBaseline[] = {
    {"sched_schedule_dispatch", 1.045e6},  // events/s
    {"sched_cancel", 7.28e5},              // cancels/s
    {"sched_periodic_storm", 7.79e6},      // events/s
    {"bus_broadcast_fanout", 1.176e7},     // deliveries/s
    {"unlock_world_e2e", 902663.0},        // frames/s — the 3x acceptance gate
    {"vehicle_sim", 6.13e5},               // frames/s
};

double pre_pr_rate(const std::string& name) {
  for (const BaselineRef& ref : kPrePrBaseline) {
    if (name == ref.name) return ref.rate;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Harness plumbing.

struct BenchResult {
  std::string name;
  std::string unit;           // what `rate` counts per second
  double median_wall_s = 0;
  double items = 0;           // per repeat
  double rate = 0;            // items / median_wall_s
  double sim_seconds_per_wall_second = 0;  // end-to-end benches only
  std::uint64_t trace_digest = 0;          // 0 = bench has no digest
  bool deterministic = true;
};

struct RepeatOutcome {
  double wall_s = 0;
  double items = 0;
  double sim_seconds = 0;
  std::uint64_t digest = 0;
};

BenchResult run_bench(const std::string& name, const std::string& unit, int repeats,
                      const std::function<RepeatOutcome()>& body) {
  std::vector<RepeatOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) outcomes.push_back(body());

  std::vector<double> walls;
  for (const RepeatOutcome& o : outcomes) walls.push_back(o.wall_s);
  std::sort(walls.begin(), walls.end());
  const double median = walls[walls.size() / 2];

  BenchResult result;
  result.name = name;
  result.unit = unit;
  result.median_wall_s = median;
  result.items = outcomes.front().items;
  result.rate = median > 0 ? result.items / median : 0;
  if (outcomes.front().sim_seconds > 0 && median > 0) {
    result.sim_seconds_per_wall_second = outcomes.front().sim_seconds / median;
  }
  result.trace_digest = outcomes.front().digest;
  for (const RepeatOutcome& o : outcomes) {
    if (o.digest != result.trace_digest || o.items != result.items) {
      result.deterministic = false;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Benches.

/// Scheduler: N one-shots at scattered times, drained in order.
RepeatOutcome bench_sched_schedule_dispatch(std::size_t events) {
  sim::Scheduler scheduler;
  std::uint64_t executed = 0;
  const auto start = Clock::now();
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < events; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto when = sim::SimTime{static_cast<std::int64_t>(state % 1'000'000'000)};
    scheduler.schedule_at(when, [&executed] { ++executed; });
  }
  scheduler.run_until(sim::SimTime{1'000'000'001});
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  return {wall, static_cast<double>(executed), 0, 0};
}

/// Scheduler: schedule N, cancel every other one, drain the rest.
RepeatOutcome bench_sched_cancel(std::size_t events) {
  sim::Scheduler scheduler;
  std::uint64_t executed = 0;
  std::vector<sim::EventId> ids;
  ids.reserve(events);
  const auto start = Clock::now();
  std::uint64_t state = 0xC0FFEE123456789ULL;
  for (std::size_t i = 0; i < events; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto when = sim::SimTime{static_cast<std::int64_t>(state % 1'000'000'000)};
    ids.push_back(scheduler.schedule_at(when, [&executed] { ++executed; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) scheduler.cancel(ids[i]);
  scheduler.run_until(sim::SimTime{1'000'000'001});
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  return {wall, static_cast<double>(events), 0, 0};  // items = schedule+cancel ops
}

/// Scheduler: a storm of periodic events (the ECU tick pattern).
RepeatOutcome bench_sched_periodic_storm(std::size_t timers, sim::Duration horizon) {
  sim::Scheduler scheduler;
  std::uint64_t executed = 0;
  for (std::size_t i = 0; i < timers; ++i) {
    const auto period = std::chrono::microseconds(100 + 37 * (i % 64));
    scheduler.schedule_every(period, [&executed] { ++executed; });
  }
  const auto start = Clock::now();
  scheduler.run_for(horizon);
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  return {wall, static_cast<double>(executed), sim::to_seconds(horizon), 0};
}

/// Bus: one transmitter saturating the wire, seven receivers.
RepeatOutcome bench_bus_broadcast_fanout(std::size_t frames) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  transport::VirtualBusTransport tx(bus, "tx");
  std::vector<std::unique_ptr<transport::VirtualBusTransport>> receivers;
  for (int i = 0; i < 7; ++i) {
    receivers.push_back(
        std::make_unique<transport::VirtualBusTransport>(bus, "rx" + std::to_string(i)));
  }
  const auto frame = can::CanFrame::data_std(0x100, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto start = Clock::now();
  std::size_t submitted = 0;
  while (submitted < frames) {
    // Keep the queue topped up without overflowing the mailbox limit.
    while (submitted < frames && bus.pending(tx.node_id()) < 32) {
      tx.send(frame);
      ++submitted;
    }
    scheduler.run_for(std::chrono::milliseconds(10));
  }
  scheduler.run_for(std::chrono::milliseconds(100));
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  return {wall, static_cast<double>(bus.stats().deliveries), 0, 0};
}

/// End-to-end: the Table V unlock world (bench rig + 1 kHz fuzz + oracle).
/// items = frames delivered on the bus; also reports sim-s/wall-s and an
/// order-and-timing-sensitive digest of the first 2 s of bus traffic.
RepeatOutcome bench_unlock_world(sim::Duration horizon) {
  RepeatOutcome outcome;
  {  // Digest pass (short, with a capture tap): determinism evidence.
    sim::Scheduler scheduler;
    vehicle::UnlockTestbench bench(scheduler);
    trace::CaptureTap tap(bench.bus(), "digest-tap");
    transport::VirtualBusTransport attacker(bench.bus(), "attacker");
    fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::full_random(0xD16E57));
    fuzzer::CampaignConfig config;
    config.max_duration = std::chrono::seconds(2);
    config.stop_on_failure = false;
    config.record_suspicious = false;
    fuzzer::FuzzCampaign campaign(scheduler, attacker, generator, nullptr, config);
    campaign.run();
    std::uint64_t digest = util::kFnv1aOffset;
    for (const trace::TimestampedFrame& entry : tap.frames()) {
      digest = util::fnv1a(digest, trace::to_candump_line(entry));
    }
    outcome.digest = digest;
  }
  {  // Timed pass (no tap).
    sim::Scheduler scheduler;
    vehicle::UnlockTestbench bench(scheduler);
    transport::VirtualBusTransport attacker(bench.bus(), "attacker");
    fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::full_random(0xD16E57));
    fuzzer::CampaignConfig config;
    config.max_duration = horizon;
    config.stop_on_failure = false;
    config.record_suspicious = false;
    fuzzer::FuzzCampaign campaign(scheduler, attacker, generator, nullptr, config);
    const auto start = Clock::now();
    campaign.run();
    outcome.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    outcome.items = static_cast<double>(bench.bus().stats().frames_delivered);
    outcome.sim_seconds = sim::to_seconds(horizon);
  }
  return outcome;
}

/// End-to-end: the full two-bus vehicle idling through its drive cycle.
/// Also reports a digest of the first 2 s of both buses' traffic
/// (powertrain as can0, then body as can1).
RepeatOutcome bench_vehicle_sim(sim::Duration horizon) {
  RepeatOutcome outcome;
  {  // Digest pass (short, with a capture tap per bus): determinism evidence.
    sim::Scheduler scheduler;
    vehicle::Vehicle car(scheduler);
    trace::CaptureTap powertrain_tap(car.powertrain_bus(), "digest-pt");
    trace::CaptureTap body_tap(car.body_bus(), "digest-body");
    scheduler.run_for(std::chrono::seconds(2));
    std::uint64_t digest = util::kFnv1aOffset;
    for (const trace::TimestampedFrame& entry : powertrain_tap.frames()) {
      digest = util::fnv1a(digest, trace::to_candump_line(entry, "can0"));
    }
    for (const trace::TimestampedFrame& entry : body_tap.frames()) {
      digest = util::fnv1a(digest, trace::to_candump_line(entry, "can1"));
    }
    outcome.digest = digest;
  }
  {  // Timed pass (no taps).
    sim::Scheduler scheduler;
    vehicle::Vehicle car(scheduler);
    const auto start = Clock::now();
    scheduler.run_for(horizon);
    outcome.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    outcome.items = static_cast<double>(car.powertrain_bus().stats().frames_delivered +
                                        car.body_bus().stats().frames_delivered);
    outcome.sim_seconds = sim::to_seconds(horizon);
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Run context.

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
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

/// The source tree's commit (with `-dirty` for uncommitted changes), or
/// "unknown" outside a git checkout.
std::string source_commit() {
  const std::string command =
      "git -C \"" ACF_SOURCE_DIR "\" describe --always --dirty --abbrev=12 2>/dev/null";
  std::string out;
  if (FILE* pipe = ::popen(command.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

// ---------------------------------------------------------------------------
// JSON emission (no dependency; the schema is consumed by CI and humans).

void append_json_double(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out += buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string to_json(const std::vector<BenchResult>& results) {
  std::string out = "{\n  \"schema\": \"acf-simcore-bench-v1\",\n";
  out += "  \"context\": {\"compiler\": " + json_string(compiler_name()) +
         ", \"build_type\": " + json_string(ACF_BENCH_BUILD_TYPE) +
         ", \"cxx_flags\": " + json_string(ACF_BENCH_CXX_FLAGS) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"commit\": " + json_string(source_commit()) + "},\n";
  out += "  \"benches\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out += "    {\"name\": \"" + r.name + "\", \"unit\": \"" + r.unit + "\"";
    out += ", \"median_wall_s\": ";
    append_json_double(out, r.median_wall_s);
    out += ", \"items\": ";
    append_json_double(out, r.items);
    out += ", \"rate\": ";
    append_json_double(out, r.rate);
    if (r.sim_seconds_per_wall_second > 0) {
      out += ", \"sim_seconds_per_wall_second\": ";
      append_json_double(out, r.sim_seconds_per_wall_second);
    }
    if (r.trace_digest != 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "\"0x%016" PRIx64 "\"", r.trace_digest);
      out += ", \"trace_digest\": ";
      out += buf;
    }
    out += std::string(", \"deterministic\": ") + (r.deterministic ? "true" : "false");
    out += "}";
    if (i + 1 < results.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n";
  const double baseline = pre_pr_rate("unlock_world_e2e");
  out += "  \"pre_pr_baseline\": {\"unlock_world_e2e_rate\": ";
  append_json_double(out, baseline);
  out += ", \"note\": \"pre-refactor core (std::function + priority_queue scheduler), "
         "same harness, same container\"}";
  for (const BenchResult& r : results) {
    if (r.name == "unlock_world_e2e" && baseline > 0) {
      out += ",\n  \"speedup_unlock_world_vs_pre_pr\": ";
      append_json_double(out, r.rate / baseline);
    }
  }
  out += "\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_simcore.json";
  std::string only;
  int repeats = 5;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      repeats = std::min(repeats, 3);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  const std::size_t sched_events = quick ? 100'000 : 400'000;
  const auto storm_horizon = quick ? std::chrono::seconds(5) : std::chrono::seconds(20);
  const std::size_t fanout_frames = quick ? 20'000 : 60'000;
  const auto unlock_horizon = quick ? std::chrono::seconds(5) : std::chrono::seconds(20);
  const auto vehicle_horizon = quick ? std::chrono::seconds(3) : std::chrono::seconds(10);

  struct Spec {
    const char* name;
    const char* unit;
    std::function<RepeatOutcome()> body;
  };
  const Spec specs[] = {
      {"sched_schedule_dispatch", "events/s",
       [&] { return bench_sched_schedule_dispatch(sched_events); }},
      {"sched_cancel", "ops/s", [&] { return bench_sched_cancel(sched_events); }},
      {"sched_periodic_storm", "events/s",
       [&] { return bench_sched_periodic_storm(200, storm_horizon); }},
      {"bus_broadcast_fanout", "deliveries/s",
       [&] { return bench_bus_broadcast_fanout(fanout_frames); }},
      {"unlock_world_e2e", "frames/s", [&] { return bench_unlock_world(unlock_horizon); }},
      {"vehicle_sim", "frames/s", [&] { return bench_vehicle_sim(vehicle_horizon); }},
  };

  std::vector<BenchResult> results;
  bool all_deterministic = true;
  for (const Spec& spec : specs) {
    if (!only.empty() && only != spec.name) continue;
    BenchResult result = run_bench(spec.name, spec.unit, repeats, spec.body);
    std::printf("%-26s %12.0f %-13s median %8.4fs", result.name.c_str(), result.rate,
                result.unit.c_str(), result.median_wall_s);
    if (result.sim_seconds_per_wall_second > 0) {
      std::printf("  (%.0fx real time)", result.sim_seconds_per_wall_second);
    }
    if (!result.deterministic) {
      std::printf("  NONDETERMINISTIC");
      all_deterministic = false;
    }
    std::printf("\n");
    results.push_back(std::move(result));
  }

  const std::string json = to_json(results);
  if (FILE* f = std::fopen(json_path.c_str(), "wb")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 2;
  }
  return all_deterministic ? 0 : 1;
}

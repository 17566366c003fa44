// The benchmark's three fleet workloads.
//
//  - table5_fleet:   the paper's Table V plan (two unlock predicates, blind
//                    full-random fuzz at 1 ms, stop at the first unlock)
//                    through fleet::unlock_world_factory.
//  - vehicle_ids:    equal-length trials of the two-bus vehicle, each bus
//                    watched by a trained-then-frozen ids::Pipeline and a
//                    SignalPlausibilityOracle, targeted fuzz through the
//                    OBD port; built here from the simulator's public classes.
//  - feedback_fleet: short coverage-guided campaigns through
//                    feedback::feedback_world_factory, stop at first unlock.
//
// Each workload gives a plan (a pure function of the workload seed), an
// untraced factory (the program's own worlds) and a traced factory whose
// worlds time the layers through the decorators in layers.hpp.  The traced
// worlds must produce byte-identical outcomes; the digest gate checks it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "can/frame.hpp"
#include "fleet/trial.hpp"
#include "fleet/trial_plan.hpp"

namespace acf::metrics {
class Registry;
}

namespace campaign_bench {

/// Frames captured by the leading trials of a traced campaign, replayed
/// through the codec and DBC layers in isolation.  Trials deposit into
/// their own slot, so the result is in trial order whatever the threads do.
class Capture {
 public:
  void add(std::size_t trial, std::vector<acf::can::CanFrame> frames);
  /// The deposited frames, concatenated in trial-index order.
  std::vector<acf::can::CanFrame> frames() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::size_t, std::vector<acf::can::CanFrame>> by_trial_;
};

/// Trials (indices 0..kCaptureTrials-1) that capture, and the frames each keeps.
inline constexpr std::size_t kCaptureTrials = 4;
inline constexpr std::size_t kCaptureFramesPerTrial = 12'500;

/// Plan sizes: `kFull` is the measured campaign, `kSmall` the probe and
/// self-test size.
enum class Size { kFull, kSmall };

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string_view name() const = 0;
  /// Whether the traced factory builds worlds that time the per-frame
  /// layers (transport, fuzzer, oracle, scheduler).
  virtual bool decorates_frame_path() const = 0;

  /// The trial plan for `seed`; a pure function of (seed, size).
  virtual acf::fleet::TrialPlan plan(std::uint64_t seed, Size size) const = 0;

  /// Worlds for one campaign.  `registry` receives the worlds' end-of-trial
  /// metrics and must outlive them; `capture`, when non-null and traced,
  /// receives the frames of trial 0.
  virtual acf::fleet::WorldFactory factory(bool traced, acf::metrics::Registry* registry,
                                           Capture* capture) const = 0;

  /// Untraced worlds of the benchmark's twin of a program world that the
  /// traced factory replaces, or an empty factory when there is none.
  virtual acf::fleet::WorldFactory untraced_twin(acf::metrics::Registry*) const { return {}; }

  /// Frames a finished campaign delivered on its simulated buses.
  virtual std::uint64_t frames(acf::metrics::Registry& registry,
                               std::span<const acf::fleet::TrialOutcome> outcomes) const = 0;

  /// The workload's own correctness rule for one outcome (the digest is
  /// checked separately): the trial completed, sent every frame, and
  /// stopped for a reason the workload allows.
  virtual bool outcome_ok(const acf::fleet::TrialOutcome& outcome) const = 0;
};

/// Null for an unknown name.
const Workload* find_workload(std::string_view name);
std::vector<const Workload*> all_workloads();

/// Index-ordered JSONL of a campaign, exactly as fleet::JsonlExporter writes it.
std::string campaign_jsonl(const acf::fleet::TrialPlan& plan,
                           std::span<const acf::fleet::TrialOutcome> outcomes);

}  // namespace campaign_bench

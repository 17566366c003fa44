// Tracing seams of the campaign benchmark.
//
// Everything here sits outside the simulator: decorators that wrap the
// public interfaces a campaign calls through (CanTransport, FrameGenerator,
// Oracle, ids::Detector, fleet::WorldFactory) and time each call from the
// outside with std::chrono::steady_clock.  Fine-grained calls (one per frame)
// are folded into per-world tallies (count + total ns) so tracing a
// multi-million-frame campaign stays in bounded memory; coarse boundaries
// (campaign, trial, world build, world run, report) are kept as spans in
// memory and written out when the benchmark ends.
#pragma once

#include <time.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fleet/trial.hpp"
#include "fuzzer/generator.hpp"
#include "ids/detector.hpp"
#include "oracle/oracle.hpp"
#include "transport/transport.hpp"

namespace campaign_bench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (CLOCK_MONOTONIC on Linux, the clock run.py reads
/// before it spawns the benchmark, so the two can be subtracted).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread in nanoseconds.  On a paravirtualised
/// host the kernel leaves the hypervisor's stolen time out of it, and it
/// never counts time spent waiting for a core, so it measures the work a
/// trial did rather than how busy the machine was.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The per-call layers the traced worlds decorate.
enum class Layer : std::size_t {
  kTransportSend,
  kFuzzerNext,
  kOraclePoll,
  kIdsAllowlist,
  kIdsTiming,
  kIdsRange,
  kIdsEntropy,
  kMetricsPublish,
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Calls made and nanoseconds spent inside one decorated layer.
struct Tally {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(std::int64_t elapsed_ns) noexcept {
    ++calls;
    ns += elapsed_ns;
  }
  void merge(const Tally& other) noexcept {
    calls += other.calls;
    ns += other.ns;
  }
};

/// One world's tallies, indexed by Layer.  Owned by the world (one thread),
/// merged into the campaign totals once the trial ends.
struct LayerTallies {
  std::array<Tally, kLayerCount> by_layer{};

  Tally& operator[](Layer layer) noexcept { return by_layer[static_cast<std::size_t>(layer)]; }
  const Tally& operator[](Layer layer) const noexcept {
    return by_layer[static_cast<std::size_t>(layer)];
  }
  std::int64_t total_ns() const noexcept;
  void merge(const LayerTallies& other) noexcept;
};

/// Times every send() of the wrapped transport.
class TimedTransport final : public acf::transport::CanTransport {
 public:
  TimedTransport(acf::transport::CanTransport& inner, Tally& tally)
      : inner_(inner), tally_(tally) {}

  bool send(const acf::can::CanFrame& frame) override;
  void set_rx_callback(acf::transport::RxCallback callback) override {
    inner_.set_rx_callback(std::move(callback));
  }
  std::string name() const override { return inner_.name(); }
  const acf::transport::TransportStats& stats() const override { return inner_.stats(); }
  const acf::can::ErrorState* bus_error_state() const override {
    return inner_.bus_error_state();
  }

 private:
  acf::transport::CanTransport& inner_;
  Tally& tally_;
};

/// Times every next() of the wrapped generator; forwards its identity and
/// checkpoint state so findings and checkpoints read exactly as unwrapped.
class TimedGenerator final : public acf::fuzzer::FrameGenerator {
 public:
  TimedGenerator(acf::fuzzer::FrameGenerator& inner, Tally& tally)
      : inner_(inner), tally_(tally) {}

  std::string_view name() const override { return inner_.name(); }
  std::optional<acf::can::CanFrame> next() override;
  void rewind() override;
  std::vector<std::uint64_t> save_state() const override { return inner_.save_state(); }
  bool restore_state(std::span<const std::uint64_t> state) override;

 private:
  acf::fuzzer::FrameGenerator& inner_;
  Tally& tally_;
};

/// Times every poll() of the wrapped oracle.
class TimedOracle final : public acf::oracle::Oracle {
 public:
  TimedOracle(acf::oracle::Oracle& inner, Tally& tally) : inner_(inner), tally_(tally) {}

  std::string_view name() const override { return inner_.name(); }
  std::optional<acf::oracle::Observation> poll(acf::sim::SimTime now) override;
  void reset() override { inner_.reset(); }

 private:
  acf::oracle::Oracle& inner_;
  Tally& tally_;
};

/// Owns a detector and times every score() call; training is forwarded
/// untimed.  The threshold is copied from the wrapped detector, because the
/// pipeline reads it from the object it was given.
class TimedDetector final : public acf::ids::Detector {
 public:
  TimedDetector(std::unique_ptr<acf::ids::Detector> inner, Tally& tally);

  std::string_view name() const override { return inner_->name(); }
  void train(const acf::can::CanFrame& frame, acf::sim::SimTime time) override {
    inner_->train(frame, time);
  }
  void finalize_training() override { inner_->finalize_training(); }
  double score(const acf::can::CanFrame& frame, acf::sim::SimTime time) override;
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<acf::ids::Detector> inner_;
  Tally& tally_;
};

/// Maps a standard detector's name to its Layer (kCount if unknown).
Layer detector_layer(std::string_view detector_name) noexcept;

/// Optional interface of the benchmark-built worlds: what the trial wrapper
/// reads after run() returns.
class InstrumentedWorld {
 public:
  virtual ~InstrumentedWorld() = default;
  /// Frames delivered on every bus of the world.
  virtual std::uint64_t bus_frames() = 0;
  /// Scheduler events executed.
  virtual std::uint64_t scheduler_events() = 0;
  /// Decorated-call tallies (all zero in an untraced world).
  virtual const LayerTallies& tallies() const = 0;
};

/// A coarse span: one layer boundary of one trial (or the campaign).
struct Span {
  std::string name;
  std::uint64_t trial = 0;  // trial index; campaign-level spans use ~0
  std::uint32_t rep = 0;    // campaign repetition within the run
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string parent;  // name of the enclosing span ("" = root)
};

/// What the benchmark keeps about one finished trial.
struct TrialRecord {
  std::size_t index = 0;
  std::int64_t build_start_ns = 0;
  std::int64_t build_end_ns = 0;
  std::int64_t run_end_ns = 0;
  std::int64_t cpu_start_ns = 0;  // thread CPU clock at build start (same pool thread)
  std::int64_t cpu_end_ns = 0;    // thread CPU clock when run() returned
  std::uint64_t fuzz_frames = 0;  // CampaignResult::frames_sent
  bool instrumented = false;      // the world is an InstrumentedWorld
  std::uint64_t bus_frames = 0;
  std::uint64_t scheduler_events = 0;
  LayerTallies tallies;

  std::int64_t wall_ns() const noexcept { return run_end_ns - build_start_ns; }
  std::int64_t build_ns() const noexcept { return build_end_ns - build_start_ns; }
  std::int64_t cpu_ns() const noexcept { return cpu_end_ns - cpu_start_ns; }
};

/// Collects trial records (and, when spans are on, their spans) from the
/// pool threads.  Locked once per trial, never per frame.
class TrialRecorder {
 public:
  explicit TrialRecorder(bool keep_spans, std::uint32_t rep)
      : keep_spans_(keep_spans), rep_(rep) {}

  void record(TrialRecord record);
  std::vector<TrialRecord> take_records();
  std::vector<Span> take_spans();

 private:
  bool keep_spans_;
  std::uint32_t rep_;
  std::mutex mutex_;
  std::vector<TrialRecord> records_;
  std::vector<Span> spans_;
};

/// Wraps a WorldFactory so every trial's world construction and run() are
/// timed and reported to `recorder` (which must outlive every world).
acf::fleet::WorldFactory recorded(acf::fleet::WorldFactory inner, TrialRecorder& recorder);

/// Writes spans as JSON lines ({"name","rep","trial","start_ns","end_ns","parent"}).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace campaign_bench

// The shipped detector set, one per monitoring idea the paper's data
// motivates:
//  - AllowlistDetector: unknown ids / unseen DLCs (Table II shows a vehicle
//    bus carries a small fixed id set; full-random fuzz draws from 2048).
//  - DlcConsistencyDetector: the paper's one-line DLC hardening re-expressed
//    as a detector, sharing the DBC-declared DLC with the BCM's predicate.
//  - TimingDetector: per-id inter-arrival EWMA bands (periodic messages have
//    rigid schedules; injected frames land mid-cycle).
//  - RangeDetector: DBC signal bounds (Fig. 8's "negative RPM": random raw
//    bits decode to implausible physical values).
//  - EntropyDetector: per-id payload entropy over a sliding window (fuzz
//    payloads are near-uniform per Fig. 5; real payloads are not, Fig. 4).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dbc/database.hpp"
#include "ids/detector.hpp"

namespace acf::ids {

/// Flags frames whose id was never seen in training (score 1.0) or whose
/// DLC was never seen for that id (score 0.75).  Can be pre-seeded from a
/// signal database (design knowledge) and extended by training.
class AllowlistDetector final : public Detector {
 public:
  AllowlistDetector();
  /// Pre-seeds the allowlist with every message the database declares.
  explicit AllowlistDetector(const dbc::Database& database);

  std::string_view name() const override { return "allowlist"; }
  void train(const can::CanFrame& frame, sim::SimTime time) override;
  double score(const can::CanFrame& frame, sim::SimTime time) override;

  std::size_t known_ids() const noexcept { return allowed_.size(); }

 private:
  /// id -> bitmask of permitted DLC values (bit d = DLC d allowed).
  std::unordered_map<std::uint32_t, std::uint16_t> allowed_;
};

/// The paper's Table V hardening as a detector: a frame on a declared id
/// whose DLC differs from the DBC declaration scores 1.0.  Uses the same
/// MessageDef::dlc_matches check the hardened BCM predicate uses, so the
/// prevention path (reject in the ECU) and the detection path (alert on the
/// bus) share one implementation.  Undeclared ids are not its job — compose
/// with AllowlistDetector for those.
class DlcConsistencyDetector final : public Detector {
 public:
  explicit DlcConsistencyDetector(const dbc::Database& database);

  std::string_view name() const override { return "dlc-consistency"; }
  double score(const can::CanFrame& frame, sim::SimTime time) override;

 private:
  std::unordered_map<std::uint32_t, std::uint8_t> declared_dlc_;
};

struct TimingConfig {
  /// EWMA smoothing for the per-id mean inter-arrival and its deviation.
  double alpha = 0.125;
  /// Tolerance band half-width in deviations below the learned period.
  double dev_gain = 4.0;
  /// Tolerance floor as a fraction of the learned period (absorbs
  /// arbitration jitter a short training window under-samples).
  double floor_fraction = 0.5;
  /// Ids with fewer training frames learn no band (event-driven traffic).
  std::uint32_t min_train_frames = 4;
};

/// Per-id inter-arrival frequency detector.  Training learns an EWMA mean
/// gap and mean absolute deviation per id; ids that look periodic get a
/// lower tolerance bound lo = mean - max(dev_gain*dev, floor*mean).  In
/// detection a frame arriving a gap g < lo after the previous frame of its
/// id scores 1 - g/lo: an injected frame lands mid-cycle and halves the
/// observed gap, while legitimate schedules never dip below the band.
class TimingDetector final : public Detector {
 public:
  explicit TimingDetector(TimingConfig config = {});

  std::string_view name() const override { return "timing"; }
  void train(const can::CanFrame& frame, sim::SimTime time) override;
  void finalize_training() override;
  double score(const can::CanFrame& frame, sim::SimTime time) override;
  void reset() override;

  /// Ids that learned a band (periodic enough to police).
  std::size_t modeled_ids() const noexcept { return bands_.size(); }
  /// The learned lower gap bound for `id` in seconds; <0 when unmodeled.
  double lower_bound_s(std::uint32_t id) const;

 private:
  struct Training {
    std::uint64_t frames = 0;
    sim::SimTime last{0};
    double mean_gap = 0.0;  // seconds
    double mean_dev = 0.0;  // seconds
  };

  TimingConfig config_;
  std::unordered_map<std::uint32_t, Training> training_;
  std::unordered_map<std::uint32_t, double> bands_;  // id -> lo (seconds)
  std::unordered_map<std::uint32_t, sim::SimTime> last_seen_;
};

/// Signal plausibility detector: decodes every range-declared signal of a
/// declared message and scores the fraction that fall outside [min,max].
/// Stateless after construction; per-frame cost is bounded by the message's
/// signal count.
class RangeDetector final : public Detector {
 public:
  explicit RangeDetector(const dbc::Database& database);

  std::string_view name() const override { return "range"; }
  double score(const can::CanFrame& frame, sim::SimTime time) override;

 private:
  struct RangedMessage {
    std::vector<dbc::SignalDef> signals;  // only signals with declared ranges
  };
  std::unordered_map<std::uint32_t, RangedMessage> messages_;
};

struct EntropyConfig {
  /// Sliding window length per id, in frames.
  std::size_t window_frames = 16;
  /// Minimum frames in the window before the detector scores (a 1-frame
  /// "window" would flag every frame of a fresh id).
  std::size_t min_frames = 8;
};

/// Per-id payload-entropy detector.  Maintains, per id, a sliding window of
/// the last N payloads with incremental byte-value counts, so the Shannon
/// entropy of the window updates in O(payload) per frame (no 256-bin
/// rescan).  The raw score is the window entropy normalized by its maximum
/// (min(8, log2(bytes)) bits); training records a per-id baseline that is
/// subtracted, so naturally high-entropy legitimate signals (counters,
/// CRCs) do not eat the detection margin.  Fuzz payloads are near-uniform
/// (Fig. 5) and score ~1; captured traffic (Fig. 4) scores ~0.
class EntropyDetector final : public Detector {
 public:
  explicit EntropyDetector(EntropyConfig config = {});

  std::string_view name() const override { return "entropy"; }
  void train(const can::CanFrame& frame, sim::SimTime time) override;
  void finalize_training() override;
  double score(const can::CanFrame& frame, sim::SimTime time) override;
  void reset() override;

  /// Normalized window entropy for `id` right now, in [0,1] (pre-baseline).
  double window_entropy(std::uint32_t id) const;

 private:
  struct Window {
    struct Slot {
      std::array<std::uint8_t, can::kMaxClassicPayload> bytes{};
      std::uint8_t length = 0;
    };
    std::vector<Slot> ring;
    std::size_t head = 0;   // next slot to overwrite
    std::size_t frames = 0; // frames currently in the window
    std::array<std::uint32_t, 256> counts{};
    double sum_c_log_c = 0.0;  // sum of c*log2(c) over byte values
    std::uint64_t bytes_total = 0;
  };

  Window& window_for(std::uint32_t id);
  void push(Window& window, const can::CanFrame& frame);
  double normalized_entropy(const Window& window) const;

  EntropyConfig config_;
  /// log2(k) and k*log2(k) for every count a window can hold (0..8*frames),
  /// built once so the per-byte updates make no libm calls.
  std::vector<double> log2_;
  std::vector<double> c_log2_c_;
  std::unordered_map<std::uint32_t, Window> windows_;
  std::unordered_map<std::uint32_t, double> baseline_;
  bool training_done_ = false;
};

/// The standard four-detector set over `database` (allowlist seeded from the
/// database, timing, range, entropy with default configs).
std::vector<std::unique_ptr<Detector>> standard_detectors(const dbc::Database& database);

}  // namespace acf::ids

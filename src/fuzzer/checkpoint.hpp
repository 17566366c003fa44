// Campaign checkpointing: the paper's headline experiments are hours-long
// endurance runs, and a harness that loses all state on interruption cannot
// scale to them.  A checkpoint captures everything the campaign needs to
// resume deterministically — generator position (RNG state), frame counter,
// elapsed simulated time and the findings so far — in a versioned,
// line-oriented text file.  A resumed campaign emits the byte-identical
// frame stream the uninterrupted run would have.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fuzzer/finding.hpp"
#include "sim/time.hpp"

namespace acf::fuzzer {

struct CampaignCheckpoint {
  /// Bumped whenever the serialized layout changes; loaders reject files
  /// from a different major version instead of misreading them.
  /// v2: generator names are percent-escaped single tokens.
  static constexpr std::uint32_t kVersion = 2;

  std::uint64_t frames_sent = 0;
  std::uint64_t send_failures = 0;
  sim::Duration elapsed{0};
  /// Name of the generator the state belongs to; restore refuses a
  /// mismatched generator rather than silently diverging.
  std::string generator_name;
  std::vector<std::uint64_t> generator_state;
  std::vector<Finding> findings;
  /// The campaign's bounded window of recently injected frames, so a
  /// finding recorded just after resume carries the same reproduction
  /// window it would have in the uninterrupted run.
  std::vector<trace::TimestampedFrame> recent_frames;

  std::string to_string() const;
  /// Strict: numbers in their canonical form, frame kinds D/R/F and id
  /// formats E/S only, nothing after "end" — so an accepted text re-encodes
  /// to its own tokens.
  static std::optional<CampaignCheckpoint> from_string(std::string_view text);

  /// File wrappers; save writes then renames, so a crash mid-save leaves the
  /// previous checkpoint intact.
  bool save(const std::string& path) const;
  static std::optional<CampaignCheckpoint> load(const std::string& path);
};

}  // namespace acf::fuzzer

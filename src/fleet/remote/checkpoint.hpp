// FleetCheckpoint: durable progress of a distributed campaign, in the same
// hardened line-oriented discipline as the fuzzer's campaign checkpoint
// (versioned magic header, validated counts, hex-escaped free text, every
// token read through util/codec.hpp, clean rejection of anything malformed).  It records, per finished trial, everything the
// aggregator and JSONL exporter need — so a restarted coordinator resumes
// mid-campaign without recomputing a single finished trial — plus the trial
// ids that were leased-but-unfinished at save time, so resume re-issues
// exactly those first instead of rescanning the whole TrialPlan.
//
// Trial specs are NOT stored: they are a pure function of the plan, and the
// fingerprint refuses to resume a checkpoint against a different plan.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fleet/trial.hpp"

namespace acf::fleet::remote {

struct FleetCheckpoint {
  /// Bumped whenever the serialized layout changes; loaders reject other
  /// major versions instead of misreading them.
  static constexpr std::uint32_t kVersion = 1;

  /// campaign_fingerprint() of the plan this progress belongs to.
  std::uint64_t fingerprint = 0;
  std::uint64_t trial_count = 0;
  /// Finished trials in strictly ascending index order.  The spec inside
  /// each outcome is restored from the plan, never from disk.
  std::vector<std::pair<std::size_t, TrialOutcome>> completed;
  /// Trials under a live lease at save time, ascending; a resuming
  /// coordinator pushes these to the front of the issue queue.
  std::vector<std::size_t> leased;

  std::string to_string() const;
  /// Strict: every number in its canonical form, every outcome valid(),
  /// nothing after "end" — so an accepted text re-encodes to its own tokens.
  static std::optional<FleetCheckpoint> from_string(std::string_view text);

  /// Write-then-rename so a coordinator killed mid-save leaves the previous
  /// checkpoint intact rather than a torn file.
  bool save(const std::string& path) const;
  static std::optional<FleetCheckpoint> load(const std::string& path);
};

}  // namespace acf::fleet::remote

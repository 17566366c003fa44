#include "fleet/remote/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/codec.hpp"

namespace acf::fleet::remote {

namespace {

constexpr const char* kMagic = "ACF-FLEET-CAMPAIGN";

// A hostile header cannot demand unbounded memory: the trial count itself is
// capped (a campaign of 16M trials checkpoints fine; beyond that, shard),
// and declared per-trial counts only cap the up-front reserve — vectors
// still grow naturally as validated content parses.
constexpr std::uint64_t kMaxTrials = 1u << 24;
constexpr std::size_t kMaxAdvanceReserve = 4096;

}  // namespace

std::string FleetCheckpoint::to_string() const {
  std::ostringstream out;
  out << kMagic << ' ' << kVersion << '\n';
  out << "fingerprint " << fingerprint << '\n';
  out << "trials " << trial_count << '\n';
  out << "done " << completed.size() << '\n';
  for (const auto& [index, outcome] : completed) {
    out << "trial " << index << ' ' << static_cast<unsigned>(outcome.status) << ' '
        << static_cast<unsigned>(outcome.stop_reason) << ' ' << outcome.frames_sent << ' '
        << outcome.send_failures << ' ' << std::bit_cast<std::uint64_t>(outcome.sim_seconds)
        << ' ' << std::bit_cast<std::uint64_t>(outcome.time_to_failure) << ' '
        << outcome.findings.size() << '\n';
    for (const std::string& finding : outcome.findings) {
      out << "finding " << util::hex_or_dash(finding) << '\n';
    }
    out << "error " << util::hex_or_dash(outcome.error) << '\n';
  }
  out << "leased " << leased.size();
  for (const std::size_t index : leased) out << ' ' << index;
  out << '\n';
  out << "end\n";
  return out.str();
}

std::optional<FleetCheckpoint> FleetCheckpoint::from_string(std::string_view text) {
  util::TokenReader in(text);
  if (in.u64(kMagic) != kVersion || !in.ok()) return std::nullopt;
  FleetCheckpoint checkpoint;
  checkpoint.fingerprint = in.u64("fingerprint");
  checkpoint.trial_count = in.u64("trials");
  const std::uint64_t done_count = in.u64("done");
  if (!in.ok() || checkpoint.trial_count > kMaxTrials || done_count > checkpoint.trial_count) {
    return std::nullopt;
  }
  checkpoint.completed.reserve(std::min<std::uint64_t>(done_count, kMaxAdvanceReserve));
  for (std::uint64_t i = 0; i < done_count; ++i) {
    TrialOutcome outcome;
    const std::uint64_t index = in.u64("trial");
    const std::uint64_t status = in.u64();
    const std::uint64_t stop = in.u64();
    outcome.frames_sent = in.u64();
    outcome.send_failures = in.u64();
    outcome.sim_seconds = std::bit_cast<double>(in.u64());
    outcome.time_to_failure = std::bit_cast<double>(in.u64());
    const std::uint64_t finding_count = in.u64();
    // Strictly ascending indices inside the plan: the canonical layout, and
    // it rejects duplicate records in one pass.
    if (!in.ok() || index >= checkpoint.trial_count ||
        (i > 0 && index <= checkpoint.completed.back().first) || status > 0xFF || stop > 0xFF) {
      return std::nullopt;
    }
    outcome.status = static_cast<TrialStatus>(status);
    outcome.stop_reason = static_cast<fuzzer::StopReason>(stop);
    if (!outcome.valid()) return std::nullopt;
    outcome.findings.reserve(std::min<std::uint64_t>(finding_count, kMaxAdvanceReserve));
    for (std::uint64_t f = 0; f < finding_count && in.ok(); ++f) {
      outcome.findings.push_back(in.hex_or_dash("finding"));
    }
    outcome.error = in.hex_or_dash("error");
    if (!in.ok()) return std::nullopt;
    checkpoint.completed.emplace_back(index, std::move(outcome));
  }
  const std::uint64_t leased_count = in.u64("leased");
  if (!in.ok() || leased_count > checkpoint.trial_count) return std::nullopt;
  checkpoint.leased.reserve(std::min<std::uint64_t>(leased_count, kMaxAdvanceReserve));
  for (std::uint64_t i = 0; i < leased_count; ++i) {
    const std::uint64_t index = in.u64();
    if (!in.ok() || index >= checkpoint.trial_count) return std::nullopt;
    if (i > 0 && index <= checkpoint.leased.back()) return std::nullopt;  // ascending
    // A trial cannot be both finished and in flight.  `completed` is
    // strictly ascending, so this stays log-time even on hostile counts.
    const auto done_it = std::lower_bound(
        checkpoint.completed.begin(), checkpoint.completed.end(), index,
        [](const auto& entry, std::uint64_t value) { return entry.first < value; });
    if (done_it != checkpoint.completed.end() && done_it->first == index) {
      return std::nullopt;
    }
    checkpoint.leased.push_back(index);
  }
  in.expect("end");
  if (!in.done()) return std::nullopt;
  return checkpoint;
}

bool FleetCheckpoint::save(const std::string& path) const {
  // A coordinator SIGKILLed mid-save must leave the previous checkpoint
  // readable, or the crash the checkpoint exists to survive would destroy it.
  return util::write_file_atomic(path, to_string());
}

std::optional<FleetCheckpoint> FleetCheckpoint::load(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) return std::nullopt;
  return from_string(*text);
}

}  // namespace acf::fleet::remote

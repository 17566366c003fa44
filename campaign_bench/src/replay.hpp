// Replay figures: per-call costs of single layers measured in isolation,
// outside any campaign.  The codec and DBC replays push a campaign's
// captured frames through the public layer functions; the build replays
// construct the objects a trial or a feedback execution constructs.  Call
// counts are fixed by the input (no time-based loops), so they repeat
// exactly from run to run.
#pragma once

#include <vector>

#include "can/frame.hpp"
#include "layers.hpp"

namespace campaign_bench {

struct ReplayFigures {
  Tally frame_time;       // can::frame_time, per frame
  Tally dbc_decode;       // Database::by_id + MessageDef::decode, per frame
  Tally dbc_encode;       // MessageDef::encode, per frame with a DBC entry
  Tally database_build;   // dbc::target_vehicle_database(), per build
  Tally testbench_build;  // one feedback execution's testbench, per build
};

/// Passes over the captured frames, and builds per build replay.
inline constexpr int kCodecPasses = 20;
inline constexpr int kDbcPasses = 5;
inline constexpr int kDatabaseBuilds = 200;
inline constexpr int kTestbenchBuilds = 400;

ReplayFigures run_replays(const std::vector<acf::can::CanFrame>& frames);

}  // namespace campaign_bench

#include "replay.hpp"

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "can/wire_codec.hpp"
#include "dbc/target_vehicle_db.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace campaign_bench {

using namespace acf;

namespace {

/// Keeps replayed results observable so the optimizer cannot drop the calls.
volatile std::uint64_t g_sink = 0;

/// Times `passes` runs of `body`, which returns the calls one pass made.
template <typename Body>
Tally timed_passes(int passes, Body&& body) {
  Tally tally;
  const std::int64_t start = now_ns();
  for (int pass = 0; pass < passes; ++pass) tally.calls += body();
  tally.ns = now_ns() - start;
  return tally;
}

}  // namespace

ReplayFigures run_replays(const std::vector<can::CanFrame>& frames) {
  ReplayFigures figures;

  figures.frame_time = timed_passes(kCodecPasses, [&] {
    std::int64_t total = 0;
    for (const can::CanFrame& frame : frames) total += can::frame_time(frame).count();
    g_sink = g_sink + static_cast<std::uint64_t>(total);
    return frames.size();
  });

  const dbc::Database database = dbc::target_vehicle_database();
  figures.dbc_decode = timed_passes(kDbcPasses, [&] {
    std::size_t signals = 0;
    for (const can::CanFrame& frame : frames) {
      if (const dbc::MessageDef* message = database.by_id(frame.id())) {
        signals += message->decode(frame).size();
      }
    }
    g_sink = g_sink + signals;
    return frames.size();
  });

  // Encode what decoding produced, so every call re-packs a real frame.
  std::vector<std::pair<const dbc::MessageDef*, std::map<std::string, double>>> decoded;
  for (const can::CanFrame& frame : frames) {
    if (const dbc::MessageDef* message = database.by_id(frame.id())) {
      decoded.emplace_back(message, message->decode(frame));
    }
  }
  figures.dbc_encode = timed_passes(kDbcPasses, [&] {
    std::size_t encoded = 0;
    for (const auto& [message, values] : decoded) {
      if (const std::optional<can::CanFrame> frame = message->encode(values)) {
        encoded += frame->dlc();
      }
    }
    g_sink = g_sink + encoded;
    return decoded.size();
  });

  figures.database_build = timed_passes(kDatabaseBuilds, [] {
    const dbc::Database built = dbc::target_vehicle_database();
    g_sink = g_sink + built.size();
    return std::size_t{1};
  });

  // The parts feedback::FeedbackCampaign builds for every execution.
  figures.testbench_build = timed_passes(kTestbenchBuilds, [] {
    sim::Scheduler scheduler{256};
    vehicle::UnlockTestbench bench(scheduler);
    transport::VirtualBusTransport attacker(bench.bus(), "attacker");
    trace::CaptureTap tap(bench.bus(), "feedback.tap");
    oracle::UnlockOracle unlock_oracle(bench.bus(), &bench.bcm());
    g_sink = g_sink + bench.bus().node_count();
    return std::size_t{1};
  });

  return figures;
}

}  // namespace campaign_bench

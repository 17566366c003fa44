// Table II: examples of CAN packets captured from the (simulated) car —
// timestamped id/length/data rows from a bus tap on the idling vehicle.
#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "trace/capture.hpp"
#include "util/codec.hpp"

int main() {
  using namespace acf;
  bench::header("Table II", "Examples of CAN packets captured from a car");

  sim::Scheduler scheduler;
  vehicle::Vehicle car(scheduler);
  // Let the vehicle idle for a while, then capture a slice mid-stream (the
  // paper's rows carry ~5.3 s timestamps).
  scheduler.run_for(std::chrono::seconds(5));
  trace::CaptureTap tap(car.powertrain_bus(), "obd-tap", 64);
  trace::CaptureTap body_tap(car.body_bus(), "obd-tap2", 64);
  scheduler.run_for(std::chrono::milliseconds(400));

  analysis::TextTable table({"Time (ms)", "Id", "Length", "Data"});
  // Interleave a few rows from each bus, mirroring the mixed capture.
  std::size_t shown = 0;
  for (const auto& entry : tap.frames()) {
    if (shown >= 4) break;
    // Show one frame per distinct id for variety.
    static std::uint32_t last_id = 0xFFFFFFFF;
    if (entry.frame.id() == last_id) continue;
    last_id = entry.frame.id();
    table.add_row({sim::format_millis(entry.time),
                   util::hex_u32(entry.frame.id(), 4),
                   std::to_string(entry.frame.length()),
                   util::hex_bytes(entry.frame.payload())});
    ++shown;
  }
  for (const auto& entry : body_tap.frames()) {
    if (shown >= 6) break;
    if (entry.frame.id() == dbc::kMsgDoorStatus || entry.frame.id() == dbc::kMsgClusterDisplay) {
      table.add_row({sim::format_millis(entry.time),
                     util::hex_u32(entry.frame.id(), 4),
                     std::to_string(entry.frame.length()),
                     util::hex_bytes(entry.frame.payload())});
      ++shown;
      if (entry.frame.id() == dbc::kMsgClusterDisplay) break;
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Captured %llu frames total on the powertrain bus in 400 ms "
              "(bus load %.1f%%).\n",
              static_cast<unsigned long long>(tap.total_seen()),
              car.powertrain_bus().stats().load(scheduler.now()) * 100.0);
  return 0;
}

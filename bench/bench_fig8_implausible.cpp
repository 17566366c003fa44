// Fig. 8: an inappropriate value displayed by the vehicle simulator — a
// fuzzed ENGINE_DATA frame decodes to a negative RPM and the cluster renders
// it unfiltered ("the vehicle simulation handles physically invalid values
// in the same way as physically plausible ones").
#include "bench_util.hpp"
#include "util/codec.hpp"

int main() {
  using namespace acf;
  bench::header("Figure 8", "Inappropriate value on the vehicle display via fuzzing");

  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  transport::VirtualBusTransport fuzzer_port(bus, "fuzzer");
  const dbc::Database db = dbc::target_vehicle_database();

  // Normal value first.
  fuzzer_port.send(*db.by_id(dbc::kMsgEngineData)->encode({{"EngineRPM", 820.0}}));
  scheduler.run_for(std::chrono::milliseconds(5));
  std::printf("normal frame     -> RPM gauge reads %7.0f rpm, MIL=%d\n",
              cluster.rpm_gauge(), cluster.mil_on() ? 1 : 0);

  // A fuzzed frame whose raw 16-bit field is two's-complement negative.
  const auto fuzzed = can::CanFrame::data(dbc::kMsgEngineData, {0x18, 0xF0, 0, 0, 0, 0, 0, 0});
  fuzzer_port.send(*fuzzed);
  scheduler.run_for(std::chrono::milliseconds(5));
  std::printf("fuzzed frame %s (raw 0x%04X)\n",
              fuzzed->to_string().c_str(), 0xF018);
  std::printf("                 -> RPM gauge reads %7.0f rpm  <-- NEGATIVE RPM DISPLAYED\n",
              cluster.rpm_gauge());
  std::printf("                    MIL=%d, warning sounds=%llu, implausible values=%llu\n",
              cluster.mil_on() ? 1 : 0,
              static_cast<unsigned long long>(cluster.warning_sounds()),
              static_cast<unsigned long long>(cluster.implausible_values_seen()));
  std::printf("\nDeclared signal range is [0, 8000] rpm; the display applies no\n"
              "plausibility gate (the Fig. 8 observable), while the plausibility\n"
              "oracle flags the violation for the tester.\n");
  return 0;
}

// Table IV: sample random CAN packet output from the fuzzer — random ids,
// random lengths (including empty frames), random bytes, ~1.7 ms spacing.
#include "analysis/report.hpp"
#include "bench_util.hpp"
#include "trace/capture.hpp"
#include "util/codec.hpp"

int main() {
  using namespace acf;
  bench::header("Table IV", "Sample random CAN packet output from the fuzzer");

  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  trace::CaptureTap tap(bus, "tap");
  transport::VirtualBusTransport port(bus, "fuzzer");
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::full_random(0x7AB1E4));
  fuzzer::CampaignConfig config;
  config.max_frames = 8;
  config.tx_period = std::chrono::microseconds(1700);  // paper rows: ~1.7-2.3 ms apart
  fuzzer::FuzzCampaign campaign(scheduler, port, generator, nullptr, config);
  scheduler.run_for(std::chrono::seconds(3));  // offset so timestamps resemble the paper's
  campaign.run();

  analysis::TextTable table({"Time (ms)", "Id", "Length", "Data"});
  for (const auto& entry : tap.frames()) {
    table.add_row({sim::format_millis(entry.time),
                   util::hex_u32(entry.frame.id(), 4),
                   std::to_string(entry.frame.length()),
                   util::hex_bytes(entry.frame.payload())});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Every frame drawn uniformly from the Table III space (seed 0x7AB1E4).\n");
  return 0;
}

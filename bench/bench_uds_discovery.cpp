// Related-work reproduction: protocol-aware UDS fuzzing in the style of
// Bayer & Ptok (paper ref [13]) against the instrument cluster's diagnostic
// endpoint — service discovery, DID sweep, random request fuzz.
#include "analysis/report.hpp"
#include "fuzzer/uds_fuzzer.hpp"
#include "util/codec.hpp"
#include "bench_util.hpp"

int main() {
  using namespace acf;
  bench::header("UDS discovery", "Protocol-aware diagnostic fuzz of the instrument cluster "
                                 "(after Bayer & Ptok, paper ref [13])");

  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  transport::VirtualBusTransport port(bus, "uds-fuzzer");
  fuzzer::UdsFuzzer uds_fuzzer(scheduler, port, dbc::kUdsClusterRequest,
                               dbc::kUdsClusterResponse);
  const fuzzer::UdsFuzzReport report = uds_fuzzer.run();

  analysis::TextTable services({"SID", "Service", "Responses", "NRCs seen"});
  auto sid_name = [](std::uint8_t sid) -> const char* {
    switch (sid) {
      case 0x10: return "DiagnosticSessionControl";
      case 0x11: return "ECUReset";
      case 0x19: return "ReadDTCInformation";
      case 0x22: return "ReadDataByIdentifier";
      case 0x27: return "SecurityAccess";
      case 0x2E: return "WriteDataByIdentifier";
      case 0x3E: return "TesterPresent";
      default: return "?";
    }
  };
  for (const auto& info : report.services) {
    if (!info.exists()) continue;
    std::string nrcs;
    for (const auto& [nrc, count] : info.nrcs) {
      if (!nrcs.empty()) nrcs += ", ";
      nrcs += "0x" + util::hex_u32(nrc, 2) + " x" + std::to_string(count);
    }
    services.add_row({"0x" + util::hex_u32(info.sid, 2), sid_name(info.sid),
                      std::to_string(info.positive) + " pos / " +
                          std::to_string(info.negative) + " neg",
                      nrcs});
  }
  std::printf("discovered services:\n%s\n", services.to_string().c_str());

  std::printf("readable DIDs found in [F180, F1A0]: ");
  for (std::uint16_t did : report.readable_dids) {
    std::printf("0x%s ", util::hex_u32(did, 4).c_str());
  }
  std::printf("\nrandom-request fuzz anomalies: %zu\n", report.anomalies.size());
  for (const auto& anomaly : report.anomalies) std::printf("  ! %s\n", anomaly.c_str());
  std::printf("requests sent in total: %llu\n",
              static_cast<unsigned long long>(report.requests_sent));
  std::printf("\nShape: the fuzzer maps the ECU's diagnostic attack surface blind — the\n"
              "same reverse-engineering value the paper attributes to CAN fuzzing, one\n"
              "protocol layer up.\n");
  return 0;
}

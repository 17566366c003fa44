#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "oracle/bus_oracles.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/rng.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::oracle {
namespace {

using sim::SimTime;

TEST(Verdict, Names) {
  EXPECT_STREQ(to_string(Verdict::kNominal), "nominal");
  EXPECT_STREQ(to_string(Verdict::kSuspicious), "suspicious");
  EXPECT_STREQ(to_string(Verdict::kFailure), "failure");
}

/// Scriptable oracle for composite tests.
class FakeOracle final : public Oracle {
 public:
  explicit FakeOracle(std::string oracle_name) : name_(std::move(oracle_name)) {}
  std::string_view name() const override { return name_; }
  std::optional<Observation> poll(SimTime now) override {
    ++polls;
    if (!pending.has_value()) return std::nullopt;
    auto out = *pending;
    out.time = now;
    pending.reset();
    return out;
  }
  void reset() override { ++resets; }

  std::string name_;
  std::optional<Observation> pending;
  int polls = 0;
  int resets = 0;
};

TEST(CompositeOracle, ReportsMostSevere) {
  CompositeOracle composite;
  auto a = std::make_unique<FakeOracle>("a");
  auto b = std::make_unique<FakeOracle>("b");
  a->pending = Observation{Verdict::kSuspicious, "meh", {}};
  b->pending = Observation{Verdict::kFailure, "boom", {}};
  composite.add(std::move(a));
  composite.add(std::move(b));
  const auto obs = composite.poll(SimTime{5});
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
  EXPECT_EQ(obs->detail, "boom");
}

TEST(CompositeOracle, NominalWhenAllQuiet) {
  CompositeOracle composite;
  composite.add(std::make_unique<FakeOracle>("a"));
  EXPECT_FALSE(composite.poll(SimTime{1}).has_value());
}

TEST(CompositeOracle, BorrowedOraclesPolledAndReset) {
  CompositeOracle composite;
  FakeOracle borrowed("borrowed");
  composite.add(borrowed);
  composite.poll(SimTime{1});
  composite.reset();
  EXPECT_EQ(borrowed.polls, 1);
  EXPECT_EQ(borrowed.resets, 1);
  EXPECT_EQ(composite.size(), 1u);
}

// ------------------------------------------------------- bus oracles ------

class BusOracleTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
};

TEST_F(BusOracleTest, SilenceOracleFiresAfterWindow) {
  BusSilenceOracle oracle(bus, std::chrono::milliseconds(100));
  transport::VirtualBusTransport tx(bus, "tx");
  tx.send(can::CanFrame::data_std(0x1, {}));
  scheduler.run_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  scheduler.run_for(std::chrono::milliseconds(100));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
  // Reported once, not repeatedly.
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  oracle.reset();
  scheduler.run_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(oracle.poll(scheduler.now()).has_value());
}

TEST_F(BusOracleTest, SilenceOracleStaysQuietWithTraffic) {
  BusSilenceOracle oracle(bus, std::chrono::milliseconds(100));
  transport::VirtualBusTransport tx(bus, "tx");
  for (int i = 0; i < 20; ++i) {
    tx.send(can::CanFrame::data_std(0x1, {}));
    scheduler.run_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(oracle.poll(scheduler.now()).has_value()) << i;
  }
}

TEST_F(BusOracleTest, ErrorRateOracleThresholds) {
  can::BusConfig config;
  config.corruption_probability = 0.9;
  config.seed = 3;
  can::VirtualBus lossy(scheduler, config);
  ErrorFrameRateOracle oracle(lossy, 5.0, 1e9);
  transport::VirtualBusTransport tx(lossy, "tx");
  // Keep the transmitter busy for > 1 s of bucket time.
  for (int burst = 0; burst < 50; ++burst) {
    for (int i = 0; i < 20; ++i) tx.send(can::CanFrame::data_std(0x1, {1}));
    scheduler.run_for(std::chrono::milliseconds(25));
  }
  scheduler.run_for(std::chrono::milliseconds(1100));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kSuspicious);
  EXPECT_GT(oracle.total_error_frames(), 0u);
}

TEST_F(BusOracleTest, NodeErrorStateOracleDetectsBusOff) {
  can::BusConfig config;
  config.corruption_probability = 1.0;
  config.auto_bus_off_recovery = false;
  can::VirtualBus broken(scheduler, config);
  transport::VirtualBusTransport victim(broken, "victim");
  NodeErrorStateOracle oracle(broken, victim.node_id());
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  for (int i = 0; i < 40; ++i) victim.send(can::CanFrame::data_std(0x1, {}));
  scheduler.run_for(std::chrono::seconds(1));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
  EXPECT_NE(obs->detail.find("bus-off"), std::string::npos);
}

// ---------------------------------------------------- vehicle oracles -----

TEST(UnlockOracle, DetectsAckFrame) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  UnlockOracle oracle(bus);
  transport::VirtualBusTransport bcm(bus, "bcm");
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  bcm.send(*can::CanFrame::data(dbc::kMsgBodyAck, {dbc::kCmdUnlock, 0x01}));
  scheduler.run_for(std::chrono::milliseconds(2));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
  EXPECT_TRUE(oracle.unlock_detected());
  EXPECT_GT(oracle.unlock_time().count(), 0);
}

TEST(UnlockOracle, IgnoresLockAckAndFailedAck) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  UnlockOracle oracle(bus);
  transport::VirtualBusTransport bcm(bus, "bcm");
  bcm.send(*can::CanFrame::data(dbc::kMsgBodyAck, {dbc::kCmdLock, 0x01}));
  bcm.send(*can::CanFrame::data(dbc::kMsgBodyAck, {dbc::kCmdUnlock, 0x00}));  // result=fail
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
}

TEST(UnlockOracle, DetectsActuatorDirectly) {
  // The "sensor on the door lock" channel: no ack frame needed.
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler);
  UnlockOracle oracle(bench.bus(), &bench.bcm());
  bench.head_unit().request_unlock();
  scheduler.run_for(std::chrono::milliseconds(10));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
}

TEST(ComponentCrashOracle, FiresOncePerCrash) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  ComponentCrashOracle oracle;
  oracle.watch(cluster);
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  transport::VirtualBusTransport tx(bus, "tx");
  tx.send(*can::CanFrame::data(dbc::kMsgClusterDisplay, {0xF0, 0x1F}));
  scheduler.run_for(std::chrono::milliseconds(5));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
  EXPECT_NE(obs->detail.find("CLUSTER"), std::string::npos);
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());  // latched
}

TEST(ClusterStateOracle, WarningThenCrashEscalation) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  ClusterStateOracle oracle(cluster);
  transport::VirtualBusTransport tx(bus, "tx");
  const dbc::Database db = dbc::target_vehicle_database();
  tx.send(*db.by_id(dbc::kMsgTelltales)->encode({{"MilOn", 1.0}}));
  scheduler.run_for(std::chrono::milliseconds(5));
  auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kSuspicious);
  tx.send(*can::CanFrame::data(dbc::kMsgClusterDisplay, {0xF0, 0x10}));
  scheduler.run_for(std::chrono::milliseconds(5));
  obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
  EXPECT_NE(obs->detail.find("CrAsH"), std::string::npos);
}

TEST(SignalPlausibilityOracle, FlagsOutOfRangeSignals) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  SignalPlausibilityOracle oracle(bus, dbc::target_vehicle_database());
  transport::VirtualBusTransport tx(bus, "tx");
  const dbc::Database db = dbc::target_vehicle_database();
  tx.send(*db.by_id(dbc::kMsgEngineData)->encode({{"EngineRPM", 1500.0}}));
  scheduler.run_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  // Raw 0xFFFF decodes to -0.25 rpm: out of [0, 8000].
  tx.send(*can::CanFrame::data(dbc::kMsgEngineData, {0xFF, 0xFF, 0, 0, 0, 0, 0, 0}));
  scheduler.run_for(std::chrono::milliseconds(2));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kSuspicious);
  EXPECT_NE(obs->detail.find("EngineRPM"), std::string::npos);
  EXPECT_GT(oracle.violations(), 0u);
}

TEST(SignalPlausibilityOracle, PollReportsTheLastViolationFormattedAsBefore) {
  // The detail is formatted at poll time; it must read exactly as the text
  // formatted when the last violation was seen.
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  SignalPlausibilityOracle oracle(bus, dbc::target_vehicle_database());
  transport::VirtualBusTransport tx(bus, "tx");
  const dbc::Database& db = dbc::target_vehicle_database();
  util::Rng rng(0x9A7);
  const std::vector<std::uint32_t> ids = db.ids();
  std::size_t reports = 0;
  for (int round = 0; round < 200; ++round) {
    std::string expected;
    const std::uint64_t violations_before = oracle.violations();
    for (int burst = 0; burst < 3; ++burst) {
      std::vector<std::uint8_t> payload(8);
      for (auto& byte : payload) byte = rng.next_byte();
      const auto frame = can::CanFrame::data(rng.pick(ids), payload);
      tx.send(*frame);
      for (const auto& sig : db.by_id(frame->id())->signals) {
        const auto value = dbc::decode(sig, frame->payload());
        if (!value || sig.in_declared_range(*value)) continue;
        char detail[128];
        std::snprintf(detail, sizeof detail, "%s.%s = %.1f outside [%g, %g]",
                      db.by_id(frame->id())->name.c_str(), sig.name.c_str(), *value, sig.min,
                      sig.max);
        expected = detail;
      }
    }
    scheduler.run_for(std::chrono::milliseconds(2));
    const auto obs = oracle.poll(scheduler.now());
    if (oracle.violations() == violations_before) {
      EXPECT_FALSE(obs.has_value());
      continue;
    }
    ASSERT_TRUE(obs.has_value());
    EXPECT_EQ(obs->detail, expected);
    ++reports;
  }
  EXPECT_GT(reports, 50u);

  tx.send(*can::CanFrame::data(dbc::kMsgEngineData, {0xFF, 0xFF, 0, 0, 0, 0, 0, 0}));
  scheduler.run_for(std::chrono::milliseconds(2));
  oracle.reset();
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  EXPECT_EQ(oracle.violations(), 0u);
}

TEST(SignalPlausibilityOracle, UnknownIdsIgnored) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  SignalPlausibilityOracle oracle(bus, dbc::target_vehicle_database());
  transport::VirtualBusTransport tx(bus, "tx");
  tx.send(can::CanFrame::data_std(0x6FF, {0xFF, 0xFF, 0xFF}));
  scheduler.run_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  EXPECT_EQ(oracle.violations(), 0u);
}

}  // namespace
}  // namespace acf::oracle

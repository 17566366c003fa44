#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <initializer_list>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "dbc/database.hpp"
#include "dbc/parser.hpp"
#include "dbc/signal.hpp"
#include "dbc/target_vehicle_db.hpp"
#include "util/rng.hpp"

namespace acf::dbc {
namespace {

SignalDef make_signal(std::uint16_t start, std::uint16_t length, ByteOrder order,
                      bool is_signed = false, double scale = 1.0, double offset = 0.0) {
  SignalDef sig;
  sig.name = "S";
  sig.start_bit = start;
  sig.bit_length = length;
  sig.byte_order = order;
  sig.is_signed = is_signed;
  sig.scale = scale;
  sig.offset = offset;
  return sig;
}

// ----------------------------------------------------------- raw pack -----

TEST(Signal, LittleEndianByteAligned) {
  const auto sig = make_signal(8, 16, ByteOrder::kLittleEndian);
  std::uint8_t payload[4] = {};
  ASSERT_TRUE(insert_raw(sig, 0xBEEF, payload));
  EXPECT_EQ(payload[1], 0xEF);  // LSB first
  EXPECT_EQ(payload[2], 0xBE);
  EXPECT_EQ(extract_raw(sig, payload).value(), 0xBEEFu);
}

TEST(Signal, LittleEndianUnaligned) {
  const auto sig = make_signal(4, 8, ByteOrder::kLittleEndian);
  std::uint8_t payload[2] = {};
  ASSERT_TRUE(insert_raw(sig, 0xA5, payload));
  EXPECT_EQ(payload[0], 0x50);
  EXPECT_EQ(payload[1], 0x0A);
  EXPECT_EQ(extract_raw(sig, payload).value(), 0xA5u);
}

TEST(Signal, BigEndianByteAligned) {
  // Motorola start bit 7, 16 bits: occupies bytes 0..1 MSB-first.
  const auto sig = make_signal(7, 16, ByteOrder::kBigEndian);
  std::uint8_t payload[2] = {};
  ASSERT_TRUE(insert_raw(sig, 0xBEEF, payload));
  EXPECT_EQ(payload[0], 0xBE);
  EXPECT_EQ(payload[1], 0xEF);
  EXPECT_EQ(extract_raw(sig, payload).value(), 0xBEEFu);
}

TEST(Signal, InsertDoesNotClobberNeighbours) {
  const auto low = make_signal(0, 4, ByteOrder::kLittleEndian);
  const auto high = make_signal(4, 4, ByteOrder::kLittleEndian);
  std::uint8_t payload[1] = {};
  insert_raw(low, 0xF, payload);
  insert_raw(high, 0x3, payload);
  EXPECT_EQ(payload[0], 0x3F);
  insert_raw(low, 0x0, payload);
  EXPECT_EQ(payload[0], 0x30);  // high nibble untouched
}

TEST(Signal, FitsBoundaryChecks) {
  EXPECT_TRUE(make_signal(56, 8, ByteOrder::kLittleEndian).fits(8));
  EXPECT_FALSE(make_signal(57, 8, ByteOrder::kLittleEndian).fits(8));
  EXPECT_FALSE(make_signal(0, 8, ByteOrder::kLittleEndian).fits(0));
  EXPECT_TRUE(make_signal(7, 16, ByteOrder::kBigEndian).fits(2));
  EXPECT_FALSE(make_signal(7, 17, ByteOrder::kBigEndian).fits(2));
}

TEST(Signal, ExtractFromShortPayloadReturnsNullopt) {
  const auto sig = make_signal(16, 8, ByteOrder::kLittleEndian);
  const std::uint8_t payload[2] = {1, 2};
  EXPECT_FALSE(extract_raw(sig, payload).has_value());
  EXPECT_FALSE(decode(sig, payload).has_value());
}

// Property: roundtrip over a grid of widths, starts and byte orders.
class SignalRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, ByteOrder, bool>> {};

TEST_P(SignalRoundTrip, RawRoundTripsThroughPayload) {
  const auto [start, length, order, is_signed] = GetParam();
  const auto sig = make_signal(static_cast<std::uint16_t>(start),
                               static_cast<std::uint16_t>(length), order, is_signed);
  if (!sig.fits(8)) GTEST_SKIP();
  util::Rng rng(static_cast<std::uint64_t>(start * 131 + length));
  for (int trial = 0; trial < 50; ++trial) {
    std::uint8_t payload[8] = {};
    rng.fill(payload);
    const std::uint64_t mask = length >= 64 ? ~0ULL : (1ULL << length) - 1;
    const std::uint64_t raw = rng.next_u64() & mask;
    ASSERT_TRUE(insert_raw(sig, raw, payload));
    EXPECT_EQ(extract_raw(sig, payload).value(), raw);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SignalRoundTrip,
    ::testing::Combine(::testing::Values(0, 3, 7, 8, 12, 16, 23, 32, 40),
                       ::testing::Values(1, 3, 8, 12, 16, 24, 32),
                       ::testing::Values(ByteOrder::kLittleEndian, ByteOrder::kBigEndian),
                       ::testing::Bool()));

// ----------------------------------------------------------- scaling ------

TEST(Signal, SignExtension) {
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0x8000, 16), -32768);
  EXPECT_EQ(sign_extend(1, 1), -1);
  EXPECT_EQ(sign_extend(0xFFFFFFFFFFFFFFFFULL, 64), -1);
}

TEST(Signal, PhysicalConversionUnsigned) {
  auto sig = make_signal(0, 16, ByteOrder::kLittleEndian, false, 0.25, 0.0);
  EXPECT_DOUBLE_EQ(sig.raw_to_physical(3200), 800.0);
  EXPECT_EQ(sig.physical_to_raw(800.0), 3200u);
}

TEST(Signal, PhysicalConversionSignedNegative) {
  auto sig = make_signal(0, 16, ByteOrder::kLittleEndian, true, 0.25, 0.0);
  // Raw 0xF000 = -4096 -> -1024 rpm: the Fig. 8 negative-RPM mechanism.
  EXPECT_DOUBLE_EQ(sig.raw_to_physical(0xF000), -1024.0);
  EXPECT_EQ(sig.physical_to_raw(-1024.0), 0xF000u);
}

TEST(Signal, PhysicalConversionWithOffset) {
  auto sig = make_signal(0, 8, ByteOrder::kLittleEndian, false, 1.0, -40.0);
  EXPECT_DOUBLE_EQ(sig.raw_to_physical(0), -40.0);
  EXPECT_DOUBLE_EQ(sig.raw_to_physical(255), 215.0);
  EXPECT_EQ(sig.physical_to_raw(20.0), 60u);
}

TEST(Signal, PhysicalToRawClampsAtLimits) {
  auto sig = make_signal(0, 8, ByteOrder::kLittleEndian, false, 1.0, 0.0);
  EXPECT_EQ(sig.physical_to_raw(1000.0), 255u);
  EXPECT_EQ(sig.physical_to_raw(-5.0), 0u);
  auto sgn = make_signal(0, 8, ByteOrder::kLittleEndian, true, 1.0, 0.0);
  EXPECT_EQ(sgn.physical_to_raw(200.0), 127u);
  EXPECT_EQ(sgn.physical_to_raw(-200.0), 0x80u);
}

TEST(Signal, PhysicalToRawSaturatesExactlyAtEveryWidth) {
  // Above 53 bits 2^n - 1 is not a double; saturation must still land on
  // the range's own end, and in-range values near it must pass unchanged.
  for (const std::uint16_t bits : std::initializer_list<std::uint16_t>{53, 54, 63, 64}) {
    SCOPED_TRACE(bits);
    const std::uint64_t mask = bits == 64 ? ~0ULL : (1ULL << bits) - 1;
    const auto top = make_signal(0, bits, ByteOrder::kLittleEndian);
    EXPECT_EQ(top.physical_to_raw(1e30), mask);
    EXPECT_EQ(top.physical_to_raw(-1e30), 0u);
    EXPECT_EQ(top.physical_to_raw(0.0), 0u);
    const double limit = std::ldexp(1.0, bits);  // first value past the range
    EXPECT_EQ(top.physical_to_raw(limit), mask);
    // The largest whole double inside the range.
    const double below = std::min(std::nextafter(limit, 0.0), limit - 1.0);
    EXPECT_EQ(top.physical_to_raw(below), static_cast<std::uint64_t>(below));

    const auto sgn = make_signal(0, bits, ByteOrder::kLittleEndian, true);
    const std::uint64_t max_raw = mask >> 1;       // 2^(n-1) - 1
    const std::uint64_t min_raw = max_raw ^ mask;  // -2^(n-1), two's complement
    EXPECT_EQ(sgn.physical_to_raw(1e30), max_raw);
    EXPECT_EQ(sgn.physical_to_raw(-1e30), min_raw);
    const double half = std::ldexp(1.0, bits - 1);
    EXPECT_EQ(sgn.physical_to_raw(half), max_raw);
    EXPECT_EQ(sgn.physical_to_raw(-half), min_raw);
    EXPECT_EQ(sign_extend(sgn.physical_to_raw(-half), bits),
              static_cast<std::int64_t>(-half));
    const double below_half = std::min(std::nextafter(half, 0.0), half - 1.0);
    EXPECT_EQ(sgn.physical_to_raw(below_half), static_cast<std::uint64_t>(below_half));
    EXPECT_EQ(sign_extend(sgn.physical_to_raw(-below_half), bits),
              static_cast<std::int64_t>(-below_half));
  }
}

TEST(Signal, DeclaredRangeCheck) {
  auto sig = make_signal(0, 16, ByteOrder::kLittleEndian);
  sig.min = 0;
  sig.max = 8000;
  EXPECT_TRUE(sig.in_declared_range(0));
  EXPECT_TRUE(sig.in_declared_range(8000));
  EXPECT_FALSE(sig.in_declared_range(-1));
  EXPECT_FALSE(sig.in_declared_range(8001));
  sig.min = sig.max = 0;  // undeclared: everything plausible
  EXPECT_TRUE(sig.in_declared_range(1e9));
}

// ------------------------------------------------------- message defs -----

TEST(MessageDef, EncodeDecodeRoundTrip) {
  const Database db = target_vehicle_database();
  const MessageDef* engine = db.by_id(kMsgEngineData);
  ASSERT_NE(engine, nullptr);
  const auto frame = engine->encode(
      {{"EngineRPM", 2400.0}, {"ThrottlePct", 40.0}, {"CoolantTempC", 92.0}});
  ASSERT_TRUE(frame.has_value());
  const auto values = engine->decode(*frame);
  EXPECT_DOUBLE_EQ(values.at("EngineRPM"), 2400.0);
  EXPECT_DOUBLE_EQ(values.at("ThrottlePct"), 40.0);
  EXPECT_DOUBLE_EQ(values.at("CoolantTempC"), 92.0);
  EXPECT_DOUBLE_EQ(values.at("FuelRate"), 0.0);  // unset encodes as raw zero
}

TEST(MessageDef, EncodeUnknownSignalFails) {
  const Database db = target_vehicle_database();
  const MessageDef* engine = db.by_id(kMsgEngineData);
  EXPECT_FALSE(engine->encode({{"NoSuchSignal", 1.0}}).has_value());
}

TEST(MessageDef, DecodeShortFrameOmitsUnfittingSignals) {
  const Database db = target_vehicle_database();
  const MessageDef* engine = db.by_id(kMsgEngineData);
  const auto short_frame = can::CanFrame::data_std(kMsgEngineData, {0x10, 0x20});
  const auto values = engine->decode(short_frame);
  EXPECT_TRUE(values.contains("EngineRPM"));      // bits 0..15 fit
  EXPECT_FALSE(values.contains("CoolantTempC"));  // bits 24..31 do not
}

TEST(MessageDef, PositionalEncodeMatchesNamedEncode) {
  const MessageDef& engine = target_message(kMsgEngineData);
  const auto positional = engine.encode({2400.0, 40.0, 92.0, 1.0, 770.0});
  const auto named = engine.encode({{"EngineRPM", 2400.0},
                                    {"ThrottlePct", 40.0},
                                    {"CoolantTempC", 92.0},
                                    {"EngineRunning", 1.0},
                                    {"FuelRate", 770.0}});
  ASSERT_TRUE(positional.has_value());
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(*positional, *named);
  EXPECT_FALSE(engine.encode({2400.0, 40.0}).has_value());  // one value per signal
}

TEST(Database, LookupByIdAndName) {
  const Database db = target_vehicle_database();
  EXPECT_NE(db.by_id(kMsgBodyCommand), nullptr);
  EXPECT_EQ(db.by_id(0x7DF), nullptr);
  EXPECT_NE(db.by_name("BODY_COMMAND"), nullptr);
  EXPECT_EQ(db.by_name("NOPE"), nullptr);
  EXPECT_EQ(db.by_name("BODY_COMMAND")->id, kMsgBodyCommand);
}

TEST(Database, AddReplacesSameId) {
  Database db;
  MessageDef m;
  m.id = 0x100;
  m.name = "A";
  db.add(m);
  m.name = "B";
  db.add(m);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.by_id(0x100)->name, "B");
}

TEST(Database, IdsSortedAscending) {
  const Database db = target_vehicle_database();
  const auto ids = db.ids();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids.size(), db.size());
}

TEST(TargetVehicleDb, SignalsFitTheirMessages) {
  const Database db = target_vehicle_database();
  ASSERT_GE(db.size(), 9u);
  for (const auto& message : db.messages()) {
    for (const auto& sig : message.signals) {
      EXPECT_TRUE(sig.fits(message.dlc)) << message.name << "." << sig.name;
    }
  }
}

TEST(TargetVehicleDb, BodyCommandMatchesPaperShape) {
  const Database db = target_vehicle_database();
  const MessageDef* cmd = db.by_id(kMsgBodyCommand);
  ASSERT_NE(cmd, nullptr);
  EXPECT_EQ(cmd->id, 0x215u);  // the paper's lock/unlock id (533 decimal)
  EXPECT_EQ(cmd->dlc, 7u);     // DLC 7 as in Fig. 13
}

TEST(TargetVehicleDb, HandlesResolveIntoTheSharedInstance) {
  const MessageDef& engine = target_message(kMsgEngineData);
  EXPECT_EQ(&engine, target_vehicle_database().by_id(kMsgEngineData));
  EXPECT_EQ(&target_signal(kMsgEngineData, "EngineRPM"), engine.signal("EngineRPM"));
  EXPECT_THROW(target_message(0x7DF), std::out_of_range);
  EXPECT_THROW(target_signal(kMsgEngineData, "NoSuchSignal"), std::out_of_range);
}

TEST(TargetVehicleDb, ConcurrentFirstUseReturnsOneInstance) {
  // ctest runs each test in its own process, so these threads race the
  // database's first construction.
  constexpr std::size_t kThreads = 8;
  std::atomic<bool> go{false};
  std::array<const Database*, kThreads> seen{};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&go, &seen, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      seen[i] = &target_vehicle_database();
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  for (const Database* db : seen) EXPECT_EQ(db, &target_vehicle_database());
  EXPECT_GE(target_vehicle_database().size(), 9u);
}

// ------------------------------------------------------------ parser ------

TEST(Parser, ParsesMessageAndSignals) {
  const auto result = parse_dbc(R"(VERSION ""
BU_: ECM CLUSTER

BO_ 165 ENGINE_DATA: 8 ECM
 SG_ EngineRPM : 0|16@1- (0.25,0) [0|8000] "rpm" CLUSTER
 SG_ Throttle : 16|8@1+ (0.4,0) [0|100] "%" CLUSTER

BA_ "GenMsgCycleTime" BO_ 165 10;
)");
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.nodes, (std::vector<std::string>{"ECM", "CLUSTER"}));
  const MessageDef* msg = result.database.by_id(165);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->name, "ENGINE_DATA");
  EXPECT_EQ(msg->dlc, 8u);
  EXPECT_EQ(msg->sender, "ECM");
  EXPECT_EQ(msg->cycle_time_ms, 10u);
  ASSERT_EQ(msg->signals.size(), 2u);
  const SignalDef& rpm = msg->signals[0];
  EXPECT_EQ(rpm.name, "EngineRPM");
  EXPECT_EQ(rpm.bit_length, 16u);
  EXPECT_TRUE(rpm.is_signed);
  EXPECT_EQ(rpm.byte_order, ByteOrder::kLittleEndian);
  EXPECT_DOUBLE_EQ(rpm.scale, 0.25);
  EXPECT_DOUBLE_EQ(rpm.max, 8000.0);
  EXPECT_EQ(rpm.unit, "rpm");
}

TEST(Parser, ExtendedIdBit31) {
  const auto result = parse_dbc("BO_ 2164261121 EXT_MSG: 8 X\n");
  const MessageDef* msg = result.database.by_id(2164261121u & 0x1FFFFFFFu);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->format, can::IdFormat::kExtended);
}

TEST(Parser, BigEndianAndMultiplexedSignals) {
  const auto result = parse_dbc(R"(BO_ 291 M: 8 X
 SG_ Mode M : 7|8@0+ (1,0) [0|255] "" X
 SG_ Value m0 : 15|16@0- (1,0) [-100|100] "u" X
)");
  const MessageDef* msg = result.database.by_id(291);
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->signals.size(), 2u);
  EXPECT_EQ(msg->signals[0].byte_order, ByteOrder::kBigEndian);
  EXPECT_TRUE(msg->signals[1].is_signed);
}

TEST(Parser, MalformedLinesReportedAndSkipped) {
  const auto result = parse_dbc(R"(BO_ nonsense NAME: 8 X
BO_ 100 GOOD: 8 X
 SG_ Bad : brokenlayout (1,0) [0|1] "" X
 SG_ Good : 0|8@1+ (1,0) [0|255] "" X
 SG_ TooBig : 32|64@1+ (1,0) [0|1] "" X
)");
  EXPECT_EQ(result.errors.size(), 3u);
  const MessageDef* msg = result.database.by_id(100);
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->signals.size(), 1u);
  EXPECT_EQ(msg->signals[0].name, "Good");
}

TEST(Parser, SignalOutsideMessageIsError) {
  const auto result = parse_dbc(" SG_ Orphan : 0|8@1+ (1,0) [0|1] \"\" X\n");
  EXPECT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.database.size(), 0u);
}

TEST(Parser, RoundTripThroughText) {
  const Database original = target_vehicle_database();
  const auto result = parse_dbc(target_vehicle_dbc_text());
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  ASSERT_EQ(result.database.size(), original.size());
  for (const auto& message : original.messages()) {
    const MessageDef* loaded = result.database.by_id(message.id);
    ASSERT_NE(loaded, nullptr) << message.name;
    EXPECT_EQ(loaded->name, message.name);
    EXPECT_EQ(loaded->dlc, message.dlc);
    EXPECT_EQ(loaded->cycle_time_ms, message.cycle_time_ms);
    ASSERT_EQ(loaded->signals.size(), message.signals.size());
    for (std::size_t i = 0; i < message.signals.size(); ++i) {
      const SignalDef& a = message.signals[i];
      const SignalDef& b = loaded->signals[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.start_bit, b.start_bit);
      EXPECT_EQ(a.bit_length, b.bit_length);
      EXPECT_EQ(a.is_signed, b.is_signed);
      EXPECT_DOUBLE_EQ(a.scale, b.scale);
      EXPECT_DOUBLE_EQ(a.offset, b.offset);
    }
  }
}

}  // namespace
}  // namespace acf::dbc

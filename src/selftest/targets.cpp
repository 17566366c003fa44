// Self-fuzz targets and their invariant catalogue.
//
// Invariant families (referenced per target below):
//   [R] round-trip: decode∘encode = id, deserialize∘serialize = id
//   [F] fixed point: print∘parse is stable after one cycle (for surfaces
//       that normalise, e.g. sub-microsecond timestamps truncate on print)
//   [M] malformed input is rejected cleanly: nullopt / error list /
//       counted stat — never a throw, crash, UB or unbounded allocation
//   [S] structural: whatever a parser accepts satisfies the type's
//       documented invariants (DLC bounds, signals fit, valid verdicts)
//   [L] liveness: protocol state machines return to idle once input stops
//       (plus bounded tolerance of hostile stalling, e.g. N_WFTmax)
#include "selftest/targets.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <sstream>

#include "attacks/config.hpp"
#include "can/wire_codec.hpp"
#include "dbc/parser.hpp"
#include "feedback/corpus.hpp"
#include "fleet/remote/wire.hpp"
#include "fuzzer/checkpoint.hpp"
#include "ids/eval_codec.hpp"
#include "isotp/isotp.hpp"
#include "metrics/snapshot.hpp"
#include "sim/scheduler.hpp"
#include "trace/asc_log.hpp"
#include "trace/candump_log.hpp"
#include "trace/replay.hpp"
#include "transport/transport.hpp"
#include "uds/uds_server.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace acf::selftest {

namespace {

using Bytes = std::span<const std::uint8_t>;
using Verdict = std::optional<std::string>;

std::string_view as_text(Bytes bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

bool doubles_equal(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

bool frames_equal(const trace::TimestampedFrame& a, const trace::TimestampedFrame& b) {
  return a.frame == b.frame && a.time == b.time;
}

// ---------------------------------------------------------------------------
// checkpoint: CampaignCheckpoint::deserialize on arbitrary text.  [R][M][S]

bool checkpoints_equal(const fuzzer::CampaignCheckpoint& a,
                       const fuzzer::CampaignCheckpoint& b) {
  if (a.frames_sent != b.frames_sent || a.send_failures != b.send_failures ||
      a.elapsed != b.elapsed || a.generator_name != b.generator_name ||
      a.generator_state != b.generator_state || a.findings.size() != b.findings.size() ||
      a.recent_frames.size() != b.recent_frames.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    const fuzzer::Finding& fa = a.findings[i];
    const fuzzer::Finding& fb = b.findings[i];
    if (fa.observation.verdict != fb.observation.verdict ||
        fa.observation.time != fb.observation.time ||
        fa.observation.detail != fb.observation.detail ||
        fa.frames_sent != fb.frames_sent || fa.seed != fb.seed ||
        fa.generator != fb.generator ||
        fa.recent_frames.size() != fb.recent_frames.size()) {
      return false;
    }
    for (std::size_t f = 0; f < fa.recent_frames.size(); ++f) {
      if (!frames_equal(fa.recent_frames[f], fb.recent_frames[f])) return false;
    }
  }
  for (std::size_t f = 0; f < a.recent_frames.size(); ++f) {
    if (!frames_equal(a.recent_frames[f], b.recent_frames[f])) return false;
  }
  return true;
}

Verdict run_checkpoint(Bytes input) {
  const auto parsed = fuzzer::CampaignCheckpoint::from_string(std::string(as_text(input)));
  if (!parsed) return std::nullopt;  // clean rejection is the contract
  const std::string serialized = parsed->to_string();
  const auto reparsed = fuzzer::CampaignCheckpoint::from_string(serialized);
  if (!reparsed) return "accepted checkpoint fails to reparse after serialize";
  if (!checkpoints_equal(*parsed, *reparsed)) {
    return "checkpoint serialize/deserialize round-trip diverges";
  }
  if (reparsed->to_string() != serialized) {
    return "checkpoint serialization is not a fixed point";
  }
  return std::nullopt;
}

// checkpoint_roundtrip: metamorphic — synthesise a checkpoint whose string
// fields come straight from the input bytes (whitespace, '%', control
// characters and all), then require serialize→deserialize identity.  [R]

std::string slice_text(Bytes input, util::Rng& rng, std::size_t max_len) {
  if (input.empty()) return {};
  const auto len = rng.next_below(std::min(input.size(), max_len) + 1);
  const auto start = rng.next_below(input.size() - len + 1);
  return {reinterpret_cast<const char*>(input.data()) + start,
          static_cast<std::size_t>(len)};
}

can::CanFrame random_frame(util::Rng& rng) {
  const auto kind = rng.next_below(4);
  const auto format = rng.next_bool() ? can::IdFormat::kExtended : can::IdFormat::kStandard;
  const std::uint32_t id = static_cast<std::uint32_t>(rng.next_below(
      format == can::IdFormat::kExtended ? can::kMaxExtendedId + 1 : can::kMaxStandardId + 1));
  if (kind == 0) {
    return *can::CanFrame::remote(id, static_cast<std::uint8_t>(rng.next_below(9)), format);
  }
  std::vector<std::uint8_t> payload(kind == 1 ? rng.next_below(9)
                                              : can::fd_dlc_to_length(static_cast<std::uint8_t>(
                                                    rng.next_below(16))));
  rng.fill(payload);
  if (kind == 1) return *can::CanFrame::data(id, payload, format);
  return *can::CanFrame::fd_data(id, payload, rng.next_bool(), format);
}

Verdict run_checkpoint_roundtrip(Bytes input) {
  util::Rng rng(util::fnv1a(util::kFnv1aOffset, as_text(input)) ^ 0xC0FFEEULL);
  fuzzer::CampaignCheckpoint original;
  original.frames_sent = rng.next_u64();
  original.send_failures = rng.next_u64();
  original.elapsed = sim::Duration{static_cast<std::int64_t>(
      rng.next_below(9'000'000'000'000'000'000ULL))};
  original.generator_name = slice_text(input, rng, 48);
  original.generator_state.resize(rng.next_below(9));
  for (auto& word : original.generator_state) word = rng.next_u64();
  const auto finding_count = rng.next_below(4);
  for (std::uint64_t i = 0; i < finding_count; ++i) {
    fuzzer::Finding finding;
    finding.observation.verdict = static_cast<oracle::Verdict>(rng.next_below(3));
    finding.observation.time = sim::SimTime{static_cast<std::int64_t>(
        rng.next_below(9'000'000'000'000'000'000ULL))};
    finding.observation.detail = slice_text(input, rng, 64);
    finding.frames_sent = rng.next_u64();
    finding.seed = rng.next_u64();
    finding.generator = slice_text(input, rng, 48);
    const auto recent = rng.next_below(3);
    for (std::uint64_t f = 0; f < recent; ++f) {
      finding.recent_frames.push_back(
          {random_frame(rng),
           sim::SimTime{static_cast<std::int64_t>(rng.next_below(1'000'000'000'000ULL))}});
    }
    original.findings.push_back(std::move(finding));
  }
  const auto window = rng.next_below(4);
  for (std::uint64_t f = 0; f < window; ++f) {
    original.recent_frames.push_back(
        {random_frame(rng),
         sim::SimTime{static_cast<std::int64_t>(rng.next_below(1'000'000'000'000ULL))}});
  }

  const std::string serialized = original.to_string();
  const auto restored = fuzzer::CampaignCheckpoint::from_string(serialized);
  if (!restored) {
    return "serialized checkpoint failed to deserialize (generator name: \"" +
           original.generator_name + "\")";
  }
  if (!checkpoints_equal(original, *restored)) {
    return "checkpoint round-trip lost data (generator name: \"" +
           original.generator_name + "\")";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// dbc: parse arbitrary text; whatever loads must be structurally sound and
// survive print→parse unchanged.  [R][M][S]

bool signals_equal(const dbc::SignalDef& a, const dbc::SignalDef& b) {
  return a.name == b.name && a.start_bit == b.start_bit && a.bit_length == b.bit_length &&
         a.byte_order == b.byte_order && a.is_signed == b.is_signed &&
         doubles_equal(a.scale, b.scale) && doubles_equal(a.offset, b.offset) &&
         doubles_equal(a.min, b.min) && doubles_equal(a.max, b.max) && a.unit == b.unit;
}

bool databases_equal(const dbc::Database& a, const dbc::Database& b) {
  if (a.size() != b.size()) return false;
  for (const dbc::MessageDef& message : a.messages()) {
    const dbc::MessageDef* other = b.by_id(message.id);
    if (other == nullptr || other->name != message.name || other->dlc != message.dlc ||
        other->format != message.format || other->cycle_time_ms != message.cycle_time_ms ||
        other->signals.size() != message.signals.size()) {
      return false;
    }
    for (std::size_t i = 0; i < message.signals.size(); ++i) {
      if (!signals_equal(message.signals[i], other->signals[i])) return false;
    }
  }
  return true;
}

Verdict run_dbc(Bytes input) {
  const dbc::ParseResult first = dbc::parse_dbc(as_text(input));
  for (const dbc::MessageDef& message : first.database.messages()) {
    if (message.dlc > can::kMaxClassicPayload) {
      return "parser accepted message '" + message.name + "' with DLC " +
             std::to_string(message.dlc);
    }
    for (const dbc::SignalDef& sig : message.signals) {
      if (!sig.fits(message.dlc)) {
        return "parser accepted signal '" + sig.name + "' exceeding DLC of '" +
               message.name + "'";
      }
    }
  }
  const std::string printed = dbc::to_dbc_text(first.database, first.nodes);
  const dbc::ParseResult second = dbc::parse_dbc(printed);
  if (!second.errors.empty()) {
    return "printed DBC no longer parses: " + second.errors.front();
  }
  if (!databases_equal(first.database, second.database)) {
    return "DBC parse→print→parse diverges";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// candump / asc: per-line log readers.  Accepted lines must reprint and
// reparse to the same frame, and printing must be a fixed point (timestamps
// normalise to microsecond resolution on the first print).  [F][M]

Verdict run_candump(Bytes input) {
  std::istringstream in{std::string(as_text(input))};
  std::string line;
  while (std::getline(in, line)) {
    const auto entry = trace::parse_candump_line(line);
    if (!entry) continue;  // clean rejection
    const std::string printed = trace::to_candump_line(*entry, "can0");
    const auto reparsed = trace::parse_candump_line(printed);
    if (!reparsed) return "accepted candump line fails to reparse: " + printed;
    if (!(reparsed->frame == entry->frame)) {
      return "candump frame changed across print/parse: " + printed;
    }
    if (trace::to_candump_line(*reparsed, "can0") != printed) {
      return "candump print is not a fixed point: " + printed;
    }
  }
  return std::nullopt;
}

Verdict run_asc(Bytes input) {
  std::istringstream in{std::string(as_text(input))};
  std::string line;
  while (std::getline(in, line)) {
    const auto entry = trace::parse_asc_line(line);
    if (!entry) continue;
    const std::string printed = trace::to_asc_line(*entry, 1);
    const auto reparsed = trace::parse_asc_line(printed);
    if (!reparsed) return "accepted ASC line fails to reparse: " + printed;
    if (!(reparsed->frame == entry->frame)) {
      return "ASC frame changed across print/parse: " + printed;
    }
    if (trace::to_asc_line(*reparsed, 1) != printed) {
      return "ASC print is not a fixed point: " + printed;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// replay: hostile traces (out-of-order, ~292-year gaps, scaled) must replay
// every frame and terminate.  [L][M]

class CountingTransport final : public transport::CanTransport {
 public:
  bool send(const can::CanFrame&) override {
    ++stats_.frames_sent;
    return true;
  }
  void set_rx_callback(transport::RxCallback) override {}
  std::string name() const override { return "selftest:null"; }
  const transport::TransportStats& stats() const override { return stats_; }

 private:
  transport::TransportStats stats_;
};

Verdict run_replay(Bytes input) {
  if (input.empty()) return std::nullopt;
  static constexpr double kScales[] = {0.25, 0.5, 1.0, 2.0, 4.0, 1000.0};
  trace::ReplayOptions options;
  options.time_scale = kScales[input[0] % std::size(kScales)];
  options.repeat = 1 + ((input[0] >> 3) & 1);

  std::istringstream in{std::string(as_text(input.subspan(1)))};
  auto frames = trace::read_candump(in, nullptr);
  if (frames.size() > 128) frames.resize(128);
  const std::size_t count = frames.size();

  sim::Scheduler scheduler;
  CountingTransport transport;
  trace::Replayer replayer(scheduler, transport, std::move(frames), options);
  bool done = count == 0;
  replayer.set_on_done([&done] { done = true; });
  replayer.start();
  // One scheduled event per frame plus the repeat gaps: a generous step
  // bound means "didn't finish" is a liveness bug, not a tight budget.
  const std::size_t max_steps = count * options.repeat + 64;
  for (std::size_t i = 0; i < max_steps && replayer.running(); ++i) {
    if (!scheduler.step()) break;
  }
  if (count == 0) return std::nullopt;
  if (replayer.running() || !done) return "replay did not terminate";
  if (replayer.frames_sent() != count * options.repeat) {
    return "replay sent " + std::to_string(replayer.frames_sent()) + " of " +
           std::to_string(count * options.repeat) + " frames";
  }
  if (transport.stats().frames_sent != replayer.frames_sent()) {
    return "replay frame accounting diverges from transport";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// isotp: IsoTpChannel::handle_frame driven by a byte script — raw frames on
// the rx id (the mutator controls the PCI byte directly), interleaved with
// time advance and channel sends.  The channel must keep counting stats,
// never deliver an oversized message, and drain back to idle.  [L][M][S]

Verdict run_isotp(Bytes input) {
  sim::Scheduler scheduler;
  isotp::IsoTpConfig config;
  config.timeout = std::chrono::milliseconds(100);
  std::uint64_t raw_sent = 0;
  Verdict verdict;
  isotp::IsoTpChannel channel(
      scheduler,
      [&raw_sent](const can::CanFrame&) {
        ++raw_sent;
        return raw_sent % 7 != 0;  // periodic mailbox-full to exercise retry
      },
      config);
  std::uint64_t delivered = 0;
  channel.set_on_message([&](const std::vector<std::uint8_t>& message, sim::SimTime) {
    ++delivered;
    if (message.empty() || message.size() > isotp::kMaxPayload) {
      verdict = "delivered message of size " + std::to_string(message.size());
    }
  });

  std::uint64_t injected = 0;
  std::size_t pos = 0;
  while (pos < input.size() && !verdict) {
    const std::uint8_t op = input[pos++];
    if (op < 0x40) {
      scheduler.run_for(std::chrono::milliseconds(op));
    } else if (op < 0x80) {
      if (!channel.tx_busy()) {
        const std::size_t size = (static_cast<std::size_t>(op - 0x40) * 33) % 4096 + 1;
        channel.send(std::vector<std::uint8_t>(size, 0xA5));
      }
    } else {
      const std::size_t len = std::min<std::size_t>(op & 0x0F, 8);
      const std::size_t take = std::min(len, input.size() - pos);
      const auto frame =
          can::CanFrame::data(config.rx_id, input.subspan(pos, take));
      pos += take;
      if (frame) {
        channel.handle_frame(*frame, scheduler.now());
        ++injected;
      }
    }
  }
  if (verdict) return verdict;

  // Liveness: with input exhausted, timeouts (and the N_WFTmax bound while
  // input was flowing) must return both state machines to idle.  The window
  // must cover one full legitimate transfer: ~585 consecutive frames at the
  // maximum 127 ms STmin is ~75 s, plus N_WFTmax timeout re-arms.
  scheduler.run_for(std::chrono::seconds(120));
  if (channel.tx_busy()) return "tx state machine stuck after input drained";
  const isotp::IsoTpStats& stats = channel.stats();
  if (stats.malformed_frames > injected) {
    return "malformed_frames exceeds injected frame count";
  }
  if (delivered != stats.messages_received) {
    return "messages_received diverges from delivered callback count";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// uds: UdsServer::handle_request on length-sliced arbitrary requests.  Every
// response is empty, a well-formed negative (0x7F sid nrc) or a positive
// echoing sid+0x40; the server itself never throws.  [M][S]

Verdict run_uds(Bytes input) {
  sim::Scheduler scheduler;
  uds::UdsServerConfig config;
  uds::UdsServer server(scheduler, config);
  server.set_did(0xF190, {0x41, 0x43, 0x46}, false);
  server.set_did(0xF1A0, {0x00, 0x01}, true, true);
  server.set_dtc_provider([] { return std::vector<std::uint8_t>{0x01, 0x23, 0x45, 0x20}; });

  Verdict verdict;
  std::size_t pos = 0;
  while (pos < input.size() && !verdict) {
    const std::uint8_t control = input[pos++];
    const std::size_t len = std::min<std::size_t>(control % 17, input.size() - pos);
    const auto request = input.subspan(pos, len);
    pos += len;
    server.handle_request(request, [&](std::vector<std::uint8_t> response) {
      if (request.empty()) {
        verdict = "response produced for empty request";
        return;
      }
      const std::uint8_t sid = request[0];
      if (response.empty()) {
        verdict = "empty response passed to respond callback";
      } else if (response[0] == uds::kNegativeResponse) {
        if (response.size() != 3 || response[1] != sid) {
          verdict = "malformed negative response (sid " + std::to_string(sid) + ")";
        }
      } else if (response[0] != static_cast<std::uint8_t>(sid + 0x40)) {
        verdict = "positive response does not echo sid+0x40 (sid " +
                  std::to_string(sid) + ")";
      }
    });
    scheduler.run_for(std::chrono::milliseconds(control >> 4));
  }
  return verdict;
}

// ---------------------------------------------------------------------------
// wire: classic-CAN wire codec.  Structured mode: encode a frame built from
// the input, require decode∘encode = id, then require any single-bit
// corruption to be rejected or decode to the identical frame (CRC-15 +
// form checks).  Raw mode: arbitrary bit soup must decode cleanly or not at
// all, and whatever decodes must re-encode to itself.  [R][M]

Verdict run_wire(Bytes input) {
  if (input.empty()) return std::nullopt;
  const std::uint8_t mode = input[0];
  const Bytes rest = input.subspan(1);

  if ((mode & 1) != 0) {
    // Raw-bit mode.
    std::vector<std::uint8_t> bits;
    bits.reserve(std::min<std::size_t>(rest.size() * 8, 2048));
    for (const std::uint8_t byte : rest) {
      for (int bit = 7; bit >= 0 && bits.size() < 2048; --bit) {
        bits.push_back((byte >> bit) & 1);
      }
    }
    for (const bool wire_form : {true, false}) {
      const auto decoded =
          wire_form ? can::decode_wire(bits) : can::decode_logical(bits);
      if (!decoded) continue;
      const can::BitVec reencoded =
          wire_form ? can::encode_wire(*decoded, true) : can::encode_logical(*decoded);
      const auto redecoded =
          wire_form ? can::decode_wire(reencoded) : can::decode_logical(reencoded);
      if (!redecoded || !(*redecoded == *decoded)) {
        return std::string("decoded frame does not survive re-encode (") +
               (wire_form ? "wire" : "logical") + ")";
      }
    }
    return std::nullopt;
  }

  // Structured mode: header bytes choose the frame, the rest picks flips.
  if (rest.size() < 6) return std::nullopt;
  const bool extended = (mode & 2) != 0;
  const bool remote = (mode & 4) != 0;
  std::uint32_t id = static_cast<std::uint32_t>(rest[0]) |
                     (static_cast<std::uint32_t>(rest[1]) << 8) |
                     (static_cast<std::uint32_t>(rest[2]) << 16);
  id &= extended ? can::kMaxExtendedId : can::kMaxStandardId;
  const auto format = extended ? can::IdFormat::kExtended : can::IdFormat::kStandard;
  const std::size_t payload_len = rest[3] % 9;
  std::optional<can::CanFrame> frame;
  if (remote) {
    frame = can::CanFrame::remote(id, static_cast<std::uint8_t>(payload_len), format);
  } else {
    const std::size_t take = std::min(payload_len, rest.size() - 4);
    frame = can::CanFrame::data(id, rest.subspan(4, take), format);
  }
  if (!frame) return "structured frame constructor rejected in-range inputs";

  can::BitVec wire = can::encode_wire(*frame, true);
  const auto clean = can::decode_wire(wire);
  if (!clean || !(*clean == *frame)) return "decode(encode(frame)) != frame";

  const std::size_t flips = std::min<std::size_t>(mode >> 4, rest.size() - 4);
  for (std::size_t i = 0; i < flips; ++i) {
    wire[rest[4 + i] % wire.size()] ^= 1;
  }
  const auto corrupted = can::decode_wire(wire);
  if (flips == 1 && corrupted && !(*corrupted == *frame)) {
    return "single-bit corruption decoded as a different frame";
  }
  if (corrupted) {
    const auto survived = can::decode_wire(can::encode_wire(*corrupted, true));
    if (!survived || !(*survived == *corrupted)) {
      return "corrupted-but-accepted frame does not survive re-encode";
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// fleet_wire: the distributed-campaign frame protocol.  Raw mode: arbitrary
// bytes through FrameReader (chunked arbitrarily vs fed whole must agree),
// then strict decode — whatever decodes must re-encode to the identical
// payload, unknown types round-trip verbatim, truncated frames yield
// nothing, zero/oversized length prefixes poison the stream.  Structured
// mode: synthesise each message type from the input, frame it, push it
// through a chunked reader and require value identity back out.  [R][M][S]

namespace fr = fleet::remote;

bool messages_equal(const fr::Message& a, const fr::Message& b) {
  // Value equality via the canonical encoding: every field crosses encode().
  return fr::encode(a) == fr::encode(b);
}

/// Drains a stream through FrameReader in `rng`-sized chunks.
struct DrainResult {
  std::vector<std::vector<std::uint8_t>> payloads;
  bool poisoned = false;
};

DrainResult drain_chunked(Bytes stream, util::Rng* rng) {
  DrainResult result;
  fr::FrameReader reader;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t chunk =
        rng ? 1 + rng->next_below(64) : stream.size() - pos;
    const std::size_t take = std::min<std::size_t>(chunk, stream.size() - pos);
    reader.feed(stream.subspan(pos, take));
    pos += take;
    while (auto payload = reader.next()) result.payloads.push_back(std::move(*payload));
  }
  while (auto payload = reader.next()) result.payloads.push_back(std::move(*payload));
  result.poisoned = reader.poisoned();
  return result;
}

/// Arbitrary-magnitude but always-finite double (the wire and the snapshot
/// codec both reject non-finite values, so generators must stay finite).
double finite_double(util::Rng& rng) {
  return std::ldexp(static_cast<double>(rng.next_u64()), -32);
}

fr::MetricsUpdate random_metrics(Bytes input, util::Rng& rng) {
  fr::MetricsUpdate update;
  const auto counters = rng.next_below(4);
  for (std::uint64_t i = 0; i < counters; ++i) {
    update.counters.push_back({slice_text(input, rng, 48), rng.next_u64()});
  }
  const auto gauges = rng.next_below(3);
  for (std::uint64_t i = 0; i < gauges; ++i) {
    update.gauges.push_back(
        {slice_text(input, rng, 48), static_cast<std::int64_t>(rng.next_u64())});
  }
  const auto timers = rng.next_below(3);
  for (std::uint64_t i = 0; i < timers; ++i) {
    fr::WireTimer timer;
    timer.name = slice_text(input, rng, 48);
    timer.count = rng.next_u64();
    timer.sum = finite_double(rng);
    timer.min = finite_double(rng);
    timer.max = finite_double(rng);
    const auto samples = rng.next_below(5);
    for (std::uint64_t s = 0; s < samples; ++s) {
      timer.samples.push_back({finite_double(rng), rng.next_u64(), rng.next_u64()});
    }
    update.timers.push_back(std::move(timer));
  }
  return update;
}

fr::Message random_message(Bytes input, util::Rng& rng) {
  switch (rng.next_below(9)) {
    case 0: {
      fr::HelloMsg msg;
      msg.protocol_version = static_cast<std::uint32_t>(rng.next_u64());
      msg.fingerprint = rng.next_u64();
      msg.capacity = static_cast<std::uint32_t>(rng.next_u64());
      msg.worker_name = slice_text(input, rng, fr::kMaxNameBytes);
      return msg;
    }
    case 1: {
      fr::WelcomeMsg msg;
      msg.fingerprint = rng.next_u64();
      msg.trial_count = rng.next_u64();
      msg.session = rng.next_u64();
      return msg;
    }
    case 2:
      return fr::LeaseRequestMsg{static_cast<std::uint32_t>(rng.next_u64())};
    case 3: {
      fr::LeaseGrantMsg msg;
      msg.lease_id = rng.next_u64();
      msg.deadline_ms = static_cast<std::uint32_t>(rng.next_u64());
      const auto count = rng.next_below(17);
      for (std::uint64_t i = 0; i < count; ++i) msg.trials.push_back(rng.next_u64());
      return msg;
    }
    case 4: {
      fr::LeaseResultMsg msg;
      msg.lease_id = rng.next_u64();
      msg.outcome.spec.trial_index = rng.next_u64();
      msg.outcome.spec.arm = rng.next_below(64);
      msg.outcome.spec.replica = rng.next_below(1024);
      msg.outcome.spec.seed = rng.next_u64();
      msg.outcome.spec.sim_budget =
          sim::Duration{static_cast<std::int64_t>(rng.next_u64())};
      msg.outcome.status = static_cast<fleet::TrialStatus>(rng.next_below(3));
      msg.outcome.stop_reason = static_cast<fuzzer::StopReason>(rng.next_below(7));
      msg.outcome.frames_sent = rng.next_u64();
      msg.outcome.send_failures = rng.next_u64();
      msg.outcome.sim_seconds = std::bit_cast<double>(rng.next_u64());
      msg.outcome.time_to_failure = std::bit_cast<double>(rng.next_u64());
      const auto findings = rng.next_below(4);
      for (std::uint64_t i = 0; i < findings; ++i) {
        msg.outcome.findings.push_back(slice_text(input, rng, 96));
      }
      msg.outcome.error = slice_text(input, rng, 96);
      return msg;
    }
    case 5: {
      fr::HeartbeatMsg msg;
      msg.lease_id = rng.next_u64();
      msg.completed = rng.next_u64();
      if (rng.next_bool()) msg.metrics = random_metrics(input, rng);
      return msg;
    }
    case 6:
      return fr::ShutdownMsg{static_cast<fr::ShutdownReason>(rng.next_below(2))};
    case 7:
      return fr::RejectedMsg{slice_text(input, rng, 128)};
    default: {
      fr::UnknownMsg msg;
      // A type this protocol version does not define: 0 or 9..255.
      msg.type = static_cast<std::uint8_t>(9 + rng.next_below(248)) ;
      if (rng.next_bool()) msg.type = 0;
      const auto len = rng.next_below(65);
      msg.payload.resize(len);
      for (auto& byte : msg.payload) byte = static_cast<std::uint8_t>(rng.next_u64());
      return msg;
    }
  }
}

Verdict run_fleet_wire(Bytes input) {
  if (input.empty()) return std::nullopt;
  util::Rng rng(util::fnv1a(util::kFnv1aOffset, as_text(input)) ^ 0xF1EE7ULL);
  const std::uint8_t mode = input[0];
  const Bytes rest = input.subspan(1);

  if ((mode & 1) != 0) {
    // Raw mode: the stream IS the input.  Chunking must not matter.
    DrainResult whole = drain_chunked(rest, nullptr);
    DrainResult chunked = drain_chunked(rest, &rng);
    if (whole.poisoned != chunked.poisoned ||
        whole.payloads != chunked.payloads) {
      return "FrameReader output depends on chunk boundaries";
    }
    for (const std::vector<std::uint8_t>& payload : whole.payloads) {
      if (payload.empty() || payload.size() > fr::kMaxFramePayload) {
        return "FrameReader emitted a payload outside the declared bounds";
      }
      const std::optional<fr::Message> decoded = fr::decode(payload);
      if (!decoded) continue;  // clean rejection is the contract
      if (fr::encode(*decoded) != payload) {
        return "accepted wire payload does not re-encode to itself";
      }
      if (const auto* unknown = std::get_if<fr::UnknownMsg>(&*decoded)) {
        if (unknown->payload.size() + 1 != payload.size()) {
          return "unknown message type did not preserve its payload verbatim";
        }
      }
    }
    return std::nullopt;
  }

  // Structured mode: synthesised messages must cross a chunked stream
  // intact, truncation must starve the reader, and a hostile length prefix
  // must poison it.
  const auto count = 1 + rng.next_below(6);
  std::vector<fr::Message> sent;
  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = 0; i < count; ++i) {
    sent.push_back(random_message(input, rng));
    const std::vector<std::uint8_t> frame = fr::frame_message(sent.back());
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  DrainResult drained = drain_chunked(stream, &rng);
  if (drained.poisoned) return "well-formed frame stream poisoned the reader";
  if (drained.payloads.size() != sent.size()) {
    return "reader returned " + std::to_string(drained.payloads.size()) + " of " +
           std::to_string(sent.size()) + " frames";
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const std::optional<fr::Message> decoded = fr::decode(drained.payloads[i]);
    if (!decoded) return "well-formed frame failed strict decode";
    if (!messages_equal(*decoded, sent[i])) {
      return "message changed across frame/decode round-trip";
    }
  }

  // Truncation: cutting the stream mid-frame must never yield that frame.
  if (!stream.empty()) {
    const std::size_t cut = 1 + rng.next_below(std::min<std::size_t>(
                                    fr::frame_message(sent.back()).size() - 1, 64));
    DrainResult truncated = drain_chunked(
        Bytes(stream).subspan(0, stream.size() - cut), &rng);
    if (truncated.poisoned) return "truncated well-formed stream poisoned the reader";
    if (truncated.payloads.size() >= sent.size()) {
      return "reader emitted a frame whose bytes were truncated";
    }
  }

  // Hostile length prefixes: zero and oversized both poison before any
  // payload is buffered.
  for (const std::uint32_t hostile :
       {0u, static_cast<std::uint32_t>(fr::kMaxFramePayload) + 1, 0xFFFFFFFFu}) {
    fr::FrameReader reader;
    std::uint8_t prefix[4];
    for (int b = 0; b < 4; ++b) prefix[b] = static_cast<std::uint8_t>(hostile >> (8 * b));
    reader.feed(std::span<const std::uint8_t>(prefix, 4));
    if (!reader.poisoned()) {
      return "length prefix " + std::to_string(hostile) + " did not poison the reader";
    }
    if (reader.feed(rest.subspan(0, std::min<std::size_t>(rest.size(), 8))) ||
        reader.next()) {
      return "poisoned reader accepted further input";
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// metrics_snapshot: the acf-metrics-v1 JSONL codec.  Raw mode: arbitrary
// text through parse_snapshot_line — clean rejection or, when accepted,
// encode∘parse∘encode must be a fixed point (one canonicalizing encode).
// Structured mode: build a registry from the input bytes (names may carry
// quotes, backslashes and control bytes, exercising the shared JSON
// escaper), snapshot it, encode, parse, re-encode byte-identically.  [R][M][S]

Verdict run_metrics_snapshot(Bytes input) {
  if (input.empty()) return std::nullopt;
  util::Rng rng(util::fnv1a(util::kFnv1aOffset, as_text(input)) ^ 0x5EEDF00DULL);
  const std::uint8_t mode = input[0];
  const Bytes rest = input.subspan(1);

  if ((mode & 1) != 0) {
    const std::optional<metrics::SnapshotLine> parsed =
        metrics::parse_snapshot_line(as_text(rest));
    if (!parsed) return std::nullopt;  // clean rejection is the contract
    const std::string encoded = metrics::encode_snapshot_line(*parsed);
    const std::optional<metrics::SnapshotLine> reparsed =
        metrics::parse_snapshot_line(encoded);
    if (!reparsed) return "accepted line re-encoded to something the parser rejects";
    if (metrics::encode_snapshot_line(*reparsed) != encoded) {
      return "encode∘parse is not a fixed point on an accepted line";
    }
    return std::nullopt;
  }

  // Structured mode: hostile names through a real registry.
  metrics::Registry registry;
  const auto counters = rng.next_below(5);
  for (std::uint64_t i = 0; i < counters; ++i) {
    registry.counter(slice_text(rest, rng, 48)).add(rng.next_u64());
  }
  const auto gauges = rng.next_below(4);
  for (std::uint64_t i = 0; i < gauges; ++i) {
    registry.gauge(slice_text(rest, rng, 48)).set(static_cast<std::int64_t>(rng.next_u64()));
  }
  const auto meters = rng.next_below(3);
  for (std::uint64_t i = 0; i < meters; ++i) {
    metrics::Meter& meter = registry.meter(slice_text(rest, rng, 48));
    meter.mark(rng.next_below(1000));
    meter.tick_to(std::ldexp(static_cast<double>(rng.next_below(1 << 20)), -4));
  }
  const auto timers = rng.next_below(3);
  for (std::uint64_t i = 0; i < timers; ++i) {
    metrics::Timer& timer = registry.timer(slice_text(rest, rng, 48));
    const auto records = rng.next_below(16);
    for (std::uint64_t s = 0; s < records; ++s) timer.record(finite_double(rng));
  }

  metrics::SnapshotLine line;
  line.seq = rng.next_u64();
  line.source = slice_text(rest, rng, 48);
  line.sim_seconds = finite_double(rng);
  line.registry = registry.snapshot();
  for (metrics::TimerSnap& timer : line.registry.timers) timer.samples.clear();

  const std::string encoded = metrics::encode_snapshot_line(line);
  if (encoded.find('\n') != std::string::npos) {
    return "encoded snapshot line contains a raw newline";
  }
  const std::optional<metrics::SnapshotLine> parsed = metrics::parse_snapshot_line(encoded);
  if (!parsed) return "snapshot of a real registry failed strict parse";
  if (metrics::encode_snapshot_line(*parsed) != encoded) {
    return "snapshot line changed across encode/parse round-trip";
  }
  if (parsed->seq != line.seq || parsed->source != line.source) {
    return "snapshot header fields changed across round-trip";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// corpus_file: the feedback corpus disk format ("ACFC").  Raw mode: strict
// bounded decode of arbitrary bytes — whatever decodes must satisfy every
// structural bound the format documents (seed/frame/feature caps, strictly
// increasing features, classic-CAN frames) and re-encode byte-identically,
// because the decoder only accepts canonical encodings.  Structured mode:
// synthesise a corpus from the input bytes, require decode∘encode identity,
// and require every truncation and any trailing garbage to be rejected
// before allocation.  [R][M][S]

Verdict run_corpus_file(Bytes input) {
  if (input.empty()) return std::nullopt;
  const std::uint8_t mode = input[0];
  const Bytes rest = input.subspan(1);

  if ((mode & 1) != 0) {
    // Raw mode.
    const auto decoded = feedback::Corpus::decode(rest);
    if (!decoded) return std::nullopt;  // clean rejection is the contract
    if (decoded->size() > feedback::kMaxCorpusSeeds) {
      return "decoded corpus exceeds the seed cap";
    }
    for (std::size_t i = 0; i < decoded->size(); ++i) {
      const feedback::Seed& seed = decoded->at(i);
      if (seed.frames.empty() || seed.frames.size() > feedback::kMaxSeedFrames) {
        return "decoded seed frame count outside bounds";
      }
      if (seed.features.size() > feedback::kMaxSeedFeatures) {
        return "decoded seed feature count outside bounds";
      }
      for (std::size_t f = 1; f < seed.features.size(); ++f) {
        if (seed.features[f] <= seed.features[f - 1]) {
          return "decoded features are not strictly increasing";
        }
      }
      for (const can::CanFrame& frame : seed.frames) {
        if (frame.length() > can::kMaxClassicPayload || frame.is_fd()) {
          return "decoded frame outside classic-CAN bounds";
        }
      }
    }
    const std::vector<std::uint8_t> reencoded = decoded->encode();
    if (!std::equal(reencoded.begin(), reencoded.end(), rest.begin(), rest.end())) {
      return "accepted corpus bytes do not re-encode to themselves";
    }
    return std::nullopt;
  }

  // Structured mode: synthesise, round-trip, then attack the canonical bytes.
  util::Rng rng(util::fnv1a(util::kFnv1aOffset, as_text(input)) ^ 0xC0B9A5ULL);
  feedback::Corpus corpus;
  const auto seeds = rng.next_below(6);
  for (std::uint64_t i = 0; i < seeds; ++i) {
    feedback::Seed seed;
    const auto frames = 1 + rng.next_below(5);
    for (std::uint64_t f = 0; f < frames; ++f) {
      const bool extended = rng.next_bool();
      const std::uint32_t id = static_cast<std::uint32_t>(rng.next_below(
          extended ? can::kMaxExtendedId + 1 : can::kMaxStandardId + 1));
      std::vector<std::uint8_t> payload(rng.next_below(9));
      rng.fill(payload);
      seed.frames.push_back(*can::CanFrame::data(
          id, payload, extended ? can::IdFormat::kExtended : can::IdFormat::kStandard));
    }
    const auto features = rng.next_below(9);
    for (std::uint64_t f = 0; f < features; ++f) seed.features.push_back(rng.next_u64());
    seed.hot = rng.next_bool();
    seed.found_at_exec = rng.next_u64();
    seed.exec_cost_ns = rng.next_u64();
    corpus.add(std::move(seed));  // sorts + dedups features
  }

  const std::vector<std::uint8_t> bytes = corpus.encode();
  const auto decoded = feedback::Corpus::decode(bytes);
  if (!decoded) return "canonical corpus bytes failed strict decode";
  if (decoded->size() != corpus.size()) {
    return "corpus seed count changed across encode/decode";
  }
  if (decoded->encode() != bytes) {
    return "corpus changed across encode/decode round-trip";
  }
  // Every truncation must be rejected (strict full consumption + bounded
  // counts checked against remaining bytes before allocation).
  const std::size_t cut = 1 + rng.next_below(std::min<std::size_t>(bytes.size(), 64));
  if (feedback::Corpus::decode(Bytes(bytes).subspan(0, bytes.size() - cut))) {
    return "truncated corpus bytes decoded";
  }
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(rng.next_byte());
  if (feedback::Corpus::decode(padded)) {
    return "corpus bytes with trailing garbage decoded";
  }
  return std::nullopt;
}

// attack_config: the attack-scenario spec codec (attacks/config.hpp), the
// bytes that select and parameterise a campaign arm on any fleet worker.
// [M] arbitrary bytes are rejected cleanly; only canonical 22-byte
//     encodings decode.
// [S] whatever decodes satisfies the documented bounds (family/bus range,
//     11-bit id, period and burst windows, zero padding).
// [R] encode∘decode = id on accepted inputs and decode∘encode = id on the
//     resulting specs — the encoding is canonical, so a spec has exactly
//     one byte representation.
Verdict run_attack_config(Bytes input) {
  const auto spec = attacks::decode_attack_spec(input);
  if (!spec) return std::nullopt;
  if (!attacks::attack_spec_valid(*spec)) return "decoded spec violates its bounds";
  const std::vector<std::uint8_t> encoded = attacks::encode_attack_spec(*spec);
  if (encoded.size() != input.size() ||
      !std::equal(encoded.begin(), encoded.end(), input.begin())) {
    return "encode(decode(x)) != x";
  }
  const auto again = attacks::decode_attack_spec(encoded);
  if (!again || !(*again == *spec)) return "decode(encode(spec)) != spec";
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// ids_eval: the ids-eval/1 digest codec (ids/eval_codec.hpp) — the text a
// fleet trial's detector evaluation rides in from a remote worker.  Every
// input is decoded as a line, and also seeds a generated evaluation.
// [M] whatever is rejected leaves the evaluation untouched.
// [S] accepted doubles are finite and every accepted count fits 64 bits
//     (a wrapped count would be silently wrong, not rejected).
// [F] an accepted line re-encodes to its canonical payload, which decodes
//     to the same evaluation and re-encodes byte-identically.
// [R] decode∘encode = id on generated evaluations, histogram edge bins 0
//     and 255 included.
// The encoding is injective on finite values (%.17g doubles, canonical
// sparse bins), so equal digest lines mean equal evaluations.

std::vector<std::string> digest_lines(const ids::TrialEval& eval) {
  std::vector<std::string> lines = {ids::encode_eval_totals(eval)};
  for (const ids::DetectorEval& det : eval.detectors) {
    lines.push_back(ids::encode_detector_eval(det));
  }
  return lines;
}

bool fits_u64(std::string_view digits) {
  std::uint64_t value = 0;
  const char* end = digits.data() + digits.size();
  const auto [stop, error] = std::from_chars(digits.data(), end, value);
  return error == std::errc() && stop == end;
}

/// The value of the first nonempty `key=` token after the digest marker —
/// the token the decoder reads.
std::string_view digest_field(std::string_view line, std::string_view key) {
  std::string_view text = line.substr(line.find(ids::kEvalDigestMarker));
  while (!text.empty()) {
    const std::size_t space = text.find(' ');
    const std::string_view token = text.substr(0, space);
    if (token.size() > key.size() + 1 && token.starts_with(key) && token[key.size()] == '=') {
      return token.substr(key.size() + 1);
    }
    if (space == std::string_view::npos) break;
    text.remove_prefix(space + 1);
  }
  return {};
}

/// Every count the decoder read from an accepted `line`: the scalar counts
/// and, on a det line, each bin:count pair of both histograms.
bool counts_fit_u64(std::string_view line, bool det_line) {
  static constexpr std::string_view kTotals[] = {"attack", "legit",      "trained", "scored",
                                                 "raised", "suppressed", "dropped"};
  static constexpr std::string_view kDet[] = {"tp", "fp", "tn", "fn"};
  for (const std::string_view key : det_line ? std::span<const std::string_view>(kDet)
                                             : std::span<const std::string_view>(kTotals)) {
    if (!fits_u64(digest_field(line, key))) return false;
  }
  for (const std::string_view key : {"ab", "lb"}) {
    std::string_view bins = digest_field(line, key);
    if (!det_line || bins == "-") continue;
    while (true) {
      const std::size_t comma = bins.find(',');
      const std::string_view pair = bins.substr(0, comma);
      const std::size_t colon = pair.find(':');
      if (!fits_u64(pair.substr(0, colon)) || !fits_u64(pair.substr(colon + 1))) return false;
      if (comma == std::string_view::npos) break;
      bins.remove_prefix(comma + 1);
    }
  }
  return true;
}

ids::TrialEval random_trial_eval(util::Rng& rng) {
  const double specials[] = {0.0, -0.0, 1.0, -1.0, 0.5, 4.9406564584124654e-324,
                             1.7976931348623157e308, -2.2250738585072014e-308};
  const auto pick_double = [&] {
    return rng.next_bool() ? specials[rng.next_below(std::size(specials))]
                           : finite_double(rng) * (rng.next_bool() ? 1.0 : -1e-9);
  };
  const auto pick_count = [&] {
    return rng.next_bool() ? rng.next_u64() : rng.next_below(1000);
  };
  ids::TrialEval eval;
  eval.attack_frames = pick_count();
  eval.legit_frames = pick_count();
  eval.pipeline = {pick_count(), pick_count(), pick_count(), pick_count(), pick_count()};
  static constexpr std::string_view kNameChars = "abcdefghijklmnopqrstuvwxyz0123456789_-.";
  for (auto detectors = rng.next_below(6); detectors > 0; --detectors) {
    ids::DetectorEval det;
    for (auto length = 1 + rng.next_below(12); length > 0; --length) {
      det.name += kNameChars[rng.next_below(kNameChars.size())];
    }
    det.threshold = pick_double();
    det.detection_latency = rng.next_bool() ? -1.0 : pick_double();
    det.tp = pick_count();
    det.fp = pick_count();
    det.tn = pick_count();
    det.fn = pick_count();
    for (std::vector<std::uint64_t>* bins : {&det.attack_bins, &det.legit_bins}) {
      for (auto filled = rng.next_below(5); filled > 0; --filled) {
        const std::uint64_t edge = rng.next_bool() ? 0 : ids::DetectorEval::kBins - 1;
        (*bins)[rng.next_bool() ? edge : rng.next_below(ids::DetectorEval::kBins)] =
            pick_count();
      }
    }
    eval.detectors.push_back(std::move(det));
  }
  return eval;
}

Verdict run_ids_eval(Bytes input) {
  const std::string_view line = as_text(input);
  ids::TrialEval sentinel;
  sentinel.attack_frames = 11;
  sentinel.pipeline.alerts_dropped = 13;
  ids::TrialEval eval = sentinel;
  if (!ids::decode_eval_line(line, eval)) {
    if (digest_lines(eval) != digest_lines(sentinel)) {
      return "rejected line changed the evaluation";
    }
  } else {
    // A totals line overwrites the sentinel's counters; a det line appends.
    const bool det_line = !eval.detectors.empty();
    if (det_line && (!std::isfinite(eval.detectors[0].threshold) ||
                     !std::isfinite(eval.detectors[0].detection_latency))) {
      return "accepted a non-finite threshold or latency";
    }
    if (!counts_fit_u64(line, det_line)) return "accepted a count past 2^64 - 1";
    const std::string canonical = digest_lines(eval)[det_line ? 1 : 0];
    ids::TrialEval again = sentinel;
    if (!ids::decode_eval_line(canonical, again)) {
      return "accepted line re-encoded to a payload the decoder rejects";
    }
    if (digest_lines(again) != digest_lines(eval)) {
      return "canonical payload is not a fixed point";
    }
  }

  // [R] generated evaluations, shipped the way a world ships them: every
  // other line behind a finding-summary prefix.
  util::Rng rng(util::fnv1a(util::kFnv1aOffset, line) ^ 0x1DE7A1ULL);
  const ids::TrialEval generated = random_trial_eval(rng);
  const std::vector<std::string> lines = digest_lines(generated);
  ids::TrialEval decoded;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string shipped =
        i % 2 == 1 ? "[nominal] t=12.000 ms after 7 frames: " + lines[i] : lines[i];
    if (!ids::decode_eval_line(shipped, decoded)) return "encoded digest line rejected";
  }
  if (digest_lines(decoded) != lines) return "decode(encode(eval)) != eval";
  return std::nullopt;
}

std::vector<FuzzTarget> make_targets() {
  return {
      {"checkpoint", "CampaignCheckpoint::deserialize on arbitrary text", run_checkpoint},
      {"checkpoint_roundtrip",
       "serialize→deserialize identity for checkpoints built from input bytes",
       run_checkpoint_roundtrip},
      {"dbc", "dbc::parse_dbc + to_dbc_text print/parse identity", run_dbc},
      {"candump", "candump line reader print/parse fixed point", run_candump},
      {"asc", "ASC line reader print/parse fixed point", run_asc},
      {"replay", "trace::Replayer liveness on hostile traces", run_replay},
      {"isotp", "IsoTpChannel::handle_frame protocol state machine", run_isotp},
      {"uds", "UdsServer request decode response well-formedness", run_uds},
      {"wire", "classic-CAN wire codec round-trip + corruption rejection", run_wire},
      {"fleet_wire", "fleet campaign socket protocol framing + strict decode",
       run_fleet_wire},
      {"metrics_snapshot", "acf-metrics-v1 JSONL snapshot codec round-trip",
       run_metrics_snapshot},
      {"corpus_file", "feedback corpus disk format strict decode + round-trip",
       run_corpus_file},
      {"attack_config", "attack-scenario spec codec strict decode + round-trip",
       run_attack_config},
      {"ids_eval", "ids-eval/1 digest codec strict decode + round-trip", run_ids_eval},
  };
}

}  // namespace

const std::vector<FuzzTarget>& all_targets() {
  static const std::vector<FuzzTarget> targets = make_targets();
  return targets;
}

const FuzzTarget* find_target(std::string_view name) {
  for (const FuzzTarget& target : all_targets()) {
    if (target.name == name) return &target;
  }
  return nullptr;
}

}  // namespace acf::selftest

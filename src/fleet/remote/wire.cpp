#include "fleet/remote/wire.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "util/fnv.hpp"

namespace acf::fleet::remote {

namespace {

constexpr std::uint8_t kMaxTrialStatus = static_cast<std::uint8_t>(TrialStatus::kSkipped);
constexpr std::uint8_t kMaxStopReason =
    static_cast<std::uint8_t>(fuzzer::StopReason::kTransportDead);

// Strings cross the wire length-prefixed and bounded; anything longer is
// truncated at encode time so a pathological finding cannot poison the
// channel (decode rejects oversized declarations outright).
std::string_view clamp(std::string_view s) {
  return s.substr(0, kMaxStringBytes);
}

void write_outcome(ByteWriter& w, const TrialOutcome& outcome) {
  w.u64(outcome.spec.trial_index);
  w.u64(outcome.spec.arm);
  w.u64(outcome.spec.replica);
  w.u64(outcome.spec.seed);
  w.i64(outcome.spec.sim_budget.count());
  w.u8(static_cast<std::uint8_t>(outcome.status));
  w.u8(static_cast<std::uint8_t>(outcome.stop_reason));
  w.u64(outcome.frames_sent);
  w.u64(outcome.send_failures);
  w.f64(outcome.sim_seconds);
  w.f64(outcome.time_to_failure);
  w.u32(static_cast<std::uint32_t>(outcome.findings.size()));
  for (const std::string& finding : outcome.findings) w.str(clamp(finding));
  w.str(clamp(outcome.error));
}

bool read_outcome(ByteReader& r, TrialOutcome& outcome) {
  outcome.spec.trial_index = r.u64();
  outcome.spec.arm = r.u64();
  outcome.spec.replica = r.u64();
  outcome.spec.seed = r.u64();
  outcome.spec.sim_budget = sim::Duration{r.i64()};
  const std::uint8_t status = r.u8();
  const std::uint8_t stop = r.u8();
  if (!r.ok() || status > kMaxTrialStatus || stop > kMaxStopReason) return false;
  outcome.status = static_cast<TrialStatus>(status);
  outcome.stop_reason = static_cast<fuzzer::StopReason>(stop);
  outcome.frames_sent = r.u64();
  outcome.send_failures = r.u64();
  outcome.sim_seconds = r.f64();
  outcome.time_to_failure = r.f64();
  const std::uint32_t findings = r.u32();
  // Each finding needs at least its 4-byte length prefix: a declared count
  // beyond that is a lie about bytes that cannot exist.
  if (!r.ok() || findings > r.remaining() / 4) return false;
  outcome.findings.reserve(findings);
  for (std::uint32_t i = 0; i < findings; ++i) {
    outcome.findings.push_back(r.str(kMaxStringBytes));
    if (!r.ok()) return false;
  }
  outcome.error = r.str(kMaxStringBytes);
  return r.ok();
}

void write_metrics(ByteWriter& w, const MetricsUpdate& update) {
  w.u32(static_cast<std::uint32_t>(update.counters.size()));
  for (const WireCounter& c : update.counters) {
    w.str(std::string_view(c.name).substr(0, kMaxNameBytes));
    w.u64(c.value);
  }
  w.u32(static_cast<std::uint32_t>(update.gauges.size()));
  for (const WireGauge& g : update.gauges) {
    w.str(std::string_view(g.name).substr(0, kMaxNameBytes));
    w.i64(g.value);
  }
  w.u32(static_cast<std::uint32_t>(update.timers.size()));
  for (const WireTimer& t : update.timers) {
    w.str(std::string_view(t.name).substr(0, kMaxNameBytes));
    w.u64(t.count);
    w.f64(t.sum);
    w.f64(t.min);
    w.f64(t.max);
    w.u32(static_cast<std::uint32_t>(t.samples.size()));
    for (const WireTimerSample& s : t.samples) {
      w.f64(s.value);
      w.u64(s.g);
      w.u64(s.delta);
    }
  }
}

// Non-finite aggregates are hostile data: nothing in the repo records NaN or
// infinity, and letting one into a registry would poison every later merge.
bool finite(double v) noexcept { return std::isfinite(v); }

bool read_metrics(ByteReader& r, MetricsUpdate& update) {
  const std::uint32_t counters = r.u32();
  // Minimum counter entry: 4-byte name length + 8-byte value.  A declared
  // count past that bound promises bytes that cannot exist.
  if (!r.ok() || counters > kMaxMetricsEntries || counters > r.remaining() / 12) {
    return false;
  }
  update.counters.reserve(counters);
  for (std::uint32_t i = 0; i < counters; ++i) {
    WireCounter c;
    c.name = r.str(kMaxNameBytes);
    c.value = r.u64();
    if (!r.ok()) return false;
    update.counters.push_back(std::move(c));
  }
  const std::uint32_t gauges = r.u32();
  if (!r.ok() || gauges > kMaxMetricsEntries || gauges > r.remaining() / 12) {
    return false;
  }
  update.gauges.reserve(gauges);
  for (std::uint32_t i = 0; i < gauges; ++i) {
    WireGauge g;
    g.name = r.str(kMaxNameBytes);
    g.value = r.i64();
    if (!r.ok()) return false;
    update.gauges.push_back(std::move(g));
  }
  const std::uint32_t timers = r.u32();
  // Minimum timer entry: name length + count + sum/min/max + sample count.
  if (!r.ok() || timers > kMaxMetricsEntries || timers > r.remaining() / 40) {
    return false;
  }
  update.timers.reserve(timers);
  for (std::uint32_t i = 0; i < timers; ++i) {
    WireTimer t;
    t.name = r.str(kMaxNameBytes);
    t.count = r.u64();
    t.sum = r.f64();
    t.min = r.f64();
    t.max = r.f64();
    if (!r.ok() || !finite(t.sum) || !finite(t.min) || !finite(t.max)) return false;
    const std::uint32_t samples = r.u32();
    if (!r.ok() || samples > kMaxTimerSamples || samples > r.remaining() / 24) {
      return false;
    }
    t.samples.reserve(samples);
    for (std::uint32_t s = 0; s < samples; ++s) {
      WireTimerSample sample;
      sample.value = r.f64();
      sample.g = r.u64();
      sample.delta = r.u64();
      if (!r.ok() || !finite(sample.value)) return false;
      t.samples.push_back(sample);
    }
    update.timers.push_back(std::move(t));
  }
  return r.ok();
}

}  // namespace

// ------------------------------------------------------------ cursor ------

bool ByteReader::take(std::size_t n) noexcept {
  if (!ok_ || n > remaining()) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!take(1)) return 0;
  return bytes_[pos_++];
}

std::uint32_t ByteReader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
  return v;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str(std::size_t max_bytes) {
  const std::uint32_t len = u32();
  if (!ok_ || len > max_bytes || !take(len)) {
    ok_ = false;
    return {};
  }
  std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return out;
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

// ----------------------------------------------------------- encode -------

std::vector<std::uint8_t> encode(const Message& message) {
  ByteWriter w;
  std::visit(
      [&w](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, HelloMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kHello));
          w.u32(msg.protocol_version);
          w.u64(msg.fingerprint);
          w.u32(msg.capacity);
          w.str(std::string_view(msg.worker_name).substr(0, kMaxNameBytes));
          w.u64(msg.instance_id);
        } else if constexpr (std::is_same_v<T, WelcomeMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kWelcome));
          w.u32(msg.protocol_version);
          w.u64(msg.fingerprint);
          w.u64(msg.trial_count);
          w.u64(msg.session);
        } else if constexpr (std::is_same_v<T, LeaseRequestMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kLeaseRequest));
          w.u32(msg.capacity);
        } else if constexpr (std::is_same_v<T, LeaseGrantMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kLeaseGrant));
          w.u64(msg.lease_id);
          w.u32(msg.deadline_ms);
          w.u32(static_cast<std::uint32_t>(msg.trials.size()));
          for (const std::uint64_t trial : msg.trials) w.u64(trial);
        } else if constexpr (std::is_same_v<T, LeaseResultMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kLeaseResult));
          w.u64(msg.lease_id);
          write_outcome(w, msg.outcome);
        } else if constexpr (std::is_same_v<T, HeartbeatMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kHeartbeat));
          w.u64(msg.lease_id);
          w.u64(msg.completed);
          w.u8(msg.metrics.has_value() ? 1 : 0);
          if (msg.metrics) write_metrics(w, *msg.metrics);
        } else if constexpr (std::is_same_v<T, ShutdownMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kShutdown));
          w.u8(static_cast<std::uint8_t>(msg.reason));
        } else if constexpr (std::is_same_v<T, RejectedMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kRejected));
          w.str(clamp(msg.reason));
        } else if constexpr (std::is_same_v<T, UnknownMsg>) {
          w.u8(msg.type);
          for (const std::uint8_t byte : msg.payload) w.u8(byte);
        }
      },
      message);
  return w.take();
}

// ----------------------------------------------------------- decode -------

std::optional<Message> decode(std::span<const std::uint8_t> payload) {
  if (payload.empty() || payload.size() > kMaxFramePayload) return std::nullopt;
  ByteReader r(payload.subspan(1));
  const std::uint8_t type = payload[0];
  Message out;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kHello: {
      HelloMsg msg;
      msg.protocol_version = r.u32();
      msg.fingerprint = r.u64();
      msg.capacity = r.u32();
      msg.worker_name = r.str(kMaxNameBytes);
      msg.instance_id = r.u64();
      out = std::move(msg);
      break;
    }
    case MsgType::kWelcome: {
      WelcomeMsg msg;
      msg.protocol_version = r.u32();
      msg.fingerprint = r.u64();
      msg.trial_count = r.u64();
      msg.session = r.u64();
      out = msg;
      break;
    }
    case MsgType::kLeaseRequest: {
      LeaseRequestMsg msg;
      msg.capacity = r.u32();
      out = msg;
      break;
    }
    case MsgType::kLeaseGrant: {
      LeaseGrantMsg msg;
      msg.lease_id = r.u64();
      msg.deadline_ms = r.u32();
      const std::uint32_t count = r.u32();
      if (!r.ok() || count > kMaxLeaseTrials || count > r.remaining() / 8) {
        return std::nullopt;
      }
      msg.trials.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) msg.trials.push_back(r.u64());
      out = std::move(msg);
      break;
    }
    case MsgType::kLeaseResult: {
      LeaseResultMsg msg;
      msg.lease_id = r.u64();
      if (!read_outcome(r, msg.outcome)) return std::nullopt;
      out = std::move(msg);
      break;
    }
    case MsgType::kHeartbeat: {
      HeartbeatMsg msg;
      msg.lease_id = r.u64();
      msg.completed = r.u64();
      const std::uint8_t has_metrics = r.u8();
      if (!r.ok() || has_metrics > 1) return std::nullopt;
      if (has_metrics == 1) {
        msg.metrics.emplace();
        if (!read_metrics(r, *msg.metrics)) return std::nullopt;
      }
      out = std::move(msg);
      break;
    }
    case MsgType::kShutdown: {
      const std::uint8_t reason = r.u8();
      if (!r.ok() || reason > static_cast<std::uint8_t>(ShutdownReason::kCoordinatorPausing)) {
        return std::nullopt;
      }
      out = ShutdownMsg{static_cast<ShutdownReason>(reason)};
      break;
    }
    case MsgType::kRejected: {
      RejectedMsg msg;
      msg.reason = r.str(kMaxStringBytes);
      out = std::move(msg);
      break;
    }
    default: {
      // Tolerated, preserved verbatim.
      UnknownMsg msg;
      msg.type = type;
      msg.payload.assign(payload.begin() + 1, payload.end());
      return Message{std::move(msg)};
    }
  }
  // Strict: a known-type payload must parse cleanly and leave nothing over.
  if (!r.done()) return std::nullopt;
  return out;
}

std::vector<std::uint8_t> frame_message(const Message& message) {
  const std::vector<std::uint8_t> payload = encode(message);
  const auto length = static_cast<std::uint32_t>(payload.size());
  // Header and payload land in one buffer sized up front.
  std::vector<std::uint8_t> out;
  out.reserve(4 + payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// ------------------------------------------------------- frame reader -----

bool FrameReader::feed(std::span<const std::uint8_t> bytes) {
  if (poisoned_) return false;
  // Compact lazily: only when the dead prefix dominates the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // Validate the pending length prefix eagerly so an oversized declaration
  // poisons the stream before its payload is ever buffered in full.
  if (buffer_.size() - consumed_ >= 4) {
    ByteReader r(std::span<const std::uint8_t>(buffer_).subspan(consumed_, 4));
    const std::uint32_t declared = r.u32();
    if (declared == 0 || declared > max_payload_) {
      poisoned_ = true;
      buffer_.clear();
      consumed_ = 0;
      return false;
    }
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> FrameReader::next() {
  if (poisoned_) return std::nullopt;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return std::nullopt;
  ByteReader r(std::span<const std::uint8_t>(buffer_).subspan(consumed_, 4));
  const std::uint32_t declared = r.u32();
  if (available < 4 + static_cast<std::size_t>(declared)) return std::nullopt;
  std::vector<std::uint8_t> payload(buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4),
                                    buffer_.begin() +
                                        static_cast<std::ptrdiff_t>(consumed_ + 4 + declared));
  consumed_ += 4 + declared;
  // The next pending prefix (if fully buffered) gets the same eager check
  // feed() applies, so a poisoned tail never yields another frame.
  if (buffer_.size() - consumed_ >= 4) {
    ByteReader peek(std::span<const std::uint8_t>(buffer_).subspan(consumed_, 4));
    const std::uint32_t next_len = peek.u32();
    if (next_len == 0 || next_len > max_payload_) {
      poisoned_ = true;
      buffer_.clear();
      consumed_ = 0;
    }
  }
  return payload;
}

// ------------------------------------------------------- fingerprint ------

std::uint64_t campaign_fingerprint(const TrialPlan& plan, std::string_view world_tag) {
  std::uint64_t hash = util::kFnv1aOffset;
  const auto mix_bytes = [&hash](std::string_view text) {
    // The NUL separator keeps ("ab","c") from colliding with ("a","bc").
    hash = util::fnv1a(util::fnv1a(hash, text), std::uint8_t{0});
  };
  const auto mix_u64 = [&hash](std::uint64_t v) { hash = util::fnv1a_u64(hash, v); };
  mix_bytes(world_tag);
  for (const std::string& arm : plan.arms()) mix_bytes(arm);
  mix_u64(plan.replicas());
  mix_u64(plan.base_seed());
  mix_u64(static_cast<std::uint64_t>(plan.sim_budget().count()));
  return hash;
}

}  // namespace acf::fleet::remote

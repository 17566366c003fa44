#include "fleet/remote/coordinator.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "fleet/remote/checkpoint.hpp"
#include "fleet/remote/metrics_wire.hpp"
#include "metrics/snapshot.hpp"

namespace acf::fleet::remote {

namespace {

constexpr std::size_t kReadChunk = 4096;

std::size_t clamp_capacity(std::uint32_t capacity) {
  if (capacity == 0) return 1;
  return std::min<std::size_t>(capacity, kMaxLeaseTrials);
}

}  // namespace

/// One worker socket: framing state, pending output, handshake identity.
struct Coordinator::Connection {
  util::Fd fd;
  FrameReader reader;
  std::vector<std::uint8_t> out;  // frames not yet accepted by the kernel
  std::size_t out_sent = 0;
  std::uint64_t session = 0;  // 0 until the handshake completed
  std::size_t capacity = 1;
  std::string worker_name;   // advertised in Hello; diagnostics only
  std::uint64_t instance_id = 0;  // from Hello; keys the metrics block
  bool handshaken = false;
  bool pending_request = false;  // asked for work while none was available
  bool closing = false;          // drain `out`, then drop (Rejected)
  bool half_closed = false;      // FIN sent; read side drains until EOF
  bool dead = false;
  WallClock::time_point connected_at{};
};

Coordinator::Coordinator(const TrialPlan& plan, CoordinatorConfig config)
    : plan_(plan),
      config_(std::move(config)),
      fingerprint_(campaign_fingerprint(plan, config_.world_tag)),
      table_(plan.trial_count()) {
  auto listener = util::TcpListener::listen_loopback(config_.port);
  if (!listener) throw std::runtime_error("coordinator: cannot bind loopback listener");
  listener_ = std::move(*listener);

  // Every slot starts as its skipped-state spec so an interrupted campaign
  // still returns a complete, index-ordered vector.
  outcomes_.resize(plan_.trial_count());
  for (std::size_t i = 0; i < outcomes_.size(); ++i) outcomes_[i].spec = plan_.spec(i);

  load_checkpoint();
}

Coordinator::~Coordinator() = default;

void Coordinator::load_checkpoint() {
  if (config_.checkpoint_path.empty()) return;
  if (!std::filesystem::exists(config_.checkpoint_path)) return;
  std::optional<FleetCheckpoint> checkpoint = FleetCheckpoint::load(config_.checkpoint_path);
  if (!checkpoint) {
    throw std::runtime_error("coordinator: corrupt campaign checkpoint: " +
                             config_.checkpoint_path);
  }
  if (checkpoint->fingerprint != fingerprint_ ||
      checkpoint->trial_count != plan_.trial_count()) {
    throw std::runtime_error("coordinator: checkpoint belongs to a different campaign: " +
                             config_.checkpoint_path);
  }
  for (auto& [index, outcome] : checkpoint->completed) {
    table_.mark_done(index);
    outcomes_[index] = std::move(outcome);
    // The plan, not the disk, is authoritative for the spec.
    outcomes_[index].spec = plan_.spec(index);
  }
  // prioritise() pushes to the queue front, so feed ascending indices in
  // reverse to leave the front ascending — resume re-issues them in order.
  for (auto it = checkpoint->leased.rbegin(); it != checkpoint->leased.rend(); ++it) {
    table_.prioritise(*it);
  }
  stats_.resumed_done = checkpoint->completed.size();
  stats_.resumed_leased = checkpoint->leased.size();
}

void Coordinator::save_checkpoint(bool force) {
  if (config_.checkpoint_path.empty()) return;
  const auto now = WallClock::now();
  if (!force && (!dirty_ || now - last_checkpoint_ < config_.checkpoint_period)) return;
  FleetCheckpoint checkpoint;
  checkpoint.fingerprint = fingerprint_;
  checkpoint.trial_count = plan_.trial_count();
  checkpoint.completed.reserve(table_.done_count());
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    if (table_.state(i) == TrialState::kDone) checkpoint.completed.emplace_back(i, outcomes_[i]);
  }
  checkpoint.leased = table_.leased_indices();
  if (checkpoint.save(config_.checkpoint_path)) {
    dirty_ = false;
    last_checkpoint_ = now;
  }
}

void Coordinator::send_message(Connection& conn, const Message& message) {
  const std::vector<std::uint8_t> frame = frame_message(message);
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  flush(conn);
}

void Coordinator::flush(Connection& conn) {
  while (conn.out_sent < conn.out.size()) {
    const auto result = util::socket_write(
        conn.fd.get(), std::span<const std::uint8_t>(conn.out).subspan(conn.out_sent));
    if (result.status == util::IoStatus::kOk) {
      conn.out_sent += result.bytes;
      continue;
    }
    if (result.status == util::IoStatus::kWouldBlock) return;
    drop(conn, /*count_disconnect=*/conn.handshaken);
    return;
  }
  conn.out.clear();
  conn.out_sent = 0;
  if (conn.closing) conn.dead = true;
}

// Reads everything the socket holds into conn.reader and reports whether
// the peer hung up (EOF or a socket error).  Callers parse the buffered
// frames before dropping a hung-up connection: a worker's final full-totals
// heartbeat often arrives in the same segment as its FIN, and POLLHUP can
// be flagged while those bytes are still unread.  A poisoned reader stops
// the read; callers check reader.poisoned().
bool Coordinator::read_pending(Connection& conn) {
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const auto result = util::socket_read(conn.fd.get(), chunk);
    if (result.status == util::IoStatus::kWouldBlock) return false;
    if (result.status != util::IoStatus::kOk) return true;
    if (!conn.reader.feed(std::span<const std::uint8_t>(chunk, result.bytes))) return false;
  }
}

void Coordinator::drop(Connection& conn, bool count_disconnect) {
  if (conn.dead) return;
  conn.dead = true;
  if (count_disconnect) ++stats_.workers_disconnected;
  if (conn.session != 0) {
    const std::size_t released = table_.release_worker(conn.session);
    if (released > 0) {
      dirty_ = true;
      pump_pending_grants();
    }
  }
}

void Coordinator::grant_to(Connection& conn) {
  const std::size_t batch = std::min(config_.max_batch, conn.capacity);
  std::optional<GrantedLease> lease =
      table_.grant(conn.session, std::max<std::size_t>(batch, 1), WallClock::now(),
                   config_.lease_ttl);
  if (!lease) {
    conn.pending_request = true;
    return;
  }
  conn.pending_request = false;
  LeaseGrantMsg grant;
  grant.lease_id = lease->lease_id;
  grant.deadline_ms = static_cast<std::uint32_t>(
      std::min<std::int64_t>(config_.lease_ttl.count(), UINT32_MAX));
  grant.trials.reserve(lease->trials.size());
  for (const std::size_t index : lease->trials) {
    grant.trials.push_back(static_cast<std::uint64_t>(index));
  }
  send_message(conn, Message{std::move(grant)});
  dirty_ = true;  // the leased set the checkpoint records just changed
}

void Coordinator::pump_pending_grants() {
  for (auto& conn : connections_) {
    if (!table_.work_available()) return;
    if (conn->dead || conn->closing || !conn->pending_request) continue;
    grant_to(*conn);
  }
}

void Coordinator::handle_payload(Connection& conn, std::span<const std::uint8_t> payload) {
  std::optional<Message> message = decode(payload);
  if (!message) {
    ++stats_.protocol_errors;
    drop(conn, /*count_disconnect=*/conn.handshaken);
    return;
  }

  if (const auto* hello = std::get_if<HelloMsg>(&*message)) {
    if (conn.handshaken) {
      ++stats_.protocol_errors;
      drop(conn, /*count_disconnect=*/true);
      return;
    }
    if (hello->protocol_version != kProtocolVersion) {
      ++stats_.workers_rejected;
      send_message(conn, Message{RejectedMsg{"protocol version mismatch"}});
      conn.closing = true;
      flush(conn);
      return;
    }
    if (hello->fingerprint != fingerprint_) {
      ++stats_.workers_rejected;
      send_message(conn, Message{RejectedMsg{"campaign fingerprint mismatch"}});
      conn.closing = true;
      flush(conn);
      return;
    }
    conn.session = next_session_++;
    conn.capacity = clamp_capacity(hello->capacity);
    conn.worker_name = hello->worker_name;
    // A raw client that sends no instance id gets its session as the key:
    // unique, so it never clobbers anyone, at the cost of double-counted
    // totals if that client reconnects and replays its history.
    conn.instance_id = hello->instance_id != 0 ? hello->instance_id : conn.session;
    conn.handshaken = true;
    ++stats_.workers_connected;
    WelcomeMsg welcome;
    welcome.fingerprint = fingerprint_;
    welcome.trial_count = plan_.trial_count();
    welcome.session = conn.session;
    send_message(conn, Message{welcome});
    return;
  }

  if (std::holds_alternative<UnknownMsg>(*message)) {
    ++stats_.unknown_messages;  // forward compatibility: skip, keep going
    return;
  }

  if (!conn.handshaken) {
    ++stats_.protocol_errors;
    drop(conn, /*count_disconnect=*/false);
    return;
  }

  if (const auto* request = std::get_if<LeaseRequestMsg>(&*message)) {
    conn.capacity = clamp_capacity(request->capacity);
    grant_to(conn);
    return;
  }

  if (const auto* heartbeat = std::get_if<HeartbeatMsg>(&*message)) {
    if (heartbeat->lease_id != 0) table_.renew(heartbeat->lease_id, WallClock::now());
    note_worker_metrics(conn, *heartbeat);
    return;
  }

  if (auto* result = std::get_if<LeaseResultMsg>(&*message)) {
    const std::uint64_t wire_index = result->outcome.spec.trial_index;
    if (wire_index >= plan_.trial_count()) {
      ++stats_.forged_results;
      drop(conn, /*count_disconnect=*/true);
      return;
    }
    const std::size_t index = static_cast<std::size_t>(wire_index);
    const TrialSpec expected = plan_.spec(index);
    const TrialSpec& got = result->outcome.spec;
    if (got.arm != expected.arm || got.replica != expected.replica ||
        got.seed != expected.seed || got.sim_budget != expected.sim_budget) {
      ++stats_.forged_results;
      drop(conn, /*count_disconnect=*/true);
      return;
    }
    table_.renew(result->lease_id, WallClock::now());
    const CompletionResult completion = table_.complete(result->lease_id, index);
    if (completion == CompletionResult::kAccepted) {
      outcomes_[index] = std::move(result->outcome);
      dirty_ = true;
      if (progress_) progress_->record(outcomes_[index]);
      if (config_.snapshot_writer && config_.snapshot_interval > 0 &&
          ++results_since_snapshot_ >= config_.snapshot_interval) {
        results_since_snapshot_ = 0;
        write_snapshot_line();
      }
      if (on_trial_done_) on_trial_done_(table_.done_count());
    } else if (completion == CompletionResult::kDuplicate) {
      // A stolen lease finished twice; same seed, identical bytes — first
      // arrival already owns the slot.
      if (progress_) progress_->record_duplicate();
    }
    return;
  }

  // Welcome / LeaseGrant / Shutdown / Rejected have no business arriving
  // from a worker.
  ++stats_.protocol_errors;
  drop(conn, /*count_disconnect=*/true);
}

void Coordinator::note_worker_metrics(const Connection& conn, const HeartbeatMsg& heartbeat) {
  if (!heartbeat.metrics || conn.instance_id == 0) return;
  // Full totals, replace-on-update keyed by the worker's instance id.  A
  // reconnecting worker (same id, fresh session) overwrites its previous
  // block — its registry survived the reconnect, so the new totals already
  // include the old.  Two workers that advertise the same *name* carry
  // distinct ids and keep separate blocks.
  worker_metrics_[conn.instance_id] = from_wire(*heartbeat.metrics);
}

metrics::RegistrySnapshot Coordinator::merged_metrics() {
  std::vector<metrics::RegistrySnapshot> parts;
  parts.reserve(1 + worker_metrics_.size());
  if (config_.registry) parts.push_back(config_.registry->snapshot());
  for (const auto& [instance, snap] : worker_metrics_) parts.push_back(snap);
  return metrics::merge_snapshots(parts);
}

void Coordinator::write_snapshot_line() {
  metrics::RegistrySnapshot merged = merged_metrics();
  double sim_seconds = 0.0;
  for (const metrics::TimerSnap& timer : merged.timers) {
    if (timer.name == "fleet.trial.sim_seconds") {
      sim_seconds = timer.sum;
      break;
    }
  }
  config_.snapshot_writer->write(merged, sim_seconds);
}

std::vector<TrialOutcome> Coordinator::serve(ProgressReporter* progress) {
  progress_ = progress;
  if (progress_) progress_->begin(plan_.trial_count(), table_.done_count());
  auto last_progress = WallClock::now();

  util::PollSet poll;
  const int poll_ms = static_cast<int>(std::max<std::int64_t>(config_.poll_period.count(), 1));
  ShutdownReason shutdown_reason = ShutdownReason::kCampaignComplete;

  while (!table_.all_done()) {
    if (cancelled_.load(std::memory_order_relaxed)) {
      shutdown_reason = ShutdownReason::kCoordinatorPausing;
      break;
    }
    if (config_.stop_after_completed > 0 &&
        table_.done_count() >= config_.stop_after_completed) {
      shutdown_reason = ShutdownReason::kCoordinatorPausing;
      break;
    }

    poll.clear();
    const std::size_t listener_slot = poll.add(listener_.fd(), /*want_write=*/false);
    std::vector<std::pair<std::size_t, Connection*>> polled;
    polled.reserve(connections_.size());
    for (auto& conn : connections_) {
      if (conn->dead) continue;
      polled.emplace_back(poll.add(conn->fd.get(), conn->out_sent < conn->out.size()),
                          conn.get());
    }
    poll.wait(poll_ms);

    if (poll.entry(listener_slot).readable) {
      while (std::optional<util::Fd> accepted = listener_.accept()) {
        auto conn = std::make_unique<Connection>();
        conn->fd = std::move(*accepted);
        conn->connected_at = WallClock::now();
        connections_.push_back(std::move(conn));
      }
    }

    for (auto& [slot, conn] : polled) {
      const util::PollEntry& entry = poll.entry(slot);
      if (entry.writable && !entry.error) flush(*conn);
      if (conn->dead || !(entry.readable || entry.error)) continue;
      const bool hung_up = read_pending(*conn) || entry.error;
      while (!conn->dead && !conn->closing) {
        std::optional<std::vector<std::uint8_t>> payload = conn->reader.next();
        if (!payload) {
          if (conn->reader.poisoned()) {
            ++stats_.protocol_errors;
            drop(*conn, /*count_disconnect=*/conn->handshaken);
          }
          break;
        }
        handle_payload(*conn, *payload);
      }
      // Orderly close or hard error: either way the worker is gone.
      if (hung_up) drop(*conn, /*count_disconnect=*/conn->handshaken);
    }

    const auto now = WallClock::now();
    const std::size_t expired = table_.expire(now);
    if (expired > 0) {
      dirty_ = true;
      pump_pending_grants();
    }
    for (auto& conn : connections_) {
      if (!conn->dead && !conn->handshaken &&
          now - conn->connected_at > config_.handshake_timeout) {
        drop(*conn, /*count_disconnect=*/false);
      }
    }
    std::erase_if(connections_, [](const std::unique_ptr<Connection>& conn) {
      return conn->dead;
    });

    stats_.leases = table_.stats();
    if (progress_) {
      progress_->set_lease_counters(table_.outstanding(), stats_.leases.trials_stolen,
                                    stats_.leases.leases_expired);
      if (config_.progress_period.count() > 0 &&
          now - last_progress >= config_.progress_period) {
        std::fprintf(stderr, "%s\n", progress_->line().c_str());
        last_progress = now;
      }
    }
    save_checkpoint(/*force=*/false);
  }

  // Orderly goodbye: every live worker hears why the stream is ending, so a
  // pausing coordinator does not look like a crash to the reconnect gate.
  for (auto& conn : connections_) {
    if (conn->dead || conn->closing) continue;
    send_message(*conn, Message{ShutdownMsg{shutdown_reason}});
  }

  // Linger instead of closing outright.  Each socket is half-closed once its
  // Shutdown frame is out — the FIN says "no more grants" while the read
  // side stays open to drain whatever the worker was mid-sending.  A full
  // close here races the worker's in-flight LeaseRequest or heartbeat: the
  // kernel answers a write-after-close with an RST that destroys the unread
  // Shutdown in the worker's receive buffer, stranding the worker in
  // reconnect against a finished campaign.  Stragglers that connect inside
  // the window are greeted with the same Shutdown as closure.  Results read
  // here are discarded — every result that mattered arrived before all_done
  // flipped, and a pausing coordinator's checkpoint re-issues the rest —
  // but heartbeats still land: a worker's last batch ends with a final
  // full-totals heartbeat that may race the all_done flip, and the merged
  // metrics view must not miss it.
  const auto linger_deadline = WallClock::now() + std::chrono::milliseconds(500);
  while (WallClock::now() < linger_deadline) {
    poll.clear();
    const std::size_t accept_slot = poll.add(listener_.fd(), /*want_write=*/false);
    std::vector<std::pair<std::size_t, Connection*>> draining;
    for (auto& conn : connections_) {
      if (conn->dead) continue;
      if (conn->out_sent >= conn->out.size() && !conn->half_closed) {
        ::shutdown(conn->fd.get(), SHUT_WR);
        conn->half_closed = true;
      }
      draining.emplace_back(poll.add(conn->fd.get(), conn->out_sent < conn->out.size()),
                            conn.get());
    }
    if (draining.empty()) break;
    poll.wait(10);
    if (poll.entry(accept_slot).readable) {
      while (std::optional<util::Fd> accepted = listener_.accept()) {
        auto conn = std::make_unique<Connection>();
        conn->fd = std::move(*accepted);
        conn->connected_at = WallClock::now();
        send_message(*conn, Message{ShutdownMsg{shutdown_reason}});
        connections_.push_back(std::move(conn));  // half-closed next pass
      }
    }
    for (auto& [slot, conn] : draining) {
      const util::PollEntry& entry = poll.entry(slot);
      if (entry.writable && !entry.error) flush(*conn);
      if (conn->dead || !(entry.readable || entry.error)) continue;
      // EOF means the worker saw the Shutdown and hung up.
      const bool hung_up = read_pending(*conn) || entry.error;
      while (std::optional<std::vector<std::uint8_t>> payload = conn->reader.next()) {
        std::optional<Message> message = decode(*payload);
        if (!message) continue;
        if (const auto* heartbeat = std::get_if<HeartbeatMsg>(&*message)) {
          note_worker_metrics(*conn, *heartbeat);
        }
      }
      // Poisoned framing just ends the drain for this socket.
      if (hung_up || conn->reader.poisoned()) conn->dead = true;
    }
  }
  connections_.clear();
  // Stop listening: a worker reconnecting after this point meets a refused
  // connection (bounded backoff, then give-up) rather than a listener whose
  // accept queue will never drain again.
  listener_ = util::TcpListener();

  stats_.leases = table_.stats();
  save_checkpoint(/*force=*/dirty_);
  // Final merged snapshot after the linger drain, so the last heartbeat's
  // totals are in: this line is the determinism-contract artifact.
  if (config_.snapshot_writer) write_snapshot_line();
  if (progress_ && config_.progress_period.count() > 0) {
    std::fprintf(stderr, "%s\n", progress_->line().c_str());
  }
  progress_ = nullptr;
  return outcomes_;
}

}  // namespace acf::fleet::remote

// Coordinator: the server side of the distributed campaign service.  One
// poll loop owns the listen socket, every worker connection, the lease
// table and the campaign checkpoint:
//
//   worker connects -> Hello (version + campaign fingerprint + capacity)
//     -> Welcome | Rejected
//   worker sends LeaseRequest -> LeaseGrant (batch of trial indices under
//     a lease id + deadline) when work is available, else queued until a
//     lease expires or another worker dies
//   worker streams LeaseResult per finished trial; results are validated
//     against the plan's spec for that index, deduplicated by trial index,
//     and merged in trial-index order at the end — identical bytes to the
//     in-process executor path
//   heartbeats (and results) renew the lease deadline; a silent worker's
//     leases expire and their unfinished trials are re-issued to whoever
//     asks next (work-stealing); a closed socket releases them immediately
//
// Progress persists through FleetCheckpoint (write-then-rename), so a
// coordinator killed mid-campaign resumes without recomputing finished
// trials and re-issues exactly the trials that were in flight.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/progress.hpp"
#include "fleet/remote/lease.hpp"
#include "fleet/remote/wire.hpp"
#include "fleet/trial_plan.hpp"
#include "util/socket.hpp"

namespace acf::metrics {
class SnapshotWriter;
}

namespace acf::fleet::remote {

struct CoordinatorConfig {
  /// Listen port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Trials per lease, capped by the worker's advertised capacity.
  std::size_t max_batch = 8;
  /// Silence (no result, no heartbeat) after which a lease is stolen.
  std::chrono::milliseconds lease_ttl{10'000};
  /// A connection that never completes its handshake is dropped after this.
  std::chrono::milliseconds handshake_timeout{5'000};
  /// Poll-loop tick; bounds failure-detection and checkpoint latency.
  std::chrono::milliseconds poll_period{50};
  /// Progress line cadence on stderr (zero = silent).
  std::chrono::milliseconds progress_period{2000};
  /// Campaign checkpoint path; empty disables persistence.
  std::string checkpoint_path;
  /// Minimum interval between checkpoint writes (dirty state is also
  /// flushed on exit and on worker failure events).
  std::chrono::milliseconds checkpoint_period{1'000};
  /// Must match the workers' world tag: part of the campaign fingerprint.
  std::string world_tag = "unlock";
  /// Test/ops hook: save a checkpoint and return once this many trials have
  /// completed (0 = run to the end).  Models a coordinator crash for the
  /// resume path without actually calling abort().
  std::size_t stop_after_completed = 0;
  /// Coordinator-side registry (progress/lease instruments land here via
  /// the attached ProgressReporter); merged with the per-worker heartbeat
  /// blocks by merged_metrics().  Optional.
  metrics::Registry* registry = nullptr;
  /// When both are set, serve() writes a merged snapshot line every
  /// `snapshot_interval` accepted results, plus one final line after the
  /// linger window has drained the workers' last heartbeats.
  metrics::SnapshotWriter* snapshot_writer = nullptr;
  std::size_t snapshot_interval = 0;
};

struct CoordinatorStats {
  LeaseStats leases;
  std::uint64_t workers_connected = 0;
  std::uint64_t workers_disconnected = 0;
  std::uint64_t workers_rejected = 0;
  std::uint64_t protocol_errors = 0;   // poisoned framing / malformed payload
  std::uint64_t unknown_messages = 0;  // tolerated, skipped
  std::uint64_t forged_results = 0;    // spec mismatch vs the plan
  std::size_t resumed_done = 0;        // trials restored from the checkpoint
  std::size_t resumed_leased = 0;      // in-flight trials re-queued first
};

class Coordinator {
 public:
  /// Binds and listens immediately (so port() is valid before serve()) and
  /// loads the checkpoint when one exists at config.checkpoint_path.
  /// Throws std::runtime_error when the socket cannot be bound or the
  /// checkpoint belongs to a different campaign.
  Coordinator(const TrialPlan& plan, CoordinatorConfig config);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Runs the campaign service until every trial completed (or the
  /// stop_after hook / cancel() fires).  Returns one outcome per trial in
  /// trial-index order; unfinished trials are TrialStatus::kSkipped.
  std::vector<TrialOutcome> serve(ProgressReporter* progress = nullptr);

  /// Requests an orderly stop from any thread: the loop checkpoints and
  /// returns with whatever completed.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }

  const CoordinatorStats& stats() const noexcept { return stats_; }
  std::size_t done_count() const noexcept { return table_.done_count(); }

  /// Observer invoked (on the serve() thread) after each accepted result —
  /// the worker-kill smoke uses it to injure the fleet at a precise point.
  void set_on_trial_done(std::function<void(std::size_t done)> hook) {
    on_trial_done_ = std::move(hook);
  }

  /// Fleet-wide metrics view: the coordinator's own registry merged with
  /// the latest full-totals block each worker shipped in its heartbeats
  /// (keyed by advertised worker name; replace-on-update, so reconnects and
  /// repeated totals never double count).  Call after serve() for the final
  /// campaign view.
  metrics::RegistrySnapshot merged_metrics();

 private:
  struct Connection;

  void load_checkpoint();
  void save_checkpoint(bool force);
  void handle_payload(Connection& conn, std::span<const std::uint8_t> payload);
  void grant_to(Connection& conn);
  void pump_pending_grants();
  void send_message(Connection& conn, const Message& message);
  void flush(Connection& conn);
  bool read_pending(Connection& conn);
  void drop(Connection& conn, bool count_disconnect);
  void note_worker_metrics(const Connection& conn, const HeartbeatMsg& heartbeat);
  void write_snapshot_line();

  const TrialPlan& plan_;
  CoordinatorConfig config_;
  std::uint64_t fingerprint_;
  util::TcpListener listener_;
  LeaseTable table_;
  std::vector<TrialOutcome> outcomes_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_session_ = 1;
  std::atomic<bool> cancelled_{false};
  ProgressReporter* progress_ = nullptr;  // valid only inside serve()
  bool dirty_ = false;                    // progress not yet checkpointed
  WallClock::time_point last_checkpoint_{};
  CoordinatorStats stats_;
  std::function<void(std::size_t)> on_trial_done_;
  /// Latest full-totals metrics block per worker, keyed by the instance id
  /// from Hello (replace-on-update).  The id is unique per worker process
  /// and stable across its reconnects, so a reconnect replaces its own
  /// block while same-named workers never clobber each other.
  std::map<std::uint64_t, metrics::RegistrySnapshot> worker_metrics_;
  std::size_t results_since_snapshot_ = 0;
};

}  // namespace acf::fleet::remote

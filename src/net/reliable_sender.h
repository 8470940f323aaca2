// Sender side of the reliable large-payload transfer ("XL packets").
//
// Protocol (receiver-driven selective repeat):
//   1. SYNC(seq, fragment_count, total_bytes) — retried until SYNC_ACK.
//   2. Stream FRAGMENT(seq, index) packets, paced one-at-a-time: the next
//      fragment is enqueued only after the node reports the previous one on
//      the air, plus `fragment_spacing` (relays get a chance to drain and
//      the duty-cycle limiter can interleave).
//   3. After the last fragment, wait for DONE (success) or LOST (retransmit
//      the listed fragments and wait again). Silence is resolved by POLL:
//      the receiver answers with DONE or its current LOST list.
//   4. Give up after sync_max_retries unanswered SYNCs or poll_max_retries
//      unanswered POLLs; report the outcome through the completion callback.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "net/config.h"
#include "net/layer_context.h"
#include "net/packet.h"
#include "net/packet_sink.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace lm::net {

class ReliableSender {
 public:
  using Completion = std::function<void(bool success)>;

  /// Starts immediately (sends the first SYNC through `sink`).
  /// `payload` must be non-empty and at most `fragment_capacity` * 65535;
  /// `fragment_capacity` is the payload one fragment carries (1 ..
  /// kMaxFragmentPayload, smaller under a dwell cap).
  /// `seed` randomizes the fragment pacing: two hidden senders sharing a
  /// relay would otherwise phase-lock — both waiting for the relay's
  /// forward, then colliding at it, forever.
  /// `ctx` is the owning node's context: config, local-clock timers and
  /// the flight recorder, to which the session reports SYNC retries, POLLs
  /// and the final outcome.
  ReliableSender(LayerContext& ctx, PacketSink& sink, Address destination,
                 std::uint8_t seq, std::vector<std::uint8_t> payload,
                 Completion completion, std::uint64_t seed = 0,
                 std::size_t fragment_capacity = kMaxFragmentPayload);
  ~ReliableSender();

  ReliableSender(const ReliableSender&) = delete;
  ReliableSender& operator=(const ReliableSender&) = delete;

  // --- Events fed by the owning node ---------------------------------------
  /// Fails the transfer immediately (node shutdown). Fires the completion
  /// callback with false unless already finished.
  void abort();
  void on_sync_ack();
  void on_lost(std::span<const std::uint16_t> missing);
  void on_lost(std::initializer_list<std::uint16_t> missing) {
    on_lost(std::span<const std::uint16_t>(missing.begin(), missing.size()));
  }
  void on_done();
  /// The node transmitted one of this session's fragments.
  void on_fragment_transmitted(std::uint16_t index);

  // --- Introspection ---------------------------------------------------------
  bool finished() const { return state_ == State::Finished; }
  std::uint8_t seq() const { return seq_; }
  Address destination() const { return destination_; }
  std::uint16_t fragment_count() const { return fragment_count_; }
  std::uint64_t fragments_sent() const { return fragments_sent_; }
  std::uint64_t fragments_retransmitted() const { return fragments_retransmitted_; }

 private:
  enum class State {
    WaitSyncAck,   // SYNC sent, awaiting SYNC_ACK
    Streaming,     // emitting fragments in order / from the repair list
    WaitStatus,    // all requested fragments on the air, awaiting DONE/LOST
    Finished,
  };

  Duration jittered_retry_timeout();
  void send_sync();
  void send_poll();
  void send_next_fragment();
  void arm_timer(Duration timeout, void (ReliableSender::*handler)());
  void cancel_timer();
  void on_sync_timeout();
  void on_status_timeout();
  void finish(bool success);
  FragmentPacket make_fragment(std::uint16_t index);

  LayerContext* ctx_;  // never null
  PacketSink& sink_;
  const Address destination_;
  const std::uint8_t seq_;
  const std::vector<std::uint8_t> payload_;
  const std::size_t fragment_capacity_;
  std::uint16_t fragment_count_ = 0;

  State state_ = State::WaitSyncAck;
  std::deque<std::uint16_t> pending_;   // fragment indices still to emit
  bool fragment_in_flight_ = false;     // emitted to the node, not yet on air
  int sync_attempts_ = 0;
  int poll_attempts_ = 0;
  std::uint64_t fragments_sent_ = 0;
  std::uint64_t fragments_retransmitted_ = 0;
  sim::TimerId timer_ = 0;
  Completion completion_;
  Rng rng_;
};

}  // namespace lm::net

// Full-duplex point-to-point link with serialization, propagation delay and
// fault injection.
//
// Each side of a link is attached to an engine.  When both sides share one
// engine the arrival is scheduled locally (the classic serial path, byte
// for byte).  When the sides live on different shards of a
// sim::ShardGroup, transmit() deep-copies the frame off the source shard's
// pools and posts it through the group's cross-shard mailbox instead — the
// link's serialization + propagation delay is exactly the lookahead that
// makes the conservative epoch schedule safe (see sim/shard.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "net/frame.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"

namespace ulsocks::sim {
class ShardGroup;
}  // namespace ulsocks::sim

namespace ulsocks::net {

/// Decides whether a given frame is lost on the wire.  Stateless frames in,
/// verdicts out; installed per link direction by tests and fault benches.
using DropPolicy = std::function<bool(const Frame&)>;

/// Drop every frame whose (per-direction) transmit ordinal is in `ordinals`.
[[nodiscard]] DropPolicy drop_nth_policy(std::vector<std::uint64_t> ordinals);

/// Drop frames independently with probability `p` drawn from `rng`.  The
/// reference must outlive the policy and is safe only for single-engine
/// runs: draws are interleave-dependent when the rng is shared.
[[nodiscard]] DropPolicy random_drop_policy(sim::Rng& rng, double p);

/// Drop frames independently with probability `p` from a private generator
/// seeded with `seed`.  Each policy instance owns its stream, so the draw
/// sequence per link direction is a pure function of that direction's
/// traffic — identical between serial and sharded runs.
[[nodiscard]] DropPolicy random_drop_policy(std::uint64_t seed, double p);

/// Minimum simulated latency of any frame crossing a link with these wire
/// costs: serialization of a minimum Ethernet frame plus propagation.
/// This is the free lookahead a ShardGroup built over such links gets.
[[nodiscard]] sim::Duration shard_lookahead(const sim::WireCosts& wire);

class Link {
 public:
  enum class Side : std::uint8_t { kA = 0, kB = 1 };

  Link(sim::Engine& eng, const sim::WireCosts& wire)
      : bps_(wire.link_bps), propagation_ns_(wire.propagation_ns) {
    end_[0].eng = &eng;
    end_[1].eng = &eng;
  }

  void attach(Side side, FrameSink* sink) {
    end_[static_cast<int>(side)].sink = sink;
  }

  /// Attach a sink together with the engine its side runs on.  With a
  /// shard group installed, a transmit whose two sides resolve to
  /// different shards takes the mailbox path.  The moment both sides
  /// resolve to distinct shards, the link registers its per-direction
  /// lookahead (min-frame serialization + this link's propagation) with
  /// the group — forming a cross-shard edge IS the registration.
  void attach(Side side, FrameSink* sink, sim::Engine& eng) {
    Endpoint& e = end_[static_cast<int>(side)];
    e.sink = sink;
    e.eng = &eng;
    resolve_shard(e);
    maybe_register_lookahead();
  }

  /// Route cross-engine transmits through `group`'s mailboxes.  Call after
  /// construction, before (or between) attach() calls; shard indices of
  /// already-attached sides are resolved immediately.
  void set_shard_group(sim::ShardGroup& group) {
    group_ = &group;
    resolve_shard(end_[0]);
    resolve_shard(end_[1]);
    maybe_register_lookahead();
  }

  /// Minimum simulated latency of any frame this link can deliver — what
  /// it registers as its cross-shard edge lookahead.
  [[nodiscard]] sim::Duration min_latency() const {
    return sim::serialization_ns(Frame{}.wire_bytes(), bps_) +
           propagation_ns_;
  }

  /// Install a drop policy on the direction *transmitting from* `side`.
  void set_drop_policy(Side side, DropPolicy policy) {
    end_[static_cast<int>(side)].drop = std::move(policy);
  }

  /// Time to serialize `frame` onto the wire at line rate.
  [[nodiscard]] sim::Duration serialization_time(const Frame& frame) const {
    return sim::serialization_ns(frame.wire_bytes(), bps_);
  }

  /// Queue `frame` for transmission from `side`.  The link serializes
  /// frames FIFO; the frame arrives at the far sink after serialization
  /// plus propagation.  Returns the time at which the wire in this
  /// direction becomes free (senders may use it for pacing).
  sim::Time transmit(Side side, FramePtr frame);

  /// True while the given direction is still serializing earlier frames.
  [[nodiscard]] bool busy(Side side) const {
    const Endpoint& e = end_[static_cast<int>(side)];
    return e.busy_until > e.eng->now();
  }

  [[nodiscard]] std::uint64_t frames_sent(Side side) const {
    return end_[static_cast<int>(side)].sent;
  }
  [[nodiscard]] std::uint64_t frames_dropped(Side side) const {
    return end_[static_cast<int>(side)].dropped;
  }

 private:
  struct Endpoint {
    FrameSink* sink = nullptr;   // receiver of frames sent *to* this side
    sim::Engine* eng = nullptr;  // engine this side's component runs on
    std::uint32_t shard = 0;     // shard index of `eng` (when grouped)
    bool resolved = false;       // shard index is known (group + engine set)
    DropPolicy drop;             // applied to frames sent *from* this side
    sim::Time busy_until = 0;    // wire-free time for this direction
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    // Per-direction (not per-link) so concurrent shards never share the
    // counter.  wire_id is identification-only — nothing behavioral reads
    // it — so renumbering per direction leaves digests untouched.
    std::uint64_t next_wire_id = 1;
  };

  void resolve_shard(Endpoint& e);
  void maybe_register_lookahead();

  std::uint64_t bps_;
  sim::Duration propagation_ns_;
  sim::ShardGroup* group_ = nullptr;
  Endpoint end_[2];
};

}  // namespace ulsocks::net

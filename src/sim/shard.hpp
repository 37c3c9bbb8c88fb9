// Partitioned simulation: N engines stepped serially in conservative
// (CMB-style) epochs bounded by a per-edge lookahead distance matrix.
//
// A ShardGroup owns N independent Engines and runs them in bounded epochs,
// one shard after another in shard order on the calling thread.
// Cross-shard interactions are described by a per-(src, dst) lookahead
// matrix W: W[s][d] is a lower bound on the simulated latency of any
// effect shard s can impose on shard d over a direct edge (for an
// Ethernet link: serialization of a minimum wire frame plus that link's
// propagation delay — net::Link registers it when a cross-shard edge is
// created).  From W the group derives the shortest-path closure D, where
// D[j][i] is the minimum latency over *any* relay chain j -> ... -> i and
// D[i][i] is the minimum round trip i -> ... -> i.  Shard i's epoch bound
// is then
//
//   bound_i = min over all shards j of (T_j + D[j][i])
//
// (T_j = shard j's next event time), rather than one group-wide window
// `global_min(T_j) + W`: a shard whose only incoming edges are long-haul
// advances in strides of the long latency while tightly-coupled pairs
// stay tight, and an idle shard (T_j = infinity) constrains nobody.  The
// closure — not the raw edge matrix — is what makes per-edge bounds sound
// under a barrier; see DESIGN.md §11 for the induction and the
// reflection-path caveat (D[i][i] is exactly the term that bounds a shard
// against echoes of its own future output).
//
// Cross-shard events travel through per-(src, dst) mailboxes written by
// the source shard during its window and drained only at the epoch
// barrier, sorted by (t, seq, src_shard).  The seq is a per-mailbox push
// ordinal, so the drain order — and therefore the destination engine's
// sequence numbering — is a pure function of each source shard's own
// deterministic execution.
//
// The shards are never stepped concurrently: on the workloads this
// simulator runs, the busiest shard carries two thirds of all events, so
// threads cannot pay for their barriers (DESIGN.md §11).  The epoch
// schedule stays because it defines the event order every sharded
// result is recorded against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "check/registry.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace ulsocks::sim {

class ShardGroup {
 public:
  /// Sentinel epoch bound meaning "run this shard to drain".
  static constexpr Time kNoBound = ~Time{0};
  /// Sentinel lookahead meaning "no path": the pair never interacts, so
  /// it contributes no epoch constraint.
  static constexpr Duration kUnreachable = ~Duration{0};
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// `lookahead` is the default lower bound on the simulated latency of
  /// every cross-shard interaction; post_remote() enforces it per post.
  /// It governs every (src, dst) pair until the first
  /// register_edge_lookahead() call switches the group to
  /// registered-edges-only (see below).  Shard i is seeded `seed + i`, so
  /// shard 0 of a one-shard group is byte-identical to a plain
  /// `Engine(seed)`.
  ShardGroup(std::size_t shards, Duration lookahead, std::uint64_t seed = 1);
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return engines_.size(); }
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] Engine& shard(std::size_t i) { return *engines_[i]; }

  /// Index of `eng` within this group.  Pre: the engine belongs to it.
  [[nodiscard]] std::uint32_t index_of(const Engine& eng) const;

  /// Declare a direct cross-shard edge src -> dst on which every
  /// interaction is delayed by at least `w` (>= 1 ns).  Multiple
  /// registrations for one pair keep the minimum (parallel links).
  ///
  /// The first registration on a group asserts a stronger contract than
  /// the constructor default: *all* cross-shard traffic flows over
  /// registered edges.  Unregistered pairs then become kUnreachable —
  /// they constrain no epoch bound, and post_remote() on one is an
  /// invariant violation.  net::Link is the only sanctioned caller
  /// (enforced by ulsan-shard-affinity); it registers each cross-shard
  /// link's true serialization + propagation delay as the edge forms.
  void register_edge_lookahead(std::uint32_t src, std::uint32_t dst,
                               Duration w);

  /// Direct-edge lookahead currently in force for (src, dst):
  /// the registered minimum, the constructor default while no edge has
  /// been registered group-wide, or kUnreachable.
  [[nodiscard]] Duration edge_lookahead(std::uint32_t src,
                                        std::uint32_t dst) const;

  /// Shortest-path closure entry D[src][dst]: minimum latency over any
  /// relay chain src -> ... -> dst (kUnreachable if none).  For
  /// src == dst this is the minimum round trip through at least one other
  /// shard — the reflection bound.
  [[nodiscard]] Duration path_lookahead(std::uint32_t src, std::uint32_t dst);

  /// Post `fn` to run at absolute time `t` on shard `dst`.  Must be called
  /// while shard `src` executes its window (or between windows); `t` must
  /// honour edge_lookahead(src, dst) relative to src's clock.  Entries are
  /// delivered at the next epoch barrier in (t, seq, src) order.
  void post_remote(std::uint32_t src, std::uint32_t dst, Time t, EventFn fn);

  /// Run all shards to completion, stepping them in shard order within
  /// each epoch.  A failing window propagates at once, so the first
  /// failure by shard index is the one thrown.  The argument is ignored.
  void run(unsigned /*ignored*/ = 0);

  /// Per-shard ordered digests folded in fixed shard order.  For a
  /// one-shard group this is exactly shard 0's digest.
  [[nodiscard]] std::uint64_t digest() const;

  /// Wrapping sum of the shards' order-insensitive digests — invariant
  /// across shard counts for the same workload (see Engine::causal_digest).
  [[nodiscard]] std::uint64_t causal_digest() const;

  /// Total events executed across all shards.
  [[nodiscard]] std::uint64_t events_executed() const;

  /// Per-shard executed-event counts in shard order (the load split the
  /// hostperf JSON block and the `shard/imbalance` gauge report).
  [[nodiscard]] std::vector<std::uint64_t> events_executed_per_shard() const;

  /// Latest shard clock (the simulated end time of the run).
  [[nodiscard]] Time now() const;

  /// Epoch windows executed so far (coalesced micro-epochs count
  /// individually; the benchmark reference pins this count).
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }

  /// Epochs whose runnable set was a single shard: consecutive quiet ones
  /// coalesce without re-deriving the full bound vector (see
  /// coalesce_single()).  A pure function of the workload and partition.
  [[nodiscard]] std::uint64_t barrier_skips() const noexcept {
    return barrier_skips_;
  }

  /// Cross-shard events delivered so far (equals total posted when
  /// quiesced — enforced by the built-in mailbox-conservation checker).
  [[nodiscard]] std::uint64_t remote_delivered() const noexcept {
    return delivered_;
  }

  /// Group-level scheduler metrics, distinct from any shard's registry:
  /// `shard/epoch_ns` (histogram of simulated global-clock advance per
  /// epoch), `shard/epochs`, `shard/barrier_skips`, `shard/remote_events`,
  /// `shard/imbalance` (max/min per-shard events, in permille).
  /// Flushed at the end of every run(); safe to snapshot when quiesced.
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }

  /// Group-level checkers, swept at epoch barriers while all shards are
  /// between windows — the only consistent place to read state across
  /// shards.  Cross-shard conservation laws register here; per-shard
  /// protocol checkers stay on their own engine's registry.
  [[nodiscard]] check::Registry& checks() noexcept { return checks_; }

  /// Epoch windows between group checker sweeps (default 256; 0 disables
  /// all but the final quiesced sweep).
  void set_check_epoch_interval(std::uint64_t every_n_epochs) noexcept {
    check_epoch_interval_ = every_n_epochs;
  }

  /// Introspection/testing: compute the next epoch's per-shard bounds
  /// (and the runnable set, see planned_runnable()) from the current
  /// queues without executing anything.  Empty when every queue is
  /// drained.  run() recomputes from scratch, so interleaving this with
  /// runs is safe.
  [[nodiscard]] std::vector<Time> plan_bounds();

  /// The runnable flags of the most recent plan_bounds()/epoch: shard i
  /// executes this epoch iff its next event is below bounds[i].
  [[nodiscard]] const std::vector<std::uint8_t>& planned_runnable() const {
    return runnable_;
  }

 private:
  struct MailEntry {
    Time t;
    std::uint64_t seq;  // push ordinal within the (src, dst) mailbox
    std::uint32_t src;
    EventFn fn;
  };
  // One mailbox per (src, dst) pair, written only while src executes.
  struct Mailbox {
    std::vector<MailEntry> entries;
    std::uint64_t next_seq = 0;  // total ever posted through this box
  };

  [[nodiscard]] Mailbox& box(std::uint32_t src, std::uint32_t dst) {
    return mail_[static_cast<std::size_t>(src) * engines_.size() + dst];
  }

  /// a + b with kNoBound/kUnreachable as an absorbing infinity.
  [[nodiscard]] static constexpr Time sat_add(Time a, Duration b) noexcept {
    return a >= kNoBound - b ? kNoBound : a + b;
  }

  [[nodiscard]] Duration edge(std::uint32_t src, std::uint32_t dst) const {
    return any_registered_
               ? edges_[static_cast<std::size_t>(src) * engines_.size() + dst]
               : lookahead_;
  }
  [[nodiscard]] Duration dist(std::uint32_t src, std::uint32_t dst) const {
    return dist_[static_cast<std::size_t>(src) * engines_.size() + dst];
  }

  /// Recompute the shortest-path closure from the edge matrix (lazy,
  /// on registration changes).
  void refresh_dist();

  /// Compute every shard's epoch bound and runnable flag from the current
  /// queues.  Returns false when all queues are drained (mailboxes are
  /// always empty here — they are drained right after each window).
  bool begin_epoch();
  /// Index of the only runnable shard, or kNone if zero or several.
  [[nodiscard]] std::size_t single_runnable() const;
  /// True when shard `src` has posted nothing into any mailbox.
  [[nodiscard]] bool outbox_empty(std::size_t src) const;
  /// Run shard `i` through consecutive windows while it stays the sole
  /// runnable shard and posts no mail, bounded by kMaxCoalesceStride.
  /// Returns windows executed (>= 1); epochs_ advances per window.
  std::size_t coalesce_single(std::size_t i);
  /// Execute shard i's window up to bounds_[i].
  void run_shard(std::size_t i);
  /// Drain mailboxes, sweep group checkers.
  void finish_epoch();
  void deliver_mailboxes();
  void flush_metrics();

  /// Windows a quiet single-shard streak may run before forcing a full
  /// barrier round-trip (bookkeeping, checker cadence, fresh bounds).
  static constexpr std::size_t kMaxCoalesceStride = 64;

  Duration lookahead_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Mailbox> mail_;      // mail_[src * size() + dst]
  std::vector<Duration> edges_;    // direct-edge lookahead matrix W
  std::vector<Duration> dist_;     // shortest-path closure D of W
  bool any_registered_ = false;    // edges_ in force (vs. scalar default)
  bool dist_dirty_ = true;
  std::vector<Time> bounds_;       // per-shard epoch bound (kNoBound = drain)
  std::vector<Time> tnext_;        // per-shard next event time this epoch
  std::vector<std::uint8_t> runnable_;
  std::vector<MailEntry> scratch_;  // barrier-only delivery sort buffer
  check::Registry checks_;
  obs::Registry metrics_;
  obs::Histogram* epoch_ns_hist_ = nullptr;
  Time last_gmin_ = 0;
  bool have_gmin_ = false;
  std::uint64_t epochs_ = 0;
  std::uint64_t barrier_skips_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t epochs_flushed_ = 0;
  std::uint64_t skips_flushed_ = 0;
  std::uint64_t delivered_flushed_ = 0;
  std::uint64_t last_check_epoch_ = 0;
  std::uint64_t check_epoch_interval_ = 256;
};

}  // namespace ulsocks::sim

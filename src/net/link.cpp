#include "net/link.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "net/payload_slice.hpp"
#include "sim/shard.hpp"

namespace ulsocks::net {

DropPolicy drop_nth_policy(std::vector<std::uint64_t> ordinals) {
  // Counts frames per policy instance; ordinals are 1-based.
  auto counter = std::make_shared<std::uint64_t>(0);
  return [counter, ordinals = std::move(ordinals)](const Frame&) {
    ++*counter;
    return std::find(ordinals.begin(), ordinals.end(), *counter) !=
           ordinals.end();
  };
}

DropPolicy random_drop_policy(sim::Rng& rng, double p) {
  return [&rng, p](const Frame&) { return rng.chance(p); };
}

DropPolicy random_drop_policy(std::uint64_t seed, double p) {
  auto rng = std::make_shared<sim::Rng>(seed);
  return [rng, p](const Frame&) { return rng->chance(p); };
}

sim::Duration shard_lookahead(const sim::WireCosts& wire) {
  return sim::serialization_ns(Frame{}.wire_bytes(), wire.link_bps) +
         wire.propagation_ns;
}

namespace {

// Deep-copy `f` into a fresh heap frame owned by no pool, with every
// payload slice re-backed by private heap storage.  Frame pools, slice
// pools and slice refcounts belong to one shard, so a frame crossing shards
// must leave its source shard's allocator world entirely: the copy is taken
// at the source's send time, and the original (with its pool and slice
// references) returns to the source pools there, not whenever the
// destination drops it in a later window.  Each shard's pool occupancy and
// high-water marks thus stay a function of its own events.  Slice
// boundaries are preserved so scatter-gather receive paths behave
// identically serial vs. sharded.
FramePtr clone_for_shard_transfer(const Frame& f) {
  FramePtr out = make_frame_ptr();
  out->dst = f.dst;
  out->src = f.src;
  out->type = f.type;
  out->wire_id = f.wire_id;
  out->payload = f.payload;
  out->slices.reserve(f.slices.size());
  for (const PayloadSlice& s : f.slices) {
    auto span = s.span();
    out->slices.push_back(
        PayloadSlice::adopt(std::vector<std::uint8_t>(span.begin(), span.end())));
  }
  return out;
}

}  // namespace

void Link::resolve_shard(Endpoint& e) {
  if (group_ != nullptr && e.eng != nullptr) {
    e.shard = group_->index_of(*e.eng);
    e.resolved = true;
  }
}

void Link::maybe_register_lookahead() {
  // Both directions share the wire costs, so a cross-shard link
  // contributes a symmetric pair of edges.  Registration is
  // min-accumulating in the group, so re-attachment and parallel links
  // between the same shard pair are harmless.
  if (end_[0].resolved && end_[1].resolved && end_[0].shard != end_[1].shard) {
    group_->register_edge_lookahead(end_[0].shard, end_[1].shard,
                                    min_latency());
    group_->register_edge_lookahead(end_[1].shard, end_[0].shard,
                                    min_latency());
  }
}

sim::Time Link::transmit(Side side, FramePtr frame) {
  auto& from = end_[static_cast<int>(side)];
  auto& to = end_[1 - static_cast<int>(side)];
  frame->wire_id = from.next_wire_id++;
  ++from.sent;

  sim::Time start = std::max(from.eng->now(), from.busy_until);
  sim::Duration ser = serialization_time(*frame);
  from.busy_until = start + ser;

  if (from.drop && from.drop(*frame)) {
    ++from.dropped;
    return from.busy_until;  // the wire time is spent even for lost frames
  }

  sim::Time arrival = from.busy_until + propagation_ns_;
  if (to.eng == from.eng) {
    // EventFn is move-only, so the frame travels in the event itself.
    from.eng->schedule_at(arrival,
                          [sink = to.sink, f = std::move(frame)]() mutable {
                            if (sink) sink->frame_arrived(std::move(f));
                          });
  } else {
    // Cross-shard: arrival >= now + serialization(min frame) + propagation
    // = now + min_latency(), which is exactly the edge lookahead this link
    // registered — the invariant post_remote demands.
    FramePtr crossed = clone_for_shard_transfer(*frame);
    frame.reset();  // original returns to its source-shard pool here
    group_->post_remote(
        from.shard, to.shard, arrival,
        [sink = to.sink, f = std::move(crossed)]() mutable {
          if (sink) sink->frame_arrived(std::move(f));
        });
  }
  return from.busy_until;
}

}  // namespace ulsocks::net

// Determinism self-check (ROADMAP tier-1 gate): the engine folds every
// executed event's (time, sequence) into a 64-bit digest; two runs of the
// same seeded workload must be bit-identical — same digest, same event
// count, same final time.  A divergence means something nondeterministic
// (wall clock, pointer ordering, uninitialized reads) leaked into the
// simulation and every paper-reproduction number is suspect.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "apps/cluster.hpp"
#include "apps/httpd.hpp"
#include "check/invariant.hpp"
#include "net/frame.hpp"
#include "net/link.hpp"
#include "net/payload_slice.hpp"
#include "net/topology.hpp"
#include "oskernel/process.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "sockets/config.hpp"

namespace ulsocks {
namespace {

using apps::Cluster;
using os::SockAddr;
using sim::Engine;
using sim::Task;

TEST(Digest, AdvancesAsEventsExecute) {
  Engine eng;
  std::uint64_t initial = eng.digest();
  eng.schedule_at(10, [] {});
  EXPECT_EQ(eng.digest(), initial);  // scheduling alone changes nothing
  eng.run();
  EXPECT_NE(eng.digest(), initial);
}

TEST(Digest, IdenticalEventSequencesAgree) {
  auto run = [] {
    Engine eng;
    for (int i = 0; i < 100; ++i) {
      eng.schedule_at(static_cast<sim::Time>(i * 7), [] {});
    }
    eng.run();
    return eng.digest();
  };
  EXPECT_EQ(run(), run());
}

TEST(Digest, DifferentTimingsDiverge) {
  auto run = [](sim::Time spacing) {
    Engine eng;
    for (int i = 0; i < 10; ++i) {
      eng.schedule_at(static_cast<sim::Time>(i) * spacing, [] {});
    }
    eng.run();
    return eng.digest();
  };
  EXPECT_NE(run(7), run(8));
}

struct RunSignature {
  std::uint64_t digest;
  std::uint64_t events;
  sim::Time end_time;
  std::uint64_t bytes_echoed;
  friend bool operator==(const RunSignature&, const RunSignature&) = default;
};

// Workload knobs for run_echo_workload.  Defaults reproduce the original
// tier-1 workload exactly.
struct EchoOptions {
  sockets::SubstrateConfig cfg{};
  bool use_tcp = false;    // kernel TCP instead of the substrate
  bool use_view = false;   // server drains with read_view() (zero-copy)
  double loss = 0.0;       // random frame loss on both host links
  std::uint64_t* bytes_copied = nullptr;  // out: host/bytes_copied total
};

// A full-stack workload: substrate connection setup, eager + credit flow,
// randomized message sizes drawn from the engine's seeded RNG, teardown.
// The client verifies the echoed bytes, so any stale-buffer bleed from the
// slice/frame pools shows up as a content mismatch, not just a digest one.
RunSignature run_echo_workload(std::uint64_t seed,
                               const EchoOptions& opt = {}) {
  Engine eng(seed);
  Cluster cluster(eng, sim::calibrated_cost_model(), 2, opt.cfg);
  if (opt.loss > 0) {
    for (std::size_t i = 0; i < 2; ++i) {
      cluster.network().host_link(i).set_drop_policy(
          net::StarNetwork::kHostSide,
          net::random_drop_policy(eng.rng(), opt.loss));
    }
  }
  std::uint64_t echoed = 0;

  auto pick = [&](std::size_t node) -> os::SocketApi& {
    return opt.use_tcp
               ? static_cast<os::SocketApi&>(cluster.node(node).tcp)
               : static_cast<os::SocketApi&>(cluster.node(node).socks);
  };
  auto server = [&]() -> Task<void> {
    auto& api = pick(1);
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, 7100});
    co_await api.listen(ls, 4);
    int sd = co_await api.accept(ls, nullptr);
    std::vector<std::uint8_t> buf(16384);
    os::RecvView view;
    for (;;) {
      std::size_t n;
      if (opt.use_view) {
        n = co_await api.read_view(sd, view, buf.size());
        // Gather the parts host-side (no simulated cost) so the echo write
        // pattern is identical whether slicing lent one part or many.
        std::size_t off = 0;
        for (const auto& part : view.parts) {
          std::memcpy(buf.data() + off, part.data(), part.size());
          off += part.size();
        }
      } else {
        n = co_await api.read(sd, buf);
      }
      if (n == 0) break;
      co_await api.write_all(sd, std::span(buf).first(n));
    }
    co_await api.close(sd);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& api = pick(0);
    int sd = co_await api.socket();
    co_await api.connect(sd, SockAddr{1, 7100});
    std::vector<std::uint8_t> out(16384);
    std::vector<std::uint8_t> in(16384);
    for (int i = 0; i < 25; ++i) {
      std::size_t n = eng.rng().uniform(1, 8192);
      for (std::size_t b = 0; b < n; ++b) {
        out[b] = static_cast<std::uint8_t>(eng.rng().uniform(0, 255));
      }
      co_await api.write_all(sd, std::span(out).first(n));
      co_await api.read_exact(sd, std::span(in).first(n));
      EXPECT_TRUE(std::equal(in.begin(), in.begin() + n, out.begin()))
          << "echoed bytes corrupted at iteration " << i;
      echoed += n;
    }
    co_await api.close(sd);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  if (opt.bytes_copied != nullptr) {
    *opt.bytes_copied = static_cast<std::uint64_t>(
        eng.metrics().counter("host/bytes_copied").value());
  }
  return RunSignature{eng.digest(), eng.events_executed(), eng.now(), echoed};
}

TEST(Determinism, SameSeedSameDigestTwice) {
  RunSignature a = run_echo_workload(42);
  RunSignature b = run_echo_workload(42);
  EXPECT_EQ(a, b) << "same-seed runs diverged: digest " << a.digest << " vs "
                  << b.digest << ", events " << a.events << " vs "
                  << b.events;
  EXPECT_GT(a.bytes_echoed, 0u);
  EXPECT_GT(a.events, 1000u);  // the workload actually exercised the stack
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Different seeds draw different message sizes, so the event stream —
  // and therefore the digest — must differ.
  EXPECT_NE(run_echo_workload(1).digest, run_echo_workload(2).digest);
}

TEST(Determinism, FramePoolingDoesNotChangeEventOrder) {
  // Pooling recycles frame storage; it must never leak into simulated
  // behaviour.  The full echo workload (connection setup, eager + credit
  // flow, teardown) must produce a bit-identical run signature with the
  // pool switched off (seed behaviour: heap-allocate every frame).
  net::FramePool::set_pooling_enabled(false);
  RunSignature unpooled = run_echo_workload(42);
  net::FramePool::set_pooling_enabled(true);
  RunSignature pooled = run_echo_workload(42);
  EXPECT_EQ(pooled, unpooled)
      << "pooled digest " << pooled.digest << " vs unpooled "
      << unpooled.digest << ", events " << pooled.events << " vs "
      << unpooled.events;
}

// RAII guard: every slicing A/B test must leave the global switch in its
// default (enabled) state even when an assertion fails midway.
struct SlicingGuard {
  ~SlicingGuard() { net::SlicePool::set_slicing_enabled(true); }
};

// The zero-copy slice data path must be a pure host-side optimization:
// the simulated event stream (digest, count, end time) is bit-identical
// with slicing on and off, on every paper preset.
TEST(Determinism, SlicingDoesNotChangeEventOrderOnAnyPreset) {
  SlicingGuard guard;
  for (const sockets::Preset& p : sockets::presets()) {
    EchoOptions opt;
    opt.cfg = p.cfg;
    net::SlicePool::set_slicing_enabled(false);
    RunSignature legacy = run_echo_workload(42, opt);
    net::SlicePool::set_slicing_enabled(true);
    RunSignature sliced = run_echo_workload(42, opt);
    EXPECT_EQ(sliced, legacy)
        << "preset " << p.name << ": sliced digest " << sliced.digest
        << " vs legacy " << legacy.digest << ", events " << sliced.events
        << " vs " << legacy.events;
  }
}

// Same invariant through the zero-copy read_view() receive API, where the
// sliced mode lends NIC buffers instead of copying into user memory.
TEST(Determinism, SlicingDoesNotChangeEventOrderWithReadView) {
  SlicingGuard guard;
  EchoOptions opt;
  opt.cfg = sockets::preset("ds_da_uq").cfg;
  opt.use_view = true;
  net::SlicePool::set_slicing_enabled(false);
  RunSignature legacy = run_echo_workload(42, opt);
  net::SlicePool::set_slicing_enabled(true);
  RunSignature sliced = run_echo_workload(42, opt);
  EXPECT_EQ(sliced, legacy);
}

// Stress variant: tiny credits and staging buffers force fragmentation,
// credit stalls and unexpected-queue traffic, and random frame loss drives
// the NACK-repair retransmit path — all of which rebuild frames from the
// pinned slice and must stay digest-identical.
TEST(Determinism, SlicingDoesNotChangeEventOrderUnderLossyStress) {
  SlicingGuard guard;
  EchoOptions opt;
  opt.cfg = sockets::preset("ds_da_uq").cfg;
  opt.cfg.credits = 2;
  opt.cfg.buffer_bytes = 2048;
  opt.loss = 0.01;
  net::SlicePool::set_slicing_enabled(false);
  RunSignature legacy = run_echo_workload(42, opt);
  net::SlicePool::set_slicing_enabled(true);
  RunSignature sliced = run_echo_workload(42, opt);
  EXPECT_EQ(sliced, legacy);
}

// Kernel TCP grew its own sliced segment path (header inline, payload
// adopted as a slice); it must be behaviour-neutral too, including under
// loss (retransmits re-slice from the ByteRing).
TEST(Determinism, SlicingDoesNotChangeEventOrderOverTcp) {
  SlicingGuard guard;
  EchoOptions opt;
  opt.use_tcp = true;
  opt.loss = 0.005;
  net::SlicePool::set_slicing_enabled(false);
  RunSignature legacy = run_echo_workload(42, opt);
  net::SlicePool::set_slicing_enabled(true);
  RunSignature sliced = run_echo_workload(42, opt);
  EXPECT_EQ(sliced, legacy);
}

// The point of the slices: with read_view the legacy path copies every
// payload byte ~5 times on the host (staging, send capture, wire encode,
// delivery, read-out) while the sliced path pins it once.  Require the
// ISSUE's >= 3x reduction with headroom.
TEST(HostCopies, SlicingCutsBytesCopiedAtLeast3x) {
  SlicingGuard guard;
  std::uint64_t legacy_bytes = 0;
  std::uint64_t sliced_bytes = 0;
  EchoOptions opt;
  opt.cfg = sockets::preset("ds_da_uq").cfg;
  opt.use_view = true;
  net::SlicePool::set_slicing_enabled(false);
  opt.bytes_copied = &legacy_bytes;
  (void)run_echo_workload(42, opt);
  net::SlicePool::set_slicing_enabled(true);
  opt.bytes_copied = &sliced_bytes;
  (void)run_echo_workload(42, opt);
  ASSERT_GT(sliced_bytes, 0u);  // control traffic still copies
  EXPECT_GE(legacy_bytes, 3 * sliced_bytes)
      << "legacy copied " << legacy_bytes << " bytes, sliced copied "
      << sliced_bytes;
}

// ---------------------------------------------------------------------------
// Queue-order property test: the engine's two-level 4-ary heap must pop in
// exactly the strict (time, sequence) order.  The oracle is a deliberately
// naive scheduler — an unordered vector popped by linear min-scan — driven
// through the same randomized self-spawning workload and folded through the
// same digest function.  Any ordering bug in the heap, the slot arena, or
// the near/far horizon split shows up as a digest or count mismatch.
// ---------------------------------------------------------------------------

// The engine's digest fold (splitmix64 finalizer), replicated here so the
// test checks the published contract rather than calling back into it.
constexpr std::uint64_t ref_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
constexpr std::uint64_t kRefDigestInit = 0x243f6a8885a308d3ull;

// Deterministic generator shared (by value of its seed) between the engine
// run and the reference run: if both schedulers execute events in the same
// order, both draw the same decisions.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 11;
  }
};

// Delta distribution exercising every queue regime: same-timestamp events
// (seq tiebreak), short deltas (near heap), and deltas past the 64 us near
// window (far heap + horizon refills).
sim::Duration random_delta(Lcg& rng) {
  const std::uint64_t r = rng.next();
  switch (r % 4) {
    case 0: return 0;
    case 1: return static_cast<sim::Duration>(r % 64);
    case 2: return static_cast<sim::Duration>(r % 4096);
    default: return static_cast<sim::Duration>(70'000 + r % 200'000);
  }
}

struct NaiveScheduler {
  struct Ev {
    sim::Time t;
    std::uint64_t seq;
    int depth;
  };
  std::vector<Ev> pending;
  sim::Time now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t digest = kRefDigestInit;
  std::uint64_t executed = 0;

  void schedule(sim::Time t, int depth) {
    pending.push_back(Ev{t, next_seq++, depth});
  }
  void run(Lcg& rng) {
    while (!pending.empty()) {
      std::size_t best = 0;  // linear min-scan: the obviously-correct pop
      for (std::size_t i = 1; i < pending.size(); ++i) {
        const Ev& a = pending[i];
        const Ev& b = pending[best];
        if (a.t < b.t || (a.t == b.t && a.seq < b.seq)) best = i;
      }
      const Ev ev = pending[best];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
      now = ev.t;
      ++executed;
      digest = ref_mix64(digest ^ static_cast<std::uint64_t>(ev.t));
      digest = ref_mix64(digest ^ ev.seq);
      if (ev.depth > 0) {
        const std::uint64_t kids = rng.next() % 3;
        for (std::uint64_t k = 0; k < kids; ++k) {
          schedule(now + random_delta(rng), ev.depth - 1);
        }
      }
    }
  }
};

// Self-spawning event for the real engine, mirroring NaiveScheduler's
// execution body draw-for-draw.
struct Spawner {
  Engine* eng;
  Lcg* rng;
  int depth;
  void operator()() const {
    if (depth <= 0) return;
    const std::uint64_t kids = rng->next() % 3;
    for (std::uint64_t k = 0; k < kids; ++k) {
      eng->schedule_after(random_delta(*rng), Spawner{eng, rng, depth - 1});
    }
  }
};

// ---------------------------------------------------------------------------
// Sharded engine (sim/shard.hpp): a ShardGroup partitions the hosts across
// engines synchronized by link-latency lookahead.  The contract, from
// weakest to strongest coupling:
//   - a one-shard group is byte-identical to a plain Engine (same digest);
//   - for a fixed shard count, parallel execution is byte-identical to
//     stepping the same epochs serially (same per-shard digests, so the
//     same folded group digest);
//   - across shard counts, the simulated outcome is invariant: the same
//     events fire at the same times (causal digest, event count, end time)
//     and the application sees the same bytes.  The seq-folded digest is
//     intentionally partition-dependent (each engine numbers its own
//     events), which is why causal_digest() exists.
// These workloads draw randomness from per-actor generators and seeded
// drop policies — never Engine::rng(), whose draw interleaving would
// change with the partition.
// ---------------------------------------------------------------------------

struct ShardSignature {
  std::uint64_t group_digest;
  std::uint64_t causal_digest;
  std::uint64_t events;
  sim::Time end_time;
  std::uint64_t bytes_echoed;
  friend bool operator==(const ShardSignature&, const ShardSignature&) =
      default;
};

/// The partition-invariant part of a signature (drops the seq-folded
/// digest, which legitimately differs across shard counts).
struct CausalSignature {
  std::uint64_t causal_digest;
  std::uint64_t events;
  sim::Time end_time;
  std::uint64_t bytes_echoed;
  friend bool operator==(const CausalSignature&, const CausalSignature&) =
      default;
};

CausalSignature causal_part(const ShardSignature& s) {
  return {s.causal_digest, s.events, s.end_time, s.bytes_echoed};
}

struct ShardEchoOptions {
  sockets::SubstrateConfig cfg{};
  bool use_tcp = false;
  double loss = 0.0;
  int rounds = 20;
  std::uint64_t seed = 42;
  // Per-host cable propagation overrides (ns), cycled over hosts; empty
  // keeps the calibrated model's uniform wire.
  std::vector<sim::Duration> per_host_propagation = {};
};

/// Scheduler-side observables of a sharded run: the epoch schedule and
/// the seq-folded digest of the event order it produced.
struct GroupStats {
  std::uint64_t epochs = 0;
  std::uint64_t barrier_skips = 0;
  std::uint64_t remote_delivered = 0;
  std::uint64_t digest = 0;
  friend bool operator==(const GroupStats&, const GroupStats&) = default;
};

GroupStats group_stats(const sim::ShardGroup& group) {
  return {group.epochs(), group.barrier_skips(), group.remote_delivered(),
          group.digest()};
}

Task<void> shard_echo_server(os::SocketApi& api) {
  int ls = co_await api.socket();
  co_await api.bind(ls, SockAddr{1, 7100});
  co_await api.listen(ls, 4);
  int sd = co_await api.accept(ls, nullptr);
  std::vector<std::uint8_t> buf(16384);
  for (;;) {
    std::size_t n = co_await api.read(sd, buf);
    if (n == 0) break;
    co_await api.write_all(sd, std::span(buf).first(n));
  }
  co_await api.close(sd);
  co_await api.close(ls);
}

Task<void> shard_echo_client(os::SocketApi& api, std::uint64_t seed,
                             int rounds, std::uint64_t* echoed) {
  Lcg rng{seed};
  int sd = co_await api.socket();
  co_await api.connect(sd, SockAddr{1, 7100});
  std::vector<std::uint8_t> out(16384);
  std::vector<std::uint8_t> in(16384);
  for (int i = 0; i < rounds; ++i) {
    const std::size_t n = 1 + rng.next() % 8192;
    for (std::size_t b = 0; b < n; ++b) {
      out[b] = static_cast<std::uint8_t>(rng.next() & 0xff);
    }
    co_await api.write_all(sd, std::span(out).first(n));
    co_await api.read_exact(sd, std::span(in).first(n));
    EXPECT_TRUE(std::equal(in.begin(), in.begin() + n, out.begin()))
        << "echoed bytes corrupted at iteration " << i;
    *echoed += n;
  }
  co_await api.close(sd);
}

os::SocketApi& shard_echo_api(Cluster& cl, std::size_t node, bool use_tcp) {
  return use_tcp ? static_cast<os::SocketApi&>(cl.node(node).tcp)
                 : static_cast<os::SocketApi&>(cl.node(node).socks);
}

void shard_echo_losses(Cluster& cl, const ShardEchoOptions& opt) {
  if (opt.loss <= 0) return;
  // Policies seeded per link, not fed from any engine's RNG: frames cross a
  // given link side in the same order under every partition, so the drop
  // decisions replay identically.
  for (std::size_t i = 0; i < 2; ++i) {
    cl.network().host_link(i).set_drop_policy(
        net::StarNetwork::kHostSide,
        net::random_drop_policy(opt.seed * 1000003 + i, opt.loss));
  }
}

/// The group's default lookahead: a lower bound on every link's latency,
/// so the minimum over the heterogeneous cables in play.
sim::Duration echo_lookahead(const sim::CostModel& model,
                             const ShardEchoOptions& opt) {
  sim::WireCosts wire = model.wire;
  sim::Duration la = net::shard_lookahead(wire);
  for (sim::Duration p : opt.per_host_propagation) {
    wire.propagation_ns = p;
    la = std::min(la, net::shard_lookahead(wire));
  }
  return la;
}

ShardSignature run_plain_echo(const ShardEchoOptions& opt = {}) {
  Engine eng(opt.seed);
  Cluster cl(eng, sim::calibrated_cost_model(), 2, opt.cfg, {}, true,
             opt.per_host_propagation);
  shard_echo_losses(cl, opt);
  std::uint64_t echoed = 0;
  eng.spawn(shard_echo_server(shard_echo_api(cl, 1, opt.use_tcp)));
  eng.spawn(shard_echo_client(shard_echo_api(cl, 0, opt.use_tcp),
                              opt.seed ^ 0xabcdefull, opt.rounds, &echoed));
  eng.run();
  return {eng.digest(), eng.causal_digest(), eng.events_executed(), eng.now(),
          echoed};
}

ShardSignature run_sharded_echo(std::size_t shards,
                                const ShardEchoOptions& opt = {},
                                GroupStats* stats = nullptr) {
  const sim::CostModel model = sim::calibrated_cost_model();
  sim::ShardGroup group(shards, echo_lookahead(model, opt), opt.seed);
  Cluster cl(group, model, 2, opt.cfg, {}, true, opt.per_host_propagation);
  shard_echo_losses(cl, opt);
  std::uint64_t echoed = 0;
  cl.node_engine(1).spawn(shard_echo_server(shard_echo_api(cl, 1, opt.use_tcp)));
  cl.node_engine(0).spawn(shard_echo_client(
      shard_echo_api(cl, 0, opt.use_tcp), opt.seed ^ 0xabcdefull, opt.rounds,
      &echoed));
  group.run();
  if (stats != nullptr) *stats = group_stats(group);
  return {group.digest(), group.causal_digest(), group.events_executed(),
          group.now(), echoed};
}

// A one-shard group must be indistinguishable from not sharding at all:
// same engine seed, same event stream, same seq-folded digest — on every
// named paper preset.
TEST(Sharding, GroupOfOneIsByteIdenticalToPlainEngine) {
  for (const sockets::Preset& p : sockets::presets()) {
    ShardEchoOptions opt;
    opt.cfg = p.cfg;
    ShardSignature plain = run_plain_echo(opt);
    ShardSignature one = run_sharded_echo(1, opt);
    EXPECT_EQ(one, plain) << "preset " << p.name << ": group-of-one digest "
                          << one.group_digest << " vs plain "
                          << plain.group_digest;
    EXPECT_GT(plain.bytes_echoed, 0u) << "preset " << p.name;
  }
}

// Across shard counts the partition changes but the simulation must not:
// same events at the same times, same bytes through the application — on
// every named preset.
TEST(Sharding, OutcomeInvariantAcrossShardCountsOnEveryPreset) {
  for (const sockets::Preset& p : sockets::presets()) {
    ShardEchoOptions opt;
    opt.cfg = p.cfg;
    CausalSignature one = causal_part(run_sharded_echo(1, opt));
    CausalSignature two = causal_part(run_sharded_echo(2, opt));
    CausalSignature four = causal_part(run_sharded_echo(4, opt));
    EXPECT_EQ(two, one) << "preset " << p.name << " diverged at 2 shards";
    EXPECT_EQ(four, one) << "preset " << p.name << " diverged at 4 shards";
    EXPECT_GT(one.bytes_echoed, 0u) << "preset " << p.name;
  }
}

// Loss, tiny credits and tiny staging buffers drive retransmits, credit
// stalls and unexpected-queue traffic across the shard boundary; the
// outcome must still be partition-invariant.
TEST(Sharding, LossyStressOutcomeInvariantAcrossShardCounts) {
  ShardEchoOptions opt;
  opt.cfg = sockets::preset("ds_da_uq").cfg;
  opt.cfg.credits = 2;
  opt.cfg.buffer_bytes = 2048;
  opt.loss = 0.01;
  CausalSignature one = causal_part(run_sharded_echo(1, opt));
  CausalSignature two = causal_part(run_sharded_echo(2, opt));
  CausalSignature four = causal_part(run_sharded_echo(4, opt));
  EXPECT_EQ(two, one) << "lossy stress diverged at 2 shards";
  EXPECT_EQ(four, one) << "lossy stress diverged at 4 shards";
}

// Kernel TCP's loss recovery (retransmit timers are the long-dated far-heap
// events) must behave identically when the two endpoints live on different
// shards.
TEST(Sharding, TcpOverLossOutcomeInvariantAcrossShardCounts) {
  ShardEchoOptions opt;
  opt.use_tcp = true;
  opt.loss = 0.005;
  CausalSignature one = causal_part(run_sharded_echo(1, opt));
  CausalSignature two = causal_part(run_sharded_echo(2, opt));
  CausalSignature four = causal_part(run_sharded_echo(4, opt));
  EXPECT_EQ(two, one) << "tcp-over-loss diverged at 2 shards";
  EXPECT_EQ(four, one) << "tcp-over-loss diverged at 4 shards";
}

// Blocking HTTP/1.1 web workload on a sharded cluster: node 0 serves,
// every other node runs one client making kWebRequests requests over
// kWebRequests / kWebPerConnection connections.
constexpr std::size_t kWebHosts = 5;
constexpr std::size_t kWebRequests = 8;
constexpr std::uint32_t kWebPerConnection = 4;

Task<void> sharded_web_server(Cluster& cl) {
  os::Process proc(cl.node(0).host);
  apps::WebServerOptions so;
  so.requests_per_connection = kWebPerConnection;
  so.max_connections = (kWebHosts - 1) * (kWebRequests / kWebPerConnection);
  co_await apps::web_server(proc, cl.node(0).socks, so);
}

Task<void> sharded_web_client(Cluster& cl, std::size_t node,
                              sim::OnlineStats& response_us) {
  co_await cl.node_engine(node).delay(5'000 * node);
  os::Process proc(cl.node(node).host);
  apps::WebClientOptions co;
  co.response_bytes = 4096;
  co.requests_per_connection = kWebPerConnection;
  co.total_requests = kWebRequests;
  co_await apps::web_client(proc, cl.node(node).socks, co, response_us);
}

struct WebShardOutcome {
  std::uint64_t causal_digest;
  std::uint64_t events;
  std::size_t responses;
  friend bool operator==(const WebShardOutcome&, const WebShardOutcome&) =
      default;
};

WebShardOutcome run_sharded_web(std::size_t shards,
                                GroupStats* stats = nullptr) {
  const sim::CostModel model = sim::calibrated_cost_model();
  sim::ShardGroup group(shards, net::shard_lookahead(model.wire));
  Cluster cl(group, model, kWebHosts);
  std::vector<sim::OnlineStats> response_us(kWebHosts - 1);
  cl.spawn_on(0, sharded_web_server(cl));
  for (std::size_t n = 1; n < kWebHosts; ++n) {
    cl.spawn_on(n, sharded_web_client(cl, n, response_us[n - 1]));
  }
  group.run();
  if (stats != nullptr) *stats = group_stats(group);
  std::size_t responses = 0;
  for (const sim::OnlineStats& s : response_us) responses += s.count();
  return {group.causal_digest(), group.events_executed(), responses};
}

// The blocking web server — accept loop, one spawned handler per
// connection, condvar wakeups across the shard boundary — must serve every
// request and leave the causal digest untouched at every shard count.
TEST(Sharding, WebServerOutcomeInvariantAcrossShardCounts) {
  const WebShardOutcome reference = run_sharded_web(1);
  EXPECT_EQ(reference.responses, (kWebHosts - 1) * kWebRequests);
  for (std::size_t shards : {2ul, 4ul}) {
    EXPECT_EQ(run_sharded_web(shards), reference) << shards << " shards";
  }
}

// Cross-shard frames arriving within one epoch window must drain in strict
// (t, seq, src_shard) order at the barrier, regardless of the order the
// mailboxes were filled: seq orders same-time posts from one source, the
// source shard index breaks cross-source ties.
TEST(Sharding, MailboxDrainsInTimeSeqSrcOrder) {
  sim::ShardGroup group(3, /*lookahead=*/100);
  std::vector<int> order;
  auto post = [&](std::uint32_t src, sim::Time t, int id) {
    group.post_remote(src, 0, t, [&order, id] { order.push_back(id); });
  };
  // Both source shards post at t=0, inside one window, timestamps
  // deliberately scrambled relative to push order.
  group.shard(1).schedule_at(0, [&] {
    post(1, 150, 0);  // (t=150, seq=0, src=1)
    post(1, 120, 1);  // (t=120, seq=1, src=1)
  });
  group.shard(2).schedule_at(0, [&] {
    post(2, 150, 2);  // (t=150, seq=0, src=2)
    post(2, 120, 3);  // (t=120, seq=1, src=2)
    post(2, 150, 4);  // (t=150, seq=2, src=2)
  });
  group.run();
  // t=120 first (seq ties, src 1 < 2); then t=150 by (seq, src): seq 0 of
  // src 1, seq 0 of src 2, seq 2 of src 2.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 0, 2, 4}));
  EXPECT_EQ(group.remote_delivered(), 5u);
  EXPECT_GE(group.epochs(), 2u);
}

// The per-edge lookahead machinery, exercised directly.  Registered edges
// 0->1=1000, 1->0=200, 1->2=3000, 2->1=50 give the closure
//   D[0][2] = 4000 (via 1),  D[2][0] = 250 (via 1),
//   D[0][0] = D[1][1] = 1200 (cycle 0->1->0),  D[2][2] = 3050,
// and with next events T = {100, 200, 300} the per-shard bounds are
//   bound_0 = T_1 + D[1][0] = 400,  bound_1 = T_2 + D[2][1] = 350,
//   bound_2 = T_1 + D[1][2] = 3200.
TEST(Sharding, AsymmetricMatrixBoundsFollowTheClosure) {
  sim::ShardGroup group(3, /*lookahead=*/10);
  // Before any registration every pair carries the constructor default.
  EXPECT_EQ(group.edge_lookahead(0, 2), 10u);
  group.register_edge_lookahead(0, 1, 1000);
  group.register_edge_lookahead(1, 0, 200);
  group.register_edge_lookahead(1, 2, 3000);
  group.register_edge_lookahead(2, 1, 50);
  // Registration flips the group to registered-edges-only...
  EXPECT_EQ(group.edge_lookahead(0, 2), sim::ShardGroup::kUnreachable);
  // ...and accumulates the minimum per pair.
  group.register_edge_lookahead(0, 1, 5000);
  EXPECT_EQ(group.edge_lookahead(0, 1), 1000u);

  EXPECT_EQ(group.path_lookahead(0, 2), 4000u);
  EXPECT_EQ(group.path_lookahead(2, 0), 250u);
  EXPECT_EQ(group.path_lookahead(0, 0), 1200u);
  EXPECT_EQ(group.path_lookahead(1, 1), 1200u);
  EXPECT_EQ(group.path_lookahead(2, 2), 3050u);

  group.shard(0).schedule_at(100, [] {});
  group.shard(1).schedule_at(200, [] {});
  group.shard(2).schedule_at(300, [] {});
  EXPECT_EQ(group.plan_bounds(),
            (std::vector<sim::Time>{400, 350, 3200}));
  // Every next event sits below its bound here, so all three run.
  EXPECT_EQ(group.planned_runnable(),
            (std::vector<std::uint8_t>{1, 1, 1}));

  // Posting over a pair nobody registered is an invariant violation, not a
  // silent unsound schedule.
  EXPECT_THROW(group.post_remote(0, 2, 100'000, [] {}),
               check::InvariantError);
}

// A shard no reachable peer can affect gets the drain sentinel: with only
// the edge 0->1 registered, nothing constrains shard 0 (no incoming path,
// no cycle), while shard 1 is bounded by T_0 + W[0][1].
TEST(Sharding, DrainSentinelWhenNoPathConstrains) {
  sim::ShardGroup group(2, /*lookahead=*/10);
  group.register_edge_lookahead(0, 1, 500);
  EXPECT_EQ(group.path_lookahead(1, 0), sim::ShardGroup::kUnreachable);
  group.shard(0).schedule_at(100, [] {});
  group.shard(1).schedule_at(50, [] {});
  EXPECT_EQ(group.plan_bounds(),
            (std::vector<sim::Time>{sim::ShardGroup::kNoBound, 600}));
  // A drained group plans nothing at all.
  group.run();
  EXPECT_TRUE(group.plan_bounds().empty());
}

// Idle shards (no events) and far-future shards are excluded from the
// runnable set, and a sole-runnable shard proceeds through coalesced
// micro-epochs — counted by barrier_skips() and mirrored into the group's
// metrics registry.
TEST(Sharding, IdleShardSkipLeavesItNonRunnable) {
  sim::ShardGroup group(3, /*lookahead=*/100);
  // Uniform default edges: D[i][j] = 100 off-diagonal, every cycle 200.
  for (sim::Time t = 0; t < 100; t += 10) {
    group.shard(0).schedule_at(t, [] {});
  }
  group.shard(1).schedule_at(500, [] {});
  // Shard 2 stays idle.
  ASSERT_FALSE(group.plan_bounds().empty());
  // bound_0 = min(0+200, 500+100) = 200 > T_0; bound_1 = 0+100 <= 500;
  // shard 2 has no event at all.
  EXPECT_EQ(group.planned_runnable(),
            (std::vector<std::uint8_t>{1, 0, 0}));
  group.run();
  EXPECT_GE(group.barrier_skips(), 2u);  // both windows ran solo
  EXPECT_GE(group.epochs(), 2u);
  const auto snap = group.metrics().snapshot();
  EXPECT_EQ(snap.at("shard/epochs"),
            static_cast<std::int64_t>(group.epochs()));
  EXPECT_EQ(snap.at("shard/barrier_skips"),
            static_cast<std::int64_t>(group.barrier_skips()));
}

// Heterogeneous cables: host 0 on a short (200 ns) cable, host 1 on a long
// (5000 ns) one.  The registered per-link edges differ per direction pair,
// the serial engine must agree with a one-shard group byte-for-byte, and
// the outcome must stay invariant across shard counts.
TEST(Sharding, HeterogeneousLinksOutcomeInvariantAcrossShardCounts) {
  ShardEchoOptions opt;
  opt.per_host_propagation = {200, 5000};
  ShardSignature plain = run_plain_echo(opt);
  ShardSignature one = run_sharded_echo(1, opt);
  EXPECT_EQ(one, plain) << "heterogeneous group-of-one diverged from plain";
  CausalSignature two = causal_part(run_sharded_echo(2, opt));
  CausalSignature four = causal_part(run_sharded_echo(4, opt));
  EXPECT_EQ(two, causal_part(one)) << "heterogeneous diverged at 2 shards";
  EXPECT_EQ(four, causal_part(one)) << "heterogeneous diverged at 4 shards";
  EXPECT_GT(one.bytes_echoed, 0u);
}

// The epoch schedule itself is pinned exactly: per-edge closure bounds,
// sole-runnable coalescing and barrier delivery order together decide how
// many windows run, how many of them coalesce, and the seq-folded digest
// of the event order they produce.  A change to any of them moves these
// numbers, which the benchmark reference pins on its sharded workload too.
TEST(Sharding, EpochScheduleIsPinned) {
  GroupStats echo{};
  (void)run_sharded_echo(4, {}, &echo);
  EXPECT_EQ(echo, (GroupStats{1271, 1024, 368, 4305234314669752433ull}))
      << "4-shard echo: epochs " << echo.epochs << ", barrier_skips "
      << echo.barrier_skips << ", remote_delivered " << echo.remote_delivered
      << ", digest " << echo.digest;
  GroupStats web{};
  (void)run_sharded_web(4, &web);
  EXPECT_EQ(web, (GroupStats{2311, 1776, 431, 2311384900858590815ull}))
      << "4-shard web: epochs " << web.epochs << ", barrier_skips "
      << web.barrier_skips << ", remote_delivered " << web.remote_delivered
      << ", digest " << web.digest;
}

TEST(QueueOrder, RandomInterleavingsMatchNaiveReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Engine eng;
    Lcg eng_rng{seed};
    NaiveScheduler ref;
    Lcg ref_rng{seed};

    Lcg root_rng{seed * 977};
    for (int i = 0; i < 64; ++i) {
      // Coarse root times force same-timestamp collisions.
      const sim::Time t = static_cast<sim::Time>((root_rng.next() % 32) * 512);
      eng.schedule_at(t, Spawner{&eng, &eng_rng, 4});
      ref.schedule(t, 4);
    }
    eng.run();
    ref.run(ref_rng);

    EXPECT_EQ(eng.events_executed(), ref.executed) << "seed " << seed;
    EXPECT_EQ(eng.now(), ref.now) << "seed " << seed;
    EXPECT_EQ(eng.digest(), ref.digest) << "seed " << seed;
    EXPECT_GT(ref.executed, 64u) << "seed " << seed;  // spawning happened
  }
}

}  // namespace
}  // namespace ulsocks

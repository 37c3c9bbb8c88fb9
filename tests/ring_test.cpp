// OpRing semantics: CQE ordering determinism across reap batch sizes
// (digest identity on every preset, under loss, and sharded), mixed SQE
// kinds on one ring, cancellation on close, the ring-over-TCP fallback,
// and the readiness/scratch satellites (writable(), recv-scratch cap).
//
// The key determinism claim (DESIGN.md §13): the ring's host-side work —
// probes, grouping, cancellation, reaping — costs zero simulated time and
// zero scheduler events, so an application that reaps 1 CQE at a time
// performs the same submissions at the same timestamps as one that reaps
// 64 at a time, and `Engine::digest()` (seq-folded, order-exact) is
// byte-identical across reap batch sizes.  Ring-vs-blocking is a different
// program (one parked pump vs one parked coroutine per connection), so
// those runs are compared on outcomes, not on the seq-folded digest —
// exactly the partition-dependence argument determinism_test.cpp makes for
// causal_digest().
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "apps/cluster.hpp"
#include "apps/httpd.hpp"
#include "net/topology.hpp"
#include "oskernel/process.hpp"
#include "oskernel/ring.hpp"
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

// ---------------------------------------------------------------------------
// Ring web workload: one server node (ring or blocking httpd), N client
// nodes each running a few concurrent web clients.
// ---------------------------------------------------------------------------

struct WebRunOptions {
  sockets::SubstrateConfig cfg{};
  bool use_tcp = false;
  bool ring_server = true;
  std::size_t reap_batch = 64;
  std::size_t client_nodes = 2;
  std::size_t clients_per_node = 3;  // concurrent clients per node
  std::uint32_t requests_per_connection = 2;
  std::size_t connections_per_client = 2;
  std::uint32_t response_bytes = 1024;
  double loss = 0.0;
  unsigned seed = 42;
};

struct WebSignature {
  std::uint64_t digest = 0;
  std::uint64_t causal = 0;
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  std::size_t responses = 0;
  friend bool operator==(const WebSignature&, const WebSignature&) = default;
};

/// The causal part: invariant across shard partitions (the seq-folded
/// digest is partition-dependent by construction).
struct CausalSignature {
  std::uint64_t causal = 0;
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  std::size_t responses = 0;
  friend bool operator==(const CausalSignature&,
                         const CausalSignature&) = default;
};

CausalSignature causal_part(const WebSignature& s) {
  return {s.causal, s.events, s.end_time, s.responses};
}

Task<void> run_server(Cluster& cl, const WebRunOptions& opt,
                      std::size_t total_connections) {
  os::Process proc(cl.node(0).host);
  apps::WebServerOptions sopt;
  sopt.requests_per_connection = opt.requests_per_connection;
  sopt.max_connections = total_connections;
  sopt.backlog = 16;
  sopt.reap_batch = opt.reap_batch;
  auto& stack = cl.stack(0, opt.use_tcp ? Cluster::StackKind::kTcp
                                        : Cluster::StackKind::kSubstrate);
  if (opt.ring_server) {
    co_await apps::web_server_ring(proc, stack, sopt);
  } else {
    co_await apps::web_server(proc, stack, sopt);
  }
}

Task<void> run_client(Cluster& cl, const WebRunOptions& opt, std::size_t node,
                      std::size_t idx, sim::OnlineStats& stats) {
  // The stagger delay must run on the client node's own engine — in the
  // sharded runs that node lives on another shard.
  co_await cl.node_engine(node).delay(10'000 + (node * 7 + idx) * 700);
  os::Process proc(cl.node(node).host);
  apps::WebClientOptions copt;
  copt.server_node = 0;
  copt.response_bytes = opt.response_bytes;
  copt.requests_per_connection = opt.requests_per_connection;
  copt.total_requests =
      opt.connections_per_client * opt.requests_per_connection;
  auto& stack = cl.stack(node, opt.use_tcp ? Cluster::StackKind::kTcp
                                           : Cluster::StackKind::kSubstrate);
  co_await apps::web_client(proc, stack, copt, stats);
}

WebSignature run_web(const WebRunOptions& opt) {
  Engine eng(opt.seed);
  Cluster cl(eng, sim::calibrated_cost_model(), opt.client_nodes + 1,
             opt.cfg);
  if (opt.loss > 0.0) {
    for (std::size_t i = 0; i <= opt.client_nodes; ++i) {
      cl.network().host_link(i).set_drop_policy(
          net::StarNetwork::kHostSide,
          net::random_drop_policy(eng.rng(), opt.loss));
    }
  }
  const std::size_t total_connections = opt.client_nodes *
                                        opt.clients_per_node *
                                        opt.connections_per_client;
  std::vector<sim::OnlineStats> stats(opt.client_nodes *
                                      opt.clients_per_node);
  eng.spawn(run_server(cl, opt, total_connections));
  for (std::size_t n = 0; n < opt.client_nodes; ++n) {
    for (std::size_t c = 0; c < opt.clients_per_node; ++c) {
      eng.spawn(run_client(cl, opt, n + 1, c,
                           stats[n * opt.clients_per_node + c]));
    }
  }
  eng.run();
  WebSignature sig{eng.digest(), eng.causal_digest(), eng.events_executed(),
                   eng.now(), 0};
  for (const auto& s : stats) sig.responses += s.count();
  return sig;
}

// ---------------------------------------------------------------------------
// Reap-batch-size digest identity, every preset.
// ---------------------------------------------------------------------------

TEST(RingDeterminism, DigestIdenticalAcrossReapBatchSizesOnEveryPreset) {
  for (const sockets::Preset& p : sockets::presets()) {
    WebRunOptions opt;
    opt.cfg = p.cfg;
    opt.reap_batch = 1;
    WebSignature one = run_web(opt);
    opt.reap_batch = 4;
    WebSignature four = run_web(opt);
    opt.reap_batch = 64;
    WebSignature many = run_web(opt);
    EXPECT_EQ(four, one) << "preset " << p.name
                         << ": reap(1,4) diverged from reap(1,1)";
    EXPECT_EQ(many, one) << "preset " << p.name
                         << ": reap(1,64) diverged from reap(1,1)";
    EXPECT_EQ(one.responses, 2u * 3u * 2u * 2u) << "preset " << p.name;
  }
}

TEST(RingDeterminism, DigestIdenticalAcrossReapBatchSizesUnderLoss) {
  WebRunOptions opt;
  opt.cfg.credits = 2;
  opt.cfg.buffer_bytes = 2048;
  opt.loss = 0.01;
  opt.reap_batch = 1;
  WebSignature one = run_web(opt);
  opt.reap_batch = 64;
  WebSignature many = run_web(opt);
  EXPECT_EQ(many, one) << "lossy stress diverged across reap batch sizes";
  EXPECT_EQ(one.responses, 2u * 3u * 2u * 2u);
}

TEST(RingDeterminism, DigestIdenticalAcrossReapBatchSizesOverTcp) {
  WebRunOptions opt;
  opt.use_tcp = true;
  opt.reap_batch = 1;
  WebSignature one = run_web(opt);
  opt.reap_batch = 64;
  WebSignature many = run_web(opt);
  EXPECT_EQ(many, one) << "TCP fallback diverged across reap batch sizes";
  EXPECT_EQ(one.responses, 2u * 3u * 2u * 2u);
}

// ---------------------------------------------------------------------------
// Ring-vs-blocking: same protocol outcomes on both stacks (the seq-folded
// digest is program-dependent; see the header comment).
// ---------------------------------------------------------------------------

TEST(RingVsBlocking, SameResponsesOnEveryPreset) {
  for (const sockets::Preset& p : sockets::presets()) {
    WebRunOptions opt;
    opt.cfg = p.cfg;
    opt.ring_server = true;
    WebSignature ring = run_web(opt);
    opt.ring_server = false;
    WebSignature blocking = run_web(opt);
    EXPECT_EQ(ring.responses, blocking.responses) << "preset " << p.name;
    EXPECT_EQ(ring.responses, 2u * 3u * 2u * 2u) << "preset " << p.name;
  }
}

TEST(RingVsBlocking, SameResponsesUnderLossAndOverTcp) {
  for (bool tcp : {false, true}) {
    WebRunOptions opt;
    opt.use_tcp = tcp;
    if (!tcp) {
      opt.cfg.credits = 2;
      opt.cfg.buffer_bytes = 2048;
      opt.loss = 0.01;
    }
    opt.ring_server = true;
    WebSignature ring = run_web(opt);
    opt.ring_server = false;
    WebSignature blocking = run_web(opt);
    EXPECT_EQ(ring.responses, blocking.responses) << (tcp ? "tcp" : "lossy");
    EXPECT_EQ(ring.responses, 2u * 3u * 2u * 2u);
  }
}

// ---------------------------------------------------------------------------
// Sharded: ring ops are per-host, so the ring web workload must be
// causally invariant across shard counts (and a 1-shard group byte-equal
// to the plain engine).
// ---------------------------------------------------------------------------

WebSignature run_web_sharded(std::size_t shards, const WebRunOptions& opt) {
  const sim::CostModel model = sim::calibrated_cost_model();
  sim::ShardGroup group(shards, net::shard_lookahead(model.wire), opt.seed);
  Cluster cl(group, model, opt.client_nodes + 1, opt.cfg);
  const std::size_t total_connections = opt.client_nodes *
                                        opt.clients_per_node *
                                        opt.connections_per_client;
  std::vector<sim::OnlineStats> stats(opt.client_nodes *
                                      opt.clients_per_node);
  cl.node_engine(0).spawn(run_server(cl, opt, total_connections));
  for (std::size_t n = 0; n < opt.client_nodes; ++n) {
    for (std::size_t c = 0; c < opt.clients_per_node; ++c) {
      cl.node_engine(n + 1).spawn(run_client(
          cl, opt, n + 1, c, stats[n * opt.clients_per_node + c]));
    }
  }
  group.run();
  WebSignature sig{group.digest(), group.causal_digest(),
                   group.events_executed(), group.now(), 0};
  for (const auto& s : stats) sig.responses += s.count();
  return sig;
}

TEST(RingSharded, GroupOfOneIsByteIdenticalToPlainEngine) {
  WebRunOptions opt;
  WebSignature plain = run_web(opt);
  WebSignature one = run_web_sharded(1, opt);
  EXPECT_EQ(one, plain);
  EXPECT_GT(plain.responses, 0u);
}

TEST(RingSharded, CausallyInvariantAcrossShardCounts) {
  WebRunOptions opt;
  CausalSignature one = causal_part(run_web_sharded(1, opt));
  CausalSignature two = causal_part(run_web_sharded(2, opt));
  CausalSignature four = causal_part(run_web_sharded(4, opt));
  EXPECT_EQ(two, one) << "ring web diverged at 2 shards";
  EXPECT_EQ(four, one) << "ring web diverged at 4 shards";
  EXPECT_GT(one.responses, 0u);
}

// ---------------------------------------------------------------------------
// Scaled-down C10K: the host-side shortcuts on the server's hot path (the
// walk memos in readable() and the data-header parse, the one-pass
// unexpected-queue reconcile, incremental invariant sweeps) must leave the
// simulated run bit-identical.
// ---------------------------------------------------------------------------

/// Forwards every call to `inner`, counting readable() probes.
class ProbeCountingApi final : public os::SocketApi {
 public:
  explicit ProbeCountingApi(os::SocketApi& inner) : inner_(inner) {}
  [[nodiscard]] std::uint64_t readable_probes() const { return probes_; }

  Task<int> socket() override { return inner_.socket(); }
  Task<void> bind(int sd, SockAddr local) override {
    return inner_.bind(sd, local);
  }
  Task<void> listen(int sd, int backlog) override {
    return inner_.listen(sd, backlog);
  }
  Task<int> accept(int sd, SockAddr* peer) override {
    return inner_.accept(sd, peer);
  }
  Task<void> connect(int sd, SockAddr remote) override {
    return inner_.connect(sd, remote);
  }
  Task<std::size_t> read(int sd, std::span<std::uint8_t> out) override {
    return inner_.read(sd, out);
  }
  Task<std::size_t> write(int sd, std::span<const std::uint8_t> in) override {
    return inner_.write(sd, in);
  }
  Task<std::size_t> read_view(int sd, os::RecvView& view,
                              std::size_t max_bytes) override {
    return inner_.read_view(sd, view, max_bytes);
  }
  Task<void> close(int sd) override { return inner_.close(sd); }
  Task<void> set_option(int sd, os::SockOpt opt, int value) override {
    return inner_.set_option(sd, opt, value);
  }
  Task<int> get_option(int sd, os::SockOpt opt) override {
    return inner_.get_option(sd, opt);
  }
  bool readable(int sd) const override {
    ++probes_;
    return inner_.readable(sd);
  }
  bool writable(int sd) const override { return inner_.writable(sd); }
  sim::CondVar& activity() override { return inner_.activity(); }
  Task<std::size_t> accept_many(int sd, std::size_t max,
                                std::vector<int>& out,
                                std::vector<SockAddr>* peers) override {
    return inner_.accept_many(sd, max, out, peers);
  }

 private:
  os::SocketApi& inner_;
  mutable std::uint64_t probes_ = 0;
};

struct C10kSignature {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::uint64_t causal = 0;
  std::uint64_t readable_probes = 0;
  std::size_t responses = 0;
  friend bool operator==(const C10kSignature&,
                         const C10kSignature&) = default;
};

std::ostream& operator<<(std::ostream& os, const C10kSignature& s) {
  return os << "{events=" << s.events << " digest=0x" << std::hex << s.digest
            << " causal=0x" << s.causal << std::dec
            << " readable_probes=" << s.readable_probes
            << " responses=" << s.responses << "}";
}

/// 3 client hosts x `conns_per_host` single-connection clients (2 requests
/// each, 256-byte responses, arrivals ~50 ns apart) against one ring
/// server, in the credit-4 ds_da_uq configuration of the C10K workloads.
C10kSignature run_c10k(std::size_t conns_per_host) {
  constexpr std::size_t kClientHosts = 3;
  constexpr std::uint32_t kRequests = 2;
  sockets::SubstrateConfig cfg = sockets::preset("ds_da_uq").cfg;
  cfg.credits = 4;
  cfg.buffer_bytes = 2048;
  Engine eng(1);
  Cluster cl(eng, sim::calibrated_cost_model(), kClientHosts + 1, cfg);
  ProbeCountingApi server_api(cl.stack(0, Cluster::StackKind::kSubstrate));
  const std::size_t total = kClientHosts * conns_per_host;
  std::vector<sim::OnlineStats> stats(total);
  auto server = [&]() -> Task<void> {
    os::Process proc(cl.node(0).host);
    apps::WebServerOptions so;
    so.requests_per_connection = kRequests;
    so.max_connections = total;
    so.backlog = 1024;
    so.reap_batch = 64;
    co_await apps::web_server_ring(proc, server_api, so);
  };
  auto client = [&](std::size_t host, std::size_t idx) -> Task<void> {
    co_await eng.delay(10'000 + idx * 50);
    os::Process proc(cl.node(host).host);
    apps::WebClientOptions co;
    co.server_node = 0;
    co.response_bytes = 256;
    co.requests_per_connection = kRequests;
    co.total_requests = kRequests;
    co_await apps::web_client(proc,
                              cl.stack(host, Cluster::StackKind::kSubstrate),
                              co, stats[idx]);
  };
  eng.spawn(server());
  for (std::size_t h = 1; h <= kClientHosts; ++h) {
    for (std::size_t c = 0; c < conns_per_host; ++c) {
      eng.spawn(client(h, (h - 1) * conns_per_host + c));
    }
  }
  eng.run();
  C10kSignature sig{eng.events_executed(), eng.digest(), eng.causal_digest(),
                    server_api.readable_probes(), 0};
  for (const auto& st : stats) sig.responses += st.count();
  return sig;
}

TEST(RingC10k, ScaledDownRunMatchesRecordedSignature) {
  // Recorded with full O(connections) walks on every probe and parse and a
  // full checker sweep every 1,024 events.  A change meant to alter the
  // simulated run (or the server's probe pattern) re-records them: run
  // this test and copy the signature the failure prints for run_c10k(64).
  const C10kSignature expected{821508, 0xeac5e6d5a21c0800,
                               0x44c0709b7c90f073, 253658, 384};
  EXPECT_EQ(run_c10k(64), expected);
}

// ---------------------------------------------------------------------------
// Direct ring API: mixed SQE kinds, CQE ordering, cancellation.
// ---------------------------------------------------------------------------

class RingApiTest : public ::testing::TestWithParam<Cluster::StackKind> {
 protected:
  RingApiTest() : cluster_(eng_, sim::calibrated_cost_model(), 3) {}

  os::SocketApi& stack(std::size_t node) {
    return cluster_.stack(node, GetParam());
  }

  Engine eng_;
  Cluster cluster_;
};

TEST_P(RingApiTest, MixedSqesOnOneRingCompleteInOrder) {
  std::vector<os::Cqe> got;
  auto server = [&]() -> Task<void> {
    auto& api = stack(0);
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{0, 80});
    co_await api.listen(ls, 8);
    os::OpRing ring(eng_, api);
    ring.push_accept(ls, 100);
    ring.push_accept(ls, 101);
    ring.submit();
    std::vector<int> conns;
    while (conns.size() < 2) {
      for (const os::Cqe& c : co_await ring.reap(1, 8)) {
        EXPECT_FALSE(c.failed);
        EXPECT_EQ(c.op, os::OpKind::kAccept);
        conns.push_back(static_cast<int>(c.result));
        got.push_back(c);
      }
    }
    // One batch mixing reads and writes across both connections.
    std::vector<std::uint8_t> rx0(4), rx1(4);
    std::vector<std::uint8_t> pong{'p', 'o', 'n', 'g'};
    ring.push_read(conns[0], rx0, 200);
    ring.push_read(conns[1], rx1, 201);
    ring.push_write(conns[0], pong, 300);
    ring.push_write(conns[1], pong, 301);
    ring.submit();
    std::size_t done = 0;
    while (done < 4) {
      for (const os::Cqe& c : co_await ring.reap(1, 8)) {
        EXPECT_FALSE(c.failed);
        got.push_back(c);
        ++done;
      }
    }
    EXPECT_EQ(std::vector<std::uint8_t>(rx0.begin(), rx0.end()),
              (std::vector<std::uint8_t>{'p', 'i', 'n', 'g'}));
    EXPECT_EQ(std::vector<std::uint8_t>(rx1.begin(), rx1.end()),
              (std::vector<std::uint8_t>{'p', 'i', 'n', 'g'}));
    ring.push_close(conns[0], 400);
    ring.push_close(conns[1], 401);
    ring.push_close(ls, 402);
    ring.submit();
    while (ring.inflight() > 0) {
      for (const os::Cqe& c : co_await ring.reap(1, 8)) got.push_back(c);
    }
  };
  auto client = [&](std::size_t node) -> Task<void> {
    co_await eng_.delay(5'000 * node);
    auto& api = stack(node);
    int fd = co_await api.socket();
    co_await api.connect(fd, SockAddr{0, 80});
    std::vector<std::uint8_t> ping{'p', 'i', 'n', 'g'};
    co_await api.write_all(fd, ping);
    std::vector<std::uint8_t> reply(4);
    co_await api.read_exact(fd, reply);
    EXPECT_EQ(reply, (std::vector<std::uint8_t>{'p', 'o', 'n', 'g'}));
    co_await api.close(fd);
  };
  eng_.spawn(server());
  eng_.spawn(client(1));
  eng_.spawn(client(2));
  eng_.run();

  ASSERT_EQ(got.size(), 9u);  // 2 accepts + 2 reads + 2 writes + 3 closes
  // reap() contract: (completion_time, seq) strictly increasing across
  // every CQE handed out, including across reap calls.
  for (std::size_t i = 1; i < got.size(); ++i) {
    const bool ordered =
        got[i - 1].completion_time < got[i].completion_time ||
        (got[i - 1].completion_time == got[i].completion_time &&
         got[i - 1].seq < got[i].seq);
    EXPECT_TRUE(ordered) << "CQE " << i << " out of order";
  }
}

TEST_P(RingApiTest, CloseCancelsPendingSqesOnSameDescriptor) {
  bool saw_cancel = false;
  bool saw_close = false;
  auto server = [&]() -> Task<void> {
    auto& api = stack(0);
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{0, 80});
    co_await api.listen(ls, 8);
    int cs = co_await api.accept(ls, nullptr);

    os::OpRing ring(eng_, api);
    // The client never sends, so this read stays in flight...
    std::vector<std::uint8_t> buf(16);
    ring.push_read(cs, buf, 1);
    ring.submit();
    EXPECT_EQ(ring.inflight(), 1u);
    // ...until a close on the same descriptor cancels it.
    ring.push_close(cs, 2);
    ring.submit();
    while (ring.inflight() > 0) {
      for (const os::Cqe& c : co_await ring.reap(1, 8)) {
        if (c.user_data == 1) {
          EXPECT_TRUE(c.failed);
          EXPECT_EQ(c.error, os::SockErr::kClosed);
          saw_cancel = true;
        }
        if (c.user_data == 2) {
          EXPECT_FALSE(c.failed);
          saw_close = true;
        }
      }
    }
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng_.delay(1'000);
    auto& api = stack(1);
    int fd = co_await api.socket();
    co_await api.connect(fd, SockAddr{0, 80});
    // Wait for the server's close to surface, then clean up.
    std::vector<std::uint8_t> buf(4);
    try {
      (void)co_await api.read(fd, buf);
    } catch (const os::SocketError&) {
    }
    co_await api.close(fd);
  };
  eng_.spawn(server());
  eng_.spawn(client());
  eng_.run();
  EXPECT_TRUE(saw_cancel);
  EXPECT_TRUE(saw_close);
}

INSTANTIATE_TEST_SUITE_P(BothStacks, RingApiTest,
                         ::testing::Values(Cluster::StackKind::kSubstrate,
                                           Cluster::StackKind::kTcp),
                         [](const auto& info) {
                           return info.param == Cluster::StackKind::kSubstrate
                                      ? "Substrate"
                                      : "Tcp";
                         });

// ---------------------------------------------------------------------------
// Satellites: writable() probes and the recv-scratch high-water cap.
// ---------------------------------------------------------------------------

TEST(Writable, SubstrateTracksSendCredits) {
  Engine eng(7);
  Cluster cl(eng, sim::calibrated_cost_model(), 2,
             sockets::SubstrateConfig{.credits = 2, .buffer_bytes = 512});
  bool exhausted_seen = false;
  bool recovered_seen = false;
  auto server = [&]() -> Task<void> {
    auto& api = cl.node(0).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{0, 80});
    co_await api.listen(ls, 4);
    int cs = co_await api.accept(ls, nullptr);
    // Do not read until the client has exhausted its credits.
    while (!exhausted_seen) co_await api.activity().wait();
    std::vector<std::uint8_t> buf(512);
    for (int i = 0; i < 2; ++i) (void)co_await api.read(cs, buf);
    while (!recovered_seen) co_await api.activity().wait();
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng.delay(1'000);
    auto& api = cl.node(1).socks;
    EXPECT_FALSE(api.writable(999));  // no such descriptor
    int fd = co_await api.socket();
    // Unconnected: write() would throw immediately, so the descriptor is
    // "ready" in the select() sense.
    EXPECT_TRUE(api.writable(fd));
    co_await api.connect(fd, SockAddr{0, 80});
    EXPECT_TRUE(api.writable(fd));
    std::vector<std::uint8_t> msg(64, 0xaa);
    co_await api.write_all(fd, msg);
    co_await api.write_all(fd, msg);
    // Both credits consumed and the server is not reading.
    EXPECT_FALSE(api.writable(fd));
    exhausted_seen = true;
    // Once the server drains, credits return and writable() flips back.
    while (!api.writable(fd)) co_await api.activity().wait();
    recovered_seen = true;
    co_await api.close(fd);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  EXPECT_TRUE(recovered_seen);
}

TEST(Writable, TcpTracksSendBufferSpace) {
  Engine eng(7);
  Cluster cl(eng, sim::calibrated_cost_model(), 2);
  bool full_seen = false;
  std::size_t total_written = 0;
  auto server = [&]() -> Task<void> {
    auto& api = cl.node(0).tcp;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{0, 80});
    co_await api.listen(ls, 4);
    int cs = co_await api.accept(ls, nullptr);
    while (!full_seen) co_await api.activity().wait();
    std::vector<std::uint8_t> buf(65536);
    std::size_t drained = 0;
    for (;;) {
      std::size_t n = co_await api.read(cs, buf);
      if (n == 0) break;
      drained += n;
    }
    EXPECT_EQ(drained, total_written);
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng.delay(1'000);
    auto& api = cl.node(1).tcp;
    EXPECT_FALSE(api.writable(999));  // no such descriptor
    int fd = co_await api.socket();
    co_await api.connect(fd, SockAddr{0, 80});
    co_await api.set_option(fd, os::SockOpt::kSndBuf, 4096);
    EXPECT_TRUE(api.writable(fd));
    // Stuff the send buffer until write() would park (the receiver is not
    // draining, so the window closes and snd_buf fills).
    std::vector<std::uint8_t> chunk(1024, 0x55);
    while (api.writable(fd)) {
      total_written += co_await api.write(fd, chunk);
      if (total_written >= (std::size_t{64} << 20)) {
        ADD_FAILURE() << "snd_buf never filled";
        break;
      }
    }
    EXPECT_FALSE(api.writable(fd));
    full_seen = true;
    co_await api.close(fd);  // FIN queues behind the buffered bytes
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  EXPECT_TRUE(full_seen);
}

TEST(RecvScratch, EnsureCapsRetainedGrowthAtHighWater) {
  os::RecvView view;
  EXPECT_EQ(os::ensure_recv_scratch(view, 1024), 1024u);
  // A spike above the high-water mark is honored...
  EXPECT_EQ(os::ensure_recv_scratch(view, 200'000), 200'000u);
  // ...but the next smaller request releases it instead of keeping the
  // spike alive for the connection's lifetime.
  EXPECT_EQ(os::ensure_recv_scratch(view, 1024), 1024u);
  EXPECT_LE(view.scratch.size(), os::kRecvScratchHighWater);
  // Requests at or under the mark never shrink what's already there.
  EXPECT_EQ(os::ensure_recv_scratch(view, 512), 1024u);
}

TEST(RecvScratch, ReadViewReportsHighWaterGauge) {
  Engine eng(7);
  Cluster cl(eng, sim::calibrated_cost_model(), 2);
  auto server = [&]() -> Task<void> {
    auto& api = cl.node(0).socks;
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{0, 80});
    co_await api.listen(ls, 4);
    int cs = co_await api.accept(ls, nullptr);
    os::RecvView view;
    std::size_t n = co_await api.read_view(cs, view, 70'000);
    EXPECT_GT(n, 0u);
    while (n < 100) n += co_await api.read_view(cs, view, 70'000);
    // The spike was reported to the gauge, and a smaller follow-up read
    // releases the retained scratch back under the high-water mark.
    (void)co_await api.read_view(cs, view, 128);
    EXPECT_LE(view.scratch.size(), os::kRecvScratchHighWater);
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    co_await eng.delay(1'000);
    auto& api = cl.node(1).socks;
    int fd = co_await api.socket();
    co_await api.connect(fd, SockAddr{0, 80});
    std::vector<std::uint8_t> payload(200, 0x5a);
    co_await api.write_all(fd, payload);
    std::vector<std::uint8_t> buf(16);
    try {
      (void)co_await api.read(fd, buf);
    } catch (const os::SocketError&) {
    }
    co_await api.close(fd);
  };
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  EXPECT_GE(eng.metrics().gauge("host/recv_scratch_hwm").value(), 70'000);
}

}  // namespace
}  // namespace ulsocks

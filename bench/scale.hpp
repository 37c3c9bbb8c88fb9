// Many-host scaling topology: one web server plus N-1 request clients on a
// sharded star network (sim/shard.hpp) — fig15/16-style traffic packaged
// so benches and tests can build it with any shard count and compare
// results across counts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/cluster.hpp"
#include "apps/httpd.hpp"
#include "net/link.hpp"
#include "oskernel/process.hpp"
#include "sim/shard.hpp"
#include "sim/stats.hpp"
#include "sockets/config.hpp"

namespace ulsocks::bench {

struct ScaleWebOptions {
  std::size_t hosts = 16;   // host 0 serves, the rest request
  std::size_t shards = 1;   // ShardGroup size (1 = one engine)
  std::uint32_t response_bytes = 8192;
  std::uint32_t requests_per_connection = 8;  // HTTP/1.1 style
  std::size_t requests_per_client = 64;
  std::uint64_t seed = 1;
  // Skewed workloads: when non-empty, client idx (serving host idx+1) runs
  // per_client_requests[idx % size()] requests instead of the uniform
  // requests_per_client.  The hotspot bench concentrates ~80% of traffic
  // on two hosts this way.
  std::vector<std::size_t> per_client_requests = {};
  // Per-host cable lengths (ns of propagation, cycled over hosts); empty
  // keeps the model's uniform wire.  See apps::Cluster.
  std::vector<sim::Duration> per_host_propagation = {};
};

/// Builds the sharded cluster; run() spawns the server and every client on
/// its own shard's engine and drives the group to completion.
class ScaleWeb {
 public:
  ScaleWeb(const sim::CostModel& model, const sockets::SubstrateConfig& cfg,
           const ScaleWebOptions& opt)
      : opt_(opt),
        group_(opt.shards, default_lookahead(model, opt), opt.seed),
        cluster_(group_, model, opt.hosts, cfg, {}, true,
                 opt.per_host_propagation),
        per_client_(opt.hosts > 1 ? opt.hosts - 1 : 0) {}

  /// Requests client `idx` (host idx + 1) issues this run.
  [[nodiscard]] std::size_t requests_of_client(std::size_t idx) const {
    if (opt_.per_client_requests.empty()) return opt_.requests_per_client;
    return opt_.per_client_requests[idx % opt_.per_client_requests.size()];
  }

  [[nodiscard]] sim::ShardGroup& group() { return group_; }
  [[nodiscard]] apps::Cluster& cluster() { return cluster_; }
  [[nodiscard]] const std::vector<sim::OnlineStats>& per_client() const {
    return per_client_;
  }

  void run(apps::Cluster::StackKind kind = apps::Cluster::StackKind::kSubstrate) {
    auto server = [&]() -> sim::Task<void> {
      os::Process proc(cluster_.node(0).host);
      apps::WebServerOptions so;
      so.requests_per_connection = opt_.requests_per_connection;
      so.max_connections = 0;
      for (std::size_t i = 0; i + 1 < opt_.hosts; ++i) {
        so.max_connections += static_cast<std::size_t>(
            (requests_of_client(i) + opt_.requests_per_connection - 1) /
            opt_.requests_per_connection);
      }
      co_await apps::web_server(proc, cluster_.stack(0, kind), so);
    };
    auto client = [&](std::size_t idx) -> sim::Task<void> {
      // Stagger connects on the client's own engine so the accept queue
      // sees an orderly arrival pattern at any host count.
      co_await cluster_.node_engine(idx + 1).delay(10'000 + idx * 700);
      os::Process proc(cluster_.node(idx + 1).host);
      apps::WebClientOptions co;
      co.server_node = 0;
      co.response_bytes = opt_.response_bytes;
      co.requests_per_connection = opt_.requests_per_connection;
      co.total_requests = requests_of_client(idx);
      co_await apps::web_client(proc, cluster_.stack(idx + 1, kind), co,
                                per_client_[idx]);
    };
    cluster_.spawn_on(0, server());
    for (std::size_t i = 0; i + 1 < opt_.hosts; ++i) {
      cluster_.spawn_on(i + 1, client(i));
    }
    group_.run();
  }

 private:
  // The group's default lookahead must lower-bound every link in the
  // topology, so with heterogeneous cables it is the minimum per-host link
  // latency; the registered edge matrix carries the true per-link values
  // on top.
  [[nodiscard]] static sim::Duration default_lookahead(
      const sim::CostModel& model, const ScaleWebOptions& opt) {
    sim::WireCosts wire = model.wire;
    if (opt.per_host_propagation.empty()) return net::shard_lookahead(wire);
    sim::Duration w = sim::ShardGroup::kUnreachable;
    for (sim::Duration p : opt.per_host_propagation) {
      wire.propagation_ns = p;
      w = std::min(w, net::shard_lookahead(wire));
    }
    return w;
  }

  ScaleWebOptions opt_;
  sim::ShardGroup group_;
  apps::Cluster cluster_;
  std::vector<sim::OnlineStats> per_client_;
};

/// C10K-style concurrency workload: a few client hosts each run hundreds of
/// concurrent connection coroutines against ONE server host, so the server
/// multiplexes ~a thousand simultaneous connections.  This is the workload
/// the os::OpRing exists for — a blocking server parks one coroutine per
/// connection and every stack wake resumes all of them (the thundering
/// herd); the ring server parks a single pump.  The same options run either
/// server, so benches can report ring-vs-blocking on identical traffic.
struct ScaleC10kOptions {
  std::size_t client_hosts = 3;          // hosts 1..N each run many conns
  std::size_t connections_per_host = 334;  // 3 * 334 ~ 1000 concurrent
  std::size_t shards = 1;
  std::uint32_t response_bytes = 256;
  std::uint32_t requests_per_connection = 2;
  bool ring_server = true;               // false: blocking web_server
  std::size_t reap_batch = 64;
  // Accept window / listen depth.  A thousand near-simultaneous SYNs
  // against a small backlog turn into a retransmission storm of refused
  // and retried connects; like a tuned C10K listener (somaxconn-style),
  // the window is sized for the arrival burst.
  int backlog = 1024;
  std::uint64_t seed = 1;
};

class ScaleC10k {
 public:
  ScaleC10k(const sim::CostModel& model, const sockets::SubstrateConfig& cfg,
            const ScaleC10kOptions& opt)
      : opt_(opt),
        group_(opt.shards, net::shard_lookahead(model.wire), opt.seed),
        cluster_(group_, model, opt.client_hosts + 1, cfg),
        per_conn_(opt.client_hosts * opt.connections_per_host) {}

  [[nodiscard]] sim::ShardGroup& group() { return group_; }
  [[nodiscard]] apps::Cluster& cluster() { return cluster_; }

  /// Responses received across every connection (the "requests served"
  /// numerator of the reqps metric).
  [[nodiscard]] std::size_t requests_served() const {
    std::size_t n = 0;
    for (const auto& st : per_conn_) n += st.count();
    return n;
  }

  void run(apps::Cluster::StackKind kind =
               apps::Cluster::StackKind::kSubstrate) {
    const std::size_t total =
        opt_.client_hosts * opt_.connections_per_host;
    auto server = [&]() -> sim::Task<void> {
      os::Process proc(cluster_.node(0).host);
      apps::WebServerOptions so;
      so.requests_per_connection = opt_.requests_per_connection;
      so.max_connections = total;
      so.backlog = opt_.backlog;
      so.reap_batch = opt_.reap_batch;
      if (opt_.ring_server) {
        co_await apps::web_server_ring(proc, cluster_.stack(0, kind), so);
      } else {
        co_await apps::web_server(proc, cluster_.stack(0, kind), so);
      }
    };
    auto conn = [&](std::size_t host, std::size_t c) -> sim::Task<void> {
      // Near-simultaneous arrivals: 50 ns apart, so the full connection
      // population overlaps and the server really holds ~`total` live
      // connections at once (EMP retransmission absorbs backlog overflow).
      const std::size_t idx = (host - 1) * opt_.connections_per_host + c;
      co_await cluster_.node_engine(host).delay(10'000 + idx * 50);
      os::Process proc(cluster_.node(host).host);
      apps::WebClientOptions co;
      co.server_node = 0;
      co.response_bytes = opt_.response_bytes;
      co.requests_per_connection = opt_.requests_per_connection;
      co.total_requests = opt_.requests_per_connection;  // one connection
      // A thousand simultaneous SYNs can outlast EMP's retransmission
      // give-up against a finite backlog; like any C10K client, back off
      // and retry a refused connect (deterministic, idx-jittered delays).
      for (int attempt = 0;; ++attempt) {
        bool retry = false;
        try {
          co_await apps::web_client(proc, cluster_.stack(host, kind), co,
                                    per_conn_[idx]);
        } catch (const os::SocketError& e) {
          if (e.code() != os::SockErr::kRefused || attempt >= 6) throw;
          retry = true;  // co_await is illegal inside a handler
        }
        if (!retry) break;
        co_await cluster_.node_engine(host).delay(100'000 * (attempt + 1) +
                                                  idx * 131);
      }
    };
    cluster_.spawn_on(0, server());
    for (std::size_t h = 1; h <= opt_.client_hosts; ++h) {
      for (std::size_t c = 0; c < opt_.connections_per_host; ++c) {
        cluster_.spawn_on(h, conn(h, c));
      }
    }
    group_.run();
  }

 private:
  ScaleC10kOptions opt_;
  sim::ShardGroup group_;
  apps::Cluster cluster_;
  std::vector<sim::OnlineStats> per_conn_;
};

}  // namespace ulsocks::bench

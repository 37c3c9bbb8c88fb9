#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "apps/httpd.hpp"
#include "net/link.hpp"
#include "oskernel/process.hpp"
#include "sim/cost_model.hpp"
#include "sockets/config.hpp"

namespace perfbench {

namespace {

using Stack = apps::Cluster::StackKind;

/// splitmix64: the benchmark's own input generator, independent of the
/// simulator's RNG so that the seed only ever reaches the program as the
/// inputs generated here.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    s_ += 0x9e3779b97f4a7c15ull;
    return sim::Engine::mix64(s_);
  }

 private:
  std::uint64_t s_;
};

sim::Time now_on(apps::Cluster& cl, std::size_t node) {
  return cl.node_engine(node).now();
}

// ---------------------------------------------------------------------------
// stream_64k

class StreamWorkload final : public Workload {
 public:
  static constexpr std::size_t kMsgBytes = 64 * 1024;
  static constexpr std::size_t kMessages = 16 * 1024;  // 1 GiB per run
  static constexpr std::uint16_t kPort = 5001;
  // Payload checks sample every kCheckStride-th stream byte against the
  // pattern the sender wrote; a prime stride walks every offset class of
  // the message over the run.
  static constexpr std::size_t kCheckStride = 61;

  StreamWorkload(std::uint64_t seed, LayerProbe* probe)
      : Workload(2, ulsocks::sockets::preset("ds_da_uq").cfg, 0),
        send_start_(kMessages, 0),
        bad_(kMessages, false) {
    InputRng rng(seed);
    for (auto& p : patterns_) {
      p.resize(kMsgBytes);
      for (std::size_t i = 0; i < kMsgBytes; i += 8) {
        const std::uint64_t v = rng.next();
        for (std::size_t b = 0; b < 8; ++b) {
          p[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
        }
      }
    }
    start_ns_ = 10'000 + rng.next() % 1'000;
    os::SocketApi* tx = &cluster().stack(0, Stack::kSubstrate);
    os::SocketApi* rx = &cluster().stack(1, Stack::kSubstrate);
    if (probe != nullptr) {
      tx = &probe->wrap(*tx);
      rx = &probe->wrap(*rx);
    }
    cluster().spawn_on(1, receiver(*rx));
    cluster().spawn_on(0, sender(*tx));
  }

  [[nodiscard]] RunOutputs outputs() const override {
    RunOutputs out;
    out.ops_attempted = kMessages;
    const auto bad = static_cast<std::uint64_t>(
        std::count(bad_.begin(), bad_.end(), true));
    out.ops_ok = done_ - std::min<std::uint64_t>(bad, done_);
    out.bytes = got_;
    if (t_end_ > t_accept_) {
      out.sim_goodput_mbps = static_cast<double>(got_) * 8.0 /
                             sim::to_sec(t_end_ - t_accept_) / 1e6;
    }
    out.resp_us = resp_us_;
    if (got_ != kMsgBytes * kMessages) {
      out.errors.push_back("stream delivered " + std::to_string(got_) +
                           " of " + std::to_string(kMsgBytes * kMessages) +
                           " bytes");
    }
    if (bad > 0) {
      out.errors.push_back(std::to_string(bad) +
                           " messages arrived with wrong payload bytes");
    }
    return out;
  }

 private:
  sim::Task<void> sender(os::SocketApi& api) {
    co_await cluster().node_engine(0).delay(start_ns_);
    const int s = co_await api.socket();
    co_await api.connect(s, os::SockAddr{1, kPort});
    for (std::size_t k = 0; k < kMessages; ++k) {
      send_start_[k] = now_on(cluster(), 0);
      co_await api.write_all(s, patterns_[k % patterns_.size()]);
    }
    co_await api.close(s);
  }

  sim::Task<void> receiver(os::SocketApi& api) {
    const int ls = co_await api.socket();
    co_await api.bind(ls, os::SockAddr{1, kPort});
    co_await api.listen(ls, 2);
    const int cs = co_await api.accept(ls, nullptr);
    t_accept_ = now_on(cluster(), 1);
    os::RecvView view;
    while (got_ < kMsgBytes * kMessages) {
      const std::size_t n = co_await api.read_view(cs, view, kMsgBytes);
      if (n == 0) break;
      for (const auto& part : view.parts) {
        check_part(part);
        got_ += part.size();
      }
      const sim::Time t = now_on(cluster(), 1);
      while (done_ < kMessages && got_ >= (done_ + 1) * kMsgBytes) {
        resp_us_.push_back(sim::to_us(t - send_start_[done_]));
        ++done_;
      }
    }
    t_end_ = now_on(cluster(), 1);
    co_await api.close(cs);
    co_await api.close(ls);
  }

  void check_part(std::span<const std::uint8_t> part) {
    const std::uint64_t base = got_;
    std::uint64_t o = (base + kCheckStride - 1) / kCheckStride * kCheckStride;
    for (; o < base + part.size(); o += kCheckStride) {
      const std::uint64_t k = o / kMsgBytes;
      if (k >= kMessages ||
          part[o - base] != patterns_[k % patterns_.size()][o % kMsgBytes]) {
        bad_[std::min<std::uint64_t>(k, kMessages - 1)] = true;
      }
    }
  }

  std::array<std::vector<std::uint8_t>, 4> patterns_;
  sim::Duration start_ns_ = 0;
  std::vector<sim::Time> send_start_;
  std::vector<bool> bad_;
  std::vector<double> resp_us_;
  std::uint64_t got_ = 0;
  std::uint64_t done_ = 0;
  sim::Time t_accept_ = 0;
  sim::Time t_end_ = 0;
};

// ---------------------------------------------------------------------------
// HTTP request/response workloads (c10k_ring, web16_sharded)

/// Client side of the apps::httpd protocol, written against os::Process:
/// a 16-byte request naming the response size, answered with that many
/// 0x42 bytes.  Each client keeps its own tallies, so clients running on
/// different shard threads never share state.
class HttpWorkload : public Workload {
 public:
  [[nodiscard]] RunOutputs outputs() const override {
    RunOutputs out;
    out.ops_attempted = static_cast<std::uint64_t>(clients_.size()) *
                        connections_per_client_ * requests_per_connection_;
    sim::Time first = ~sim::Time{0};
    sim::Time last = 0;
    for (const ClientTally& c : clients_) {
      out.ops_ok += c.ok;
      out.bytes += c.bytes;
      out.refused_retries += c.refused_retries;
      out.resp_us.insert(out.resp_us.end(), c.resp_us.begin(),
                         c.resp_us.end());
      for (const std::string& e : c.errors) {
        if (out.errors.size() < 8) out.errors.push_back(e);
      }
      first = std::min(first, c.first_start);
      last = std::max(last, c.last_done);
    }
    if (last > first) {
      out.sim_goodput_mbps = static_cast<double>(out.bytes) * 8.0 /
                             sim::to_sec(last - first) / 1e6;
    }
    return out;
  }

 protected:
  // Connect attempts refused by a full backlog are retried with a
  // deterministic, index-jittered backoff, as a C10K client would.
  static constexpr int kMaxConnectAttempts = 6;

  HttpWorkload(std::size_t hosts, const ulsocks::sockets::SubstrateConfig& cfg,
               std::size_t shards, std::size_t clients,
               std::size_t connections_per_client,
               std::uint32_t requests_per_connection,
               std::uint32_t response_bytes)
      : Workload(hosts, cfg, shards),
        clients_(clients),
        connections_per_client_(connections_per_client),
        requests_per_connection_(requests_per_connection),
        response_bytes_(response_bytes) {}

  [[nodiscard]] std::size_t max_connections() const {
    return clients_.size() * connections_per_client_;
  }

  sim::Task<void> client(std::size_t idx, std::size_t node,
                         sim::Duration start) {
    ClientTally& tally = clients_[idx];
    co_await cluster().node_engine(node).delay(start);
    tally.first_start = now_on(cluster(), node);
    os::Process proc(cluster().node(node).host);
    os::SocketApi& api = cluster().stack(node, Stack::kSubstrate);
    for (std::size_t c = 0; c < connections_per_client_; ++c) {
      for (int attempt = 0;; ++attempt) {
        bool refused = false;
        bool failed = false;
        try {
          co_await connection(proc, api, node, tally);
        } catch (const os::SocketError& e) {
          if (e.code() == os::SockErr::kRefused &&
              attempt + 1 < kMaxConnectAttempts) {
            refused = true;  // co_await is not allowed in a handler
          } else {
            failed = true;
            tally.errors.push_back("client " + std::to_string(idx) +
                                   " connection " + std::to_string(c) +
                                   ": " + e.what());
          }
        }
        if (failed) co_return;
        if (!refused) break;
        ++tally.refused_retries;
        co_await cluster().node_engine(node).delay(
            100'000 * static_cast<sim::Duration>(attempt + 1) + idx * 131);
      }
    }
  }

 private:
  struct ClientTally {
    std::uint64_t ok = 0;
    std::uint64_t bytes = 0;
    std::uint64_t refused_retries = 0;
    std::vector<double> resp_us;
    std::vector<std::string> errors;
    sim::Time first_start = 0;
    sim::Time last_done = 0;
  };

  /// One connection: connect, then request/response pairs, then close.
  /// A request's response time runs from the end of the previous one (the
  /// first request's includes the connect).
  sim::Task<void> connection(os::Process& proc, os::SocketApi& api,
                             std::size_t node, ClientTally& tally) {
    sim::Time t0 = now_on(cluster(), node);
    const int fd = co_await proc.socket(api);
    co_await proc.connect(fd, os::SockAddr{0, apps::kHttpPort});
    std::array<std::uint8_t, apps::kHttpRequestBytes> request{};
    std::vector<std::uint8_t> body(response_bytes_);
    for (std::uint32_t r = 0; r < requests_per_connection_; ++r) {
      encode_request(r, request);
      co_await proc.write_all(fd, request);
      co_await proc.read_exact(fd, body);
      const sim::Time t = now_on(cluster(), node);
      if (std::all_of(body.begin(), body.end(),
                      [](std::uint8_t b) { return b == 0x42; })) {
        ++tally.ok;
        tally.bytes += body.size();
        tally.resp_us.push_back(sim::to_us(t - t0));
      } else {
        tally.errors.push_back("response with wrong payload bytes");
      }
      tally.last_done = t;
      t0 = t;
    }
    co_await proc.close(fd);
  }

  // Request layout: magic "uHTT", response bytes, ordinal, pad (all LE).
  void encode_request(std::uint32_t ordinal,
                      std::array<std::uint8_t, apps::kHttpRequestBytes>& out)
      const {
    const std::uint32_t words[4] = {0x75485454u, response_bytes_, ordinal, 0};
    for (std::size_t w = 0; w < 4; ++w) {
      for (std::size_t b = 0; b < 4; ++b) {
        out[w * 4 + b] = static_cast<std::uint8_t>(words[w] >> (8 * b));
      }
    }
  }

  std::vector<ClientTally> clients_;
  std::size_t connections_per_client_;
  std::uint32_t requests_per_connection_;
  std::uint32_t response_bytes_;
};

ulsocks::sockets::SubstrateConfig c10k_config() {
  ulsocks::sockets::SubstrateConfig cfg =
      ulsocks::sockets::preset("ds_da_uq").cfg;
  cfg.credits = 4;
  cfg.buffer_bytes = 2048;
  return cfg;
}

/// 3 client hosts x 334 single-connection clients (2 requests each,
/// 256-byte responses) against one ring server.
class C10kWorkload final : public HttpWorkload {
 public:
  static constexpr std::size_t kClientHosts = 3;
  static constexpr std::size_t kConnsPerHost = 334;

  C10kWorkload(std::uint64_t seed, LayerProbe* probe)
      : HttpWorkload(kClientHosts + 1, c10k_config(), 0,
                     kClientHosts * kConnsPerHost, 1, 2, 256) {
    os::SocketApi* api = &cluster().stack(0, Stack::kSubstrate);
    if (probe != nullptr) api = &probe->wrap(*api);
    cluster().spawn_on(0, server(*api));
    // Near-simultaneous arrivals ~50 ns apart, so the whole population
    // overlaps at the server; the seed jitters each start within its slot.
    InputRng rng(seed);
    for (std::size_t h = 1; h <= kClientHosts; ++h) {
      for (std::size_t c = 0; c < kConnsPerHost; ++c) {
        const std::size_t idx = (h - 1) * kConnsPerHost + c;
        const sim::Duration start = 10'000 + idx * 50 + rng.next() % 50;
        cluster().spawn_on(h, client(idx, h, start));
      }
    }
  }

 private:
  sim::Task<void> server(os::SocketApi& api) {
    os::Process proc(cluster().node(0).host);
    apps::WebServerOptions so;
    so.requests_per_connection = 2;
    so.max_connections = max_connections();
    so.backlog = 1024;
    so.reap_batch = 64;
    co_await apps::web_server_ring(proc, api, so);
  }
};

/// One blocking web server and 15 HTTP/1.1 clients (96 connections x 8
/// requests, 8 KiB responses each) on a sharded group.
class Web16Workload final : public HttpWorkload {
 public:
  static constexpr std::size_t kHosts = 16;

  Web16Workload(std::uint64_t seed, std::size_t shards, LayerProbe* probe)
      : HttpWorkload(kHosts, ulsocks::sockets::preset("ds_da_uq").cfg, shards,
                     kHosts - 1, 96, 8, 8192) {
    os::SocketApi* api = &cluster().stack(0, Stack::kSubstrate);
    if (probe != nullptr) api = &probe->wrap(*api);
    cluster().spawn_on(0, server(*api));
    // Staggered connects ~700 ns apart; the seed jitters each start.
    InputRng rng(seed);
    for (std::size_t idx = 0; idx + 1 < kHosts; ++idx) {
      const sim::Duration start = 10'000 + idx * 700 + rng.next() % 700;
      cluster().spawn_on(idx + 1, client(idx, idx + 1, start));
    }
  }

 private:
  sim::Task<void> server(os::SocketApi& api) {
    os::Process proc(cluster().node(0).host);
    apps::WebServerOptions so;
    so.requests_per_connection = 8;
    so.max_connections = max_connections();
    co_await apps::web_server(proc, api, so);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Workload

Workload::Workload(std::size_t hosts,
                   const ulsocks::sockets::SubstrateConfig& cfg,
                   std::size_t shards) {
  const sim::CostModel model = sim::calibrated_cost_model();
  if (shards == 0) {
    eng_ = std::make_unique<sim::Engine>();
    cluster_.emplace(*eng_, model, hosts, cfg);
  } else {
    group_ = std::make_unique<sim::ShardGroup>(
        shards, ulsocks::net::shard_lookahead(model.wire));
    cluster_.emplace(*group_, model, hosts, cfg);
  }
}

void Workload::run(unsigned threads) {
  if (group_) {
    group_->run(threads);
  } else {
    eng_->run();
  }
}

void Workload::run_sliced(sim::Duration slice,
                          const std::function<void(sim::Engine&)>& between) {
  if (group_ && group_->size() != 1) {
    throw std::logic_error("run_sliced needs a single engine");
  }
  sim::Engine& eng = group_ ? group_->shard(0) : *eng_;
  while (!eng.run_until(eng.now() + slice)) between(eng);
  between(eng);
  // A one-shard group still owes its final quiesced checks and metrics.
  if (group_) group_->run(1);
}

std::vector<sim::Engine*> Workload::engines() {
  std::vector<sim::Engine*> out;
  if (group_) {
    for (std::size_t i = 0; i < group_->size(); ++i) {
      out.push_back(&group_->shard(i));
    }
  } else {
    out.push_back(eng_.get());
  }
  return out;
}

std::uint64_t Workload::digest() const {
  return group_ ? group_->digest() : eng_->digest();
}

std::uint64_t Workload::causal_digest() const {
  return group_ ? group_->causal_digest() : eng_->causal_digest();
}

std::uint64_t Workload::events() const {
  return group_ ? group_->events_executed() : eng_->events_executed();
}

std::map<std::string, std::int64_t> Workload::metrics() const {
  if (!group_) return eng_->metrics().snapshot();
  std::map<std::string, std::int64_t> sum;
  for (std::size_t i = 0; i < group_->size(); ++i) {
    for (const auto& [k, v] : group_->shard(i).metrics().snapshot()) {
      sum[k] += v;
    }
  }
  return sum;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stream_64k", "c10k_ring",
                                                 "web16_sharded"};
  return names;
}

std::size_t default_shards(std::string_view name) {
  return name == "web16_sharded" ? 4 : 0;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        std::size_t shards,
                                        LayerProbe* probe) {
  if (name == "stream_64k") {
    return std::make_unique<StreamWorkload>(seed, probe);
  }
  if (name == "c10k_ring") return std::make_unique<C10kWorkload>(seed, probe);
  if (name == "web16_sharded") {
    return std::make_unique<Web16Workload>(seed, shards, probe);
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

}  // namespace perfbench

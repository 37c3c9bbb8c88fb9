// Per-layer accounting for the traced benchmark run.
//
// Everything here observes the simulator from the outside, through public
// interfaces only: a forwarding os::SocketApi decorator counts the calls a
// workload makes into the sockets layer and times the synchronous
// readiness probes; the engines' obs::Tracer spans are read back and
// folded into simulated busy time per layer; checker sweeps are timed by
// calling Engine::checks().run_all() between run_until() slices.  None of
// it schedules an event, so a traced run's digests equal an untraced one's.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "check/registry.hpp"
#include "obs/timeline.hpp"
#include "oskernel/socket_api.hpp"

namespace perfbench {

namespace os = ulsocks::os;
namespace sim = ulsocks::sim;

/// Calls one CountingApi saw.  Probe time is host nanoseconds spent inside
/// readable()/writable(), the O(connections) scan cost of ring servers.
struct SocketCalls {
  std::uint64_t accept = 0;
  std::uint64_t accept_many = 0;
  std::uint64_t read = 0;
  std::uint64_t read_view = 0;
  std::uint64_t write = 0;
  std::uint64_t close = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_ns = 0;
};

/// Forwarding decorator over a stack.  Every coroutine call returns the
/// inner stack's task unchanged, so the simulation is untouched; only the
/// tallies in `calls()` are added.
class CountingApi final : public os::SocketApi {
 public:
  explicit CountingApi(os::SocketApi& inner) : inner_(inner) {}

  [[nodiscard]] const SocketCalls& calls() const noexcept { return calls_; }

  sim::Task<int> socket() override { return inner_.socket(); }
  sim::Task<void> bind(int sd, os::SockAddr local) override {
    return inner_.bind(sd, local);
  }
  sim::Task<void> listen(int sd, int backlog) override {
    return inner_.listen(sd, backlog);
  }
  sim::Task<int> accept(int sd, os::SockAddr* peer) override {
    ++calls_.accept;
    return inner_.accept(sd, peer);
  }
  sim::Task<void> connect(int sd, os::SockAddr remote) override {
    return inner_.connect(sd, remote);
  }
  sim::Task<std::size_t> read(int sd, std::span<std::uint8_t> out) override {
    ++calls_.read;
    return inner_.read(sd, out);
  }
  sim::Task<std::size_t> write(int sd,
                               std::span<const std::uint8_t> in) override {
    ++calls_.write;
    return inner_.write(sd, in);
  }
  sim::Task<std::size_t> read_view(int sd, os::RecvView& view,
                                   std::size_t max_bytes) override {
    ++calls_.read_view;
    return inner_.read_view(sd, view, max_bytes);
  }
  sim::Task<void> close(int sd) override {
    ++calls_.close;
    return inner_.close(sd);
  }
  sim::Task<void> set_option(int sd, os::SockOpt opt, int value) override {
    return inner_.set_option(sd, opt, value);
  }
  sim::Task<int> get_option(int sd, os::SockOpt opt) override {
    return inner_.get_option(sd, opt);
  }
  bool readable(int sd) const override {
    const auto t0 = std::chrono::steady_clock::now();
    const bool r = inner_.readable(sd);
    note_probe(t0);
    return r;
  }
  bool writable(int sd) const override {
    const auto t0 = std::chrono::steady_clock::now();
    const bool r = inner_.writable(sd);
    note_probe(t0);
    return r;
  }
  sim::CondVar& activity() override { return inner_.activity(); }
  sim::Task<std::size_t> accept_many(
      int sd, std::size_t max, std::vector<int>& out,
      std::vector<os::SockAddr>* peers) override {
    ++calls_.accept_many;
    return inner_.accept_many(sd, max, out, peers);
  }

 private:
  void note_probe(std::chrono::steady_clock::time_point t0) const {
    ++calls_.probes;
    calls_.probe_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  os::SocketApi& inner_;
  mutable SocketCalls calls_;
};

/// Collects one traced run's per-layer observations.  Simulated span time
/// is in nanoseconds of simulated time; everything else is host time.
class LayerProbe {
 public:
  /// Wrap `inner` in a CountingApi owned by the probe.
  os::SocketApi& wrap(os::SocketApi& inner) { return apis_.emplace_back(inner); }

  /// Sum of the calls every wrapper saw.
  [[nodiscard]] SocketCalls calls() const;

  /// Fold every event `tracer` recorded for hosts [0, hosts) into the span
  /// totals, then clear it so a long run keeps bounded memory.
  void drain(ulsocks::obs::Tracer& tracer, std::size_t hosts);

  /// Time one full checker sweep (checkers are read-only by contract).
  void sample_checks(const ulsocks::check::Registry& checks);

  /// Record one reading of the ring's in-flight SQE gauge.
  void sample_sqe_inflight(std::int64_t v) {
    sqe_inflight_max_ = std::max(sqe_inflight_max_, v);
  }
  [[nodiscard]] std::int64_t sqe_inflight_max() const noexcept {
    return sqe_inflight_max_;
  }

  /// Simulated nanoseconds of self time: substrate calls minus the EMP
  /// descriptor posts they contain, and the EMP posts themselves.
  [[nodiscard]] std::uint64_t sockets_self_ns() const;
  [[nodiscard]] std::uint64_t emp_post_ns() const noexcept {
    return emp_post_ns_;
  }
  [[nodiscard]] std::uint64_t dma_ns() const noexcept { return dma_ns_; }
  [[nodiscard]] std::uint64_t mac_ns() const noexcept { return mac_ns_; }
  [[nodiscard]] std::uint64_t spans() const noexcept { return spans_; }

  /// Median host microseconds of the sampled sweeps (0 if none).
  [[nodiscard]] double sweep_us_median() const;
  [[nodiscard]] std::size_t sweep_samples() const noexcept {
    return sweep_ns_.size();
  }

 private:
  struct Interval {
    sim::Time start;
    sim::Duration dur;
  };
  struct HostSpans {
    std::vector<Interval> sockets;
    std::vector<Interval> emp;
  };

  std::deque<CountingApi> apis_;
  std::map<std::size_t, HostSpans> hosts_;
  std::uint64_t emp_post_ns_ = 0;
  std::uint64_t dma_ns_ = 0;
  std::uint64_t mac_ns_ = 0;
  std::uint64_t spans_ = 0;
  std::vector<std::uint64_t> sweep_ns_;
  std::int64_t sqe_inflight_max_ = 0;
};

}  // namespace perfbench

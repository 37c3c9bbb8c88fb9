// Shared measurement harness for the figure-reproduction benches.
//
// Every routine builds a fresh 2- or 4-node cluster, runs the workload to
// completion in simulated time and reports microseconds / Mb/s exactly the
// way the paper does: "latency" is half the ping-pong round trip, bandwidth
// is receiver-side goodput over the transfer window.
//
// Observability: each run's engine carries the obs metrics registry and
// timeline tracer.  Every measure_* call returns a RunReport — the measured
// value, that run's full registry snapshot and its host cost — and
// BenchResults::add() records it into the schema-versioned
// BENCH_<figure>.json that scripts/validate_bench_json.py checks.
// set_trace_export() arms a Chrome trace_event export of the next run (see
// DESIGN.md §8).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "apps/cluster.hpp"
#include "sim/stats.hpp"
#include "sockets/config.hpp"

namespace ulsocks::bench {

using apps::Cluster;
using sim::Task;

/// Which transport a measurement runs over.  Built through the named
/// factories so every choice carries a stack name and a config label the
/// JSON emitter reuses; the paper presets flow in via sockets::preset().
class StackChoice {
 public:
  enum class Kind { kSubstrate, kTcp, kRawEmp };

  /// Substrate run with a registry preset (label = the paper figure label).
  [[nodiscard]] static StackChoice substrate(const sockets::Preset& preset);
  /// Substrate run with a hand-built config (ablations that tweak knobs).
  [[nodiscard]] static StackChoice substrate(sockets::SubstrateConfig cfg,
                                             std::string label);
  /// Kernel TCP; `sockbuf` of 0 keeps the kernel default (16 KB).
  [[nodiscard]] static StackChoice tcp(int sockbuf = 0);
  /// Raw EMP ping-pong, no sockets layer at all.
  [[nodiscard]] static StackChoice raw_emp();

  /// Stack name for series labels and JSON: "substrate", "tcp" or "emp".
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Configuration label: preset figure label, "sockbuf=N", or "raw".
  [[nodiscard]] const std::string& config_label() const noexcept {
    return label_;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] const sockets::SubstrateConfig& cfg() const noexcept {
    return cfg_;
  }
  [[nodiscard]] int tcp_sockbuf() const noexcept { return tcp_sockbuf_; }
  [[nodiscard]] bool tcp_nodelay() const noexcept { return tcp_nodelay_; }

 private:
  Kind kind_ = Kind::kSubstrate;
  sockets::SubstrateConfig cfg_{};
  int tcp_sockbuf_ = 0;  // 0: kernel default (16 KB)
  bool tcp_nodelay_ = true;
  std::string name_ = "substrate";
  std::string label_;
};

/// Host-side (wall-clock) cost of a simulator run: how fast the simulator
/// itself executes, as opposed to the simulated result it produces.
struct HostPerf {
  double wall_ms = 0;
  std::uint64_t events = 0;
  double events_per_sec = 0;
};

/// What one measure_* run reports: the measured value, the run's full
/// registry snapshot (path -> value; see obs/metrics.hpp for the
/// "h<N>/<layer>/<name>" path scheme) and its host cost.
struct RunReport {
  double value = 0;
  std::map<std::string, std::int64_t> metrics;
  HostPerf perf;
};

/// Run independent measurement jobs — each a closure over one measure_*
/// call — and return their reports in job order.  With `threads` > 1 the
/// jobs run on a thread pool (each job builds its own Engine, so runs are
/// fully isolated and the simulated results are identical to a serial
/// sweep; only wall-clock changes).  Falls back to serial when `threads`
/// <= 1 or a trace export is armed (the trace must capture exactly one
/// run).  A job that throws rethrows from run_points after every other
/// job has finished, serial or not.
[[nodiscard]] std::vector<RunReport> run_points(
    std::vector<std::function<RunReport()>> jobs, unsigned threads);

/// Arm a timeline export: the next measure_* run executes with the tracer
/// enabled and writes Chrome trace_event JSON to `path` when it finishes.
void set_trace_export(std::string path);

/// Options every bench main understands (N is a non-negative decimal
/// integer; anything else exits with status 2):
///   --iters N    latency iterations per point (smoke runs use small N)
///   --trace F    export a Chrome trace of the first run to F
///   --out DIR    directory for BENCH_<figure>.json (default ".")
///   --threads N  run_points() pool size (0 = auto: hardware threads, <= 8)
///   --shards N   shard count for sharded scenarios (0 = scenario default)
struct BenchOptions {
  int iters = 0;  // 0: the figure's default
  std::string trace_path;
  std::string out_dir = ".";
  unsigned threads = 0;  // 0: auto
  unsigned shards = 0;   // 0: each scenario picks its own

  [[nodiscard]] int iters_or(int dflt) const { return iters > 0 ? iters : dflt; }
  /// Pool size for run_points(): --threads, or the auto default.
  [[nodiscard]] unsigned resolved_threads() const;
  /// Shard count for sharded scenarios: --shards, or `dflt`.
  [[nodiscard]] std::size_t shards_or(std::size_t dflt) const {
    return shards > 0 ? shards : dflt;
  }
};
[[nodiscard]] BenchOptions parse_bench_args(int argc, char** argv);

/// Machine-readable bench results.  add() records one measured point from
/// the RunReport that produced it (value and metrics snapshot); write()
/// emits
///
///   {
///     "schema": "ulsocks.bench.v1",
///     "figure": "<figure>", "title": "<title>",
///     "host_perf": {"events": 12345, "wall_ms": 67.8,
///                   "events_per_sec": 1.8e6, "peak_rss_kb": 34567,
///                   "threads": 4},
///     "points": [{"series", "stack", "config", "x", "value", "unit",
///                 "metrics": {"h0/emp/data_frames_tx": 123, ...}}, ...]
///   }
///
/// host_perf aggregates every run of the process so far: total events,
/// summed per-run wall time (across pool threads when parallel), and peak
/// RSS — the "how fast is the simulator itself" record that
/// scripts/check_hostperf.py gates on.  Plots and regression checks read
/// this file and never scrape the human tables.
class BenchResults {
 public:
  BenchResults(std::string figure, std::string title);

  /// Record `run` as a point of `series` over `stack`.
  void add(std::string_view series, const StackChoice& stack,
           std::string_view x, const RunReport& run, std::string_view unit);
  /// Record a point that has no StackChoice (raw-parameter ablations and
  /// benches that drive their own Engine).
  void add(std::string_view series, std::string_view stack_name,
           std::string_view config_label, std::string_view x,
           const RunReport& run, std::string_view unit);

  /// Write BENCH_<figure>.json into `dir`; returns the path written, or
  /// empty on I/O failure (also printed to stderr).
  std::string write(const std::string& dir = ".") const;

 private:
  struct Point {
    std::string series;
    std::string stack;
    std::string config;
    std::string x;
    double value;
    std::string unit;
    std::map<std::string, std::int64_t> metrics;
  };
  std::string figure_;
  std::string title_;
  std::vector<Point> points_;
};

// Each measure_* below returns its run's RunReport; `value` is the
// quantity its comment names.

/// One-way latency (us) for `msg_bytes` messages, averaged over `iters`
/// ping-pong rounds after `warmup` rounds.
[[nodiscard]] RunReport measure_latency_us(const StackChoice& stack,
                                           std::size_t msg_bytes,
                                           int iters = 50, int warmup = 5);

/// Unidirectional goodput (Mb/s) sending `total_bytes` in `msg_bytes`
/// application writes.
[[nodiscard]] RunReport measure_bandwidth_mbps(const StackChoice& stack,
                                               std::size_t msg_bytes,
                                               std::size_t total_bytes);

/// Same workload, but the receiver drains with read_view() instead of
/// read(): the zero-copy receive API (sliced stacks lend their buffers;
/// others fall back to one copy into the view's scratch).
[[nodiscard]] RunReport measure_bandwidth_view_mbps(const StackChoice& stack,
                                                    std::size_t msg_bytes,
                                                    std::size_t total_bytes);

/// ftp RETR throughput (Mb/s) for a file of `file_bytes` on a RAM disk.
[[nodiscard]] RunReport measure_ftp_mbps(const StackChoice& stack,
                                         std::size_t file_bytes);

/// Web-server mean response time (us): 1 server + 3 clients, 16-byte
/// requests, `response_bytes` replies, `requests_per_connection` per
/// connection (1 = HTTP/1.0, 8 = HTTP/1.1).
[[nodiscard]] RunReport measure_web_response_us(
    const StackChoice& stack, std::uint32_t response_bytes,
    std::uint32_t requests_per_connection, std::size_t requests_per_client);

/// Distributed matmul wall time (ms) for an n x n problem on 4 nodes.
[[nodiscard]] RunReport measure_matmul_ms(const StackChoice& stack,
                                          std::size_t n);

/// Latency with `extra_descriptors` unrelated descriptors pre-posted ahead
/// of the measurement channel (tag-matching walk-cost ablation).
[[nodiscard]] RunReport measure_latency_with_extra_descriptors_us(
    std::size_t extra_descriptors, std::size_t msg_bytes = 4);

/// Latency / bandwidth with a single-CPU NIC (ablation of the Tigon2's
/// dual-core design).
[[nodiscard]] RunReport measure_latency_us_nic(const StackChoice& stack,
                                               std::size_t msg_bytes,
                                               bool dual_cpu);
[[nodiscard]] RunReport measure_bandwidth_mbps_nic(const StackChoice& stack,
                                                   std::size_t msg_bytes,
                                                   std::size_t total_bytes,
                                                   bool dual_cpu);

/// Host events/sec of the many-host sharded web workload (bench/scale.hpp):
/// 1 server + (hosts-1) clients on a star, partitioned over `shards`
/// engines stepped serially.  The simulated result is shard-count
/// invariant.  The report's metrics are the merged cross-shard snapshot
/// and its perf.events the aggregate event count.
[[nodiscard]] RunReport measure_scale_web_evps(const StackChoice& stack,
                                               std::size_t hosts,
                                               std::size_t shards,
                                               std::size_t requests_per_client);

/// Host events/sec of the skewed ("hotspot") 16-host web workload: two
/// hosts carry ~80% of the request traffic, so the static (i + 1) % shards
/// placement leaves one shard much hotter than the rest.  The report's
/// metrics additionally carry "shard/causal_digest" (bit-cast to int64) —
/// identical across shard counts — next to the group's shard/epochs and
/// shard/imbalance gauges.
[[nodiscard]] RunReport measure_scale_web_hotspot_evps(
    const StackChoice& stack, std::size_t shards, std::size_t hot_requests,
    std::size_t cold_requests);

/// Served requests per wall-clock second of the C10K concurrency workload
/// (bench/scale.hpp ScaleC10k): 3 client hosts x `connections_per_host`
/// simultaneous connections against one server, ring (`ring = true`) or
/// blocking.  Requests-per-second, not events-per-second, is the gated
/// quantity: the ring server exists to do the same application work with
/// FEWER engine events (one parked pump instead of a per-connection
/// thundering herd), so comparing evps would reward the wasteful server.
/// The report's metrics are the merged snapshot including the
/// ring/batch_size, ring/reap_wait_ns and ring/sqe_inflight instruments.
[[nodiscard]] RunReport measure_scale_c10k_reqps(
    const StackChoice& stack, bool ring, std::size_t connections_per_host,
    std::size_t shards = 1, std::size_t reap_batch = 64);

/// Pretty size label ("4", "1K", "64K").
[[nodiscard]] std::string size_label(std::size_t bytes);

}  // namespace ulsocks::bench

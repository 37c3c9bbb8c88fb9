// Host performance of the simulator itself: wall-clock events/sec on the
// fig13 microbench workloads, plus a raw engine churn loop.
//
// Unlike every other bench, the value here is NOT a simulated quantity —
// it is how fast this build of the simulator executes on the host.  The
// committed baseline (bench/baselines/BENCH_hostperf.json) is the
// regression gate: scripts/check_hostperf.py fails the build if any
// events/sec point drops more than 25% below it.
//
// Methodology: each scenario runs `reps` times and records the best
// events/sec (best-of-N is robust against scheduler noise on shared CI
// hosts; medians still drift when the whole host is loaded).  The
// simulated results of every rep are identical — the engine is
// deterministic — so best-of changes only the wall-clock estimate.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace {

using ulsocks::bench::RunReport;

/// Pure event-queue churn: four self-rescheduling chains of empty events,
/// no protocol work at all.  Measures the engine's ceiling; the report's
/// value is its host events/sec.
RunReport engine_churn(std::uint64_t total_events) {
  ulsocks::sim::Engine eng;
  // No protocol stack runs here, so no host copies happen; register the
  // counter anyway so every bench point carries host/bytes_copied.
  (void)eng.metrics().counter("host/bytes_copied");
  struct Chain {
    ulsocks::sim::Engine* eng;
    std::uint64_t left;
    void operator()() {
      if (--left == 0) return;
      eng->schedule_after(100, Chain{*this});
    }
  };
  for (std::uint64_t lane = 0; lane < 4; ++lane) {
    eng.schedule_after(lane, Chain{&eng, total_events / 4});
  }
  auto t0 = std::chrono::steady_clock::now();
  eng.run();
  auto wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  RunReport run;
  run.perf.wall_ms = wall_ns / 1e6;
  run.perf.events = eng.events_executed();
  run.perf.events_per_sec =
      wall_ns > 0 ? static_cast<double>(run.perf.events) * 1e9 / wall_ns
                  : 0.0;
  run.value = run.perf.events_per_sec;
  run.metrics = eng.metrics().snapshot();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  // Smoke runs (--iters N) shrink every scenario so CI stays fast; the
  // committed baseline is recorded with the full defaults.
  const bool smoke = opt.iters > 0;
  const int reps = 3;

  BenchResults results("hostperf",
                       "Simulator host throughput (wall-clock events/sec)");
  const auto ds = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto emp = StackChoice::raw_emp();

  const std::size_t bw_total = smoke ? (4ul << 20) : (96ul << 20);
  const std::size_t ftp_bytes = smoke ? (512ul << 10) : (24ul << 20);
  const int lat_iters = smoke ? opt.iters : 2000;
  const std::size_t scale_requests = smoke ? 8 : 192;
  // C10K: 3 client hosts x 334 connections ~ 1000 concurrent against one
  // server.  Small credit window / staging buffers keep the descriptor
  // memory of a thousand live connections bounded (credits=4 is the
  // paper's web-server setting).
  const std::size_t c10k_conns = smoke ? 8 : 334;
  // Hotspot skew: two hosts carry ~80% of the request traffic
  // (2 x hot vs 13 x cold).
  const std::size_t hot_requests = smoke ? 16 : 240;
  const std::size_t cold_requests = smoke ? 2 : 9;
  sockets::SubstrateConfig c10k_cfg = sockets::preset("ds_da_uq").cfg;
  c10k_cfg.credits = 4;
  c10k_cfg.buffer_bytes = 2048;
  const auto c10k = StackChoice::substrate(c10k_cfg, "c10k credits=4");

  struct Scenario {
    const char* name;
    const StackChoice* stack;
    const char* x;
    std::function<RunReport()> job;
    const char* unit = "evps";
  };
  const std::vector<Scenario> scenarios = {
      // Large-message streaming drained with the zero-copy read_view API:
      // the tentpole workload for the slice data path.
      {"fig13_bw_64K", &ds, "64K",
       [&] { return measure_bandwidth_view_mbps(ds, 65536, bw_total); }},
      {"fig13_lat_4B", &ds, "4",
       [&] { return measure_latency_us(ds, 4, lat_iters); }},
      // Large-file FTP over the substrate (the paper's fig 14 application).
      {"fig14_ftp", &ds, "file",
       [&] { return measure_ftp_mbps(ds, ftp_bytes); }},
      {"emp_bw_64K", &emp, "64K",
       [&] { return measure_bandwidth_mbps(emp, 65536, bw_total); }},
      // The same 16-host web workload on one engine and partitioned over
      // 4 shards.  The simulated result is identical; the events/sec ratio
      // between the two points is the cost of the epoch schedule.
      {"scale_web_16hosts", &ds, "1shard",
       [&] { return measure_scale_web_evps(ds, 16, 1, scale_requests); }},
      {"scale_web_16hosts", &ds, "4shards",
       [&] {
         return measure_scale_web_evps(ds, 16, opt.shards_or(4),
                                       scale_requests);
       }},
      // Skewed ("hotspot") web workload: hosts 1 and 5 carry ~80% of the
      // traffic, and at 4 shards the static (i + 1) % shards placement
      // parks both on one shard.  check_hostperf.py asserts the causal
      // digests of the 1-, 2- and 4-shard points match.
      {"scale_web_hotspot", &ds, "1shard",
       [&] {
         return measure_scale_web_hotspot_evps(ds, 1, hot_requests,
                                               cold_requests);
       }},
      {"scale_web_hotspot", &ds, "2shards",
       [&] {
         return measure_scale_web_hotspot_evps(ds, 2, hot_requests,
                                               cold_requests);
       }},
      {"scale_web_hotspot", &ds, "4shards_static",
       [&] {
         return measure_scale_web_hotspot_evps(ds, opt.shards_or(4),
                                               hot_requests, cold_requests);
       }},
      // C10K ring-vs-blocking: identical traffic (~1000 simultaneous
      // connections), two servers.  The gated quantity is requests served
      // per wall second — the ring's point is doing the same application
      // work with fewer engine events (one parked pump vs a thundering
      // herd), so events/sec would reward the blocking server's waste.
      // check_hostperf.py asserts ring >= blocking.
      {"scale_c10k", &c10k, "ring",
       [&] { return measure_scale_c10k_reqps(c10k, true, c10k_conns); },
       "reqps"},
      {"scale_c10k", &c10k, "blocking",
       [&] { return measure_scale_c10k_reqps(c10k, false, c10k_conns); },
       "reqps"},
      // The ring server composes with the sharded engine: same workload
      // partitioned over 4 shards.
      {"scale_c10k", &c10k, "ring_4shards",
       [&] {
         return measure_scale_c10k_reqps(c10k, true, c10k_conns,
                                         opt.shards_or(4));
       },
       "reqps"},
  };

  sim::ResultTable table({"scenario", "stack", "Mev/s", "wall_ms"});
  // Best-of-N by the recorded value: evps scenarios record the run's host
  // events/sec; other units (the C10K reqps points) the job's own value.
  auto best_of = [reps](const std::function<RunReport()>& job, bool evps) {
    RunReport best;
    best.value = -1.0;
    for (int r = 0; r < reps; ++r) {
      RunReport run = job();
      if (evps) run.value = run.perf.events_per_sec;
      if (run.value > best.value) best = std::move(run);
    }
    return best;
  };
  for (const auto& sc : scenarios) {
    const RunReport best =
        best_of(sc.job, std::string_view(sc.unit) == "evps");
    results.add(sc.name, sc.stack->name(), sc.stack->config_label(), sc.x,
                best, sc.unit);
    table.add_row({sc.name, sc.stack->name(),
                   sim::ResultTable::num(best.perf.events_per_sec / 1e6, 2),
                   sim::ResultTable::num(best.perf.wall_ms, 1)});
  }

  {
    const std::uint64_t n = smoke ? 200'000 : 2'000'000;
    const RunReport best = best_of([n] { return engine_churn(n); }, true);
    results.add("engine_churn", "sim", "engine", "empty_events", best,
                "evps");
    table.add_row({"engine_churn", "sim",
                   sim::ResultTable::num(best.perf.events_per_sec / 1e6, 2),
                   sim::ResultTable::num(best.perf.wall_ms, 1)});
  }

  table.print();
  results.write(opt.out_dir);
  return 0;
}

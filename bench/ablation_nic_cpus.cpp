// Ablation: the Tigon2's two firmware CPUs (cf. Shivam et al., IPDPS'02,
// "Can User Level Protocols Take Advantage of Multi-CPU NICs?").
//
// In single-CPU mode the transmit and receive firmware paths serialize on
// one core; ping-pong latency suffers little (the paths alternate) but
// bidirectional and streaming throughput lose the overlap.
#include <cstdio>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  const std::size_t total = opt.iters > 0 ? (1ul << 20) : (16ul << 20);

  const auto sub = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto emp = StackChoice::raw_emp();

  BenchResults results("ablation_nic_cpus",
                       "Dual vs single NIC firmware CPU");
  std::printf("Ablation: dual vs single NIC firmware CPU\n\n");
  sim::ResultTable table({"metric", "dual_cpu", "single_cpu"});

  const RunReport lat_dual = measure_latency_us_nic(sub, 4, /*dual=*/true);
  results.add("latency_4B", sub, "dual", lat_dual, "us");
  const RunReport lat_single = measure_latency_us_nic(sub, 4, /*dual=*/false);
  results.add("latency_4B", sub, "single", lat_single, "us");
  table.add_row({"latency_4B_us", sim::ResultTable::num(lat_dual.value, 1),
                 sim::ResultTable::num(lat_single.value, 1)});

  const RunReport bw_dual =
      measure_bandwidth_mbps_nic(sub, 65536, total, /*dual=*/true);
  results.add("stream_bw", sub, "dual", bw_dual, "mbps");
  const RunReport bw_single =
      measure_bandwidth_mbps_nic(sub, 65536, total, /*dual=*/false);
  results.add("stream_bw", sub, "single", bw_single, "mbps");
  table.add_row({"stream_mbps", sim::ResultTable::num(bw_dual.value, 0),
                 sim::ResultTable::num(bw_single.value, 0)});

  const RunReport emp_dual = measure_latency_us_nic(emp, 4, true);
  results.add("raw_emp_latency", emp, "dual", emp_dual, "us");
  const RunReport emp_single = measure_latency_us_nic(emp, 4, false);
  results.add("raw_emp_latency", emp, "single", emp_single, "us");
  table.add_row({"raw_emp_latency_us",
                 sim::ResultTable::num(emp_dual.value, 1),
                 sim::ResultTable::num(emp_single.value, 1)});

  table.print();
  std::printf(
      "\nexpected: streaming bandwidth drops hardest in single-CPU mode — "
      "the\nreceive path's per-frame work no longer overlaps ack "
      "generation\n");
  results.write(opt.out_dir);
  return 0;
}

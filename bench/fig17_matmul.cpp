// Figure 17: distributed matrix multiplication on the 4-node cluster
// (master + 3 workers, select()-based gather), substrate vs kernel TCP.
//
// Paper reference: the substrate is faster, with the advantage shrinking
// as N grows and computation starts to dominate communication.
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  // Smoke runs (--iters N) solve the smallest problem only.
  const std::vector<std::size_t> problem_sizes =
      opt.iters > 0 ? std::vector<std::size_t>{64}
                    : std::vector<std::size_t>{64, 128, 192, 256, 384};

  std::printf(
      "Figure 17: matrix multiplication wall time (ms), 4 nodes\n\n");

  const auto sub = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto tcp = StackChoice::tcp(262'144);

  BenchResults results("fig17_matmul",
                       "Matrix multiplication wall time (ms), 4 nodes");
  sim::ResultTable table({"N", "Substrate", "TCP", "TCP/Sub"});
  for (std::size_t n : problem_sizes) {
    const RunReport ms_sub = measure_matmul_ms(sub, n);
    results.add("Substrate", sub, std::to_string(n), ms_sub, "ms");
    const RunReport ms_tcp = measure_matmul_ms(tcp, n);
    results.add("TCP", tcp, std::to_string(n), ms_tcp, "ms");
    table.add_row({std::to_string(n),
                   sim::ResultTable::num(ms_sub.value, 2),
                   sim::ResultTable::num(ms_tcp.value, 2),
                   sim::ResultTable::num(ms_tcp.value / ms_sub.value, 2)});
  }
  table.print();
  std::printf(
      "\npaper: substrate ahead; the gap narrows as computation grows "
      "with N^3\nwhile communication grows with N^2\n");
  results.write(opt.out_dir);
  return 0;
}

// Figure 11: micro-benchmark latency of the substrate's incremental
// enhancements, against raw EMP.
//
//   DS        data streaming, immediate acks, pre-posted ack descriptors
//   DS_DA     + delayed acknowledgments (§6.3)
//   DS_DA_UQ  + acks on the EMP unexpected queue (§6.4) and piggybacking
//   DG        datagram sockets (§6.2)
//   EMP       raw EMP ping-pong (no sockets layer)
//
// Paper reference points at 4 bytes: EMP ~28 us, DG ~28.5 us, DS_DA_UQ
// ~37 us, with plain DS clearly above DS_DA above DS_DA_UQ.
#include <cstdio>
#include <iterator>
#include <vector>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  const int iters = opt.iters_or(50);

  std::printf("Figure 11: substrate latency by enhancement (one-way, us)\n");
  std::printf("credits=32, 64KB temporary buffers, 4-node-testbed model\n\n");

  const StackChoice stacks[] = {
      StackChoice::substrate(sockets::preset("ds")),
      StackChoice::substrate(sockets::preset("ds_da")),
      StackChoice::substrate(sockets::preset("ds_da_uq")),
      StackChoice::substrate(sockets::preset("dg")),
      StackChoice::raw_emp(),
  };
  const char* series[] = {"DS", "DS_DA", "DS_DA_UQ", "DG", "raw_EMP"};

  BenchResults results("fig11_latency",
                       "Substrate latency by enhancement (one-way, us)");
  const std::size_t sizes[] = {4, 64, 256, 1024, 4096};
  sim::ResultTable table(
      {"size", "DS", "DS_DA", "DS_DA_UQ", "DG", "raw_EMP"});
  for (std::size_t size : sizes) {
    std::vector<std::string> row{size_label(size)};
    for (std::size_t s = 0; s < std::size(stacks); ++s) {
      const RunReport run = measure_latency_us(stacks[s], size, iters);
      results.add(series[s], stacks[s], size_label(size), run, "us");
      row.push_back(sim::ResultTable::num(run.value, 1));
    }
    table.add_row(row);
  }
  table.print();
  std::printf(
      "\npaper (4B): DS > DS_DA > DS_DA_UQ ~= 37, DG ~= 28.5, EMP ~= 28\n");
  results.write(opt.out_dir);
  return 0;
}

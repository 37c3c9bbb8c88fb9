// Ablation (§5.2): the three unexpected-message-handling alternatives.
//
//   comm-thread    separate communication thread reposting descriptors:
//                  ~20 us of polling-thread synchronization per socket call
//   rendezvous     request/grant/data exchange per message (zero copy)
//   eager-credits  the adopted scheme: pre-posted buffers + credits
//
// The paper rejected the communication thread on measurement and kept the
// other two as user-selectable; this bench reproduces why.
#include <cstdio>
#include <iterator>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  const int iters = opt.iters_or(50);
  const std::size_t total = opt.iters > 0 ? (1ul << 20) : (16ul << 20);

  auto eager = sockets::preset("ds_da_uq").cfg;
  auto rend = eager;
  rend.flow = sockets::FlowControl::kRendezvous;
  auto thread = eager;
  thread.flow = sockets::FlowControl::kCommThread;

  const StackChoice stacks[] = {
      StackChoice::substrate(eager, "eager credits"),
      StackChoice::substrate(rend, "rendezvous"),
      StackChoice::substrate(thread, "comm thread"),
  };
  const char* series[] = {"eager_credits", "rendezvous", "comm_thread"};

  BenchResults results("ablation_flowcontrol",
                       "Flow-control alternatives (§5.2)");
  std::printf("Ablation: flow-control alternatives (§5.2)\n\n");
  std::printf("one-way latency (us):\n");
  sim::ResultTable lat({"size", "eager_credits", "rendezvous",
                        "comm_thread"});
  for (std::size_t size : {4ul, 1024ul, 4096ul}) {
    std::vector<std::string> row{size_label(size)};
    for (std::size_t s = 0; s < std::size(stacks); ++s) {
      const RunReport run = measure_latency_us(stacks[s], size, iters);
      results.add(series[s], stacks[s], size_label(size), run, "us");
      row.push_back(sim::ResultTable::num(run.value, 1));
    }
    lat.add_row(row);
  }
  lat.print();

  std::printf("\nstreaming bandwidth (Mb/s), 64 KB writes:\n");
  sim::ResultTable bw({"scheme", "mbps"});
  for (std::size_t s = 0; s < std::size(stacks); ++s) {
    const RunReport run = measure_bandwidth_mbps(stacks[s], 65536, total);
    results.add(std::string("bw_") + series[s], stacks[s], "64K", run,
                "mbps");
    bw.add_row({series[s], sim::ResultTable::num(run.value, 0)});
  }
  bw.print();
  std::printf(
      "\npaper: the comm thread's ~20 us synchronization kills latency; "
      "rendezvous\nadds a round trip per message; eager-with-credits wins\n");
  results.write(opt.out_dir);
  return 0;
}

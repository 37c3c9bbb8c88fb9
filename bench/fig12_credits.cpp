// Figure 12: 4-byte latency as a function of credit size, with and without
// delayed acknowledgments (§6.3).
//
// The mechanism: without delayed acks the substrate pre-posts one ack
// descriptor per credit ("2N"), and the NIC walks them (550 ns each) while
// tag-matching every incoming data frame.  Delayed acks cut the number of
// pre-posted ack descriptors to ~2, so latency falls as the credit count
// (and with it the ack-descriptor fraction) grows.
#include <cstdio>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  const int iters = opt.iters_or(50);

  std::printf(
      "Figure 12: 4-byte latency vs credit size (one-way, us)\n\n");

  BenchResults results("fig12_credits",
                       "4-byte latency vs credit size (one-way, us)");
  sim::ResultTable table({"credits", "immediate_acks", "delayed_acks",
                          "ack_descs_imm", "ack_descs_dly"});
  for (std::uint32_t credits : {1u, 2u, 4u, 8u, 16u, 32u}) {
    auto imm = sockets::preset("ds").cfg;
    imm.credits = credits;
    auto dly = sockets::preset("ds_da").cfg;
    dly.credits = credits;
    auto imm_stack = StackChoice::substrate(
        imm, "DS credits=" + std::to_string(credits));
    auto dly_stack = StackChoice::substrate(
        dly, "DS+DA credits=" + std::to_string(credits));
    const RunReport lat_imm = measure_latency_us(imm_stack, 4, iters);
    results.add("immediate_acks", imm_stack, std::to_string(credits),
                lat_imm, "us");
    const RunReport lat_dly = measure_latency_us(dly_stack, 4, iters);
    results.add("delayed_acks", dly_stack, std::to_string(credits), lat_dly,
                "us");
    table.add_row({std::to_string(credits),
                   sim::ResultTable::num(lat_imm.value, 1),
                   sim::ResultTable::num(lat_dly.value, 1),
                   std::to_string(imm.ctrl_descriptors()),
                   std::to_string(dly.ctrl_descriptors())});
  }
  table.print();
  std::printf(
      "\npaper: with delayed acks the ack-descriptor fraction falls from\n"
      "50%% (credit 1) to ~6%% (credit 32) and latency falls with it\n");
  results.write(opt.out_dir);
  return 0;
}

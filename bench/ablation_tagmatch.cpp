// Ablation (§6.3/§6.4): NIC tag-matching walk cost.
//
// The paper measured 550 ns per walked descriptor.  This bench pre-posts a
// growing number of unrelated descriptors ahead of the measurement channel
// and reports the added one-way latency, which should grow by ~0.55 us per
// descriptor (the walk happens on both data and reply paths, but the reply
// side's list is short).
#include <cstdio>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);

  std::printf("Ablation: tag-matching walk cost (4-byte one-way, us)\n\n");

  BenchResults results("ablation_tagmatch",
                       "NIC tag-matching walk cost (4-byte one-way, us)");
  const double base = measure_latency_with_extra_descriptors_us(0).value;
  sim::ResultTable table(
      {"extra_descriptors", "latency_us", "delta_us", "ns_per_descriptor"});
  for (std::size_t extra : {0ul, 4ul, 8ul, 16ul, 32ul, 64ul, 128ul}) {
    const RunReport run = measure_latency_with_extra_descriptors_us(extra);
    results.add("latency", "emp", "raw", std::to_string(extra), run, "us");
    const double lat = run.value;
    double delta = lat - base;
    // The fillers sit on one side only, so the walk happens once per round
    // trip; one-way latency carries half of it.
    double per = extra ? delta * 2000.0 / static_cast<double>(extra) : 0.0;
    table.add_row({std::to_string(extra), sim::ResultTable::num(lat, 2),
                   sim::ResultTable::num(delta, 2),
                   sim::ResultTable::num(per, 0)});
  }
  table.print();
  std::printf("\npaper: ~550 ns per walked descriptor\n");
  results.write(opt.out_dir);
  return 0;
}

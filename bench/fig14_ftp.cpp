// Figure 14: ftp throughput from a RAM disk, substrate vs kernel TCP.
//
// Paper reference: both substrate options roughly overlap (the filesystem
// overhead dominates differences between them), each about twice the TCP
// number, and all below the raw socket peak of §7.2.
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  // Smoke runs (--iters N) transfer a single small file.
  const std::vector<std::size_t> files_mb =
      opt.iters > 0 ? std::vector<std::size_t>{1}
                    : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};

  std::printf("Figure 14: ftp RETR throughput vs file size (Mb/s)\n");
  std::printf("files live on RAM disks; active-mode data connection\n\n");

  BenchResults results("fig14_ftp",
                       "ftp RETR throughput vs file size (Mb/s)");
  const auto ds = StackChoice::substrate(sockets::preset("ds_da_uq"));
  const auto dg = StackChoice::substrate(sockets::preset("dg"));
  const auto tcp = StackChoice::tcp();

  sim::ResultTable table(
      {"file", "DataStreaming", "Datagram", "TCP", "DS/TCP"});
  for (std::size_t mb : files_mb) {
    std::size_t bytes = mb << 20;
    const RunReport mbps_ds = measure_ftp_mbps(ds, bytes);
    results.add("DataStreaming", ds, size_label(bytes), mbps_ds, "mbps");
    const RunReport mbps_dg = measure_ftp_mbps(dg, bytes);
    results.add("Datagram", dg, size_label(bytes), mbps_dg, "mbps");
    const RunReport mbps_tcp = measure_ftp_mbps(tcp, bytes);
    results.add("TCP", tcp, size_label(bytes), mbps_tcp, "mbps");
    table.add_row({size_label(bytes),
                   sim::ResultTable::num(mbps_ds.value, 0),
                   sim::ResultTable::num(mbps_dg.value, 0),
                   sim::ResultTable::num(mbps_tcp.value, 0),
                   sim::ResultTable::num(mbps_ds.value / mbps_tcp.value, 2)});
  }
  table.print();
  std::printf(
      "\npaper: DS and DG overlap (filesystem-bound), ~2x TCP, all below\n"
      "the raw socket peak\n");
  results.write(opt.out_dir);
  return 0;
}

// Figure 15: web-server average response time under HTTP/1.0 (one request
// per connection), 1 server + 3 clients.
//
// The substrate runs with 4 credits, the paper's choice for this
// experiment: with one request per connection, larger credit counts waste
// time posting and reclaiming descriptors that are never used (§7.4).
//
// Paper reference: the substrate wins by up to ~6x; TCP's ~200-250 us
// kernel connection setup dominates its small-reply response times.
#include <cstdio>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  const std::size_t requests = opt.iters > 0
                                   ? static_cast<std::size_t>(opt.iters)
                                   : 16;

  std::printf(
      "Figure 15: web server avg response time, HTTP/1.0 (us)\n"
      "1 server + 3 clients, 16-byte requests, substrate credits=4\n\n");

  auto cfg = sockets::preset("ds_da_uq").cfg;
  cfg.credits = 4;
  const auto sub = StackChoice::substrate(cfg, "DS+DA+UQ credits=4");
  const auto tcp = StackChoice::tcp();

  BenchResults results("fig15_web10",
                       "Web server avg response time, HTTP/1.0 (us)");
  sim::ResultTable table({"reply_bytes", "Substrate", "TCP", "TCP/Sub"});
  for (std::uint32_t s : {4u, 64u, 256u, 1024u, 4096u, 8192u}) {
    const RunReport us_sub = measure_web_response_us(sub, s, 1, requests);
    results.add("Substrate", sub, size_label(s), us_sub, "us");
    const RunReport us_tcp = measure_web_response_us(tcp, s, 1, requests);
    results.add("TCP", tcp, size_label(s), us_tcp, "us");
    table.add_row({size_label(s), sim::ResultTable::num(us_sub.value, 0),
                   sim::ResultTable::num(us_tcp.value, 0),
                   sim::ResultTable::num(us_tcp.value / us_sub.value, 1)});
  }
  table.print();
  std::printf("\npaper: substrate faster by up to ~6x at small replies\n");
  results.write(opt.out_dir);
  return 0;
}

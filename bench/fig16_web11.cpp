// Figure 16: web-server average response time under HTTP/1.1 (up to eight
// requests per connection), 1 server + 3 clients.
//
// HTTP/1.1 exists to amortize TCP's expensive connection setup; the paper
// shows the substrate still wins even after that amortization.
#include <cstdio>

#include "harness.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace ulsocks;
  using namespace ulsocks::bench;

  const BenchOptions opt = parse_bench_args(argc, argv);
  const std::size_t requests = opt.iters > 0
                                   ? static_cast<std::size_t>(opt.iters)
                                   : 32;

  std::printf(
      "Figure 16: web server avg response time, HTTP/1.1 (us)\n"
      "up to 8 requests per connection, substrate credits=4\n\n");

  auto cfg = sockets::preset("ds_da_uq").cfg;
  cfg.credits = 4;
  const auto sub = StackChoice::substrate(cfg, "DS+DA+UQ credits=4");
  const auto tcp = StackChoice::tcp();

  BenchResults results("fig16_web11",
                       "Web server avg response time, HTTP/1.1 (us)");
  sim::ResultTable table({"reply_bytes", "Substrate", "TCP", "TCP/Sub"});
  for (std::uint32_t s : {4u, 64u, 256u, 1024u, 4096u, 8192u}) {
    const RunReport us_sub = measure_web_response_us(sub, s, 8, requests);
    results.add("Substrate", sub, size_label(s), us_sub, "us");
    const RunReport us_tcp = measure_web_response_us(tcp, s, 8, requests);
    results.add("TCP", tcp, size_label(s), us_tcp, "us");
    table.add_row({size_label(s), sim::ResultTable::num(us_sub.value, 0),
                   sim::ResultTable::num(us_tcp.value, 0),
                   sim::ResultTable::num(us_tcp.value / us_sub.value, 1)});
  }
  table.print();
  std::printf(
      "\npaper: amortization narrows TCP's gap but the substrate stays "
      "ahead;\nwith infinite requests per connection this degenerates to "
      "the latency test\n");
  results.write(opt.out_dir);
  return 0;
}

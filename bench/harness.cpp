#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <thread>

#include "apps/ftp.hpp"
#include "apps/httpd.hpp"
#include "apps/matmul.hpp"
#include "obs/timeline.hpp"

namespace ulsocks::bench {

namespace {

using os::SockAddr;
using sim::Engine;
using Clock = std::chrono::steady_clock;

constexpr std::uint16_t kPort = 5001;

// Process-wide observability state.  Each run's own numbers travel back in
// its RunReport; what lives here describes the whole process: the pool
// widths recorded in every bench JSON's host_perf block, and the armed
// trace path (arming a trace forces run_points() serial, so only one
// thread ever touches it).
std::string g_trace_path;                     // NOLINT
std::atomic<unsigned> g_pool_threads{1};      // NOLINT
std::atomic<unsigned> g_resolved_threads{1};  // NOLINT

/// Call before spawning workload coroutines: turns the tracer on when a
/// trace export is armed, so the whole run is captured, and returns the
/// run's wall-clock start.
Clock::time_point arm_run(Engine& eng) {
  if (!g_trace_path.empty()) eng.tracer().set_enabled(true);
  return Clock::now();
}

/// Call after eng.run(): reports `value` with the run's registry snapshot
/// and host cost, and flushes the armed trace export (first armed run only
/// — later runs are untraced).
RunReport finish_run(Engine& eng, Clock::time_point t0, double value) {
  const auto wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  RunReport run;
  run.value = value;
  run.perf.wall_ms = wall_ns / 1e6;
  run.perf.events = eng.events_executed();
  run.perf.events_per_sec =
      wall_ns > 0 ? static_cast<double>(run.perf.events) * 1e9 / wall_ns : 0.0;
  run.metrics = eng.metrics().snapshot();
  if (!g_trace_path.empty()) {
    if (!eng.tracer().export_chrome_json(g_trace_path)) {
      std::fprintf(stderr, "warning: could not write trace to %s\n",
                   g_trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace written to %s (load in chrome://tracing)\n",
                   g_trace_path.c_str());
    }
    g_trace_path.clear();
  }
  return run;
}

/// CPU model name of this machine ("unknown" when /proc/cpuinfo has none).
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

/// Peak resident set size of this process, in kilobytes.
std::int64_t peak_rss_kb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::int64_t>(ru.ru_maxrss);  // Linux: kilobytes
}

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return v;
}

/// Configure a TCP socket per the StackChoice.
Task<void> apply_tcp_options(os::SocketApi& api, int sd,
                             const StackChoice& stack) {
  if (stack.tcp_sockbuf() > 0) {
    co_await api.set_option(sd, os::SockOpt::kSndBuf, stack.tcp_sockbuf());
    co_await api.set_option(sd, os::SockOpt::kRcvBuf, stack.tcp_sockbuf());
  }
  if (stack.tcp_nodelay()) {
    co_await api.set_option(sd, os::SockOpt::kNoDelay, 1);
  }
}

os::SocketApi& pick(Cluster& cl, std::size_t node, const StackChoice& stack) {
  return stack.kind() == StackChoice::Kind::kTcp
             ? static_cast<os::SocketApi&>(cl.node(node).tcp)
             : static_cast<os::SocketApi&>(cl.node(node).socks);
}

/// Raw-EMP ping-pong (no sockets layer at all).
RunReport raw_emp_latency_us(std::size_t msg_bytes, int iters, int warmup,
                             bool dual_cpu) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, {}, {}, dual_cpu);
  auto msg = payload(msg_bytes);
  std::vector<std::uint8_t> b0(msg_bytes ? msg_bytes : 1);
  std::vector<std::uint8_t> b1(msg_bytes ? msg_bytes : 1);
  double one_way_us = 0;

  auto server = [&]() -> Task<void> {
    auto& ep = cl.node(1).emp;
    for (int i = 0; i < warmup + iters; ++i) {
      auto h = co_await ep.post_recv(emp::NodeId{0}, 1, b1);
      co_await ep.wait_recv(h);
      auto s = co_await ep.post_send(0, 2, msg);
      co_await ep.wait_send_local(s);
    }
  };
  auto client = [&]() -> Task<void> {
    auto& ep = cl.node(0).emp;
    co_await eng.delay(10'000);
    sim::Time t0 = 0;
    for (int i = 0; i < warmup + iters; ++i) {
      if (i == warmup) t0 = eng.now();
      auto h = co_await ep.post_recv(emp::NodeId{1}, 2, b0);
      auto s = co_await ep.post_send(1, 1, msg);
      co_await ep.wait_recv(h);
      (void)s;
    }
    one_way_us = sim::to_us(eng.now() - t0) / (2.0 * iters);
  };
  const auto start = arm_run(eng);
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  return finish_run(eng, start, one_way_us);
}

RunReport socket_latency_us(const StackChoice& stack, std::size_t msg_bytes,
                            int iters, int warmup, bool dual_cpu) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, stack.cfg(), {}, dual_cpu);
  auto msg = payload(msg_bytes);
  double one_way_us = 0;

  auto server = [&]() -> Task<void> {
    auto& api = pick(cl, 1, stack);
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, kPort});
    co_await api.listen(ls, 2);
    int cs = co_await api.accept(ls, nullptr);
    co_await apply_tcp_options(api, cs, stack);
    std::vector<std::uint8_t> buf(msg_bytes);
    for (int i = 0; i < warmup + iters; ++i) {
      co_await api.read_exact(cs, buf);
      co_await api.write_all(cs, buf);
    }
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto client = [&]() -> Task<void> {
    auto& api = pick(cl, 0, stack);
    co_await eng.delay(10'000);
    int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, kPort});
    co_await apply_tcp_options(api, s, stack);
    std::vector<std::uint8_t> buf = msg;
    sim::Time t0 = 0;
    for (int i = 0; i < warmup + iters; ++i) {
      if (i == warmup) t0 = eng.now();
      co_await api.write_all(s, buf);
      co_await api.read_exact(s, buf);
    }
    one_way_us = sim::to_us(eng.now() - t0) / (2.0 * iters);
    co_await api.close(s);
  };
  const auto start = arm_run(eng);
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  return finish_run(eng, start, one_way_us);
}

RunReport raw_emp_bandwidth_mbps(std::size_t msg_bytes,
                                 std::size_t total_bytes) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2);
  auto chunk = payload(msg_bytes);
  std::size_t messages = (total_bytes + msg_bytes - 1) / msg_bytes;
  double mbps = 0;

  auto receiver = [&]() -> Task<void> {
    auto& ep = cl.node(1).emp;
    std::vector<std::uint8_t> buf(msg_bytes);
    // Keep a pipeline of pre-posted descriptors, as an EMP benchmark would.
    std::deque<emp::RecvHandle> pipeline;
    sim::Time t0 = eng.now();
    std::size_t posted = 0;
    std::size_t received = 0;
    while (received < messages) {
      // Keep more receives posted than the sender keeps in flight, so no
      // arrival ever misses a descriptor (a miss costs a full EMP
      // retransmission timeout).
      while (posted < messages && pipeline.size() < 48) {
        pipeline.push_back(co_await ep.post_recv(emp::NodeId{0}, 1, buf));
        ++posted;
      }
      co_await ep.wait_recv(pipeline.front());
      pipeline.pop_front();
      ++received;
    }
    mbps = static_cast<double>(received) * static_cast<double>(msg_bytes) *
           8.0 / sim::to_sec(eng.now() - t0) / 1e6;
  };
  auto sender = [&]() -> Task<void> {
    auto& ep = cl.node(0).emp;
    co_await eng.delay(50'000);
    std::deque<emp::SendHandle> inflight;
    for (std::size_t i = 0; i < messages; ++i) {
      inflight.push_back(co_await ep.post_send(1, 1, chunk));
      if (inflight.size() >= 16) {
        co_await ep.wait_send_acked(inflight.front());
        inflight.pop_front();
      }
    }
    while (!inflight.empty()) {
      co_await ep.wait_send_acked(inflight.front());
      inflight.pop_front();
    }
  };
  const auto start = arm_run(eng);
  eng.spawn(receiver());
  eng.spawn(sender());
  eng.run();
  return finish_run(eng, start, mbps);
}

RunReport socket_bandwidth_mbps(const StackChoice& stack, std::size_t msg_bytes,
                                std::size_t total_bytes, bool dual_cpu) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, stack.cfg(), {}, dual_cpu);
  auto chunk = payload(msg_bytes);
  double mbps = 0;

  auto receiver = [&]() -> Task<void> {
    auto& api = pick(cl, 1, stack);
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, kPort});
    co_await api.listen(ls, 2);
    int cs = co_await api.accept(ls, nullptr);
    co_await apply_tcp_options(api, cs, stack);
    std::vector<std::uint8_t> buf(std::max<std::size_t>(msg_bytes, 65'536));
    std::size_t got = 0;
    sim::Time t0 = eng.now();
    while (got < total_bytes) {
      std::size_t n = co_await api.read(cs, buf);
      if (n == 0) break;
      got += n;
    }
    mbps = static_cast<double>(got) * 8.0 / sim::to_sec(eng.now() - t0) /
           1e6;
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto sender = [&]() -> Task<void> {
    auto& api = pick(cl, 0, stack);
    co_await eng.delay(10'000);
    int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, kPort});
    co_await apply_tcp_options(api, s, stack);
    std::size_t sent = 0;
    while (sent < total_bytes) {
      co_await api.write_all(s, chunk);
      sent += chunk.size();
    }
    co_await api.close(s);
  };
  const auto start = arm_run(eng);
  eng.spawn(receiver());
  eng.spawn(sender());
  eng.run();
  return finish_run(eng, start, mbps);
}

RunReport socket_bandwidth_view_mbps(const StackChoice& stack,
                                     std::size_t msg_bytes,
                                     std::size_t total_bytes) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, stack.cfg());
  auto chunk = payload(msg_bytes);
  double mbps = 0;

  auto receiver = [&]() -> Task<void> {
    auto& api = pick(cl, 1, stack);
    int ls = co_await api.socket();
    co_await api.bind(ls, SockAddr{1, kPort});
    co_await api.listen(ls, 2);
    int cs = co_await api.accept(ls, nullptr);
    co_await apply_tcp_options(api, cs, stack);
    const std::size_t window = std::max<std::size_t>(msg_bytes, 65'536);
    os::RecvView view;
    std::size_t got = 0;
    sim::Time t0 = eng.now();
    while (got < total_bytes) {
      std::size_t n = co_await api.read_view(cs, view, window);
      if (n == 0) break;
      got += n;
    }
    mbps = static_cast<double>(got) * 8.0 / sim::to_sec(eng.now() - t0) /
           1e6;
    co_await api.close(cs);
    co_await api.close(ls);
  };
  auto sender = [&]() -> Task<void> {
    auto& api = pick(cl, 0, stack);
    co_await eng.delay(10'000);
    int s = co_await api.socket();
    co_await api.connect(s, SockAddr{1, kPort});
    co_await apply_tcp_options(api, s, stack);
    std::size_t sent = 0;
    while (sent < total_bytes) {
      co_await api.write_all(s, chunk);
      sent += chunk.size();
    }
    co_await api.close(s);
  };
  const auto start = arm_run(eng);
  eng.spawn(receiver());
  eng.spawn(sender());
  eng.run();
  return finish_run(eng, start, mbps);
}

/// Append a JSON-rendered double ("%.6g"; non-finite values become 0).
void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

}  // namespace

StackChoice StackChoice::substrate(const sockets::Preset& preset) {
  StackChoice s;
  s.kind_ = Kind::kSubstrate;
  s.cfg_ = preset.cfg;
  s.name_ = "substrate";
  s.label_ = std::string(preset.label);
  return s;
}

StackChoice StackChoice::substrate(sockets::SubstrateConfig cfg,
                                   std::string label) {
  StackChoice s;
  s.kind_ = Kind::kSubstrate;
  s.cfg_ = cfg;
  s.name_ = "substrate";
  s.label_ = std::move(label);
  return s;
}

StackChoice StackChoice::tcp(int sockbuf) {
  StackChoice s;
  s.kind_ = Kind::kTcp;
  s.tcp_sockbuf_ = sockbuf;
  s.name_ = "tcp";
  s.label_ = sockbuf > 0 ? "sockbuf=" + std::to_string(sockbuf) : "default";
  return s;
}

StackChoice StackChoice::raw_emp() {
  StackChoice s;
  s.kind_ = Kind::kRawEmp;
  s.name_ = "emp";
  s.label_ = "raw";
  return s;
}

std::vector<RunReport> run_points(
    std::vector<std::function<RunReport()>> jobs, unsigned threads) {
  std::vector<RunReport> out(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        out[i] = jobs[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const bool serial =
      threads <= 1 || jobs.size() <= 1 || !g_trace_path.empty();
  if (serial) {
    worker();
  } else {
    const unsigned pool_size =
        static_cast<unsigned>(std::min<std::size_t>(threads, jobs.size()));
    unsigned prev = g_pool_threads.load(std::memory_order_relaxed);
    while (prev < pool_size &&
           !g_pool_threads.compare_exchange_weak(prev, pool_size,
                                                 std::memory_order_relaxed)) {
    }
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (unsigned i = 0; i < pool_size; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

void set_trace_export(std::string path) { g_trace_path = std::move(path); }

unsigned BenchOptions::resolved_threads() const {
  if (threads != 0) return threads;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return hw < 8 ? hw : 8;
}

BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    // Counts are non-negative decimal integers: atoi would read "abc" and
    // "-1" as 0, the figure default, and silently run a full-size sweep.
    auto count = [&]() -> unsigned {
      const char* text = value();
      char* end = nullptr;
      errno = 0;
      const long n = std::strtol(text, &end, 10);
      if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
          errno == ERANGE || n > INT_MAX) {
        std::fprintf(stderr, "%s: %s needs a non-negative integer, got '%s'\n",
                     argv[0], argv[i - 1], text);
        std::exit(2);
      }
      return static_cast<unsigned>(n);
    };
    if (arg == "--iters") {
      opt.iters = static_cast<int>(count());
    } else if (arg == "--trace") {
      opt.trace_path = value();
    } else if (arg == "--out") {
      opt.out_dir = value();
    } else if (arg == "--threads") {
      opt.threads = count();
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--iters N] [--trace FILE] [--out DIR] "
                   "[--threads N]\n",
                   argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown option %s (try --help)\n", argv[0],
                   argv[i]);
      std::exit(2);
    }
  }
  if (!opt.trace_path.empty()) set_trace_export(opt.trace_path);
  g_resolved_threads.store(opt.resolved_threads(), std::memory_order_relaxed);
  return opt;
}

BenchResults::BenchResults(std::string figure, std::string title)
    : figure_(std::move(figure)), title_(std::move(title)) {}

void BenchResults::add(std::string_view series, const StackChoice& stack,
                       std::string_view x, const RunReport& run,
                       std::string_view unit) {
  add(series, stack.name(), stack.config_label(), x, run, unit);
}

void BenchResults::add(std::string_view series, std::string_view stack_name,
                       std::string_view config_label, std::string_view x,
                       const RunReport& run, std::string_view unit) {
  Point p;
  p.series = std::string(series);
  p.stack = std::string(stack_name);
  p.config = std::string(config_label);
  p.x = std::string(x);
  p.value = run.value;
  p.unit = std::string(unit);
  p.perf = run.perf;
  p.metrics = run.metrics;
  points_.push_back(std::move(p));
}

std::string BenchResults::write(const std::string& dir) const {
  std::string json;
  json += "{\n  \"schema\": \"ulsocks.bench.v1\",\n";
  json += "  \"figure\": \"" + obs::json_escape(figure_) + "\",\n";
  json += "  \"title\": \"" + obs::json_escape(title_) + "\",\n";
  {
    std::uint64_t events = 0;
    double wall_ms = 0;
    for (const Point& p : points_) {
      events += p.perf.events;
      wall_ms += p.perf.wall_ms;
    }
    json += "  \"host_perf\": {\"events\": " + std::to_string(events);
    json += ", \"wall_ms\": ";
    append_number(json, wall_ms);
    json += ", \"events_per_sec\": ";
    append_number(json, wall_ms > 0 ? static_cast<double>(events) * 1e3 / wall_ms
                                    : 0.0);
    json += ", \"peak_rss_kb\": " + std::to_string(peak_rss_kb());
    json += ", \"threads\": " +
            std::to_string(g_pool_threads.load(std::memory_order_relaxed));
    json += ", \"resolved_threads\": " +
            std::to_string(g_resolved_threads.load(std::memory_order_relaxed));
    json += ", \"cpu_model\": \"" + obs::json_escape(cpu_model()) + "\"";
    json += ", \"nproc\": " +
            std::to_string(std::thread::hardware_concurrency());
    json += "},\n";
  }
  json += "  \"points\": [";
  bool first_point = true;
  for (const Point& p : points_) {
    json += first_point ? "\n" : ",\n";
    first_point = false;
    json += "    {\"series\": \"" + obs::json_escape(p.series) + "\", ";
    json += "\"stack\": \"" + obs::json_escape(p.stack) + "\", ";
    json += "\"config\": \"" + obs::json_escape(p.config) + "\", ";
    json += "\"x\": \"" + obs::json_escape(p.x) + "\", ";
    json += "\"value\": ";
    append_number(json, p.value);
    json += ", \"unit\": \"" + obs::json_escape(p.unit) + "\", ";
    json += "\"events\": " + std::to_string(p.perf.events) + ",\n";
    json += "     \"metrics\": {";
    bool first_metric = true;
    for (const auto& [path, v] : p.metrics) {
      json += first_metric ? "" : ", ";
      first_metric = false;
      json += "\"" + obs::json_escape(path) + "\": " + std::to_string(v);
    }
    json += "}}";
  }
  json += "\n  ]\n}\n";

  std::string path = dir.empty() || dir == "."
                         ? "BENCH_" + figure_ + ".json"
                         : dir + "/BENCH_" + figure_ + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return {};
  }
  std::fprintf(stderr, "results written to %s\n", path.c_str());
  return path;
}

RunReport measure_latency_us(const StackChoice& stack, std::size_t msg_bytes,
                             int iters, int warmup) {
  if (stack.kind() == StackChoice::Kind::kRawEmp) {
    return raw_emp_latency_us(msg_bytes, iters, warmup, /*dual_cpu=*/true);
  }
  return socket_latency_us(stack, msg_bytes, iters, warmup,
                           /*dual_cpu=*/true);
}

RunReport measure_latency_us_nic(const StackChoice& stack,
                                 std::size_t msg_bytes, bool dual_cpu) {
  if (stack.kind() == StackChoice::Kind::kRawEmp) {
    return raw_emp_latency_us(msg_bytes, 50, 5, dual_cpu);
  }
  return socket_latency_us(stack, msg_bytes, 50, 5, dual_cpu);
}

RunReport measure_bandwidth_mbps(const StackChoice& stack,
                                 std::size_t msg_bytes,
                                 std::size_t total_bytes) {
  return measure_bandwidth_mbps_nic(stack, msg_bytes, total_bytes, true);
}

RunReport measure_bandwidth_mbps_nic(const StackChoice& stack,
                                     std::size_t msg_bytes,
                                     std::size_t total_bytes, bool dual_cpu) {
  if (stack.kind() == StackChoice::Kind::kRawEmp) {
    return raw_emp_bandwidth_mbps(msg_bytes, total_bytes);
  }
  return socket_bandwidth_mbps(stack, msg_bytes, total_bytes, dual_cpu);
}

RunReport measure_bandwidth_view_mbps(const StackChoice& stack,
                                      std::size_t msg_bytes,
                                      std::size_t total_bytes) {
  return socket_bandwidth_view_mbps(stack, msg_bytes, total_bytes);
}

RunReport measure_ftp_mbps(const StackChoice& stack, std::size_t file_bytes) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2, stack.cfg());
  cl.node(0).host.fs().install("/srv/file.bin", payload(file_bytes));
  double mbps = 0;

  auto server = [&]() -> Task<void> {
    os::Process proc(cl.node(0).host);
    apps::FtpServerOptions opt;
    opt.max_sessions = 1;
    co_await apps::ftp_server(proc, pick(cl, 0, stack), opt);
  };
  auto client = [&]() -> Task<void> {
    co_await eng.delay(10'000);
    os::Process proc(cl.node(1).host);
    apps::FtpClient ftp(proc, pick(cl, 1, stack), 0);
    co_await ftp.connect();
    auto xfer = co_await ftp.get("/srv/file.bin", "/tmp/file.bin");
    mbps = xfer.mbps();
    co_await ftp.quit();
  };
  const auto start = arm_run(eng);
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  return finish_run(eng, start, mbps);
}

RunReport measure_web_response_us(const StackChoice& stack,
                                  std::uint32_t response_bytes,
                                  std::uint32_t requests_per_connection,
                                  std::size_t requests_per_client) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 4, stack.cfg());
  sim::OnlineStats all;
  sim::OnlineStats per_client[3];

  auto server = [&]() -> Task<void> {
    os::Process proc(cl.node(0).host);
    apps::WebServerOptions opt;
    opt.requests_per_connection = requests_per_connection;
    opt.max_connections =
        3 * ((requests_per_client + requests_per_connection - 1) /
             requests_per_connection);
    co_await apps::web_server(proc, pick(cl, 0, stack), opt);
  };
  auto client = [&](std::size_t idx) -> Task<void> {
    co_await eng.delay(10'000 + idx * 700);
    os::Process proc(cl.node(idx + 1).host);
    apps::WebClientOptions opt;
    opt.server_node = 0;
    opt.response_bytes = response_bytes;
    opt.requests_per_connection = requests_per_connection;
    opt.total_requests = requests_per_client;
    co_await apps::web_client(proc, pick(cl, idx + 1, stack), opt,
                              per_client[idx]);
  };
  const auto start = arm_run(eng);
  eng.spawn(server());
  for (std::size_t i = 0; i < 3; ++i) eng.spawn(client(i));
  eng.run();
  for (const auto& st : per_client) {
    // Merge means weighted by count.
    for (std::size_t i = 0; i < st.count(); ++i) all.add(st.mean());
  }
  return finish_run(eng, start, all.mean());
}

RunReport measure_scale_web_evps(const StackChoice& stack,
                                 std::size_t requests_per_client) {
  constexpr std::size_t kHosts = 16;  // host 0 serves, the rest request
  constexpr std::uint32_t kRequestsPerConnection = 8;  // HTTP/1.1 style
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), kHosts, stack.cfg());
  std::vector<sim::OnlineStats> per_client(kHosts - 1);

  auto server = [&]() -> Task<void> {
    os::Process proc(cl.node(0).host);
    apps::WebServerOptions opt;
    opt.requests_per_connection = kRequestsPerConnection;
    opt.max_connections =
        (kHosts - 1) * ((requests_per_client + kRequestsPerConnection - 1) /
                        kRequestsPerConnection);
    co_await apps::web_server(proc, pick(cl, 0, stack), opt);
  };
  auto client = [&](std::size_t idx) -> Task<void> {
    // Staggered connects give the accept queue an orderly arrival pattern.
    co_await eng.delay(10'000 + idx * 700);
    os::Process proc(cl.node(idx + 1).host);
    apps::WebClientOptions opt;
    opt.server_node = 0;
    opt.response_bytes = 8192;
    opt.requests_per_connection = kRequestsPerConnection;
    opt.total_requests = requests_per_client;
    co_await apps::web_client(proc, pick(cl, idx + 1, stack), opt,
                              per_client[idx]);
  };
  const auto start = arm_run(eng);
  eng.spawn(server());
  for (std::size_t i = 0; i + 1 < kHosts; ++i) eng.spawn(client(i));
  eng.run();
  RunReport run = finish_run(eng, start, 0);
  run.value = run.perf.events_per_sec;
  return run;
}

RunReport measure_scale_c10k_reqps(const StackChoice& stack, bool ring,
                                   std::size_t connections_per_host) {
  constexpr std::size_t kClientHosts = 3;  // hosts 1..3 each run many conns
  constexpr std::uint32_t kRequestsPerConnection = 2;
  const std::size_t total = kClientHosts * connections_per_host;
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), kClientHosts + 1,
             stack.cfg());
  std::vector<sim::OnlineStats> per_conn(total);

  auto server = [&]() -> Task<void> {
    os::Process proc(cl.node(0).host);
    apps::WebServerOptions opt;
    opt.requests_per_connection = kRequestsPerConnection;
    opt.max_connections = total;
    // A thousand near-simultaneous SYNs against a small backlog turn into
    // a retransmission storm of refused and retried connects; like a tuned
    // C10K listener (somaxconn-style), the window fits the arrival burst.
    opt.backlog = 1024;
    opt.reap_batch = 64;
    if (ring) {
      co_await apps::web_server_ring(proc, pick(cl, 0, stack), opt);
    } else {
      co_await apps::web_server(proc, pick(cl, 0, stack), opt);
    }
  };
  auto conn = [&](std::size_t host, std::size_t c) -> Task<void> {
    // Near-simultaneous arrivals, 50 ns apart: the whole population
    // overlaps, so the server really holds ~`total` live connections.
    const std::size_t idx = (host - 1) * connections_per_host + c;
    co_await eng.delay(10'000 + idx * 50);
    os::Process proc(cl.node(host).host);
    apps::WebClientOptions opt;
    opt.server_node = 0;
    opt.response_bytes = 256;
    opt.requests_per_connection = kRequestsPerConnection;
    opt.total_requests = kRequestsPerConnection;  // one connection
    // A thousand simultaneous SYNs can outlast EMP's retransmission
    // give-up against a finite backlog; like any C10K client, back off
    // and retry a refused connect (deterministic, idx-jittered delays).
    for (int attempt = 0;; ++attempt) {
      bool retry = false;
      try {
        co_await apps::web_client(proc, pick(cl, host, stack), opt,
                                  per_conn[idx]);
      } catch (const os::SocketError& e) {
        if (e.code() != os::SockErr::kRefused || attempt >= 6) throw;
        retry = true;  // co_await is illegal inside a handler
      }
      if (!retry) break;
      co_await eng.delay(100'000 * (attempt + 1) + idx * 131);
    }
  };
  const auto start = arm_run(eng);
  eng.spawn(server());
  for (std::size_t h = 1; h <= kClientHosts; ++h) {
    for (std::size_t c = 0; c < connections_per_host; ++c) {
      eng.spawn(conn(h, c));
    }
  }
  eng.run();
  RunReport run = finish_run(eng, start, 0);
  std::size_t served = 0;
  for (const auto& st : per_conn) served += st.count();
  // The measured quantity: application requests served per wall second.
  run.value = run.perf.wall_ms > 0
                  ? static_cast<double>(served) * 1e3 / run.perf.wall_ms
                  : 0.0;
  return run;
}

RunReport measure_matmul_ms(const StackChoice& stack, std::size_t n) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 4, stack.cfg());
  auto a = apps::make_matrix(n, 1);
  auto b = apps::make_matrix(n, 2);
  double ms = 0;

  auto master = [&]() -> Task<void> {
    co_await eng.delay(50'000);
    os::Process proc(cl.node(0).host);
    std::vector<std::uint16_t> workers{1, 2, 3};
    auto result = co_await apps::matmul_master(proc, pick(cl, 0, stack), a,
                                               b, n, workers);
    ms = sim::to_ms(result.elapsed);
  };
  auto worker = [&](std::size_t idx) -> Task<void> {
    os::Process proc(cl.node(idx).host);
    co_await apps::matmul_worker(proc, pick(cl, idx, stack));
  };
  const auto start = arm_run(eng);
  for (std::size_t i = 1; i <= 3; ++i) eng.spawn(worker(i));
  eng.spawn(master());
  eng.run();
  return finish_run(eng, start, ms);
}

RunReport measure_latency_with_extra_descriptors_us(
    std::size_t extra_descriptors, std::size_t msg_bytes) {
  Engine eng;
  Cluster cl(eng, sim::calibrated_cost_model(), 2);
  auto msg = payload(msg_bytes);
  std::vector<std::uint8_t> b0(msg_bytes), b1(msg_bytes);
  std::vector<std::uint8_t> dummy(16);
  double one_way_us = 0;
  constexpr int kIters = 50;

  auto server = [&]() -> Task<void> {
    auto& ep = cl.node(1).emp;
    // Pre-post unrelated descriptors ahead of the measurement channel: the
    // NIC walks them (550 ns each) on every incoming data frame.
    std::vector<emp::RecvHandle> fillers;
    for (std::size_t i = 0; i < extra_descriptors; ++i) {
      fillers.push_back(
          co_await ep.post_recv(emp::NodeId{0}, 999, dummy));
    }
    for (int i = 0; i < kIters + 5; ++i) {
      auto h = co_await ep.post_recv(emp::NodeId{0}, 1, b1);
      co_await ep.wait_recv(h);
      auto s = co_await ep.post_send(0, 2, msg);
      co_await ep.wait_send_local(s);
    }
    for (auto& f : fillers) {
      bool ok = co_await ep.unpost_recv(f);
      (void)ok;
    }
  };
  auto client = [&]() -> Task<void> {
    auto& ep = cl.node(0).emp;
    co_await eng.delay(500'000);  // let the fillers post first
    sim::Time t0 = 0;
    for (int i = 0; i < kIters + 5; ++i) {
      if (i == 5) t0 = eng.now();
      auto h = co_await ep.post_recv(emp::NodeId{1}, 2, b0);
      auto s = co_await ep.post_send(1, 1, msg);
      co_await ep.wait_recv(h);
      (void)s;
    }
    one_way_us = sim::to_us(eng.now() - t0) / (2.0 * kIters);
  };
  const auto start = arm_run(eng);
  eng.spawn(server());
  eng.spawn(client());
  eng.run();
  return finish_run(eng, start, one_way_us);
}

std::string size_label(std::size_t bytes) {
  if (bytes >= 1'048'576 && bytes % 1'048'576 == 0) {
    return std::to_string(bytes / 1'048'576) + "M";
  }
  if (bytes >= 1024 && bytes % 1024 == 0) {
    return std::to_string(bytes / 1024) + "K";
  }
  return std::to_string(bytes);
}

}  // namespace ulsocks::bench

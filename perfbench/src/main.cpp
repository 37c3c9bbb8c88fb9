// perfbench: one benchmark run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 builds and runs the workload repeatedly, untraced, until S
// seconds of runs have passed, after first timing a few set-ups alone.
// --trace 1 does untraced runs for S/2 seconds, then one traced run (span
// tracer on, socket-call decorator on the server side, checker sweeps
// timed between run_until slices), the engine churn floor, and for the
// sharded workload the same traffic on one shard.
//
// Prints one JSON line of raw samples, simulated outputs and exact counts;
// run.py turns it into the benchmark result and checks it against the
// recorded reference outputs.  Exits 2 on bad arguments.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Counts that repeat exactly for a fixed workload and seed.
using ExactCounts = std::map<std::string, std::uint64_t>;
using Snapshot = std::map<std::string, std::int64_t>;

constexpr int kSetupBlocks = 5;
constexpr int kSetupsPerBlock = 40;
constexpr sim::Duration kSliceNs = 1'000'000;  // 1 ms of simulated time

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for flag");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  const auto& names = workload_names();
  if (!have_workload ||
      std::find(names.begin(), names.end(), a.workload) == names.end()) {
    throw std::invalid_argument("--workload must name a known workload");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile of unsorted samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

std::uint64_t sum_suffix(const Snapshot& m, std::string_view suffix) {
  std::uint64_t n = 0;
  for (const auto& [k, v] : m) {
    if (k.size() >= suffix.size() &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0) {
      n += static_cast<std::uint64_t>(v);
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Host speed
//
// On a shared virtual machine the cores can change speed by up to 2x
// within seconds (measured on a 4-vCPU Xeon VM: CPU time moved with wall
// time and steal time stayed near zero, so it is not preemption).  Timed
// runs therefore alternate
// measured segments (at most kSegmentS of host time) with a short
// calibration pass that shares no code with the simulator, and scale each
// segment's host time by kReferenceCalibS / (mean of the passes either side
// of it): the time the segment would have taken on a machine whose pass
// takes kReferenceCalibS.  Raw times are reported next to the scaled ones.

constexpr double kSegmentS = 0.5;
constexpr double kReferenceCalibS = 0.09;

/// One calibration pass over a fixed synthetic mix (binary-heap churn,
/// ordered-map lookups, small allocations).  Returns its host seconds.
double calibration_pass_s() {
  constexpr int kIters = 400'000;
  std::vector<std::uint64_t> heap;
  std::map<std::uint64_t, std::uint64_t> index;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 4096; ++i) {
    x = sim::Engine::mix64(x);
    heap.push_back(x);
    index.emplace(x & 0xffffff, x);
  }
  std::make_heap(heap.begin(), heap.end());
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) {
    x = sim::Engine::mix64(x);
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = x;
    std::push_heap(heap.begin(), heap.end());
    const auto it = index.lower_bound(x & 0xffffff);
    if (it != index.end()) sink += it->second;
    auto block = std::make_unique<std::uint64_t[]>(8 + (x & 7));
    block[0] = sink;
    sink += block[0] & 1;
  }
  const double s = seconds_since(t0);
  volatile std::uint64_t keep = sink;  // the loop's result stays live
  (void)keep;
  return s;
}

/// A calibration pass on each of `threads` threads at once, as many as the
/// workload runs on: a sharded run is as slow as its slowest core, so the
/// slowest pass sets the speed.
double calibration_s(unsigned threads) {
  if (threads <= 1) return calibration_pass_s();
  std::vector<double> passes(threads, 0.0);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&passes, t] { passes[t] = calibration_pass_s(); });
  }
  for (std::thread& th : pool) th.join();
  return *std::max_element(passes.begin(), passes.end());
}

/// Chain of calibration passes: each call ends one measured segment and
/// returns the factor that scales its host time to the reference speed.
class SpeedMeter {
 public:
  explicit SpeedMeter(unsigned threads)
      : threads_(threads), last_(calibration_s(threads)) {
    passes_.push_back(last_);
  }
  double next_factor() {
    const double now = calibration_s(threads_);
    const double factor = kReferenceCalibS / ((last_ + now) / 2);
    last_ = now;
    passes_.push_back(now);
    return factor;
  }
  [[nodiscard]] const std::vector<double>& passes() const { return passes_; }

 private:
  unsigned threads_;
  double last_;
  std::vector<double> passes_;
};

/// Host time of one run, summed over its segments, raw and scaled.
struct HostTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double scaled_wall_s = 0.0;
  double scaled_cpu_s = 0.0;
};

/// Times consecutive segments; calibration passes between them are
/// excluded from every total.
class SegmentClock {
 public:
  explicit SegmentClock(SpeedMeter* meter) : meter_(meter) { start(); }
  [[nodiscard]] bool due() const { return seconds_since(t0_) >= kSegmentS; }
  void close() {
    const double wall = seconds_since(t0_);
    const double cpu = cpu_seconds() - c0_;
    const double f = meter_ != nullptr ? meter_->next_factor() : 1.0;
    t_.wall_s += wall;
    t_.cpu_s += cpu;
    t_.scaled_wall_s += wall * f;
    t_.scaled_cpu_s += cpu * f;
    start();
  }
  [[nodiscard]] const HostTime& total() const { return t_; }

 private:
  void start() {
    t0_ = Clock::now();
    c0_ = cpu_seconds();
  }
  SpeedMeter* meter_;
  Clock::time_point t0_;
  double c0_ = 0.0;
  HostTime t_;
};

// ---------------------------------------------------------------------------
// One run

struct Rep {
  HostTime host;
  RunOutputs out;
  ExactCounts exact;
};

ExactCounts exact_counts(Workload& w, const RunOutputs& out) {
  const Snapshot m = w.metrics();
  ExactCounts e;
  e["digest"] = w.digest();
  e["causal_digest"] = w.causal_digest();
  e["events"] = w.events();
  e["ops_ok"] = out.ops_ok;
  e["bytes"] = out.bytes;
  e["refused_retries"] = out.refused_retries;
  // Percentiles in simulated ns: exact for a fixed seed.
  e["resp_ns_p50"] = static_cast<std::uint64_t>(
      std::llround(percentile(out.resp_us, 0.50) * 1e3));
  e["resp_ns_p99"] = static_cast<std::uint64_t>(
      std::llround(percentile(out.resp_us, 0.99) * 1e3));
  e["switch_frames"] =
      sum_suffix(m, "/frames_forwarded") + sum_suffix(m, "/frames_flooded");
  e["switch_drops"] = sum_suffix(m, "net/switch/frames_dropped");
  e["frame_pool_hwm"] = sum_suffix(m, "/frame_pool_hwm");
  e["slice_pool_hwm"] = sum_suffix(m, "/slice_pool_hwm");
  e["bytes_copied"] = sum_suffix(m, "host/bytes_copied");
  e["nic_frames_tx"] = sum_suffix(m, "/nic/frames_tx");
  for (const char* name :
       {"data_frames_tx", "data_frames_rx", "acks_tx", "retransmitted_frames",
        "duplicate_frames", "stale_frames", "descriptors_walked", "pin_hits",
        "pin_misses", "unexpected_claims"}) {
    e[std::string("emp_") + name] = sum_suffix(m, std::string("/emp/") + name);
  }
  e["credit_stall_ns"] = sum_suffix(m, "/sockets/credit_stall_ns/sum");
  e["ring_batch_p50"] = sum_suffix(m, "ring/batch_size/p50");
  e["ring_reap_wait_ns_p50"] = sum_suffix(m, "ring/reap_wait_ns/p50");
  // The engine sweeps its checkers every check_interval() events.
  std::uint64_t sweeps = 0;
  std::uint64_t hi = 0;
  std::uint64_t lo = ~std::uint64_t{0};
  for (sim::Engine* eng : w.engines()) {
    if (eng->check_interval() != 0) {
      sweeps += eng->events_executed() / eng->check_interval();
    }
    hi = std::max(hi, eng->events_executed());
    lo = std::min(lo, eng->events_executed());
  }
  e["check_sweeps"] = sweeps;
  e["max_shard_events"] = hi;
  e["min_shard_events"] = lo;
  if (sim::ShardGroup* g = w.group()) {
    e["epochs"] = g->epochs();
    e["remote_events"] = g->remote_delivered();
  }
  return e;
}

/// Build and run the workload once.  `tracing` (if set) wraps its sockets
/// and records spans; `sampler` (if set) runs it in run_until slices and
/// samples checker sweeps and the ring gauge between them; `meter` (if
/// set) splits a single-engine run into calibrated segments.
Rep run_once(const Args& a, std::size_t shards, LayerProbe* tracing,
             LayerProbe* sampler, SpeedMeter* meter) {
  Rep rep;
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed, shards,
                                              tracing);
  if (tracing != nullptr) {
    for (sim::Engine* eng : w->engines()) eng->tracer().set_enabled(true);
  }
  std::string error;
  SegmentClock clock(meter);
  try {
    if (sampler != nullptr) {
      w->run_sliced(kSliceNs, [&](sim::Engine& eng) {
        if (tracing != nullptr) tracing->drain(eng.tracer(), w->hosts());
        sampler->sample_checks(eng.checks());
        const Snapshot g = eng.metrics().snapshot("ring/sqe_inflight");
        if (!g.empty()) sampler->sample_sqe_inflight(g.begin()->second);
      });
    } else if (meter != nullptr && w->group() == nullptr) {
      w->run_sliced(kSliceNs, [&](sim::Engine&) {
        if (clock.due()) clock.close();
      });
    } else {
      w->run(static_cast<unsigned>(std::max<std::size_t>(shards, 1)));
    }
  } catch (const std::exception& e) {
    error = std::string("run aborted: ") + e.what();
  }
  clock.close();
  rep.host = clock.total();
  if (tracing != nullptr && sampler == nullptr) {
    for (sim::Engine* eng : w->engines()) tracing->drain(eng->tracer(), w->hosts());
  }
  rep.out = w->outputs();
  if (!error.empty()) rep.out.errors.insert(rep.out.errors.begin(), error);
  rep.exact = exact_counts(*w, rep.out);
  return rep;
}

/// Exact-count guard: `rep` must repeat `ref` bit for bit.  `keys` limits
/// the comparison (empty = every key of `ref`).
void expect_same(const ExactCounts& ref, const ExactCounts& got,
                 const std::vector<std::string>& keys, const char* what,
                 std::vector<std::string>& errors) {
  auto check = [&](const std::string& k) {
    const auto a = ref.find(k);
    const auto b = got.find(k);
    const std::uint64_t va = a == ref.end() ? 0 : a->second;
    const std::uint64_t vb = b == got.end() ? 0 : b->second;
    if (va != vb) {
      errors.push_back(std::string(what) + ": exact count " + k + " is " +
                       std::to_string(vb) + ", expected " +
                       std::to_string(va));
    }
  };
  if (keys.empty()) {
    for (const auto& [k, v] : ref) check(k);
  } else {
    for (const auto& k : keys) check(k);
  }
}

/// Engine floor: four self-rescheduling chains of empty events through
/// schedule_after()/run(), no protocol work.  Host ns per event.
double churn_ns_per_event() {
  constexpr std::uint64_t kEvents = 4'000'000;
  std::vector<double> samples;
  for (int r = 0; r < 3; ++r) {
    sim::Engine eng;
    struct Chain {
      sim::Engine* eng;
      std::uint64_t left;
      void operator()() {
        if (--left == 0) return;
        eng->schedule_after(100, Chain{*this});
      }
    };
    for (std::uint64_t lane = 0; lane < 4; ++lane) {
      eng.schedule_after(lane, Chain{&eng, kEvents / 4});
    }
    const auto t0 = Clock::now();
    eng.run();
    samples.push_back(seconds_since(t0) * 1e9 /
                      static_cast<double>(eng.events_executed()));
  }
  return median(samples);
}

// ---------------------------------------------------------------------------
// JSON output

class Json {
 public:
  Json& key(std::string_view k) {
    str(k);
    out_ += ':';
    need_comma_ = false;
    return *this;
  }
  Json& open() {
    sep();
    out_ += '{';
    need_comma_ = false;
    return *this;
  }
  Json& close() {
    out_ += '}';
    need_comma_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& str(std::string_view s) {
    sep();
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    out_ += '"';
    return *this;
  }
  template <typename T>
  Json& list(const std::vector<T>& v) {
    sep();
    out_ += '[';
    need_comma_ = false;
    for (const T& x : v) {
      if constexpr (std::is_same_v<T, std::string>) {
        str(x);
      } else {
        num(x);
      }
    }
    out_ += ']';
    need_comma_ = true;
    return *this;
  }
  template <typename Map>
  Json& object(const Map& m) {
    open();
    for (const auto& [k, v] : m) key(k).num(v);
    return close();
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  void sep() {
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }
  std::string out_;
  bool need_comma_ = false;
};

// ---------------------------------------------------------------------------
// Modes

struct Report {
  std::vector<Rep> reps;  // untraced runs at the workload's own shard count
  std::vector<double> setup_s;         // raw
  std::vector<double> scaled_setup_s;  // at the reference speed
  std::vector<double> calib_s;         // calibration passes
  // Read after the first run: later runs grow the allocator's retained
  // memory, so a process-lifetime peak would depend on how many runs fit.
  double peak_rss_mb = 0.0;
  std::map<std::string, double> layers;  // traced runs only
  std::map<std::string, std::uint64_t> traced_counts;
  std::vector<std::string> errors;
};

/// Untraced runs for about `seconds` (at least one): another run starts
/// only if it would end less than half a run past the deadline.  Stops
/// early on a failed run.  `meter` (may be null) calibrates the runs.
void timed_reps(const Args& a, double seconds, SpeedMeter* meter,
                Report& r) {
  const std::size_t shards = default_shards(a.workload);
  const auto t0 = Clock::now();
  do {
    r.reps.push_back(run_once(a, shards, nullptr, nullptr, meter));
    if (r.reps.size() == 1) r.peak_rss_mb = peak_rss_mb();
    if (!r.reps.back().out.errors.empty()) break;
  } while (seconds_since(t0) + r.reps.back().host.wall_s / 2 < seconds);
  for (std::size_t i = 1; i < r.reps.size(); ++i) {
    expect_same(r.reps[0].exact, r.reps[i].exact, {}, "repeat run",
                r.errors);
  }
}

void traced_layers(const Args& a, Report& r) {
  const std::size_t shards = default_shards(a.workload);
  const Rep& base = r.reps.front();
  std::vector<double> walls;
  std::vector<double> cpu_per_wall;
  for (const Rep& rep : r.reps) {
    walls.push_back(rep.host.wall_s);
    cpu_per_wall.push_back(ratio(rep.host.cpu_s, rep.host.wall_s));
  }
  const double wall = median(walls);

  LayerProbe probe;
  LayerProbe sampler;
  // A single-engine workload is traced and sampled in one sliced run; a
  // sharded group runs its traced run whole and is sampled on one shard.
  const Rep traced =
      run_once(a, shards, &probe, shards == 0 ? &probe : nullptr, nullptr);
  expect_same(base.exact, traced.exact, {}, "traced run", r.errors);
  for (const auto& e : traced.out.errors) r.errors.push_back("traced run: " + e);

  double speedup = 1.0;
  double sampled_wall = wall;
  std::uint64_t sampled_sweeps = base.exact.at("check_sweeps");
  const LayerProbe* sweeps_from = &probe;
  if (shards != 0) {
    const Rep one = run_once(a, 1, nullptr, nullptr, nullptr);
    const Rep sliced = run_once(a, 1, nullptr, &sampler, nullptr);
    // Partitioning must not change what happens, only where it runs.
    expect_same(base.exact, one.exact,
                {"causal_digest", "events", "ops_ok", "bytes", "resp_ns_p50",
                 "resp_ns_p99", "switch_frames", "emp_data_frames_tx"},
                "one-shard run", r.errors);
    // Slicing drives the shard's engine directly, so the group counts no
    // epochs; everything the simulation did must still repeat.
    std::vector<std::string> sliced_keys;
    for (const auto& [k, v] : one.exact) {
      if (k != "epochs") sliced_keys.push_back(k);
    }
    expect_same(one.exact, sliced.exact, sliced_keys, "sliced one-shard run",
                r.errors);
    speedup = ratio(one.host.wall_s, wall);
    sampled_wall = one.host.wall_s;
    sampled_sweeps = one.exact.at("check_sweeps");
    sweeps_from = &sampler;
  }

  const ExactCounts& x = base.exact;
  auto c = [&](const char* k) {
    const auto it = x.find(k);
    return it == x.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double ops = static_cast<double>(base.out.ops_attempted);
  const double events = c("events");
  auto& L = r.layers;
  L["sim.events_per_op"] = events / ops;
  L["sim.host_ns_per_event"] = wall * 1e9 / events;
  L["sim.churn_ns_per_event"] = churn_ns_per_event();

  L["shard.epochs_per_op"] = c("epochs") / ops;
  L["shard.events_per_epoch"] = ratio(events, c("epochs"));
  L["shard.remote_events_per_op"] = c("remote_events") / ops;
  L["shard.ceiling"] = ratio(events, c("max_shard_events"));
  L["shard.imbalance"] = ratio(c("max_shard_events"), c("min_shard_events"));
  L["shard.speedup"] = speedup;
  L["shard.cpu_per_wall"] = median(cpu_per_wall);

  L["net.frames_per_op"] = c("switch_frames") / ops;
  L["net.switch_drops"] = c("switch_drops");
  L["net.frame_pool_hwm"] = c("frame_pool_hwm");
  L["net.slice_pool_hwm"] = c("slice_pool_hwm");
  L["net.bytes_copied_per_op"] = c("bytes_copied") / ops;

  L["nic.frames_per_op"] = c("nic_frames_tx") / ops;
  L["nic.dma_sim_us_per_op"] = static_cast<double>(probe.dma_ns()) / 1e3 / ops;
  L["nic.mac_sim_us_per_op"] = static_cast<double>(probe.mac_ns()) / 1e3 / ops;

  L["emp.data_frames_per_op"] = c("emp_data_frames_tx") / ops;
  L["emp.acks_per_data_frame"] = ratio(c("emp_acks_tx"), c("emp_data_frames_tx"));
  L["emp.retransmit_frac"] =
      ratio(c("emp_retransmitted_frames"), c("emp_data_frames_tx"));
  L["emp.duplicate_frac"] =
      ratio(c("emp_duplicate_frames"), c("emp_data_frames_rx"));
  L["emp.stale_frames"] = c("emp_stale_frames");
  L["emp.tag_walk_per_rx_frame"] =
      ratio(c("emp_descriptors_walked"), c("emp_data_frames_rx"));
  L["emp.pin_hit_frac"] =
      ratio(c("emp_pin_hits"), c("emp_pin_hits") + c("emp_pin_misses"));
  L["emp.unexpected_claims_per_op"] = c("emp_unexpected_claims") / ops;
  L["emp.post_sim_us_per_op"] =
      static_cast<double>(probe.emp_post_ns()) / 1e3 / ops;

  const SocketCalls calls = probe.calls();
  L["sockets.sim_us_per_op"] =
      static_cast<double>(probe.sockets_self_ns()) / 1e3 / ops;
  L["sockets.credit_stall_us_per_op"] = c("credit_stall_ns") / 1e3 / ops;
  const std::pair<const char*, std::uint64_t> per_call[] = {
      {"accept", calls.accept},   {"accept_many", calls.accept_many},
      {"read", calls.read},       {"read_view", calls.read_view},
      {"write", calls.write},     {"close", calls.close},
      {"probe", calls.probes}};
  for (const auto& [name, n] : per_call) {
    r.traced_counts[std::string("calls.") + name] = n;
    if (std::strcmp(name, "probe") != 0) {
      L[std::string("sockets.calls_per_op.") + name] =
          static_cast<double>(n) / ops;
    }
  }
  L["sockets.probe_calls_per_op"] = static_cast<double>(calls.probes) / ops;
  L["sockets.probe_host_ns_per_op"] = static_cast<double>(calls.probe_ns) / ops;
  L["ring.batch_p50"] = c("ring_batch_p50");
  L["ring.reap_wait_us_p50"] = c("ring_reap_wait_ns_p50") / 1e3;
  L["ring.sqe_inflight"] =
      static_cast<double>(std::max(probe.sqe_inflight_max(),
                                   sampler.sqe_inflight_max()));

  L["check.sweeps_per_op"] = c("check_sweeps") / ops;
  L["check.sweep_host_us"] = sweeps_from->sweep_us_median();
  L["check.host_share"] = static_cast<double>(sampled_sweeps) *
                          sweeps_from->sweep_us_median() * 1e-6 /
                          sampled_wall;
  L["apps.refused_retries"] = c("refused_retries");
  L["trace.overhead"] = ratio(traced.host.wall_s, wall);
  r.traced_counts["spans"] = probe.spans();
  r.traced_counts["sweep_samples"] = sweeps_from->sweep_samples();
}

std::string render(const Args& a, const Report& r) {
  const Rep& first = r.reps.front();
  std::vector<double> wall, cpu, scaled_wall, scaled_cpu, ok;
  for (const Rep& rep : r.reps) {
    wall.push_back(rep.host.wall_s);
    cpu.push_back(rep.host.cpu_s);
    scaled_wall.push_back(rep.host.scaled_wall_s);
    scaled_cpu.push_back(rep.host.scaled_cpu_s);
    ok.push_back(static_cast<double>(rep.out.ops_ok));
  }
  std::vector<std::string> errors = r.errors;
  for (const Rep& rep : r.reps) {
    for (const auto& e : rep.out.errors) errors.push_back(e);
  }
  Json j;
  j.open();
  j.key("workload").str(a.workload);
  j.key("seed").num(a.seed);
  j.key("trace").num(std::uint64_t{a.trace ? 1u : 0u});
  j.key("fingerprint").open();
  j.key("cpu_model").str(cpu_model());
  j.key("nproc").num(std::uint64_t{std::thread::hardware_concurrency()});
  j.key("compiler").str(compiler());
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.key("shards").num(std::uint64_t{default_shards(a.workload)});
  j.close();
  j.key("reference_calib_s").num(kReferenceCalibS);
  j.key("calib_s").list(r.calib_s);
  j.key("setup_s").list(r.setup_s);
  j.key("scaled_setup_s").list(r.scaled_setup_s);
  j.key("wall_s").list(wall);
  j.key("cpu_s").list(cpu);
  j.key("scaled_wall_s").list(scaled_wall);
  j.key("scaled_cpu_s").list(scaled_cpu);
  j.key("ops_ok").list(ok);
  j.key("ops_attempted").num(first.out.ops_attempted);
  j.key("peak_rss_mb").num(r.peak_rss_mb);
  j.key("outputs").open();
  j.key("sim_goodput_mbps").num(first.out.sim_goodput_mbps);
  j.key("sim_resp_us_p50").num(percentile(first.out.resp_us, 0.50));
  j.key("sim_resp_us_p99").num(percentile(first.out.resp_us, 0.99));
  j.key("resp_samples").num(std::uint64_t{first.out.resp_us.size()});
  j.close();
  j.key("exact").object(first.exact);
  if (a.trace) {
    j.key("traced_counts").object(r.traced_counts);
    j.key("layers").object(r.layers);
  }
  j.key("errors").list(errors);
  j.close();
  return j.text();
}

int run_main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n",
                 e.what());
    return 2;
  }
  Report r;
  if (!a.trace) {
    // Set-up alone, in calibrated blocks after one untimed warm-up: these
    // are the setup_s samples.  Set-up runs on one thread, so it is
    // calibrated on one thread whatever the workload runs on.
    (void)make_workload(a.workload, a.seed, default_shards(a.workload),
                        nullptr);
    SpeedMeter setup_meter(1);
    for (int b = 0; b < kSetupBlocks; ++b) {
      std::vector<double> block;
      for (int i = 0; i < kSetupsPerBlock; ++i) {
        const auto t0 = Clock::now();
        auto w = make_workload(a.workload, a.seed,
                               default_shards(a.workload), nullptr);
        block.push_back(seconds_since(t0));
      }
      const double f = setup_meter.next_factor();
      for (double v : block) {
        r.setup_s.push_back(v);
        r.scaled_setup_s.push_back(v * f);
      }
    }
    SpeedMeter meter(static_cast<unsigned>(
        std::max<std::size_t>(default_shards(a.workload), 1)));
    timed_reps(a, a.seconds, &meter, r);
    r.calib_s = meter.passes();
  } else {
    timed_reps(a, a.seconds / 2, nullptr, r);
    traced_layers(a, r);
  }
  std::printf("%s\n", render(a, r).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }

// Tests for the bench harness (bench/harness.hpp): run_points() returns
// each job's own RunReport in job order at any pool size, a throwing job
// rethrows only after the others finish, bench flags reject malformed
// counts and unknown options, and a bench JSON's host_perf block sums the
// reports of its recorded points.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace ulsocks::bench {
namespace {

/// The C10K stack hostperf uses: a small credit window and staging
/// buffers keep a thousand live connections' descriptor memory bounded.
StackChoice c10k_stack() {
  sockets::SubstrateConfig cfg = sockets::preset("ds_da_uq").cfg;
  cfg.credits = 4;
  cfg.buffer_bytes = 2048;
  return StackChoice::substrate(cfg, "c10k credits=4");
}

/// Eight unlike jobs: substrate latency, TCP latency, raw-EMP bandwidth, an
/// 8-connection-per-host ring C10K run, and ftp transfers of 1, 2, 4 and
/// 8 MB over datagram sockets.  The ftp control lines are sent from
/// transient heap buffers, whose addresses differ between the main thread
/// and a pool thread, so a simulated dependence on host addresses shows
/// up as a difference between pool sizes.
std::vector<std::function<RunReport()>> mixed_jobs() {
  std::vector<std::function<RunReport()>> jobs = {
      [] {
        return measure_latency_us(
            StackChoice::substrate(sockets::preset("ds_da_uq")), 64, 3);
      },
      [] { return measure_latency_us(StackChoice::tcp(), 64, 3); },
      [] {
        return measure_bandwidth_mbps(StackChoice::raw_emp(), 16384,
                                      256 * 1024);
      },
      [] {
        return measure_scale_c10k_reqps(c10k_stack(), /*ring=*/true, 8);
      },
  };
  for (std::size_t mb : {1ul, 2ul, 4ul, 8ul}) {
    jobs.push_back([mb] {
      return measure_ftp_mbps(StackChoice::substrate(sockets::preset("dg")),
                              mb << 20);
    });
  }
  return jobs;
}

constexpr std::size_t kC10kJob = 3;

TEST(RunPoints, ReportsAreIdenticalAcrossPoolSizesAndInJobOrder) {
  const std::vector<RunReport> serial = run_points(mixed_jobs(), 1);
  ASSERT_EQ(serial.size(), 8u);
  for (unsigned threads : {2u, 3u}) {
    const std::vector<RunReport> pooled = run_points(mixed_jobs(), threads);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].metrics, pooled[i].metrics)
          << "job " << i << ", " << threads << " threads";
      EXPECT_GT(pooled[i].perf.events, 0u) << "job " << i;
      EXPECT_EQ(serial[i].perf.events, pooled[i].perf.events)
          << "job " << i << ", " << threads << " threads";
      // Simulated values are bit-identical; the C10K value is requests
      // per wall-clock second, so only its sign is fixed.
      EXPECT_GT(pooled[i].value, 0.0) << "job " << i;
      if (i != kC10kJob) {
        EXPECT_EQ(serial[i].value, pooled[i].value)
            << "job " << i << ", " << threads << " threads";
      }
    }
  }

  // Each report carries its own run's snapshot.  Every Cluster registers
  // all three stacks on every host, so the paths match across jobs; the
  // values tell the runs apart.
  const auto& sub = serial[0].metrics;
  const auto& tcp = serial[1].metrics;
  const auto& emp = serial[2].metrics;
  EXPECT_GT(sub.at("h0/sockets/eager_messages_tx"), 0);
  EXPECT_EQ(sub.at("h0/tcp/segments_tx"), 0);
  EXPECT_GT(tcp.at("h0/tcp/segments_tx"), 0);
  EXPECT_EQ(tcp.at("h0/emp/data_frames_tx"), 0);
  EXPECT_GT(emp.at("h0/emp/data_frames_tx"), 0);
  for (const auto& [path, v] : emp) {
    if (path.rfind("h0/sockets/", 0) == 0) {
      EXPECT_EQ(v, 0) << path << " moved in the raw-EMP job";
    }
  }
  EXPECT_GT(serial[kC10kJob].metrics.at("ring/batch_size/count"), 0);
  EXPECT_GT(serial[4].metrics.at("h0/emp/pin_hits"), 0);
}

TEST(RunPoints, ThrowingJobRethrowsAfterTheOthersFinish) {
  for (unsigned threads : {1u, 3u}) {
    std::atomic<int> finished{0};
    std::vector<std::function<RunReport()>> jobs;
    jobs.push_back([]() -> RunReport { throw std::runtime_error("job 0"); });
    for (int i = 0; i < 3; ++i) {
      jobs.push_back([&finished] {
        RunReport run = measure_latency_us(StackChoice::raw_emp(), 4, 2);
        ++finished;
        return run;
      });
    }
    EXPECT_THROW((void)run_points(std::move(jobs), threads),
                 std::runtime_error)
        << threads << " threads";
    EXPECT_EQ(finished.load(), 3) << threads << " threads";
  }
}

/// parse_bench_args over {"bench", flag, value}.
void parse(const char* flag, const char* value) {
  std::string a0 = "bench", a1 = flag, a2 = value;
  char* argv[] = {a0.data(), a1.data(), a2.data(), nullptr};
  (void)parse_bench_args(3, argv);
}

TEST(BenchArgsDeathTest, MalformedCountsExitWithStatus2) {
  EXPECT_EXIT(parse("--iters", "abc"), ::testing::ExitedWithCode(2),
              "--iters needs a non-negative integer");
  EXPECT_EXIT(parse("--threads", "-1"), ::testing::ExitedWithCode(2),
              "--threads needs a non-negative integer");
  EXPECT_EXIT(parse("--iters", ""), ::testing::ExitedWithCode(2),
              "--iters needs a non-negative integer");
}

TEST(BenchArgsDeathTest, UnknownOptionsExitWithStatus2) {
  // Shard counts went away with the sharded scenarios.
  EXPECT_EXIT(parse("--shards", "2"), ::testing::ExitedWithCode(2),
              "unknown option --shards");
}

TEST(BenchArgs, WellFormedCountsParse) {
  std::string a[] = {"bench", "--iters", "3", "--threads", "0"};
  char* argv[] = {a[0].data(), a[1].data(), a[2].data(), a[3].data(),
                  a[4].data(), nullptr};
  const BenchOptions opt = parse_bench_args(5, argv);
  EXPECT_EQ(opt.iters, 3);
  EXPECT_EQ(opt.threads, 0u);
}

TEST(BenchResults, HostPerfSumsTheRecordedPoints) {
  RunReport a;
  a.value = 1;
  a.perf.events = 1000;
  a.perf.wall_ms = 2;
  a.metrics["host/bytes_copied"] = 0;
  RunReport b = a;
  b.perf.events = 500;
  b.perf.wall_ms = 3;
  BenchResults results("harness_test_host_perf", "host_perf from points");
  results.add("s", "sim", "cfg", "a", a, "evps");
  results.add("s", "sim", "cfg", "b", b, "evps");
  // A run that is not recorded does not count.
  (void)measure_latency_us(StackChoice::raw_emp(), 4, 2);
  const std::string path = results.write(::testing::TempDir());
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  const std::string json{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  EXPECT_NE(json.find("\"host_perf\": {\"events\": 1500, \"wall_ms\": 5, "
                      "\"events_per_sec\": 300000,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"events\": 1000,\n"), std::string::npos) << json;
  EXPECT_NE(json.find("\"events\": 500,\n"), std::string::npos) << json;
}

}  // namespace
}  // namespace ulsocks::bench

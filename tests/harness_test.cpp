// Tests for the bench harness (bench/harness.hpp): run_points() returns
// each job's own RunReport in job order at any pool size, a throwing job
// rethrows only after the others finish, bench flags reject malformed
// counts, and a bench of C10K points records its epoch window.
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

/// Four unlike jobs: substrate latency, TCP latency, raw-EMP bandwidth and
/// a 2-shard, 8-connection-per-host ring C10K run.
std::vector<std::function<RunReport()>> mixed_jobs() {
  return {
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
        return measure_scale_c10k_reqps(c10k_stack(), /*ring=*/true, 8,
                                        /*shards=*/2);
      },
  };
}

TEST(RunPoints, ReportsAreIdenticalAcrossPoolSizesAndInJobOrder) {
  const std::vector<RunReport> serial = run_points(mixed_jobs(), 1);
  const std::vector<RunReport> pooled = run_points(mixed_jobs(), 3);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(pooled.size(), 4u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].metrics, pooled[i].metrics) << "job " << i;
    EXPECT_GT(serial[i].perf.events, 0u) << "job " << i;
    EXPECT_EQ(serial[i].perf.events, pooled[i].perf.events) << "job " << i;
  }
  // The three simulated values are bit-identical; the C10K value is
  // requests per wall-clock second, so only its sign is fixed.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(serial[i].value, 0.0) << "job " << i;
    EXPECT_EQ(serial[i].value, pooled[i].value) << "job " << i;
  }
  EXPECT_GT(pooled[3].value, 0.0);

  // Each report carries its own run's snapshot.  Every Cluster registers
  // all three stacks on every host, so the paths match across jobs; the
  // values tell the runs apart.
  for (const std::vector<RunReport>* reports : {&serial, &pooled}) {
    const auto& sub = (*reports)[0].metrics;
    const auto& tcp = (*reports)[1].metrics;
    const auto& emp = (*reports)[2].metrics;
    const auto& c10k = (*reports)[3].metrics;
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
    // Merged across both shards, with the group's scheduler instruments.
    EXPECT_GT(c10k.at("shard/epochs"), 0);
    EXPECT_GT(c10k.at("ring/batch_size/count"), 0);
  }
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
  EXPECT_EXIT(parse("--shards", "2x"), ::testing::ExitedWithCode(2),
              "--shards needs a non-negative integer");
  EXPECT_EXIT(parse("--iters", ""), ::testing::ExitedWithCode(2),
              "--iters needs a non-negative integer");
}

TEST(BenchArgs, WellFormedCountsParse) {
  std::string a[] = {"bench", "--iters", "3", "--threads", "0", "--shards",
                     "2"};
  char* argv[] = {a[0].data(), a[1].data(), a[2].data(), a[3].data(),
                  a[4].data(), a[5].data(), a[6].data(), nullptr};
  const BenchOptions opt = parse_bench_args(7, argv);
  EXPECT_EQ(opt.iters, 3);
  EXPECT_EQ(opt.threads, 0u);
  EXPECT_EQ(opt.shards, 2u);
}

TEST(BenchResults, C10kOnlyBenchRecordsItsEpochWindow) {
  // No test in this binary runs a sharded web workload, so a non-zero
  // epoch window can only come from the C10K run below.
  BenchResults results("harness_test_c10k", "C10K-only bench");
  results.add("scale_c10k", c10k_stack(), "ring",
              measure_scale_c10k_reqps(c10k_stack(), /*ring=*/true, 8,
                                       /*shards=*/2),
              "reqps");
  const std::string path = results.write(::testing::TempDir());
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  const std::string json{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  const std::string key = "\"epoch_ns\": ";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_GT(std::stoll(json.substr(at + key.size())), 0) << json;
}

}  // namespace
}  // namespace ulsocks::bench

// The benchmark's three workloads, built on the simulator's public API
// (apps::Cluster, sim::ShardGroup, sim::Engine, os::SocketApi).
//
//   stream_64k     two hosts, one ds_da_uq connection, 64 KiB writes
//                  drained with read_view: the per-frame data path.
//   c10k_ring      3 x 334 concurrent connections against one
//                  apps::web_server_ring: readiness probes, tag walks,
//                  checker sweeps over large state.
//   web16_sharded  one blocking apps::web_server and 15 HTTP/1.1 clients
//                  on a 4-shard ShardGroup: epochs, barriers, mailboxes.
//
// The seed generates the only seed-dependent inputs (client start offsets,
// stream payload bytes); the engines themselves always run with seed 1.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/cluster.hpp"
#include "layers.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"

namespace perfbench {

namespace apps = ulsocks::apps;

/// Simulated results of one run.  For a fixed workload and seed every
/// field repeats exactly.
struct RunOutputs {
  std::uint64_t ops_attempted = 0;
  /// Operations that completed with the right size and contents.
  std::uint64_t ops_ok = 0;
  /// Application payload bytes delivered.
  std::uint64_t bytes = 0;
  double sim_goodput_mbps = 0.0;
  /// Simulated completion latency of every successful operation, in
  /// microseconds, in completion order.
  std::vector<double> resp_us;
  std::uint64_t refused_retries = 0;
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Run to completion.  `threads` matters only for sharded workloads.
  void run(unsigned threads);

  /// Run a single-engine workload in steps of `slice` simulated ns,
  /// calling `between` after each step.  Slicing executes the same events
  /// in the same order as run().
  void run_sliced(sim::Duration slice,
                  const std::function<void(sim::Engine&)>& between);

  [[nodiscard]] std::vector<sim::Engine*> engines();
  /// The shard group, or null for plain single-engine workloads.
  [[nodiscard]] sim::ShardGroup* group() { return group_.get(); }
  [[nodiscard]] std::size_t hosts() { return cluster_->size(); }

  [[nodiscard]] std::uint64_t digest() const;
  [[nodiscard]] std::uint64_t causal_digest() const;
  [[nodiscard]] std::uint64_t events() const;
  /// Registry snapshots of every engine, summed path by path.
  [[nodiscard]] std::map<std::string, std::int64_t> metrics() const;

  [[nodiscard]] virtual RunOutputs outputs() const = 0;

 protected:
  /// `shards == 0` builds a plain Engine; otherwise a ShardGroup.
  Workload(std::size_t hosts, const ulsocks::sockets::SubstrateConfig& cfg,
           std::size_t shards);

  [[nodiscard]] apps::Cluster& cluster() { return *cluster_; }

 private:
  std::unique_ptr<sim::Engine> eng_;
  std::unique_ptr<sim::ShardGroup> group_;
  std::optional<apps::Cluster> cluster_;
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Shard count a workload runs at (0 = plain engine).
[[nodiscard]] std::size_t default_shards(std::string_view name);

/// Build `name` with every coroutine spawned, ready to run.  When `probe`
/// is non-null the workload's socket endpoints run through its counting
/// decorators.  Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed,
                                                      std::size_t shards,
                                                      LayerProbe* probe);

}  // namespace perfbench

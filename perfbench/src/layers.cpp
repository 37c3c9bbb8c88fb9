#include "layers.hpp"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

namespace {

enum class Layer : std::uint8_t { kSockets, kEmp, kNic };

}  // namespace

SocketCalls LayerProbe::calls() const {
  SocketCalls sum;
  for (const CountingApi& api : apis_) {
    const SocketCalls& c = api.calls();
    sum.accept += c.accept;
    sum.accept_many += c.accept_many;
    sum.read += c.read;
    sum.read_view += c.read_view;
    sum.write += c.write;
    sum.close += c.close;
    sum.probes += c.probes;
    sum.probe_ns += c.probe_ns;
  }
  return sum;
}

void LayerProbe::drain(ulsocks::obs::Tracer& tracer, std::size_t hosts) {
  // Components register their tracks at construction, so asking for a
  // (host, component) pair returns the id its events carry.
  struct Where {
    std::size_t host;
    Layer layer;
  };
  std::unordered_map<std::uint32_t, Where> where;
  for (std::size_t h = 0; h < hosts; ++h) {
    std::string label = "h";
    label += std::to_string(h);
    where[tracer.track(label, "sockets")] = {h, Layer::kSockets};
    where[tracer.track(label, "emp")] = {h, Layer::kEmp};
    where[tracer.track(label, "nic")] = {h, Layer::kNic};
  }
  for (const auto& ev : tracer.events()) {
    ++spans_;
    if (ev.phase != ulsocks::obs::TraceEvent::Phase::kComplete) continue;
    auto it = where.find(ev.track);
    if (it == where.end()) continue;
    const Where w = it->second;
    switch (w.layer) {
      case Layer::kSockets:
        hosts_[w.host].sockets.push_back({ev.ts, ev.dur});
        break;
      case Layer::kEmp:
        emp_post_ns_ += ev.dur;
        hosts_[w.host].emp.push_back({ev.ts, ev.dur});
        break;
      case Layer::kNic:
        if (ev.name == "dma") {
          dma_ns_ += ev.dur;
        } else if (ev.name == "mac_tx") {
          mac_ns_ += ev.dur;
        }
        break;
    }
  }
  tracer.clear();
}

void LayerProbe::sample_checks(const ulsocks::check::Registry& checks) {
  const auto t0 = std::chrono::steady_clock::now();
  checks.run_all();
  sweep_ns_.push_back(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

std::uint64_t LayerProbe::sockets_self_ns() const {
  std::uint64_t self = 0;
  for (const auto& [host, spans] : hosts_) {
    // Merge the host's EMP post intervals into a disjoint, sorted cover
    // with prefix lengths, so each substrate span subtracts the EMP time
    // inside it with two binary searches.
    std::vector<Interval> emp = spans.emp;
    std::sort(emp.begin(), emp.end(), [](const Interval& a, const Interval& b) {
      return a.start < b.start;
    });
    std::vector<sim::Time> lo;
    std::vector<sim::Time> hi;
    for (const Interval& iv : emp) {
      const sim::Time end = iv.start + iv.dur;
      if (!hi.empty() && iv.start <= hi.back()) {
        hi.back() = std::max(hi.back(), end);
      } else {
        lo.push_back(iv.start);
        hi.push_back(end);
      }
    }
    std::vector<sim::Duration> before(lo.size() + 1, 0);  // covered length
    for (std::size_t i = 0; i < lo.size(); ++i) {
      before[i + 1] = before[i] + (hi[i] - lo[i]);
    }
    // Covered length of [0, t).
    auto covered = [&](sim::Time t) -> sim::Duration {
      const auto k = static_cast<std::size_t>(
          std::upper_bound(lo.begin(), lo.end(), t) - lo.begin());
      if (k == 0) return 0;
      return before[k - 1] + (std::min(t, hi[k - 1]) - lo[k - 1]);
    };
    for (const Interval& s : spans.sockets) {
      const sim::Duration inside = covered(s.start + s.dur) - covered(s.start);
      self += s.dur - std::min(inside, s.dur);
    }
  }
  return self;
}

double LayerProbe::sweep_us_median() const {
  if (sweep_ns_.empty()) return 0.0;
  std::vector<std::uint64_t> v = sweep_ns_;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                   v.end());
  return static_cast<double>(v[v.size() / 2]) / 1e3;
}

}  // namespace perfbench

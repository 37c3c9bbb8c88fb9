// Discrete-event simulation engine.
//
// The engine owns a single time-ordered event queue.  Events at equal
// timestamps fire in the order they were scheduled (a monotonically
// increasing sequence number breaks ties), which makes every run
// bit-deterministic for a fixed seed.
//
// Coroutine integration: `spawn()` adopts a detached `Task<void>` (a
// simulated process) and starts it through the queue; `delay()`, and the
// primitives in sync.hpp, suspend coroutines and resume them via scheduled
// events, never inline, so causality always follows queue order.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "check/invariant.hpp"
#include "check/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/inline_function.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace ulsocks::sim {

/// Thrown by Engine::run() when a spawned process terminated with an
/// uncaught exception.  Carries the original message.
class ProcessError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1) : rng_(seed) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Total events executed so far (for perf accounting).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

  /// Schedule `fn` to run at absolute time `t` (>= now()).  Scheduling in
  /// the past would break causality (and, silently, determinism), so the
  /// check is an always-on invariant rather than a compiled-out assert.
  ///
  /// `fn` is an EventFn (sim/inline_function.hpp): move-only, and captures
  /// up to its inline capacity cost no heap allocation.
  void schedule_at(Time t, EventFn fn) {
    ULSOCKS_INVARIANT(
        t >= now_,
        check::msgf("schedule_at in the past: t=%llu < now=%llu",
                    static_cast<unsigned long long>(t),
                    static_cast<unsigned long long>(now_)));
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = slot_count_++;
      if ((slot & (kSlotPageSize - 1)) == 0) {
        slot_pages_.push_back(std::make_unique<EventFn[]>(kSlotPageSize));
      }
    }
    slot_ref(slot) = std::move(fn);
    push_item(HeapItem{t, next_seq_++, slot});
  }

  /// Resume every coroutine in `waiters` at now(), in order, and leave
  /// `waiters` empty.  The result is exactly that of one
  /// `schedule_at(now(), resume)` per waiter: each wake-up is its own event
  /// with its own sequence number, counted and digested like any other.
  /// The host cost is not: the N wake-ups reserve N consecutive sequence
  /// numbers and enter the queue as one heap node, and step() runs them
  /// from a cursor (see step()).
  void wake_all_now(std::vector<std::coroutine_handle<>>& waiters) {
    if (waiters.empty()) return;
    std::uint32_t b;
    if (!free_wakes_.empty()) {
      b = free_wakes_.back();
      free_wakes_.pop_back();
    } else {
      b = static_cast<std::uint32_t>(wakes_.size());
      wakes_.emplace_back();
    }
    // Swap, not copy: the caller gets back an empty vector with the
    // capacity of an earlier batch, so steady state allocates nothing.
    wakes_[b].swap(waiters);
    push_item(HeapItem{now_, next_seq_, b | kWakeTag});
    next_seq_ += wakes_[b].size();
  }

  /// Schedule `fn` to run `dt` from now.
  void schedule_after(Duration dt, EventFn fn) {
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Adopt a detached simulated process.  The process is started through
  /// the event queue at the current time; uncaught exceptions stop the run
  /// and are rethrown from run().
  void spawn(Task<void> process) {
    roots_.push_back(wrap_root(std::move(process)));
    auto h = roots_.back().handle();
    schedule_at(now_, [h] { detail::resume_chain(h); });
    maybe_reap();
  }

  /// Awaitable: suspend the current coroutine for `dt` simulated time.
  [[nodiscard]] auto delay(Duration dt) {
    struct Awaiter {
      Engine* eng;
      Duration dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        eng->schedule_after(dt, [h] { detail::resume_chain(h); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Awaitable: reschedule the current coroutine at the same timestamp,
  /// after every event already queued for this instant.
  [[nodiscard]] auto yield() { return delay(0); }

  /// Run until the queue drains, `request_stop()` is called, or a spawned
  /// process fails (rethrown as ProcessError).  A drained run ends with
  /// sweep_drained().
  void run() {
    while (!stop_ && pending()) {
      step();
      if (root_error_) {
        auto err = root_error_;
        root_error_ = nullptr;
        std::rethrow_exception(err);
      }
    }
    if (!pending()) sweep_drained();
  }

  /// Run every event with t strictly below `bound`, then return without
  /// advancing now() to the bound.  This is the epoch primitive of the
  /// sharded engine (sim/shard.hpp): leaving now() at the last executed
  /// event keeps `schedule_at(arrival >= bound)` legal for cross-shard
  /// deliveries, and an idle epoch leaves the engine byte-identical to not
  /// having run at all.  Returns true if the queue drained.
  bool run_before(Time bound) {
    while (!stop_ && pending() && next_time() < bound) {
      step();
      if (root_error_) {
        auto err = root_error_;
        root_error_ = nullptr;
        std::rethrow_exception(err);
      }
    }
    return !pending();
  }

  /// Run until simulated time would exceed `deadline` (events at exactly
  /// `deadline` still run).  Returns true if the queue drained.
  bool run_until(Time deadline) {
    while (!stop_ && pending() && next_time() <= deadline) {
      step();
      if (root_error_) {
        auto err = root_error_;
        root_error_ = nullptr;
        std::rethrow_exception(err);
      }
    }
    if (pending() && next_time() > deadline && now_ < deadline) {
      now_ = deadline;
    }
    return !pending();
  }

  /// Stop run() after the current event.
  void request_stop() noexcept { stop_ = true; }
  void clear_stop() noexcept { stop_ = false; }

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Record a process failure (used by the root wrapper; also usable by
  /// tests to inject failures).
  void set_error(std::exception_ptr e) noexcept { root_error_ = e; }

  /// Per-run event digest: (time, sequence, count) of every executed event
  /// folded into 64 bits.  Two runs of the same seeded workload must
  /// produce identical digests — the determinism self-check the ROADMAP
  /// tier-1 gate depends on (tests/determinism_test.cpp).
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  /// Order-insensitive companion of digest(): a wrapping sum of mix64(t)
  /// over every executed event.  Unlike digest() it does not fold the
  /// per-engine sequence numbers, so it is invariant under repartitioning
  /// the same event set across shards — the cross-shard-count identity the
  /// sharded determinism tests assert (see sim/shard.hpp).
  [[nodiscard]] std::uint64_t causal_digest() const noexcept {
    return causal_digest_;
  }

  /// Timestamp of the earliest queued event, or nothing if the queue is
  /// empty.  The shard scheduler uses this to compute each epoch's bound.
  [[nodiscard]] std::optional<Time> next_event_time() {
    if (!pending()) return std::nullopt;
    return next_time();
  }

  /// True while any event is queued.
  [[nodiscard]] bool has_pending() const noexcept { return pending(); }

  /// Cross-layer invariant checkers (see check/registry.hpp).  Protocol
  /// objects register themselves here; the engine sweeps the registry
  /// every `check_interval()` events and lets violations propagate out of
  /// run() as check::InvariantError.  Every kFullSweepEvery-th of those
  /// sweeps is full; the others run each checker's dirty form, which
  /// verifies only the objects written since the previous sweep.  With the
  /// default interval a changed object is verified within 1,024 events and
  /// every object within 65,536.  checks().run_all() is always full.
  [[nodiscard]] check::Registry& checks() noexcept { return checks_; }

  /// Catch-up sweep for quiescence: the full form of every checker that
  /// has a dirty one, so no object ends a run verified only partially.
  /// run() calls it when the queue drains, the shard group once the whole
  /// group has quiesced.  A no-op with sweeping disabled.
  void sweep_drained() const {
    if (check_interval_ != 0) checks_.run_incremental_full();
  }

  /// The run's metrics registry (see obs/metrics.hpp).  Protocol layers
  /// register Counter/Gauge/Histogram handles under "h<N>/<layer>/<name>"
  /// paths at construction; benches snapshot it after run().
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const noexcept {
    return metrics_;
  }

  /// The run's span-based timeline tracer (see obs/timeline.hpp).  Disabled
  /// by default; enable before run() to export a Chrome trace afterwards.
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }

  /// Events between checker sweeps; 0 disables sweeping entirely.  Tests
  /// set 1 to catch corruption on the very next event.
  void set_check_interval(std::uint64_t every_n_events) noexcept {
    check_interval_ = every_n_events;
    check_countdown_ = every_n_events;
  }
  [[nodiscard]] std::uint64_t check_interval() const noexcept {
    return check_interval_;
  }

  // splitmix64 finalizer: cheap, well-mixed fold for the event digest.
  // Public so the shard scheduler folds per-shard digests with the same
  // mixer the per-event digest uses.
  static constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

 private:
  // The heap orders trivially-copyable 24-byte nodes; the (potentially
  // 100-byte) callable lives in a stable slot in `slots_`.  Heap sift
  // moves are then plain POD copies the compiler turns into memmoves —
  // profiling showed sifting full fat events (inline-capture relocation
  // through an indirect call per move) dominated the hot loop.
  struct HeapItem {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<HeapItem>);
  // Orders the heap so the front element is the minimum (t, seq).  (t, seq)
  // is a strict total order — seq is unique — so any valid heap over the
  // same pending set pops in exactly one order, which is why the digest is
  // insensitive to the heap's internal layout (binary vs. 4-ary, and any
  // sift implementation).
  static bool before(const HeapItem& a, const HeapItem& b) noexcept {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }

  // 4-ary min-heap.  Shallower than a binary heap (log4 vs log2 levels)
  // and the four children share a cache line pair, which matters because
  // queue sifting is the simulator's single hottest loop.  Sift-up and
  // sift-down move a hole instead of swapping, so each level costs one
  // 24-byte copy.
  static void heap_push(std::vector<HeapItem>& h, HeapItem it) {
    std::size_t i = h.size();
    h.push_back(it);  // reserve the leaf; overwritten below
    while (i > 0) {
      std::size_t parent = (i - 1) >> 2;
      if (!before(it, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = it;
  }

  static HeapItem heap_pop(std::vector<HeapItem>& h) {
    HeapItem top = h[0];
    HeapItem last = h.back();
    h.pop_back();
    std::size_t n = h.size();
    if (n != 0) {
      std::size_t i = 0;
      for (;;) {
        std::size_t child = 4 * i + 1;
        if (child >= n) break;
        std::size_t best = child;
        std::size_t end = child + 4 < n ? child + 4 : n;
        for (std::size_t k = child + 1; k < end; ++k) {
          if (before(h[k], h[best])) best = k;
        }
        if (!before(h[best], last)) break;
        h[i] = h[best];
        i = best;
      }
      h[i] = last;
    }
    return top;
  }

  // Two-level queue: events inside the near horizon go to the small hot
  // heap, far-future ones (retransmit timers, mostly) to the far heap.
  // The strict `t < horizon_` split keeps min(near) < horizon_ <=
  // min(far), so the near heap's top is always the global minimum and
  // the pop order — and therefore the digest — is identical to a single
  // queue's.
  void push_item(HeapItem it) {
    heap_push(it.t < horizon_ ? heap_ : far_, it);
  }

  [[nodiscard]] bool waking() const noexcept {
    return wake_next_ != waking_.size();
  }

  [[nodiscard]] bool pending() const noexcept {
    return waking() || !heap_.empty() || !far_.empty();
  }

  /// Refill the near heap from the far heap if it drained.  Advancing the
  /// horizon to (min far time + window) migrates at least one event, so
  /// the loop body runs at most once per call with a non-empty far heap.
  void refill_near() {
    while (heap_.empty() && !far_.empty()) {
      horizon_ = far_[0].t + kNearWindow;
      while (!far_.empty() && far_[0].t < horizon_) {
        heap_push(heap_, heap_pop(far_));
      }
    }
  }

  /// Timestamp of the next event to fire.  Pre: pending().
  [[nodiscard]] Time next_time() {
    if (waking()) return wake_t_;
    refill_near();
    return heap_[0].t;
  }

  // One event, whether a queued callable or the next wake-up of an open
  // wake batch.  A batch's remaining wake-ups are always the global
  // minimum: its node was the minimum when popped, its sequence numbers
  // are consecutive, and anything scheduled since has a larger seq and a
  // time no earlier than now().  So the cursor runs without touching the
  // heap, and the (t, seq) order is that of one event per wake-up.
  void step() {
    if (!waking()) {
      // Owning the heap directly (vs. std::priority_queue) lets the next
      // event be moved out of storage legitimately — no const_cast.
      refill_near();
      const HeapItem ev = heap_pop(heap_);
      if ((ev.slot & kWakeTag) == 0) {
        begin_event(ev.t, ev.seq);
        // Execute in place: slot pages are address-stable (the page
        // directory may grow during fn(), the pages never move), so no
        // relocating move of the inline capture is needed per event.  The
        // slot is recycled only after fn() returns, so an event scheduling
        // new events can never be handed its own still-running slot.
        EventFn& fn = slot_ref(ev.slot);
        fn();
        fn.reset();
        free_slots_.push_back(ev.slot);
        end_event();
        return;
      }
      // Open the batch: its waiters move to the cursor's vector, whose
      // spent (cleared) storage goes back to the batch's free entry.
      const std::uint32_t b = ev.slot & ~kWakeTag;
      waking_.clear();
      waking_.swap(wakes_[b]);
      free_wakes_.push_back(b);
      wake_next_ = 0;
      wake_t_ = ev.t;
      wake_seq_ = ev.seq;
    }
    const std::coroutine_handle<> h = waking_[wake_next_++];
    begin_event(wake_t_, wake_seq_++);
    detail::resume_chain(h);
    end_event();
  }

  void begin_event(Time t, std::uint64_t seq) {
    ULSOCKS_INVARIANT(
        t >= now_,
        check::msgf("event time went backwards: t=%llu < now=%llu",
                    static_cast<unsigned long long>(t),
                    static_cast<unsigned long long>(now_)));
    now_ = t;
    ++events_executed_;
    digest_ = mix64(digest_ ^ t);
    digest_ = mix64(digest_ ^ seq);
    causal_digest_ += mix64(t);
  }

  void end_event() {
    // Countdown instead of `events_executed_ % interval`: one decrement
    // and branch per event, no integer division in the hot loop.
    if (check_countdown_ != 0 && --check_countdown_ == 0) {
      if (++sweeps_since_full_ == kFullSweepEvery) {
        sweeps_since_full_ = 0;
        checks_.run_all();
      } else {
        checks_.run_dirty();
      }
      check_countdown_ = check_interval_;
    }
  }

  Task<void> wrap_root(Task<void> process) {
    try {
      co_await process;
    } catch (...) {
      root_error_ = std::current_exception();
      stop_ = true;
    }
  }

  void maybe_reap() {
    if (roots_.size() < reap_watermark_) return;
    std::erase_if(roots_, [](const Task<void>& t) { return t.done(); });
    // Back off geometrically: the next full scan happens only once the
    // surviving set has doubled, so N spawns cost O(N) amortized scanning
    // instead of the O(N^2) of sweeping every spawn past a fixed floor.
    reap_watermark_ = std::max<std::size_t>(64, roots_.size() * 2);
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t digest_ = 0x243f6a8885a308d3ull;  // pi, arbitrary non-zero
  std::uint64_t causal_digest_ = 0;
  std::uint64_t check_interval_ = 1024;
  std::uint64_t check_countdown_ = 1024;
  // Periodic sweeps between full ones (see checks()).
  static constexpr std::uint32_t kFullSweepEvery = 64;
  std::uint32_t sweeps_since_full_ = 0;
  check::Registry checks_;
  obs::Registry metrics_;
  obs::Tracer tracer_;
  // Callable storage: fixed-size pages so slot addresses stay stable while
  // events run (a std::vector<EventFn> could reallocate under a running
  // event that schedules).  kSlotPageSize is a power of two so slot_ref()
  // is shift+mask.
  static constexpr std::uint32_t kSlotPageSize = 1024;
  [[nodiscard]] EventFn& slot_ref(std::uint32_t s) noexcept {
    return slot_pages_[s / kSlotPageSize][s & (kSlotPageSize - 1)];
  }

  // Near/far split: the near heap holds events with t < horizon_, so the
  // per-event sifts run over the burst at hand (a wake batch is one node
  // however many waiters it holds); the far heap absorbs long-dated timers
  // and is touched only on schedule and on horizon advances.  The window
  // trades near-heap size against advance frequency; 64 us spans the
  // simulator's burst activity comfortably.
  static constexpr Duration kNearWindow = 65536;

  bool stop_ = false;
  std::vector<HeapItem> heap_;  // near 4-ary min-heap keyed on (t, seq)
  std::vector<HeapItem> far_;   // far 4-ary min-heap (t >= horizon_)
  Time horizon_ = 0;            // strict upper bound on near-heap times
  std::vector<std::unique_ptr<EventFn[]>> slot_pages_;
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices
  std::uint32_t slot_count_ = 0;           // slots ever created
  // Wake batches (wake_all_now): a heap node whose slot carries kWakeTag
  // indexes wakes_; the open batch runs from waking_[wake_next_] with the
  // time and sequence number of its next wake-up.
  static constexpr std::uint32_t kWakeTag = 0x8000'0000u;
  std::vector<std::vector<std::coroutine_handle<>>> wakes_;
  std::vector<std::uint32_t> free_wakes_;
  std::vector<std::coroutine_handle<>> waking_;
  std::size_t wake_next_ = 0;
  Time wake_t_ = 0;
  std::uint64_t wake_seq_ = 0;
  std::vector<Task<void>> roots_;
  std::size_t reap_watermark_ = 64;
  std::exception_ptr root_error_;
  Rng rng_;
};

}  // namespace ulsocks::sim

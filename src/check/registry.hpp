// Registry of cross-layer invariant checkers.
//
// Each protocol layer registers a checker — a callable that inspects its
// own state and throws check::InvariantError on a violation.  The sim
// engine owns one registry and sweeps it periodically (every
// `check_interval` events), so corruption anywhere in the stack surfaces
// within a bounded number of events of its introduction, in every build
// type, without instrumenting each hot path.
//
// A checker over large state may also register a dirty form that verifies
// only the objects written since its last sweep (the owner keeps the keys).
// The engine's periodic sweeps run dirty forms and, every so often, the
// full ones (sim/engine.hpp); run_all() is always the full sweep.
//
// Checkers must be read-only: they run between events and must not perturb
// simulation state, or they would break bit-determinism.  (Forgetting the
// dirty keys a sweep verified is host bookkeeping, not simulation state.)
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant.hpp"

namespace ulsocks::check {

class Registry {
 public:
  using Id = std::size_t;
  using Checker = std::function<void()>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register a named checker; returns an id for removal.  Checkers run
  /// in registration order (deterministic).  `dirty`, if given, is the
  /// incremental form: it verifies what changed since the checker's last
  /// sweep, full or dirty, and forgets those changes.
  Id add(std::string name, Checker full, Checker dirty = {}) {
    Id id = next_id_++;
    entries_.push_back(
        Entry{id, std::move(name), std::move(full), std::move(dirty)});
    return id;
  }

  void remove(Id id) {
    std::erase_if(entries_, [id](const Entry& e) { return e.id == id; });
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Run every checker in full.  A violation is rethrown with the
  /// checker's name prepended so the failing layer is identifiable from
  /// what() alone.
  void run_all() const {
    for (const auto& e : entries_) run(e, e.full);
  }

  /// Run the dirty form of every checker that has one, the full form of
  /// the rest.
  void run_dirty() const {
    for (const auto& e : entries_) run(e, e.dirty ? e.dirty : e.full);
  }

  /// Run the full form of every checker that has a dirty form: the
  /// catch-up sweep when a run drains.  Checkers without one already ran
  /// in full on every sweep.
  void run_incremental_full() const {
    for (const auto& e : entries_) {
      if (e.dirty) run(e, e.full);
    }
  }

 private:
  struct Entry {
    Id id;
    std::string name;
    Checker full;
    Checker dirty;
  };

  static void run(const Entry& e, const Checker& fn) {
    try {
      fn();
    } catch (const InvariantError& err) {
      throw InvariantError("[checker " + e.name + "] " + err.what());
    }
  }

  std::vector<Entry> entries_;
  Id next_id_ = 1;
};

/// Keys of the objects written since a checker's last sweep, for its dirty
/// form.  Keys, not pointers: an object destroyed before the sweep is just
/// not found.  A key repeated back to back is stored once, which keeps a
/// stream of writes to one object from growing the list.
template <typename Key>
class DirtyKeys {
 public:
  void add(Key key) {
    if (keys_.empty() || keys_.back() != key) keys_.push_back(key);
  }
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] const std::vector<Key>& keys() const noexcept {
    return keys_;
  }
  void clear() noexcept { keys_.clear(); }

 private:
  std::vector<Key> keys_;
};

/// RAII registration: removes the checker when destroyed.  Must not
/// outlive the registry it registered with (in practice: the engine
/// outlives every protocol object attached to it).
class ScopedChecker {
 public:
  ScopedChecker() = default;
  ScopedChecker(Registry& registry, std::string name, Registry::Checker full,
                Registry::Checker dirty = {})
      : registry_(&registry),
        id_(registry.add(std::move(name), std::move(full),
                         std::move(dirty))) {}
  ScopedChecker(const ScopedChecker&) = delete;
  ScopedChecker& operator=(const ScopedChecker&) = delete;
  ScopedChecker(ScopedChecker&& other) noexcept
      : registry_(other.registry_), id_(other.id_) {
    other.registry_ = nullptr;
  }
  ScopedChecker& operator=(ScopedChecker&& other) noexcept {
    if (this != &other) {
      reset();
      registry_ = other.registry_;
      id_ = other.id_;
      other.registry_ = nullptr;
    }
    return *this;
  }
  ~ScopedChecker() { reset(); }

  void reset() {
    if (registry_ != nullptr) {
      registry_->remove(id_);
      registry_ = nullptr;
    }
  }

 private:
  Registry* registry_ = nullptr;
  Registry::Id id_ = 0;
};

}  // namespace ulsocks::check

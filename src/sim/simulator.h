// Deterministic discrete-event simulation engine.
//
// This replaces the FreeRTOS task/queue executor the original LoRaMesher
// library runs on. All protocol logic in this repository is written as event
// handlers scheduled on a Simulator, so a whole multi-node mesh runs
// single-threaded and reproducibly: events at equal timestamps fire in
// scheduling order (FIFO), and no wall-clock time ever leaks in.
//
// Storage layout: closures live in a slab of reusable slots; the event
// queue is a binary min-heap (std::push_heap/pop_heap) of POD (time,
// sequence, slot, generation) keys. Popping therefore never copies a
// std::function, cancel() releases the closure (and everything it captures)
// immediately rather than when the timestamp is reached, and liveness is a
// generation compare instead of a hash-set lookup per pop. Cancelled
// entries left behind in the heap are swept in bulk once they outnumber
// the live ones, so cancel-heavy workloads (retry timers that almost always
// get cancelled) stay O(1) amortized. Every push and pop is O(log n) no
// matter how many entries share a timestamp, so phase-locked timers (every
// node armed at the same µs) cost no more than spread-out ones.
//
// Usage:
//   Simulator sim;
//   sim.schedule_after(Duration::seconds(1), [&] { ... });
//   sim.run_for(Duration::hours(1));
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "support/time.h"

namespace lm::sim {

/// Opaque handle for cancelling a scheduled event. Id 0 is never issued.
using TimerId = std::uint64_t;

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  TimePoint now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (>= now()). Returns a handle
  /// usable with cancel().
  TimerId schedule_at(TimePoint t, std::function<void()> fn);

  /// Schedules `fn` to run `d` (>= 0) after the current time.
  TimerId schedule_after(Duration d, std::function<void()> fn);

  /// Cancels a pending event and releases its closure immediately (so
  /// captured resources are freed at cancel time, not at the event's
  /// timestamp). Cancelling an already-fired or already-cancelled id is a
  /// harmless no-op, which lets callers keep stale handles safely.
  void cancel(TimerId id);

  /// True if the id refers to an event that has not yet fired or been
  /// cancelled.
  bool is_pending(TimerId id) const;

  /// Runs events with timestamp <= `t`, then advances the clock to exactly
  /// `t`. Returns the number of events processed.
  std::size_t run_until(TimePoint t);

  /// Runs for a span of simulated time from now().
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  /// Runs one event if any is pending; returns whether one ran.
  bool step();

  /// Runs until the event queue drains or stop() is called.
  std::size_t run();

  /// Makes the innermost run()/run_until() return after the current event.
  void stop() { stop_requested_ = true; }

  /// Number of scheduled-but-not-fired events.
  std::size_t pending() const { return live_count_; }

  /// Timestamp of the earliest queued entry, or nullopt when the queue is
  /// empty. Always > now() after run_until(now()). A cancelled entry not
  /// yet swept may report its (dead) timestamp, so the value is a
  /// conservative lower bound on the next live event — exactly what the
  /// PDES window scheduler (sim/pdes) needs; it never overestimates.
  std::optional<TimePoint> next_event_time() const;

  /// Total events executed over this simulator's lifetime (perf metric).
  std::uint64_t events_processed() const { return events_processed_; }

  /// Installs this simulator's clock as the logging time source for the
  /// duration of the object's life (used by examples).
  void attach_logger_time_source();

 private:
  // One reusable home for a scheduled closure. `gen` is bumped every time
  // the slot is (re)allocated; a TimerId and a queue entry carry the
  // generation they were issued with, so stale references are detected by a
  // single compare.
  struct Slot {
    std::uint32_t gen = 0;
    bool live = false;
    std::function<void()> fn;
  };

  // One queued key. Firing order is (at, seq): seq is the global schedule
  // order, so same-timestamp events fire FIFO.
  struct Entry {
    std::int64_t at;     // absolute time, microseconds
    std::uint64_t seq;   // global schedule order: FIFO tie-break
    std::uint32_t slot;  // closure slab index
    std::uint32_t gen;   // slab generation for liveness checks
  };
  // Heap comparator: true when `a` fires after `b`, which puts the (at, seq)
  // minimum at queue_.front().
  static bool later(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  static TimerId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<TimerId>(slot) << 32) | gen;
  }
  const Slot* find_live(TimerId id) const;
  bool entry_live(const Entry& e) const {
    const Slot& s = slots_[e.slot];
    return s.live && s.gen == e.gen;
  }
  /// Evicts dead queue entries once they outnumber live ones.
  void maybe_purge();
  /// Pops and fires the next live event with timestamp <= limit. Dead
  /// entries up to the limit are discarded along the way.
  bool fire_next(TimePoint limit);

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 1;
  std::vector<Entry> queue_;  // min-heap under later()
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // indices of slots ready for reuse
  std::size_t live_count_ = 0;
  std::size_t dead_in_queue_ = 0;  // cancelled entries not yet popped/purged
  std::uint64_t events_processed_ = 0;
  bool stop_requested_ = false;
  bool logger_attached_ = false;
};

}  // namespace lm::sim

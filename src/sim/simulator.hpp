// The discrete-event simulator: a clock plus the event queue plus helpers
// for periodic processes.  Replaces PeerSim's event-driven engine used by
// the paper's evaluation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"
#include "src/sim/event_queue.hpp"

namespace soc::sim {

/// Receiver of the simulator's tagged events: the message bus.  Every
/// in-flight message is one tagged event; when it pops, the simulator
/// passes its tag and callback here instead of invoking the callback.
class TaggedEventSink {
 public:
  virtual void deliver_tagged(std::uint64_t tag, EventFn& fn) = 0;

 protected:
  ~TaggedEventSink() = default;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  [[nodiscard]] SimTime now() const { return now_; }

  /// Root RNG for the run; components should fork named streams from it.
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedule fn at absolute time `at`.  Checked: `at` must be >= now and
  /// strictly before kSimTimeNever (the "no pending event" sentinel must
  /// never appear as a real event time).
  EventHandle schedule_at(SimTime at, EventFn fn);
  /// Schedule fn after a non-negative delay.
  EventHandle schedule_after(SimTime delay, EventFn fn);
  bool cancel(EventHandle h);

  /// Schedule a tagged event (tag != 0) after a non-negative delay; it is
  /// handed to the registered sink when it pops.  Tagged events cannot be
  /// cancelled: no handle is returned.
  void schedule_tagged_after(SimTime delay, std::uint64_t tag, EventFn fn);

  /// Register the one sink for tagged events (checked: at most one at a
  /// time), and unregister it.  Popping a tagged event while no sink is
  /// registered — e.g. its bus was destroyed with messages still queued —
  /// is a checked failure, never a call into the departed sink.
  void register_sink(TaggedEventSink* sink);
  void unregister_sink(TaggedEventSink* sink);

  /// Schedule fn every `period`, first firing after `phase` (defaults to a
  /// full period).  The callback may return false to stop the series.
  /// Jitter (fraction of the period, drawn per firing) desynchronizes the
  /// thousands of per-node maintenance loops like a real deployment.
  EventHandle schedule_periodic(SimTime period, std::function<bool()> fn,
                                SimTime phase = -1, double jitter = 0.0);

  /// Run until the queue drains or `until` is reached (events strictly after
  /// `until` stay queued).  Returns the number of events executed.
  std::uint64_t run_until(SimTime until);
  /// Run until the queue is empty.
  std::uint64_t run_all();

  /// Execute exactly one event if any is pending before `until`.
  bool step(SimTime until = kSimTimeNever);

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Pending tagged events (the message bus's in-flight count).
  [[nodiscard]] std::size_t tagged_events() const { return queue_.tagged(); }

  /// Event-queue storage footprint (attribution-profiler hook).
  [[nodiscard]] std::size_t queue_mem_bytes() const {
    return queue_.mem_bytes();
  }

  /// Event-queue slab/heap sanity oracle (sim_fuzz); see
  /// EventQueue::verify_integrity.
  [[nodiscard]] bool verify_queue_integrity() const {
    return queue_.verify_integrity();
  }

 private:
  struct PeriodicState;
  void fire_periodic(std::shared_ptr<PeriodicState> state);
  void execute(std::uint64_t tag, EventFn& fn);

  SimTime now_ = 0;
  EventQueue queue_;
  TaggedEventSink* sink_ = nullptr;
  Rng rng_;
  std::uint64_t executed_ = 0;
};

}  // namespace soc::sim

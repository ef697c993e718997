// Deterministic pending-event set for the discrete-event simulator.
//
// Events at the same timestamp are executed in schedule order (a per-queue
// monotone sequence number breaks ties), so a simulation run is a pure
// function of its seed — the property all reproduction experiments rely on.
//
// Layout: an indexed 4-ary min-heap over a Slab<T> of event slots.  Heap
// entries carry the full sort key (time, seq) so sifting touches only the
// contiguous heap array; the slab slot holds the callback inline via
// InlineFn plus a generation counter.  Scheduling an event costs zero heap
// allocations for small captures, and cancel() is an O(log n) in-place heap
// removal — cancelled events free their slot and their captures immediately
// instead of lingering as tombstones.  Handles are generation-checked, so a
// stale handle to a recycled slot is rejected.
//
// Tagged events: a slot also carries a 64-bit tag, 0 for a plain event.  A
// non-zero tag is opaque to the queue and is handed back by pop(); the
// Simulator routes such events to its message bus, which packs a message's
// (destination, type, fate) into it, so an in-flight message is exactly one
// slot here and nothing else.  The tag fills the alignment padding between
// the slot header and the callback, so slots stay the same size.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/inline_fn.hpp"
#include "src/common/slab.hpp"
#include "src/common/types.hpp"

namespace soc::sim {

using EventFn = InlineFn<void()>;

/// Handle for cancelling a scheduled event: slab slot plus the generation
/// the slot had when the event was scheduled.
struct EventHandle {
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

  std::uint32_t slot = kInvalidSlot;
  std::uint32_t gen = 0;

  [[nodiscard]] bool valid() const { return slot != kInvalidSlot; }
};

class EventQueue {
 public:
  /// Schedule `fn` at `at`.  `tag` 0 is a plain event (fn must be set); a
  /// non-zero tag marks an event whose owner interprets it on pop (fn may
  /// then be empty).
  EventHandle push(SimTime at, EventFn fn, std::uint64_t tag = 0);

  /// Cancel a previously scheduled event, removing it from the heap and
  /// releasing its slab slot (and captures) immediately.  Returns false if
  /// the event was unknown (already executed or already cancelled).
  bool cancel(EventHandle h);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest live event time, or kSimTimeNever when empty.
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? kSimTimeNever : heap_[0].at;
  }

  /// Pop and return the earliest live event.  Requires !empty().
  struct Popped {
    SimTime at;
    std::uint64_t tag;  ///< as pushed; 0 = plain event
    EventFn fn;
  };
  Popped pop();

  /// Slab high-water mark: slots ever allocated (live + free-listed).
  /// Bounded by the *peak* number of simultaneously pending events, not the
  /// total scheduled — the stress tests assert on this.
  [[nodiscard]] std::size_t slab_slots() const { return slots_.slots(); }

  /// Live events with a non-zero tag (maintained on push/pop/cancel).
  [[nodiscard]] std::size_t tagged() const { return tagged_; }

  /// Bytes claimed by the backing storage (heap capacity + slab
  /// high-water slots); attribution-profiler hook.
  [[nodiscard]] std::size_t mem_bytes() const {
    return heap_.capacity() * sizeof(Entry) + slots_.slots() * sizeof(Slot);
  }

  /// Handle-generation / heap sanity oracle (sim_fuzz): every heap entry's
  /// slot is live (odd generation) with a back-pointer to its heap
  /// position, the heap order invariant holds for all parent/child pairs,
  /// the slab's live count equals the heap size — i.e. no leaked,
  /// double-freed or aliased slots — and tagged() equals a recount of the
  /// heap's tagged slots.  O(n); read-only.
  [[nodiscard]] bool verify_integrity() const;

 private:
  /// 24-byte heap entry: the full sort key plus the owning slot, so sift
  /// comparisons stay inside the contiguous heap array.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;

    /// Strict heap order: (time, schedule sequence).
    [[nodiscard]] bool before(const Entry& o) const {
      return at != o.at ? at < o.at : seq < o.seq;
    }
  };

  struct Slot {
    std::uint32_t gen = 0;       ///< odd = live, even = free
    std::uint32_t heap_pos = 0;  ///< heap index while live
    std::uint64_t tag = 0;       ///< 0 = plain event
    EventFn fn;
  };
  // The tag sits in what was padding before the over-aligned callback.
  static_assert(sizeof(Slot) == 16 + sizeof(EventFn));

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);
  void heap_remove(std::uint32_t pos);
  void sift_up(std::size_t pos, Entry e);
  void sift_down(std::size_t pos, Entry e);

  std::vector<Entry> heap_;  ///< 4-ary min-heap
  Slab<Slot> slots_;         ///< event slots (free list lives there)
  std::uint64_t next_seq_ = 0;
  std::size_t tagged_ = 0;  ///< live slots with tag != 0
};

}  // namespace soc::sim

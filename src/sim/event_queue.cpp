#include "src/sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace soc::sim {

namespace {
constexpr std::size_t kArity = 4;
}

std::uint32_t EventQueue::alloc_slot() {
  const std::uint32_t idx = slots_.alloc();
  ++slots_[idx].gen;  // even (free / fresh) -> odd (live)
  return idx;
}

void EventQueue::free_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  if (s.tag != 0) --tagged_;
  s.fn.reset();  // release captures immediately, not at slot reuse
  ++s.gen;       // odd (live) -> even (free); stale handles now mismatch
  slots_.release(idx);
}

EventHandle EventQueue::push(SimTime at, EventFn fn, std::uint64_t tag) {
  SOC_CHECK_MSG(tag != 0 || static_cast<bool>(fn), "null event callback");
  const std::uint32_t idx = alloc_slot();
  Slot& s = slots_[idx];
  s.tag = tag;
  s.fn = std::move(fn);
  if (tag != 0) ++tagged_;
  heap_.emplace_back();  // room for the sifted-in entry
  sift_up(heap_.size() - 1, Entry{at, next_seq_++, idx});
  return EventHandle{idx, slots_[idx].gen};
}

bool EventQueue::cancel(EventHandle h) {
  if (!h.valid() || h.slot >= slots_.slots()) return false;
  Slot& s = slots_[h.slot];
  if (s.gen != h.gen) return false;  // executed, cancelled, or recycled
  heap_remove(s.heap_pos);
  free_slot(h.slot);
  return true;
}

EventQueue::Popped EventQueue::pop() {
  SOC_CHECK_MSG(!heap_.empty(), "pop() on empty event queue");
  const std::uint32_t idx = heap_[0].slot;
  Slot& s = slots_[idx];
  Popped out{heap_[0].at, s.tag, std::move(s.fn)};
  heap_remove(0);
  free_slot(idx);
  return out;
}

void EventQueue::heap_remove(std::uint32_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  const Entry moved = heap_[last];
  heap_.pop_back();
  // The moved-in entry may violate the invariant in either direction.
  if (pos > 0 && moved.before(heap_[(pos - 1) / kArity])) {
    sift_up(pos, moved);
  } else {
    sift_down(pos, moved);
  }
}

void EventQueue::sift_up(std::size_t pos, Entry e) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!e.before(heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = e;
  slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

bool EventQueue::verify_integrity() const {
  if (slots_.live() != heap_.size()) return false;
  std::vector<bool> seen(slots_.slots(), false);
  std::size_t tagged = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const Entry& e = heap_[i];
    if (e.slot >= slots_.slots()) return false;
    if (seen[e.slot]) return false;  // one slot referenced twice
    seen[e.slot] = true;
    const Slot& s = slots_[e.slot];
    if ((s.gen & 1u) == 0) return false;  // heap points at a freed slot
    if (s.heap_pos != i) return false;    // stale back-pointer
    if (i > 0 && e.before(heap_[(i - 1) / kArity])) return false;
    if (s.tag != 0) ++tagged;
  }
  return tagged == tagged_;
}

void EventQueue::sift_down(std::size_t pos, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(e)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = e;
  slots_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

}  // namespace soc::sim

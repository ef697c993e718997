// StableSlab<T>: slab allocator with address-stable slots.
//
// Slab<T> (slab.hpp), the event queue's slot arena, backs its slots with
// one std::vector, so growth relocates every live object.  That is fine
// for event slots, whose callbacks relocate by move, but fatal for objects
// whose scheduled closures capture `this` — the PsmScheduler registers
// completion events against its own address, so the cold half of the SoA
// host split needs storage that never moves.
//
// StableSlab allocates fixed-size chunks that are never reallocated or
// freed until destruction; a slot's address is stable for the slab's
// lifetime.  Slots are constructed in place on alloc() and destroyed on
// release(); released slots go to a LIFO free list (deterministic reuse
// order).  Not iterable — callers keep their own slot index (the SoA
// tables do), which is the point: hot paths touch the flat arrays, and
// only cold accesses chase into the slab.
#pragma once

#include <bitset>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/assert.hpp"

namespace soc {

template <typename T, std::size_t kChunkSize = 256>
class StableSlab {
 public:
  static constexpr std::uint32_t kNull = 0xffffffffu;

  StableSlab() = default;
  StableSlab(const StableSlab&) = delete;
  StableSlab& operator=(const StableSlab&) = delete;

  ~StableSlab() {
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      for (std::size_t i = 0; i < kChunkSize; ++i) {
        if (chunks_[c]->occupied[i]) chunks_[c]->slot(i)->~T();
      }
    }
  }

  /// Construct a T in place; returns its slot index (stable forever).
  template <typename... Args>
  std::uint32_t alloc(Args&&... args) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(chunks_.size() * kChunkSize - spare_);
      if (spare_ == 0) {
        chunks_.push_back(std::make_unique<Chunk>());
        spare_ = kChunkSize;
      }
      --spare_;
    }
    Chunk& c = *chunks_[slot / kChunkSize];
    SOC_DCHECK(!c.occupied[slot % kChunkSize]);
    ::new (c.slot(slot % kChunkSize)) T(std::forward<Args>(args)...);
    c.occupied[slot % kChunkSize] = true;
    ++live_;
    return slot;
  }

  /// Destroy the object in `slot` and recycle the slot.
  void release(std::uint32_t slot) {
    Chunk& c = chunk_of(slot);
    SOC_DCHECK(c.occupied[slot % kChunkSize]);
    c.slot(slot % kChunkSize)->~T();
    c.occupied[slot % kChunkSize] = false;
    free_.push_back(slot);
    --live_;
  }

  [[nodiscard]] T& operator[](std::uint32_t slot) {
    Chunk& c = chunk_of(slot);
    SOC_DCHECK(c.occupied[slot % kChunkSize]);
    return *c.slot(slot % kChunkSize);
  }
  [[nodiscard]] const T& operator[](std::uint32_t slot) const {
    return (*const_cast<StableSlab*>(this))[slot];
  }

  /// Currently constructed objects.
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Allocated slot capacity (memory held, live or not).
  [[nodiscard]] std::size_t capacity_slots() const {
    return chunks_.size() * kChunkSize;
  }

 private:
  struct Chunk {
    alignas(T) unsigned char bytes[sizeof(T) * kChunkSize];
    std::bitset<kChunkSize> occupied;
    [[nodiscard]] T* slot(std::size_t i) {
      return std::launder(reinterpret_cast<T*>(bytes + i * sizeof(T)));
    }
  };

  [[nodiscard]] Chunk& chunk_of(std::uint32_t slot) {
    SOC_DCHECK(slot / kChunkSize < chunks_.size());
    return *chunks_[slot / kChunkSize];
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_;  // LIFO: deterministic reuse order
  std::size_t spare_ = 0;            // unused tail slots in the last chunk
  std::size_t live_ = 0;
};

}  // namespace soc

// Indexed binary min-heap over running activities, ordered by projected
// completion time.
//
// This replaces the engine's former linear next-completion scan: finding the
// next event is O(1), and — the part a plain priority queue cannot do — a
// rate change re-keys just the affected activity in O(log n), because every
// activity stores its own heap position (Activity::heap_slot).
//
// Ordering is (heap_key, seq): the seq tiebreak makes the pop order a total
// order, so identical simulations pop identically regardless of the
// insertion/update sequence that built the heap.
//
// Layout: the ordering fields are copied INTO the heap array (struct of
// key/seq/activity entries) instead of being read through the Activity
// pointers.  A sift touches a contiguous run of 24-byte entries — one or two
// cache lines per level — where the pointer-chasing layout paid a random
// pool-memory access per comparison, the dominant cost of the event loop's
// pop path.  The activity's own heap_key stays authoritative; update()
// re-copies it after a re-key.
//
// Branch-free order: the heap is small (tens of entries) and its cost is
// mispredicted compare branches, not memory.  An entry stores the key as an
// order-preserving u64 image (key_image), so (key, seq) compares as two
// unsigned integers with no data-dependent branch, and sift_down picks the
// smaller child with a conditional add.  The image folds -0.0 onto +0.0,
// equal as doubles, so the two zeros still tie on seq: the pop order is the
// same (heap_key, seq) total order as a double comparison gives.  Keys are
// never NaN.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/error.hpp"
#include "sim/activity.hpp"

namespace tir::sim {

class TimeHeap {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  Activity* top() const { return heap_.front().act; }
  /// The top activity's heap_key (its own copy: the entry holds the image).
  double top_key() const { return heap_.front().act->heap_key; }

  /// Insert an activity not currently in the heap (heap_slot must be -1).
  void insert(Activity* a) {
    TIR_ASSERT(a->heap_slot < 0);
    const std::size_t i = heap_.size();
    a->heap_slot = static_cast<std::int32_t>(i);
    heap_.push_back(Entry{key_image(a->heap_key), a->seq, a});
    sift_up(i);
  }

  /// Restore the heap property after `a`'s heap_key changed.
  void update(Activity* a) {
    TIR_ASSERT(a->heap_slot >= 0);
    const auto i = static_cast<std::size_t>(a->heap_slot);
    TIR_ASSERT(i < heap_.size() && heap_[i].act == a);
    heap_[i].key = key_image(a->heap_key);
    if (!sift_up(i)) sift_down(i);
  }

  /// Remove an arbitrary activity (e.g. completed externally).
  void remove(Activity* a) {
    TIR_ASSERT(a->heap_slot >= 0);
    const auto i = static_cast<std::size_t>(a->heap_slot);
    TIR_ASSERT(i < heap_.size() && heap_[i].act == a);
    a->heap_slot = -1;
    if (i == heap_.size() - 1) {
      heap_.pop_back();
      return;
    }
    heap_[i] = heap_.back();
    heap_[i].act->heap_slot = static_cast<std::int32_t>(i);
    heap_.pop_back();
    if (!sift_up(i)) sift_down(i);
  }

  /// Remove the minimum-key activity.
  void pop() { remove(heap_.front().act); }

  void clear() {
    for (const Entry& e : heap_) e.act->heap_slot = -1;
    heap_.clear();
  }

 private:
  struct Entry {
    std::uint64_t key;  ///< key_image(act->heap_key) as of the last insert/update
    std::uint64_t seq;  ///< copy of act->seq (tiebreak)
    Activity* act;
  };

  /// A u64 whose unsigned order is the order of the double `k`: a negative
  /// has every bit flipped, a positive gets its sign bit set.  `k + 0.0`
  /// turns -0.0 into +0.0 and leaves every other value as it is.
  static std::uint64_t key_image(double k) {
    const auto bits = std::bit_cast<std::uint64_t>(k + 0.0);
    const std::uint64_t flip = (std::uint64_t{0} - (bits >> 63)) | (std::uint64_t{1} << 63);
    return bits ^ flip;
  }

  /// (key, seq) lexicographic order, evaluated without short-circuiting.
  static bool less(const Entry& x, const Entry& y) {
    return static_cast<bool>(static_cast<unsigned>(x.key < y.key) |
                             (static_cast<unsigned>(x.key == y.key) &
                              static_cast<unsigned>(x.seq < y.seq)));
  }

  /// Returns true if the element moved.
  bool sift_up(std::size_t i) {
    const Entry e = heap_[i];
    bool moved = false;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      heap_[i].act->heap_slot = static_cast<std::int32_t>(i);
      i = parent;
      moved = true;
    }
    if (moved) {
      heap_[i] = e;
      e.act->heap_slot = static_cast<std::int32_t>(i);
    }
    return moved;
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    bool moved = false;
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n) child += static_cast<std::size_t>(less(heap_[child + 1], heap_[child]));
      if (!less(heap_[child], e)) break;
      heap_[i] = heap_[child];
      heap_[i].act->heap_slot = static_cast<std::int32_t>(i);
      i = child;
      moved = true;
    }
    if (moved) {
      heap_[i] = e;
      e.act->heap_slot = static_cast<std::int32_t>(i);
    }
  }

  std::vector<Entry> heap_;
};

}  // namespace tir::sim

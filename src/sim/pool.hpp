// Flat allocation infrastructure for the simulation kernel's hot path.
//
// SpanArena: slotted storage for many small arrays backed by one flat
// buffer.  The max-min solver keeps a route (a few LinkIds) per flow and a
// member list per link; as individual std::vectors those are one heap
// allocation each and scatter the per-component re-solve loop across the
// heap.  A SpanArena slot is {start, len, cap} into a single contiguous
// buffer: iteration is linear, growth relocates the span to the end of the
// buffer (holes are reclaimed by shrink_to_fit), and slot ids are stable so
// they can be keyed by the caller's own id-recycling scheme.
//
// Single-threaded by design, like the engine itself.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace tir::sim {

/// Many small arrays in one flat buffer; see the header comment.
///
/// Slots are created with make_slot() and never destroyed individually: the
/// caller keys them by its own recycled ids (solver flow ids, link ids) and
/// reuses a slot's capacity in place via assign().  Requires trivially
/// copyable T — spans are relocated with plain element copies.
template <class T>
class SpanArena {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Creates an empty slot and returns its id (dense, starting at 0).
  std::int32_t make_slot() {
    slots_.push_back(Slot{});
    return static_cast<std::int32_t>(slots_.size() - 1);
  }

  /// Grows the slot table so ids [0, n) are valid (new slots empty).
  void ensure_slots(std::size_t n) {
    if (slots_.size() < n) slots_.resize(n);
  }

  std::size_t slot_count() const { return slots_.size(); }

  std::uint32_t size(std::int32_t slot) const { return slots_[idx(slot)].len; }

  std::span<T> get(std::int32_t slot) {
    Slot& s = slots_[idx(slot)];
    return {buf_.data() + s.start, s.len};
  }
  std::span<const T> get(std::int32_t slot) const {
    const Slot& s = slots_[idx(slot)];
    return {buf_.data() + s.start, s.len};
  }

  T& at(std::int32_t slot, std::uint32_t i) { return buf_[slots_[idx(slot)].start + i]; }
  const T& at(std::int32_t slot, std::uint32_t i) const {
    return buf_[slots_[idx(slot)].start + i];
  }

  /// Replaces the slot's contents, reusing its capacity when possible.
  void assign(std::int32_t slot, std::span<const T> src) {
    Slot& s = slots_[idx(slot)];
    const auto n = static_cast<std::uint32_t>(src.size());
    if (n > s.cap) relocate(s, n);
    std::copy(src.begin(), src.end(), buf_.begin() + s.start);
    s.len = n;
  }

  /// Sets the slot's length to `n` (growing its capacity if needed) and
  /// returns the span to fill; elements beyond the old length are
  /// unspecified until written.  One slot lookup instead of n push_backs.
  std::span<T> resize_slot(std::int32_t slot, std::uint32_t n) {
    Slot& s = slots_[idx(slot)];
    if (n > s.cap) relocate(s, n);
    s.len = n;
    return {buf_.data() + s.start, n};
  }

  /// Appends `v` and returns its position in the slot: the back-pointer
  /// schemes this arena serves need it.
  std::uint32_t append(std::int32_t slot, T v) {
    Slot& s = slots_[idx(slot)];
    if (s.len == s.cap) relocate(s, grow_cap(s.cap));
    buf_[s.start + s.len] = v;
    return s.len++;
  }

  /// Removes element `pos` by swapping the last element into its place and
  /// reports the moved-in element (so the caller can fix a back-pointer):
  /// returns the element now at `pos`, or nullptr if `pos` was the last.
  T* swap_erase_get(std::int32_t slot, std::uint32_t pos) {
    Slot& s = slots_[idx(slot)];
    --s.len;
    if (pos == s.len) return nullptr;
    buf_[s.start + pos] = buf_[s.start + s.len];
    return &buf_[s.start + pos];
  }

  void clear_slot(std::int32_t slot) { slots_[idx(slot)].len = 0; }

  /// Drops every slot and the backing buffer, releasing their capacity.
  void reset() {
    slots_.clear();
    slots_.shrink_to_fit();
    buf_.clear();
    buf_.shrink_to_fit();
  }

  /// Repacks live spans into a tight buffer: reclaims relocation holes and
  /// excess slot capacity (each slot's capacity becomes its length).
  void shrink_to_fit() {
    std::vector<T> tight;
    std::size_t live = 0;
    for (const Slot& s : slots_) live += s.len;
    tight.reserve(live);
    for (Slot& s : slots_) {
      const std::uint32_t start = static_cast<std::uint32_t>(tight.size());
      tight.insert(tight.end(), buf_.begin() + s.start, buf_.begin() + s.start + s.len);
      s.start = start;
      s.cap = s.len;
    }
    buf_ = std::move(tight);
  }

  /// Bytes held by the backing buffer and slot table (capacity accounting).
  std::size_t capacity_bytes() const {
    return buf_.capacity() * sizeof(T) + slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint32_t start = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  static std::size_t idx(std::int32_t slot) { return static_cast<std::size_t>(slot); }

  static std::uint32_t grow_cap(std::uint32_t cap) { return cap < 4 ? 4 : cap * 2; }

  /// Moves the span to a fresh region of `new_cap` elements at the buffer's
  /// end.  The old region becomes a hole until the next shrink_to_fit();
  /// growth is geometric, so holes stay proportional to the live size.
  void relocate(Slot& s, std::uint32_t new_cap) {
    const auto start = static_cast<std::uint32_t>(buf_.size());
    buf_.resize(buf_.size() + new_cap);
    std::copy(buf_.begin() + s.start, buf_.begin() + s.start + s.len, buf_.begin() + start);
    s.start = start;
    s.cap = new_cap;
  }

  std::vector<Slot> slots_;
  std::vector<T> buf_;
};

}  // namespace tir::sim

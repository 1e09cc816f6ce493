// TimeHeap against a std::set<(key, seq)> reference: seeded random inserts,
// re-keys, removals and pops over keys chosen to collide (equal keys, +inf,
// 0.0 vs -0.0, denormals), with the heap_slot back-pointers checked after
// every operation.  The set orders by double comparison, so it is the
// (heap_key, seq) order the engine relies on for bit-identical schedules.
#include "sim/timeheap.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace tir::sim {
namespace {

using Ref = std::set<std::pair<double, std::uint64_t>>;

/// Every activity in the reference sits at a distinct slot of [0, size),
/// every other one at -1, and the top is the reference's first element.
void expect_consistent(const TimeHeap& heap, const Ref& ref, const std::vector<Activity>& acts) {
  ASSERT_EQ(heap.size(), ref.size());
  ASSERT_EQ(heap.empty(), ref.empty());
  std::vector<bool> taken(ref.size(), false);
  for (const Activity& a : acts) {
    if (ref.count({a.heap_key, a.seq}) == 0) {
      ASSERT_EQ(a.heap_slot, -1) << "seq " << a.seq;
      continue;
    }
    ASSERT_GE(a.heap_slot, 0) << "seq " << a.seq;
    const auto slot = static_cast<std::size_t>(a.heap_slot);
    ASSERT_LT(slot, ref.size()) << "seq " << a.seq;
    ASSERT_FALSE(taken[slot]) << "slot " << slot << " held twice";
    taken[slot] = true;
  }
  if (!ref.empty()) {
    EXPECT_EQ(heap.top()->seq, ref.begin()->second);
    EXPECT_EQ(heap.top_key(), heap.top()->heap_key);
    EXPECT_EQ(heap.top_key(), ref.begin()->first);
  }
}

TEST(TimeHeap, RandomOperationsMatchOrderedSetReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> keys = {0.0,  -0.0,     tiny, 2 * tiny, 1e-310, 1.0,  1.0,
                                    2.5,  1e300,    inf,  inf,      -1.0,   -tiny, 3.0};
  for (const std::uint32_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::mt19937 rng(seed);
    std::vector<Activity> acts(64);
    for (std::size_t i = 0; i < acts.size(); ++i) acts[i].seq = (i * 37) % acts.size();
    TimeHeap heap;
    Ref ref;
    auto pick_key = [&] { return keys[rng() % keys.size()]; };

    for (int step = 0; step < 4000; ++step) {
      Activity& a = acts[rng() % acts.size()];
      const bool in_heap = a.heap_slot >= 0;
      switch (rng() % 4) {
        case 0:  // insert, or re-key in place when already present
          if (in_heap) ref.erase({a.heap_key, a.seq});
          a.heap_key = pick_key();
          ref.insert({a.heap_key, a.seq});
          if (in_heap) {
            heap.update(&a);
          } else {
            heap.insert(&a);
          }
          break;
        case 1:  // re-key
          if (!in_heap) break;
          ref.erase({a.heap_key, a.seq});
          a.heap_key = pick_key();
          ref.insert({a.heap_key, a.seq});
          heap.update(&a);
          break;
        case 2:  // remove an arbitrary member
          if (!in_heap) break;
          ref.erase({a.heap_key, a.seq});
          heap.remove(&a);
          break;
        default:  // pop the minimum
          if (ref.empty()) break;
          ASSERT_EQ(heap.top()->seq, ref.begin()->second);
          ref.erase(ref.begin());
          heap.pop();
          break;
      }
      expect_consistent(heap, ref, acts);
      if (HasFatalFailure()) FAIL() << "seed " << seed << " step " << step;
    }

    // Drain: the full pop order is the reference order.
    while (!ref.empty()) {
      ASSERT_EQ(heap.top()->seq, ref.begin()->second) << "seed " << seed;
      ref.erase(ref.begin());
      heap.pop();
    }
    EXPECT_TRUE(heap.empty());
    for (const Activity& a : acts) EXPECT_EQ(a.heap_slot, -1);
  }
}

TEST(TimeHeap, SignedZerosTieOnSeq) {
  std::vector<Activity> acts(4);
  const double keys[] = {0.0, -0.0, -0.0, 0.0};
  const std::uint64_t seqs[] = {7, 9, 2, 4};
  TimeHeap heap;
  for (std::size_t i = 0; i < acts.size(); ++i) {
    acts[i].heap_key = keys[i];
    acts[i].seq = seqs[i];
    heap.insert(&acts[i]);
  }
  std::vector<std::uint64_t> order;
  while (!heap.empty()) {
    order.push_back(heap.top()->seq);
    heap.pop();
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 4, 7, 9}));
}

TEST(TimeHeap, ClearResetsEveryBackPointer) {
  std::vector<Activity> acts(10);
  TimeHeap heap;
  for (std::size_t i = 0; i < acts.size(); ++i) {
    acts[i].heap_key = static_cast<double>(10 - i);
    acts[i].seq = i;
    heap.insert(&acts[i]);
  }
  EXPECT_EQ(heap.top(), &acts.back());
  heap.clear();
  EXPECT_TRUE(heap.empty());
  for (const Activity& a : acts) EXPECT_EQ(a.heap_slot, -1);
}

}  // namespace
}  // namespace tir::sim

// Bounded admission queue: the daemon's backpressure valve.
//
// Accepting every request and letting latency grow without bound is how a
// service melts under load; the daemon instead admits jobs through this
// fixed-capacity queue and *rejects* the overflow with an explicit
// retry-after hint, so a well-behaved client backs off and a load test gets
// an honest saturation signal (perfbench's tird-mix counts rejections
// separately from latency).
//
// Shutdown contract (SIGTERM drain): close() stops admissions immediately
// but lets consumers drain everything already admitted — pop() keeps
// returning queued items and only starts returning false once the queue is
// both closed and empty.  Nothing admitted is ever dropped.
//
// T must be movable.  All members are thread-safe.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

namespace tir::svc {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admission: false when the queue is full or closed (the
  /// caller turns that into a reject-with-retry-after response).
  bool try_push(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      ++pushed_;
    }
    consumer_cv_.notify_one();
    return true;
  }

  /// Blocking consume: false only when closed *and* drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    consumer_cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Stop admissions; wake every blocked consumer.  Idempotent.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    consumer_cv_.notify_all();
  }

  bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// Total items ever admitted (monotone; for the stats endpoint).
  std::size_t pushed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable consumer_cv_;
  std::deque<T> items_;
  std::size_t capacity_;
  std::size_t pushed_ = 0;
  bool closed_ = false;
};

}  // namespace tir::svc

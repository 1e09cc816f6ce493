// The tird daemon core: accept connections, admit prediction jobs through a
// bounded queue, run them on a worker pool over shared caches, stream results.
//
// Lifecycle (examples/tird.cpp is the thin CLI around this):
//
//   Server server(options);
//   server.start();        // bind + listen + spawn accept/worker threads
//   ...                    // serve until shutdown() — from a signal-watcher
//                          // thread (SIGTERM) or the {"op":"shutdown"} op
//   server.wait();         // drain admitted jobs, join every thread
//
// Shutdown is a *drain*: the listener closes and the queue stops admitting
// immediately, but every job already admitted runs to completion and its
// client receives the full response stream before the connection threads are
// released.  Nothing admitted is ever dropped (tested in
// tests/svc/server_test.cpp).
//
// Caching: four content-keyed LRU caches (svc/cache.hpp) share the job hot
// path — traces packed in the TITB action codec (keyed by TITB frame CRCs,
// or by the bytes of a text manifest and its rank files), parsed platforms
// (keyed by file bytes), calibrated rates (keyed by platform key +
// core::calibration_cache_key), and the results memo: every clean
// non-metrics job's answer, keyed by the request's content_key and the
// trace and platform keys, so a repeated question is answered without
// decode or replay.  cache_bytes = 0 disables retention, which is how
// bench_gates measures the cold path of the very same binary.
#pragma once

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "platform/platform.hpp"
#include "svc/cache.hpp"
#include "svc/net.hpp"
#include "svc/protocol.hpp"
#include "svc/queue.hpp"
#include "titio/shared.hpp"

namespace tir::svc {

struct ServerOptions {
  std::string endpoint = "unix:/tmp/tird.sock";
  int workers = 0;                          ///< <= 0: hardware concurrency
  std::size_t queue_capacity = 64;          ///< admission queue depth
  std::uint64_t cache_bytes = 256ull << 20; ///< trace-cache budget; 0 = no retention
  int retry_after_ms = 50;                  ///< backoff hint in reject responses
  /// Read stall cutoff for client connections, milliseconds (0 = none).
  /// Slow-loris semantics: only a peer stalled *mid-line* is cut; idle
  /// connections may sit forever (LineConn::TimeoutMode::MidLine).
  int read_timeout_ms = 30000;
  /// Write stall cutoff, milliseconds (0 = none): a client that stops
  /// draining its socket while a worker streams results is treated as gone.
  int write_timeout_ms = 10000;
  /// Request line byte cap; longer lines drop the connection.
  std::size_t max_frame = 1u << 20;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the endpoint and spawn the accept thread plus the worker pool.
  void start();

  /// The resolved listen endpoint (a tcp:HOST:0 request reports the
  /// kernel-assigned port).  Valid after start().
  const std::string& endpoint() const { return listener_->endpoint(); }

  /// Begin the drain: stop accepting, stop admitting, wake everything.
  /// Idempotent and callable from any thread (signal watcher, connection
  /// thread handling {"op":"shutdown"}, tests).
  void shutdown();

  /// Block until shutdown() was called, then drain the queue and join every
  /// thread.  Call from the owning thread (the daemon's main), never from a
  /// server-spawned thread.
  void wait();

  bool stopping() const { return stopping_.load(); }

  CacheStats trace_cache_stats() const { return traces_.stats(); }
  CacheStats platform_cache_stats() const { return platforms_.stats(); }
  CacheStats calibration_cache_stats() const { return calibrations_.stats(); }
  CacheStats result_cache_stats() const { return results_.stats(); }

 private:
  /// One accepted connection: its socket plus the write lock that keeps
  /// worker-streamed results and connection-thread acks from interleaving
  /// mid-line.
  struct Client {
    explicit Client(LineConn c) : conn(std::move(c)) {}
    LineConn conn;
    std::mutex write_mutex;

    /// Serialize and write one response line; false once the peer is gone.
    /// Never throws — a worker streaming results to a vanished client must
    /// not die with it.
    bool send(const Json& response) { return send_lines(response.dump()); }

    /// Write '\n'-separated response lines (no trailing newline) in one
    /// write, so the peer wakes once for all of them.  As send().
    bool send_lines(const std::string& lines) {
      const std::lock_guard<std::mutex> lock(write_mutex);
      if (!conn.valid()) return false;
      bool ok = false;
      try {
        ok = conn.write_line(lines);
      } catch (...) {
      }
      // A failed write means the peer is gone or wedged.  Half-close the
      // socket so the peer (and our own connection reader, blocked in recv)
      // sees EOF *now* — a silently truncated stream would leave a client
      // waiting out its whole read timeout for lines that can never come.
      if (!ok) ::shutdown(conn.fd(), SHUT_RDWR);
      return ok;
    }
  };

  struct Job {
    JobRequest request;
    std::shared_ptr<Client> client;
    std::chrono::steady_clock::time_point admitted{};
    /// Deadline derived from request.deadline_ms at admission; only
    /// meaningful when has_deadline.
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
  };

  /// One finished job's answer, retained in the results memo: the scenario
  /// lines as first sent (re-stamped with each new job id) and the done
  /// fields that follow from them.  The started and done lines themselves
  /// are rendered afresh with each job's cache fields and timings.
  struct CompletedJob {
    std::vector<Json> scenarios;
    std::size_t scenarios_ok = 0;
    Json mc;  ///< the perturbed job's aggregate; null otherwise
  };

  void accept_loop();
  void worker_loop();
  void handle_connection(std::shared_ptr<Client> client);
  void handle_line(const std::shared_ptr<Client>& client, const std::string& line);
  void run_job(Job& job);
  Json stats_json() const;

  ServerOptions options_;
  std::unique_ptr<Listener> listener_;
  BoundedQueue<Job> queue_;

  // Content-keyed caches (values are cheap-copy handles; see cache.hpp).
  LruCache<std::shared_ptr<const titio::PackedTrace>> traces_;
  LruCache<std::shared_ptr<const platform::Platform>> platforms_;
  LruCache<double> calibrations_;
  /// The results memo: request content key + trace and platform content
  /// keys -> the answer of a clean completed job (not metrics, expired or
  /// degraded, and no scenario ended by the wall clock).
  LruCache<std::shared_ptr<const CompletedJob>> results_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::thread> conn_threads_;
  /// Connection threads whose handler returned, joined at the next accept.
  std::vector<std::thread::id> ended_conns_;
  std::mutex threads_mutex_;
  std::vector<std::shared_ptr<Client>> clients_;
  std::mutex clients_mutex_;

  int worker_count_ = 0;  ///< fixed at start(); stats-safe while draining
  std::atomic<bool> stopping_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;

  std::atomic<std::uint64_t> next_job_id_{1};
  std::atomic<std::uint64_t> jobs_admitted_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> scenarios_ok_{0};
  std::atomic<std::uint64_t> scenarios_failed_{0};
  std::atomic<std::uint64_t> jobs_expired_{0};    ///< deadline tripped (pre-run or mid-sweep)
  std::atomic<std::uint64_t> jobs_degraded_{0};   ///< cache pressure shed to cold path
  std::atomic<std::uint64_t> idempotent_replays_{0};
};

}  // namespace tir::svc

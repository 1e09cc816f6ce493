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
// Caching: three content-keyed LRU caches (svc/cache.hpp) share the job hot
// path — decoded traces (keyed by TITB frame CRCs, or by the bytes of a text
// manifest and its rank files), parsed platforms
// (keyed by file bytes), calibrated rates (keyed by platform key +
// core::calibration_cache_key).  cache_bytes = 0 disables retention, which
// is how bench_gates measures the cold path of the very same binary.
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
    bool send(const Json& response) {
      const std::lock_guard<std::mutex> lock(write_mutex);
      if (!conn.valid()) return false;
      bool ok = false;
      try {
        ok = conn.write_line(response.dump());
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

  /// One finished job's full response stream, retained for idempotent
  /// re-submits (keyed by the request's "idem" content key).  Replayed
  /// copies are re-stamped with the new job id.
  struct CompletedJob {
    Json started;
    std::vector<Json> scenarios;
    Json done;
  };

  void accept_loop();
  void worker_loop();
  void handle_connection(std::shared_ptr<Client> client);
  void handle_line(const std::shared_ptr<Client>& client, const std::string& line);
  void run_job(Job& job);
  /// Serve a completed job from the idempotency cache; false on miss.
  bool replay_completed(const Job& job, std::uint64_t key);
  Json stats_json() const;

  ServerOptions options_;
  std::unique_ptr<Listener> listener_;
  BoundedQueue<Job> queue_;

  // Content-keyed caches (values are cheap-copy handles; see cache.hpp).
  LruCache<std::shared_ptr<const titio::SharedTrace>> traces_;
  LruCache<std::shared_ptr<const platform::Platform>> platforms_;
  LruCache<double> calibrations_;
  /// Idempotency results: request content key + trace and platform content
  /// keys -> full response stream of a clean (not expired, not degraded)
  /// completed job.
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

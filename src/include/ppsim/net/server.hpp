// SweepServer: the socket front of the sweep service.
//
// One accept loop, one thread per connection, line-delimited JSON both
// ways. Each request line is a JSON object with a "type" member:
//
//   {"type":"submit", ...}        -> cell lines, then a done line
//   {"type":"stats"}              -> one stats line (cache + service counters)
//   {"type":"archive_stats",      -> one line per archive summarised via
//    "archive":"FILE|DIR|a,b"}       TrajectoryReader (read-only), then a
//                                    done line — the daemon subsumes
//                                    ppsim_query's summary mode
//
// Anything malformed answers {"type":"error","error":...} and keeps the
// connection. A client that disappears mid-stream cancels its job
// cooperatively via the service's emit-returns-false path. The accept loop
// joins finished connection threads as it admits new connections, so a
// long-lived daemon retains threads only for its open connections.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ppsim/net/service.hpp"
#include "ppsim/net/socket.hpp"

namespace ppsim::net {

struct ServerConfig {
  std::string socket_path;
  ServiceConfig service;
  /// Stop after this many accepted connections; 0 = serve forever. The CI
  /// smoke lane uses it to run a bounded daemon without kill/trap plumbing.
  std::uint64_t accept_limit = 0;
};

class SweepServer {
 public:
  explicit SweepServer(ServerConfig config);
  ~SweepServer();

  /// Binds the socket and serves until stop() (or accept_limit). Blocks.
  void run();

  /// Wakes the accept loop and asks in-flight jobs to cancel; run() then
  /// joins every connection thread before returning. Safe from any thread.
  void stop();

  /// Connection threads not yet joined: the open connections plus those
  /// that finished since the accept loop last admitted a connection.
  std::size_t retained_connections() const;

  SweepService& service() noexcept { return service_; }
  const std::string& socket_path() const noexcept {
    return config_.socket_path;
  }

 private:
  void serve_connection(Socket socket);
  void handle_request(LineChannel& channel, const std::string& line);
  /// Joins the connection threads that have finished; never waits on a
  /// live connection.
  void reap_finished_connections();

  ServerConfig config_;
  SweepService service_;
  std::atomic<bool> stopping_{false};
  Listener* listener_ = nullptr;  ///< run()-scoped, for stop() to wake
  std::mutex listener_mutex_;
  std::unordered_map<std::uint64_t, std::thread> connections_;  ///< by id
  std::vector<std::uint64_t> finished_;  ///< ids whose threads have returned
  mutable std::mutex connections_mutex_;
};

}  // namespace ppsim::net

#ifndef CUMULON_SVC_SERVER_H_
#define CUMULON_SVC_SERVER_H_

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "svc/service.h"

namespace cumulon {

/// Socket front end of a CumulonService: accepts connections on one
/// unix:/tcp: address and runs the frame loop (ReadFrame -> ParseJson ->
/// Dispatch -> WriteFrame) on one thread per connection. A malformed frame
/// earns an ERROR response and closes the connection; a completed DRAIN
/// stops the listener and unblocks every connection, so WaitUntilStopped
/// doubles as the daemon's run-to-drain loop.
class ServiceServer {
 public:
  /// `service` is borrowed and must outlive the server.
  explicit ServiceServer(CumulonService* service);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds `address` ("unix:/path" or "tcp:HOST:PORT") and starts the
  /// accept loop.
  Status Start(const std::string& address);

  /// Blocks until the server has stopped (drain or explicit Stop) and all
  /// connection threads have been joined, then closes the listener and
  /// removes the socket file of a unix: address.
  void WaitUntilStopped();

  /// Shuts the listener and every open connection down. Idempotent;
  /// callable from a connection handler thread.
  void Stop();

  int active_connections() const;

 private:
  void AcceptLoop();
  void HandleConnection(int64_t conn_id, int fd);
  void StopLocked() CUMULON_REQUIRES(mu_);

  CumulonService* service_;
  int listen_fd_ = -1;
  std::string socket_path_;  // file a unix: address bound; "" otherwise
  std::thread acceptor_;

  mutable Mutex mu_{"ServiceServer::mu_"};
  CondVar stopped_cv_;
  bool stopping_ CUMULON_GUARDED_BY(mu_) = false;
  // true while no accept loop is running (flipped by Start).
  bool accept_done_ CUMULON_GUARDED_BY(mu_) = true;
  int64_t next_conn_id_ CUMULON_GUARDED_BY(mu_) = 1;
  std::map<int64_t, int> conn_fds_ CUMULON_GUARDED_BY(mu_);
  // Threads of finished connections, joined on Wait/Stop/destruction.
  std::vector<std::thread> done_threads_ CUMULON_GUARDED_BY(mu_);
  std::map<int64_t, std::thread> conn_threads_ CUMULON_GUARDED_BY(mu_);
};

}  // namespace cumulon

#endif  // CUMULON_SVC_SERVER_H_

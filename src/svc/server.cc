#include "svc/server.h"

#include <unistd.h>

#include <chrono>
#include <utility>

#include "svc/message.h"
#include "svc/wire.h"

namespace cumulon {

ServiceServer::ServiceServer(CumulonService* service) : service_(service) {}

ServiceServer::~ServiceServer() {
  Stop();
}

Status ServiceServer::Start(const std::string& address) {
  auto fd = ListenOn(address);
  if (!fd.ok()) return fd.status();
  listen_fd_ = *fd;
  if (address.rfind("unix:", 0) == 0) socket_path_ = address.substr(5);
  {
    MutexLock lock(&mu_);
    accept_done_ = false;
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void ServiceServer::AcceptLoop() {
  while (true) {
    {
      MutexLock lock(&mu_);
      if (stopping_) break;
    }
    auto fd = AcceptConnection(listen_fd_);
    if (!fd.ok()) break;
    MutexLock lock(&mu_);
    if (stopping_) {
      CloseFd(*fd);
      break;
    }
    const int64_t id = next_conn_id_++;
    conn_fds_[id] = *fd;
    conn_threads_.emplace(
        id, std::thread([this, id, f = *fd] { HandleConnection(id, f); }));
  }
  MutexLock lock(&mu_);
  accept_done_ = true;
  stopped_cv_.NotifyAll();
}

void ServiceServer::HandleConnection(int64_t conn_id, int fd) {
  std::vector<int64_t> sessions;
  while (true) {
    auto payload = ReadFrame(fd);
    if (!payload.ok()) break;
    auto request = ParseJson(*payload);
    JsonValue reply;
    if (!request.ok()) {
      reply = EncodeError(TypedError(StatusCode::kInvalidArgument,
                                     "proto.malformed",
                                     request.status().message()));
    } else {
      reply = service_->Dispatch(*request);
      if (reply.StringOr("type", "") == "HELLO_OK") {
        sessions.push_back(reply.IntOr("session", 0));
      }
    }
    if (!WriteFrame(fd, reply.ToString()).ok()) break;
    // A frame that did not parse leaves the stream in an unknown state;
    // report the error, then drop the connection.
    if (!request.ok()) break;
    if (service_->drained()) {
      // The DRAIN we just answered completed: bring the whole front end
      // down (the response is already on the wire).
      MutexLock lock(&mu_);
      StopLocked();
      break;
    }
  }
  for (const int64_t session : sessions) service_->CloseSession(session);

  MutexLock lock(&mu_);
  auto fd_it = conn_fds_.find(conn_id);
  if (fd_it != conn_fds_.end()) {
    CloseFd(fd_it->second);
    conn_fds_.erase(fd_it);
  }
  auto thread_it = conn_threads_.find(conn_id);
  if (thread_it != conn_threads_.end()) {
    // A thread cannot join itself; park the handle for WaitUntilStopped.
    done_threads_.push_back(std::move(thread_it->second));
    conn_threads_.erase(thread_it);
  }
  stopped_cv_.NotifyAll();
}

void ServiceServer::StopLocked() {
  if (stopping_) return;
  stopping_ = true;
  // Wakes the blocked accept (EINVAL -> Cancelled) and every blocked
  // ReadFrame; the fds close once their threads retire.
  ShutdownFd(listen_fd_);
  for (const auto& [id, fd] : conn_fds_) ShutdownFd(fd);
  stopped_cv_.NotifyAll();
}

void ServiceServer::WaitUntilStopped() {
  {
    MutexLock lock(&mu_);
    while (!(stopping_ && accept_done_ && conn_threads_.empty())) {
      stopped_cv_.WaitFor(&mu_, std::chrono::milliseconds(50));
      // A drain that arrived through an in-process transport never passes
      // through a connection handler; notice it here.
      if (!stopping_ && service_->drained()) StopLocked();
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  if (!socket_path_.empty()) {
    unlink(socket_path_.c_str());
    socket_path_.clear();
  }
  std::vector<std::thread> done;
  {
    MutexLock lock(&mu_);
    done.swap(done_threads_);
  }
  for (std::thread& thread : done) thread.join();
}

void ServiceServer::Stop() {
  {
    MutexLock lock(&mu_);
    StopLocked();
  }
  WaitUntilStopped();
}

int ServiceServer::active_connections() const {
  MutexLock lock(&mu_);
  return static_cast<int>(conn_fds_.size());
}

}  // namespace cumulon

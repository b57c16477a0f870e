#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "svc/client.h"
#include "svc/message.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/wire.h"

namespace cumulon {
namespace {

ServiceOptions SmallServiceOptions() {
  ServiceOptions options;
  options.machine.name = "test.machine";
  options.machine.cores = 2;
  options.elastic.min_machines = 1;
  options.elastic.max_machines = 4;
  options.slots_per_machine = 2;
  options.max_concurrent_plans = 2;
  options.reaper_interval_seconds = 0.002;
  options.elastic_interval_seconds = 0.01;
  return options;
}

/// Short unix-socket path unique to this process (sun_path is ~100 bytes,
/// so TempDir-based paths are risky).
std::string SocketAddress(const char* tag) {
  return StrCat("unix:/tmp/cumulon_svc_test_", tag, "_", getpid(), ".sock");
}

TEST(WireTest, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string payload = "{\"type\":\"HELLO\"}";
  ASSERT_TRUE(WriteFrame(fds[1], payload).ok());
  auto read_back = ReadFrame(fds[0]);
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(*read_back, payload);
  // Closing the writer yields a clean-EOF Cancelled, not an error.
  CloseFd(fds[1]);
  auto eof = ReadFrame(fds[0]);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kCancelled);
  CloseFd(fds[0]);
}

TEST(WireTest, RejectsOversizedFrames) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  std::string huge(kMaxFramePayload + 1, 'x');
  EXPECT_FALSE(WriteFrame(fds[1], huge).ok());
  CloseFd(fds[0]);
  CloseFd(fds[1]);
}

TEST(WireTest, RejectsUnparseableAddresses) {
  EXPECT_FALSE(ListenOn("carrier-pigeon:coop7").ok());
  EXPECT_FALSE(ConnectTo("tcp:nohost").ok());
}

TEST(ServerTest, EndToEndOverUnixSocket) {
  CumulonService service(SmallServiceOptions());
  ServiceServer server(&service);
  const std::string address = SocketAddress("e2e");
  ASSERT_TRUE(server.Start(address).ok());

  // Two concurrent connections, one tenant each.
  auto transport_a = SocketTransport::Connect(address);
  auto transport_b = SocketTransport::Connect(address);
  ASSERT_TRUE(transport_a.ok()) << transport_a.status();
  ASSERT_TRUE(transport_b.ok()) << transport_b.status();
  ServiceClient alice(transport_a->get());
  ServiceClient bob(transport_b->get());
  ASSERT_TRUE(alice.Hello("alice").ok());
  ASSERT_TRUE(bob.Hello("bob").ok());
  EXPECT_EQ(server.active_connections(), 2);

  auto submit = alice.Submit("mm-s");
  ASSERT_TRUE(submit.ok()) << submit.status();
  ServiceClient::PollReply poll;
  for (int i = 0; i < 5000 && !poll.terminal; ++i) {
    auto reply = alice.Poll(submit->plan);
    ASSERT_TRUE(reply.ok()) << reply.status();
    poll = *reply;
    if (!poll.terminal) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(poll.state, "DONE");

  // Tenant isolation holds across sockets too.
  auto foreign = bob.Poll(submit->plan);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(ErrorReason(foreign.status()), "plan.foreign");

  // DRAIN stops the whole front end; WaitUntilStopped returns.
  auto drained = alice.Drain();
  ASSERT_TRUE(drained.ok()) << drained.status();
  server.WaitUntilStopped();
  EXPECT_TRUE(service.drained());
  EXPECT_EQ(server.active_connections(), 0);
}

TEST(ServerTest, MalformedFrameGetsTypedErrorThenDisconnect) {
  CumulonService service(SmallServiceOptions());
  ServiceServer server(&service);
  const std::string address = SocketAddress("malformed");
  ASSERT_TRUE(server.Start(address).ok());

  auto fd = ConnectTo(address);
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(WriteFrame(*fd, "this is not json").ok());
  auto reply = ReadFrame(*fd);
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto frame = ParseJson(*reply);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->StringOr("type", ""), "ERROR");
  EXPECT_EQ(frame->StringOr("reason", ""), "proto.malformed");
  // The server dropped the connection after answering.
  auto closed = ReadFrame(*fd);
  EXPECT_FALSE(closed.ok());
  CloseFd(*fd);

  // The daemon survived; a well-formed connection still works.
  auto transport = SocketTransport::Connect(address);
  ASSERT_TRUE(transport.ok());
  ServiceClient client(transport->get());
  ASSERT_TRUE(client.Hello("ops").ok());
  ASSERT_TRUE(client.Drain().ok());
  server.WaitUntilStopped();
}

TEST(ServerTest, StopWithoutDrainShutsConnectionsDown) {
  CumulonService service(SmallServiceOptions());
  ServiceServer server(&service);
  const std::string address = SocketAddress("stop");
  ASSERT_TRUE(server.Start(address).ok());
  auto transport = SocketTransport::Connect(address);
  ASSERT_TRUE(transport.ok());
  ServiceClient client(transport->get());
  ASSERT_TRUE(client.Hello("alice").ok());

  server.Stop();
  EXPECT_EQ(server.active_connections(), 0);
  // The client's next call fails cleanly instead of hanging.
  EXPECT_FALSE(client.Stats().ok());
  // The service itself is still alive (Stop is a front-end shutdown);
  // drain it directly for a clean teardown.
  LocalTransport local(&service);
  ServiceClient ops(&local);
  ASSERT_TRUE(ops.Hello("ops").ok());
  ASSERT_TRUE(ops.Drain().ok());
}

TEST(ServerTest, RemovesUnixSocketOnStopAndDrain) {
  const std::string address = SocketAddress("unlink");
  const std::string path = address.substr(5);  // after "unix:"
  {
    CumulonService service(SmallServiceOptions());
    ServiceServer server(&service);
    ASSERT_TRUE(server.Start(address).ok());
    EXPECT_EQ(access(path.c_str(), F_OK), 0);
    server.Stop();
    EXPECT_NE(access(path.c_str(), F_OK), 0) << path << " left after Stop";
    LocalTransport local(&service);
    ServiceClient ops(&local);
    ASSERT_TRUE(ops.Hello("ops").ok());
    ASSERT_TRUE(ops.Drain().ok());
  }
  CumulonService service(SmallServiceOptions());
  ServiceServer server(&service);
  ASSERT_TRUE(server.Start(address).ok());
  EXPECT_EQ(access(path.c_str(), F_OK), 0);
  auto transport = SocketTransport::Connect(address);
  ASSERT_TRUE(transport.ok()) << transport.status();
  ServiceClient client(transport->get());
  ASSERT_TRUE(client.Hello("ops").ok());
  ASSERT_TRUE(client.Drain().ok());
  server.WaitUntilStopped();
  EXPECT_NE(access(path.c_str(), F_OK), 0) << path << " left after DRAIN";
}

}  // namespace
}  // namespace cumulon

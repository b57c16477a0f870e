#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "svc/catalog.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/loadgen.h"
#include "svc/message.h"
#include "svc/service.h"
#include "svc/session.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, BuildsAndSerializesObjects) {
  JsonValue frame = JsonValue::Object();
  frame.Set("type", "SUBMIT").Set("plan", 42).Set("ok", true).Set("x", 1.5);
  EXPECT_EQ(frame.ToString(),
            "{\"type\":\"SUBMIT\",\"plan\":42,\"ok\":true,\"x\":1.5}");
}

TEST(JsonTest, RoundTripsNestedDocuments) {
  const std::string text =
      "{\"a\":[1,2,{\"b\":null}],\"s\":\"he said \\\"hi\\\"\",\"n\":-3.25}";
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Find("a")->items().size(), 3u);
  EXPECT_EQ(parsed->StringOr("s", ""), "he said \"hi\"");
  EXPECT_EQ(parsed->NumberOr("n", 0.0), -3.25);
  // Serialize -> parse again -> identical serialization (stable order).
  auto again = ParseJson(parsed->ToString());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->ToString(), parsed->ToString());
}

TEST(JsonTest, IntegersSurviveWithoutExponents) {
  JsonValue v = JsonValue::Object();
  v.Set("id", static_cast<int64_t>(1234567890123LL));
  auto parsed = ParseJson(v.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->IntOr("id", 0), 1234567890123LL);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  // Depth bomb stays an error, not a stack overflow.
  std::string bomb;
  for (int i = 0; i < 1000; ++i) bomb += "[";
  EXPECT_FALSE(ParseJson(bomb).ok());
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  auto parsed = ParseJson("{\"s\":\"\\u0041\\u00e9\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->StringOr("s", ""), "A\xc3\xa9");
}

// ---------------------------------------------------------------------------
// Typed errors and message codecs
// ---------------------------------------------------------------------------

TEST(MessageTest, TypedErrorRoundTripsThroughErrorFrame) {
  const Status status = TypedError(StatusCode::kResourceExhausted,
                                   "quota.inflight", "tenant at limit");
  EXPECT_EQ(ErrorReason(status), "quota.inflight");
  EXPECT_EQ(ErrorText(status), "tenant at limit");

  const JsonValue frame = EncodeError(status, /*plan_id=*/7);
  EXPECT_EQ(frame.StringOr("type", ""), "ERROR");
  EXPECT_EQ(frame.StringOr("reason", ""), "quota.inflight");
  EXPECT_EQ(frame.IntOr("plan", 0), 7);

  const Status decoded = DecodeError(frame);
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ErrorReason(decoded), "quota.inflight");
  EXPECT_EQ(ErrorText(decoded), "tenant at limit");
}

TEST(MessageTest, PlainStatusReadsAsInternalReason) {
  EXPECT_EQ(ErrorReason(Status::Internal("boom")), "internal");
  EXPECT_EQ(ErrorText(Status::Internal("boom")), "boom");
}

TEST(MessageTest, QueuedPlansRoundTrip) {
  std::vector<SubmitRequest> plans(2);
  plans[0].tenant = "alice";
  plans[0].name = "nightly";
  plans[0].workload = "mm-m";
  plans[0].deadline_seconds = 600.0;
  plans[1].tenant = "bob";
  plans[1].workload = "rsvd";
  plans[1].budget_dollars = 12.5;

  const std::string text = EncodeQueuedPlans(plans);
  auto decoded = DecodeQueuedPlans(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].tenant, "alice");
  EXPECT_EQ((*decoded)[0].name, "nightly");
  EXPECT_EQ((*decoded)[0].workload, "mm-m");
  EXPECT_EQ((*decoded)[0].deadline_seconds, 600.0);
  EXPECT_EQ((*decoded)[1].tenant, "bob");
  EXPECT_EQ((*decoded)[1].budget_dollars, 12.5);

  EXPECT_FALSE(DecodeQueuedPlans("{\"v\":99,\"plans\":[]}").ok());
  EXPECT_FALSE(DecodeQueuedPlans("not json").ok());
}

TEST(MessageTest, SubmitRequestRequiresWorkload) {
  JsonValue frame = JsonValue::Object();
  frame.Set("tenant", "t");
  auto decoded = SubmitRequest::FromJson(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(ErrorReason(decoded.status()), "proto.malformed");
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(CatalogTest, EveryListedClassBuilds) {
  for (const std::string& name : CatalogWorkloads()) {
    auto spec = MakeCatalogWorkload(name, /*scale=*/0.25, /*tile_dim=*/2048);
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.status();
    EXPECT_FALSE(spec->inputs.empty()) << name;
  }
  EXPECT_FALSE(MakeCatalogWorkload("nonsense", 1.0, 2048).ok());
}

TEST(CatalogTest, MatMulLadderIgnoresScaleAndPrefixesInputs) {
  auto a = MakeCatalogWorkload("mm-s", 1.0, 2048);
  auto b = MakeCatalogWorkload("mm-s", 0.01, 2048);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->inputs.size(), b->inputs.size());
  for (size_t i = 0; i < a->inputs.size(); ++i) {
    EXPECT_EQ(a->inputs[i].name, b->inputs[i].name);
    EXPECT_EQ(a->inputs[i].name.rfind("mm_s_", 0), 0u)
        << a->inputs[i].name;
  }
}

// ---------------------------------------------------------------------------
// Sessions and quotas
// ---------------------------------------------------------------------------

TEST(SessionTest, OpenAuthMapsTokenToTenant) {
  SessionManager sessions((SessionOptions()));
  auto id = sessions.Open(kProtocolVersion, "alice");
  ASSERT_TRUE(id.ok()) << id.status();
  auto tenant = sessions.TenantOf(*id);
  ASSERT_TRUE(tenant.ok());
  EXPECT_EQ(*tenant, "alice");
  EXPECT_EQ(sessions.open_sessions(), 1);
  sessions.Close(*id);
  EXPECT_EQ(sessions.open_sessions(), 0);
  EXPECT_EQ(ErrorReason(sessions.TenantOf(*id).status()),
            "auth.unknown_session");
}

TEST(SessionTest, ClosedAuthRejectsUnknownTokens) {
  SessionOptions options;
  options.open_auth = false;
  options.tokens = {{"secret-1", "alice"}, {"secret-2", "alice"}};
  SessionManager sessions(options);
  EXPECT_EQ(ErrorReason(sessions.Open(kProtocolVersion, "alice").status()),
            "auth.unknown_token");
  auto id = sessions.Open(kProtocolVersion, "secret-2");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*sessions.TenantOf(*id), "alice");
}

TEST(SessionTest, RejectsWrongProtocolVersion) {
  SessionManager sessions((SessionOptions()));
  auto id = sessions.Open(kProtocolVersion + 1, "alice");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(ErrorReason(id.status()), "proto.version");
}

TEST(SessionTest, InflightQuotaEnforcedAcrossSessionsOfOneTenant) {
  SessionOptions options;
  options.default_quota.max_inflight_plans = 2;
  SessionManager sessions(options);
  ASSERT_TRUE(sessions.Open(kProtocolVersion, "alice").ok());
  ASSERT_TRUE(sessions.Open(kProtocolVersion, "alice").ok());  // 2nd conn

  EXPECT_TRUE(sessions.AdmitCheck("alice", 0.1).ok());
  sessions.OnAdmitted("alice", 0.1);
  sessions.OnAdmitted("alice", 0.1);
  const Status full = sessions.AdmitCheck("alice", 0.1);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ErrorReason(full), "quota.inflight");
  // Quota is per tenant, not per session: a different tenant is fine.
  EXPECT_TRUE(sessions.AdmitCheck("bob", 0.1).ok());
  // Finishing a plan frees the slot.
  sessions.OnFinished("alice");
  EXPECT_TRUE(sessions.AdmitCheck("alice", 0.1).ok());
}

TEST(SessionTest, AggregateBudgetQuotaStaysSpent) {
  SessionOptions options;
  options.tenant_quotas["cheap"] = TenantQuota{8, 1.0};
  SessionManager sessions(options);
  EXPECT_TRUE(sessions.AdmitCheck("cheap", 0.6).ok());
  sessions.OnAdmitted("cheap", 0.6);
  const Status over = sessions.AdmitCheck("cheap", 0.6);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(ErrorReason(over), "quota.budget");
  // The budget is an aggregate: finishing does NOT refund it.
  sessions.OnFinished("cheap");
  EXPECT_EQ(ErrorReason(sessions.AdmitCheck("cheap", 0.6)), "quota.budget");
  // But a plan that still fits is admitted.
  EXPECT_TRUE(sessions.AdmitCheck("cheap", 0.3).ok());
}

// ---------------------------------------------------------------------------
// Service end-to-end over the in-process transport
// ---------------------------------------------------------------------------

/// Polls until the plan is terminal (the reaper runs every ~2 ms).
ServiceClient::PollReply PollToTerminal(ServiceClient* client, int64_t plan) {
  ServiceClient::PollReply poll;
  for (int i = 0; i < 5000; ++i) {
    auto reply = client->Poll(plan);
    EXPECT_TRUE(reply.ok()) << reply.status();
    if (!reply.ok()) break;
    poll = *reply;
    if (poll.terminal) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return poll;
}

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

TEST(ServiceTest, SubmitPollResultLifecycle) {
  CumulonService service(SmallServiceOptions());
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("alice").ok());
  EXPECT_GT(client.session(), 0);
  EXPECT_EQ(client.tenant(), "alice");

  auto submit = client.Submit("mm-s");
  ASSERT_TRUE(submit.ok()) << submit.status();
  EXPECT_GT(submit->plan, 0);
  EXPECT_GT(submit->estimate_seconds, 0.0);

  const ServiceClient::PollReply poll = PollToTerminal(&client, submit->plan);
  ASSERT_TRUE(poll.terminal);
  EXPECT_EQ(poll.state, "DONE");
  EXPECT_GT(poll.cursor, 1);

  // RESULT carries the final PlanStats.
  JsonValue result_req = JsonValue::Object();
  result_req.Set("type", "RESULT")
      .Set("session", client.session())
      .Set("plan", submit->plan);
  const JsonValue result = service.Dispatch(result_req);
  EXPECT_EQ(result.StringOr("type", ""), "RESULT_OK");
  EXPECT_EQ(result.StringOr("state", ""), "DONE");
  EXPECT_GT(result.NumberOr("sim_seconds", 0.0), 0.0);
  EXPECT_GT(result.IntOr("total_tasks", 0), 0);

  auto persisted = client.Drain();
  ASSERT_TRUE(persisted.ok()) << persisted.status();
  EXPECT_EQ(*persisted, 0);
  EXPECT_EQ(service.metrics()->counter("svc.submit.accepted")->Value(), 1);
}

TEST(ServiceTest, CursorChangesOnlyOnStateTransitions) {
  ServiceOptions options = SmallServiceOptions();
  options.defer_start = true;  // pin the plan in QUEUED
  CumulonService service(options);
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("alice").ok());
  auto submit = client.Submit("mm-s");
  ASSERT_TRUE(submit.ok()) << submit.status();

  auto first = client.Poll(submit->plan, /*cursor=*/0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->state, "QUEUED");
  EXPECT_TRUE(first->changed);  // cursor 0 -> server cursor
  auto second = client.Poll(submit->plan, first->cursor);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->changed);  // nothing moved since
  client.Drain().IgnoreError();
}

TEST(ServiceTest, RejectsOverQuotaSubmitWithTypedError) {
  ServiceOptions options = SmallServiceOptions();
  options.defer_start = true;  // keep plans in flight deterministically
  options.session.default_quota.max_inflight_plans = 1;
  CumulonService service(options);
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("greedy").ok());

  ASSERT_TRUE(client.Submit("mm-s").ok());
  auto second = client.Submit("mm-s");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ErrorReason(second.status()), "quota.inflight");
  EXPECT_EQ(
      service.metrics()->counter("svc.submit.rejected.quota")->Value(), 1);

  // The rejection got a pollable terminal record with the verdict.
  auto rejected = client.Poll(/*plan=*/2);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->state, "REJECTED");
  client.Drain().IgnoreError();
}

TEST(ServiceTest, RejectsCorruptedPlanWithTypedVerifyError) {
  // SUBMIT carries catalog workload names, so the only way to reach the
  // daemon with a broken plan is a miscompile between lowering and
  // admission — injected here through the test-only plan mutator. The
  // verifier must refuse it before the manager ever sees it, with the
  // typed verify.* reason on the wire.
  ServiceOptions options = SmallServiceOptions();
  options.plan_mutator_for_test = [](PhysicalPlan* plan) {
    // Strip the determinism contract Lower() just stamped — the smallest
    // corruption every lowered plan is guaranteed to carry.
    plan->determinism = {};
  };
  CumulonService service(options);
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("alice").ok());

  auto submit = client.Submit("mm-s");
  ASSERT_FALSE(submit.ok());
  EXPECT_EQ(submit.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ErrorReason(submit.status()).rfind("verify.", 0), 0u)
      << ErrorReason(submit.status());
  EXPECT_EQ(
      service.metrics()->counter("svc.submit.rejected.verify")->Value(), 1);
  // Rejected pre-admission: the manager never counted a submission.
  EXPECT_EQ(service.metrics()->counter("sched.admitted")->Value(), 0);
  EXPECT_EQ(service.metrics()->counter("svc.submit.accepted")->Value(), 0);

  // The verdict is pollable, like every other rejection.
  auto rejected = client.Poll(/*plan=*/1);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->state, "REJECTED");
  client.Drain().IgnoreError();
}

TEST(ServiceTest, RejectsUnknownWorkloadAndForeignPlans) {
  ServiceOptions options = SmallServiceOptions();
  options.defer_start = true;
  CumulonService service(options);
  LocalTransport transport(&service);
  ServiceClient alice(&transport);
  ServiceClient bob(&transport);
  ASSERT_TRUE(alice.Hello("alice").ok());
  ASSERT_TRUE(bob.Hello("bob").ok());

  auto unknown = alice.Submit("quantum-matmul");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(ErrorReason(unknown.status()), "workload.unknown");

  auto submit = alice.Submit("mm-s");
  ASSERT_TRUE(submit.ok());
  auto foreign = bob.Poll(submit->plan);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(ErrorReason(foreign.status()), "plan.foreign");
  auto missing = alice.Poll(99999);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(ErrorReason(missing.status()), "plan.unknown");
  alice.Drain().IgnoreError();
}

TEST(ServiceTest, HelloVersionAndSessionChecks) {
  CumulonService service(SmallServiceOptions());
  JsonValue hello = JsonValue::Object();
  hello.Set("type", "HELLO").Set("v", 99).Set("token", "x");
  const JsonValue reply = service.Dispatch(hello);
  EXPECT_EQ(reply.StringOr("type", ""), "ERROR");
  EXPECT_EQ(reply.StringOr("reason", ""), "proto.version");

  JsonValue submit = JsonValue::Object();
  submit.Set("type", "SUBMIT").Set("session", 12345).Set("workload", "mm-s");
  const JsonValue bad_session = service.Dispatch(submit);
  EXPECT_EQ(bad_session.StringOr("reason", ""), "auth.unknown_session");

  JsonValue nonsense = JsonValue::Object();
  nonsense.Set("type", "TELEPORT");
  EXPECT_EQ(service.Dispatch(nonsense).StringOr("reason", ""),
            "proto.malformed");
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("x").ok());
  client.Drain().IgnoreError();
}

TEST(ServiceTest, CancelQueuedPlan) {
  ServiceOptions options = SmallServiceOptions();
  options.defer_start = true;
  CumulonService service(options);
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("alice").ok());
  auto submit = client.Submit("mm-s");
  ASSERT_TRUE(submit.ok());
  ASSERT_TRUE(client.Cancel(submit->plan).ok());

  const ServiceClient::PollReply poll = PollToTerminal(&client, submit->plan);
  ASSERT_TRUE(poll.terminal);
  EXPECT_EQ(poll.state, "CANCELLED");
  // Cancelling a finished plan is a typed error.
  auto again = client.Cancel(submit->plan);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(ErrorReason(again), "plan.terminal");
  client.Drain().IgnoreError();
}

TEST(ServiceTest, StatsReportQueueAndFleet) {
  ServiceOptions options = SmallServiceOptions();
  options.defer_start = true;
  CumulonService service(options);
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("alice").ok());
  ASSERT_TRUE(client.Submit("mm-s").ok());
  ASSERT_TRUE(client.Submit("mm-m").ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->StringOr("type", ""), "STATS_OK");
  EXPECT_EQ(stats->IntOr("inflight", 0), 2);
  EXPECT_EQ(stats->IntOr("sessions", 0), 1);
  EXPECT_GE(stats->IntOr("fleet_machines", 0), 1);
  EXPECT_GE(stats->IntOr("fleet_slots", 0), 2);
  EXPECT_FALSE(stats->BoolOr("draining", true));
  client.Drain().IgnoreError();
}

// ---------------------------------------------------------------------------
// Drain persistence and restore
// ---------------------------------------------------------------------------

class ServiceDrainTest : public ::testing::Test {
 protected:
  // One state directory per test case and process: ctest runs the cases
  // in parallel, and a shared directory would let one case's drain file
  // be restored by another.
  ServiceDrainTest() {
    state_dir_ = testing::TempDir() + "svc_drain_" +
                 testing::UnitTest::GetInstance()->current_test_info()->name() +
                 "_" + std::to_string(getpid());
    std::remove(DrainFile().c_str());
    std::remove(TempFile().c_str());
    (void)mkdir(state_dir_.c_str(), 0755);
  }

  ~ServiceDrainTest() override {
    std::remove(DrainFile().c_str());
    std::remove(TempFile().c_str());
    (void)rmdir(state_dir_.c_str());
  }

  std::string DrainFile() const { return state_dir_ + "/queued_plans.json"; }
  /// Where DRAIN stages the drain file before renaming it into place.
  std::string TempFile() const { return DrainFile() + ".tmp"; }

  static bool Exists(const std::string& path) {
    struct stat st;
    return stat(path.c_str(), &st) == 0;
  }

  /// Queues two plans on a deferred daemon over the state dir and drains
  /// it, leaving a drain file that holds both.
  void DrainTwoPlans() {
    ServiceOptions options = SmallServiceOptions();
    options.state_dir = state_dir_;
    options.defer_start = true;
    CumulonService service(options);
    LocalTransport transport(&service);
    ServiceClient client(&transport);
    ASSERT_TRUE(client.Hello("alice").ok());
    ASSERT_TRUE(client.Submit("mm-s").ok());
    ASSERT_TRUE(client.Submit("mm-m").ok());
    auto drained = client.Drain();
    ASSERT_TRUE(drained.ok()) << drained.status();
    ASSERT_EQ(*drained, 2);
  }

  std::string state_dir_;
};

TEST_F(ServiceDrainTest, DrainPersistsQueuedPlansAndRestartRestoresThem) {
  ServiceOptions options = SmallServiceOptions();
  options.state_dir = state_dir_;
  options.defer_start = true;  // every admitted plan stays queued

  int64_t persisted = 0;
  {
    CumulonService service(options);
    LocalTransport transport(&service);
    ServiceClient client(&transport);
    ASSERT_TRUE(client.Hello("alice").ok());
    ASSERT_TRUE(client.Submit("mm-s", "job-a").ok());
    ASSERT_TRUE(client.Submit("mm-m", "job-b", /*deadline_seconds=*/3600.0)
                    .ok());

    // Submissions are refused while draining / after drain.
    auto drained = client.Drain();
    ASSERT_TRUE(drained.ok()) << drained.status();
    persisted = *drained;
    EXPECT_EQ(persisted, 2);
    auto late = client.Submit("mm-s");
    ASSERT_FALSE(late.ok());
    EXPECT_EQ(ErrorReason(late.status()), "draining");
    EXPECT_EQ(service.metrics()->counter("svc.drain.persisted")->Value(), 2);
    // Drain is idempotent once complete.
    auto again = client.Drain();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, persisted);
  }

  // Restart on the same state dir: the queued specs come back through the
  // full admission path and then run to completion.
  ServiceOptions restart = SmallServiceOptions();
  restart.state_dir = state_dir_;
  CumulonService service(restart);
  EXPECT_EQ(service.restored_plans(), 2);
  EXPECT_EQ(service.metrics()->counter("svc.restore.restored")->Value(), 2);

  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("alice").ok());
  // The restored records are pollable under their persisted names.
  const ServiceClient::PollReply poll = PollToTerminal(&client, 1);
  EXPECT_EQ(poll.state, "DONE");
  // The drain file was consumed: a third daemon starts fresh.
  client.Drain().IgnoreError();
  CumulonService fresh(restart);
  EXPECT_EQ(fresh.restored_plans(), 0);
}

TEST_F(ServiceDrainTest, RestoreReappliesAdmissionDecisions) {
  // A quota that admits exactly one of the two persisted plans must make
  // the same split after the restart: restored submissions go through
  // SubmitInternal like fresh ones.
  ServiceOptions options = SmallServiceOptions();
  options.state_dir = state_dir_;
  options.defer_start = true;
  {
    CumulonService service(options);
    LocalTransport transport(&service);
    ServiceClient client(&transport);
    ASSERT_TRUE(client.Hello("alice").ok());
    ASSERT_TRUE(client.Submit("mm-s").ok());
    ASSERT_TRUE(client.Submit("mm-s").ok());
    auto drained = client.Drain();
    ASSERT_TRUE(drained.ok());
    ASSERT_EQ(*drained, 2);
  }

  ServiceOptions restart = SmallServiceOptions();
  restart.state_dir = state_dir_;
  restart.defer_start = true;
  restart.session.default_quota.max_inflight_plans = 1;
  CumulonService service(restart);
  // Same admission logic, tighter quota: exactly one restored plan fits.
  EXPECT_EQ(service.restored_plans(), 1);
  EXPECT_EQ(service.metrics()->counter("svc.restore.restored")->Value(), 1);
  EXPECT_EQ(service.metrics()->counter("svc.restore.rejected")->Value(), 1);
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("ops").ok());
  client.Drain().IgnoreError();
}

TEST_F(ServiceDrainTest, DrainRenamesItsTempFileIntoPlace) {
  DrainTwoPlans();
  EXPECT_TRUE(Exists(DrainFile()));
  EXPECT_FALSE(Exists(TempFile()));

  ServiceOptions restart = SmallServiceOptions();
  restart.state_dir = state_dir_;
  restart.defer_start = true;
  CumulonService service(restart);
  EXPECT_EQ(service.restored_plans(), 2);
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("ops").ok());
  client.Drain().IgnoreError();
}

TEST_F(ServiceDrainTest, TornTempFileLeavesTheLastDrainFileRestored) {
  // A crash mid-write leaves a torn temp file beside the last complete
  // drain file; the restart removes it unread and restores the good file.
  DrainTwoPlans();
  {
    std::FILE* f = std::fopen(TempFile().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"version\": 1, \"plans\": [{\"workl", f);
    std::fclose(f);
  }
  ServiceOptions restart = SmallServiceOptions();
  restart.state_dir = state_dir_;
  restart.defer_start = true;
  CumulonService service(restart);
  EXPECT_EQ(service.restored_plans(), 2);
  EXPECT_FALSE(Exists(TempFile()));
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("ops").ok());
  client.Drain().IgnoreError();
}

TEST_F(ServiceDrainTest, CorruptDrainFileIsIgnored) {
  {
    std::FILE* f =
        std::fopen((state_dir_ + "/queued_plans.json").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{corrupt", f);
    std::fclose(f);
  }
  ServiceOptions options = SmallServiceOptions();
  options.state_dir = state_dir_;
  CumulonService service(options);
  EXPECT_EQ(service.restored_plans(), 0);
}

// ---------------------------------------------------------------------------
// Load generator plumbing
// ---------------------------------------------------------------------------

TEST(LoadGenTest, ExactPercentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(ExactPercentile(v, 0.50), 50.0);
  EXPECT_EQ(ExactPercentile(v, 0.99), 99.0);
  EXPECT_EQ(ExactPercentile(v, 1.0), 100.0);
  EXPECT_EQ(ExactPercentile({}, 0.5), 0.0);
  EXPECT_EQ(ExactPercentile({7.0}, 0.99), 7.0);
}

TEST(LoadGenTest, ClosedLoopAgainstLocalService) {
  CumulonService service(SmallServiceOptions());
  LoadGenOptions options;
  options.tenants = 8;
  options.total_submissions = 40;
  options.workers = 4;
  options.think_mean_seconds = 0.0;
  options.workload_mix = {{"mm-s", 1.0}};
  auto report = RunLoadGen(
      [&]() -> Result<std::unique_ptr<Transport>> {
        return std::unique_ptr<Transport>(new LocalTransport(&service));
      },
      options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->submitted, 40);
  EXPECT_EQ(report->accepted + report->rejected_quota +
                report->rejected_admission + report->rejected_draining +
                report->rejected_other + report->transport_errors,
            40);
  EXPECT_EQ(report->completed + report->failed + report->cancelled +
                report->poll_timeouts,
            report->accepted);
  EXPECT_GT(report->accepted, 0);
  EXPECT_GT(report->admission_p99_seconds, 0.0);
  EXPECT_GE(report->admission_p99_seconds, report->admission_p50_seconds);
  LocalTransport transport(&service);
  ServiceClient client(&transport);
  ASSERT_TRUE(client.Hello("ops").ok());
  client.Drain().IgnoreError();
}

}  // namespace
}  // namespace cumulon

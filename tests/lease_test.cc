// Tests for the lease manager and client-side lease protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lease/lease_client.h"
#include "lease/lease_manager.h"
#include "qos/admission.h"

namespace arkfs::lease {
namespace {

class LeaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_shared<rpc::Fabric>(sim::NetworkProfile::Instant());
    manager_ = std::make_unique<LeaseManager>(fabric_, config_);
    ASSERT_TRUE(manager_->Start().ok());
  }

  LeaseClient MakeClient(const std::string& name) {
    LeaseClient::Options options;
    options.wait_budget = Millis(500);
    options.initial_backoff = Millis(1);
    // Keep transport retries short so unreachable-manager tests don't ride
    // the 2 s production deadline.
    options.rpc_retry.max_attempts = 3;
    options.rpc_retry.initial_backoff = Millis(1);
    options.rpc_retry.max_backoff = Millis(5);
    options.rpc_retry.deadline = Millis(100);
    return LeaseClient(fabric_, name, options);
  }

  LeaseManagerConfig config_ = LeaseManagerConfig::ForTests();
  rpc::FabricPtr fabric_;
  std::unique_ptr<LeaseManager> manager_;
  Uuid dir_ = DeterministicUuid(1, 1);
};

TEST_F(LeaseTest, FirstComeFirstServed) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto grant = c1.Acquire(dir_);
  ASSERT_TRUE(grant.ok());
  EXPECT_FALSE(grant->fresh);  // first acquisition ever
  EXPECT_TRUE(grant->prev_leader.empty());

  auto denied = c2.Acquire(dir_);
  ASSERT_FALSE(denied.ok());
  ASSERT_TRUE(IsRedirect(denied.status()));
  EXPECT_EQ(denied.status().detail(), "c1");
  EXPECT_EQ(manager_->ActiveLeaseCount(), 1u);
}

TEST_F(LeaseTest, HolderExtensionIsFresh) {
  auto c1 = MakeClient("c1");
  ASSERT_TRUE(c1.Acquire(dir_).ok());
  auto again = c1.Acquire(dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->fresh);
}

TEST_F(LeaseTest, ReacquireAfterExpiryBySameClientIsFresh) {
  auto c1 = MakeClient("c1");
  ASSERT_TRUE(c1.Acquire(dir_).ok());
  SleepFor(config_.lease_period + Millis(50));
  auto again = c1.Acquire(dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->fresh);  // nobody led in between
}

TEST_F(LeaseTest, TakeoverAfterExpiryNamesPreviousLeader) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  ASSERT_TRUE(c1.Acquire(dir_).ok());
  SleepFor(config_.lease_period + Millis(50));
  auto grant = c2.Acquire(dir_);
  ASSERT_TRUE(grant.ok());
  EXPECT_FALSE(grant->fresh);
  EXPECT_EQ(grant->prev_leader, "c1");  // flush-handshake target
  EXPECT_FALSE(grant->prev_released);   // expiry is not a clean handoff
}

TEST_F(LeaseTest, ReleaseFreesTheLease) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  ASSERT_TRUE(c1.Acquire(dir_).ok());
  ASSERT_TRUE(c1.Release(dir_).ok());
  auto grant = c2.Acquire(dir_);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(grant->prev_leader, "c1");
  // A token-less (legacy) release frees the lease but vouches for nothing.
  EXPECT_FALSE(grant->prev_released);
}

// A tenure that ends in a Release carrying its own fencing token is a clean
// handoff: the next grant says so, so the new leader need not treat an
// unreachable (unmounted) predecessor as crashed.
TEST_F(LeaseTest, TokenMatchedReleaseMarksNextGrantClean) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto first = c1.Acquire(dir_);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->prev_released);  // nobody led before
  ASSERT_TRUE(c1.Release(dir_, first->token).ok());
  auto grant = c2.Acquire(dir_);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(grant->prev_leader, "c1");
  EXPECT_TRUE(grant->prev_released);
}

TEST_F(LeaseTest, NextGrantClearsReleasedMark) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto c3 = MakeClient("c3");
  auto first = c1.Acquire(dir_);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(c1.Release(dir_, first->token).ok());
  auto second = c2.Acquire(dir_);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->prev_released);
  // c2 never releases; its tenure ends by expiry, so c3's takeover must not
  // inherit c1's clean release.
  SleepFor(config_.lease_period + Millis(50));
  auto third = c3.Acquire(dir_);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->prev_leader, "c2");
  EXPECT_FALSE(third->prev_released);
}

TEST_F(LeaseTest, StaleTokenReleaseIsNotClean) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto c3 = MakeClient("c3");
  auto old_grant = c1.Acquire(dir_);
  ASSERT_TRUE(old_grant.ok());
  SleepFor(config_.lease_period + Millis(50));
  auto taken = c2.Acquire(dir_);  // expiry takeover, new token
  ASSERT_TRUE(taken.ok());
  // c1's late release names the tenure c2 replaced: ignored outright.
  ASSERT_TRUE(c1.Release(dir_, old_grant->token).ok());
  EXPECT_TRUE(IsRedirect(c3.Acquire(dir_).status()));
  SleepFor(config_.lease_period + Millis(50));
  auto grant = c3.Acquire(dir_);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(grant->prev_leader, "c2");
  EXPECT_FALSE(grant->prev_released);
}

TEST_F(LeaseTest, RecoveredTenureIsNotClean) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto c3 = MakeClient("c3");
  auto first = c1.Acquire(dir_);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(c1.Release(dir_, first->token).ok());
  // c2 leads through a recovery instead of a grant, then lets the lease
  // lapse: c1's clean release says nothing about how c2's tenure ended.
  ASSERT_TRUE(c2.BeginRecovery(dir_).ok());
  ASSERT_TRUE(c2.EndRecovery(dir_).ok());
  SleepFor(config_.lease_period + Millis(50));
  auto grant = c3.Acquire(dir_);
  ASSERT_TRUE(grant.ok());
  EXPECT_EQ(grant->prev_leader, "c2");
  EXPECT_FALSE(grant->prev_released);
}

TEST_F(LeaseTest, ManagerFailoverForgetsCleanRelease) {
  auto c1 = MakeClient("c1");
  auto first = c1.Acquire(dir_);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(c1.Release(dir_, first->token).ok());
  manager_->Restart();  // lease state lost, new epoch, quiet period
  auto patient = MakeClient("c2");
  auto grant = patient.Acquire(dir_);
  ASSERT_TRUE(grant.ok());
  EXPECT_TRUE(grant->prev_leader.empty());
  EXPECT_FALSE(grant->prev_released);
}

TEST_F(LeaseTest, ReleaseByNonHolderIgnored) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  ASSERT_TRUE(c1.Acquire(dir_).ok());
  ASSERT_TRUE(c2.Release(dir_).ok());  // not the holder: no effect
  auto denied = c2.Acquire(dir_);
  EXPECT_TRUE(IsRedirect(denied.status()));
}

TEST_F(LeaseTest, IndependentDirectoriesIndependentLeases) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  const Uuid other = DeterministicUuid(2, 2);
  ASSERT_TRUE(c1.Acquire(dir_).ok());
  ASSERT_TRUE(c2.Acquire(other).ok());
  EXPECT_EQ(manager_->ActiveLeaseCount(), 2u);
}

TEST_F(LeaseTest, LookupReportsLeader) {
  auto c1 = MakeClient("c1");
  auto before = c1.LookupLeader(dir_);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->has_value());
  ASSERT_TRUE(c1.Acquire(dir_).ok());
  auto after = c1.LookupLeader(dir_);
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after->has_value());
  EXPECT_EQ(**after, "c1");
}

TEST_F(LeaseTest, RecoveryFencesAcquisition) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  ASSERT_TRUE(c1.Acquire(dir_).ok());
  SleepFor(config_.lease_period + Millis(50));

  // c2 starts recovery of the crashed dir.
  ASSERT_TRUE(c2.BeginRecovery(dir_).ok());
  // c1 cannot sneak back in while recovery is running.
  LeaseClient::Options tight;
  tight.wait_budget = Millis(60);
  tight.initial_backoff = Millis(5);
  LeaseClient c1_tight(fabric_, "c1", tight);
  EXPECT_EQ(c1_tight.Acquire(dir_).code(), Errc::kBusy);

  ASSERT_TRUE(c2.EndRecovery(dir_).ok());
  // Recovery renewed the lease on c2.
  auto denied = c1.Acquire(dir_);
  ASSERT_TRUE(IsRedirect(denied.status()));
  EXPECT_EQ(denied.status().detail(), "c2");
}

TEST_F(LeaseTest, RecoveryRejectedWhileLeaderAlive) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  ASSERT_TRUE(c1.Acquire(dir_).ok());
  EXPECT_EQ(c2.BeginRecovery(dir_).code(), Errc::kBusy);
}

TEST_F(LeaseTest, EndRecoveryByWrongClientRejected) {
  auto c2 = MakeClient("c2");
  auto c3 = MakeClient("c3");
  ASSERT_TRUE(c2.BeginRecovery(dir_).ok());
  EXPECT_EQ(c3.EndRecovery(dir_).code(), Errc::kInval);
  ASSERT_TRUE(c2.EndRecovery(dir_).ok());
}

TEST_F(LeaseTest, ManagerRestartImposesQuietPeriod) {
  auto c1 = MakeClient("c1");
  ASSERT_TRUE(c1.Acquire(dir_).ok());
  manager_->Restart();
  // Within the quiet period every acquire is told to wait.
  LeaseClient::Options tight;
  tight.wait_budget = Millis(20);
  tight.initial_backoff = Millis(5);
  LeaseClient c2(fabric_, "c2", tight);
  EXPECT_EQ(c2.Acquire(dir_).code(), Errc::kBusy);

  // After the quiet period (one lease term) acquisition works again — with
  // a patient client.
  auto patient = MakeClient("c3");
  auto grant = patient.Acquire(dir_);
  ASSERT_TRUE(grant.ok());
  // State was lost, so no previous leader is known.
  EXPECT_TRUE(grant->prev_leader.empty());
}

TEST_F(LeaseTest, ManagerUnreachableSurfacesTimeout) {
  manager_->Stop();
  auto c1 = MakeClient("c1");
  EXPECT_EQ(c1.Acquire(dir_).code(), Errc::kTimedOut);
}

TEST_F(LeaseTest, GrantCarriesFencingToken) {
  auto c1 = MakeClient("c1");
  auto grant = c1.Acquire(dir_);
  ASSERT_TRUE(grant.ok());
  EXPECT_TRUE(grant->token.valid());
  EXPECT_EQ(grant->token.epoch, manager_->epoch());

  // Extension keeps the token; a new tenure after expiry gets a fresh one.
  auto extended = c1.Acquire(dir_);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended->token, grant->token);

  SleepFor(config_.lease_period + Millis(50));
  auto fresh = c1.Acquire(dir_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(grant->token < fresh->token);
}

TEST_F(LeaseTest, RedirectGrantsDelegationWithLeaderWatermark) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  LeaseClient::AcquireOptions leader_opts;
  leader_opts.watermark = 5;  // leader-side journal watermark report
  auto grant = c1.Acquire(dir_, leader_opts, nullptr);
  ASSERT_TRUE(grant.ok());

  LeaseClient::AcquireOptions want;
  want.want_delegation = true;
  LeaseClient::Delegation deleg;
  auto redirected = c2.Acquire(dir_, want, &deleg);
  ASSERT_FALSE(redirected.ok());
  ASSERT_TRUE(IsRedirect(redirected.status()));
  EXPECT_TRUE(deleg.granted);
  EXPECT_EQ(deleg.token, grant->token);
  EXPECT_EQ(deleg.watermark, 5u);
  EXPECT_GT(deleg.until, Now());

  // The leader's renewal refreshes the stored watermark; the next redirect
  // hands the newer value out.
  leader_opts.watermark = 9;
  ASSERT_TRUE(c1.Acquire(dir_, leader_opts, nullptr).ok());
  LeaseClient::Delegation refreshed;
  ASSERT_FALSE(c2.Acquire(dir_, want, &refreshed).ok());
  EXPECT_TRUE(refreshed.granted);
  EXPECT_EQ(refreshed.watermark, 9u);

  // No delegation unless asked for.
  LeaseClient::Delegation unasked;
  ASSERT_FALSE(c2.Acquire(dir_, LeaseClient::AcquireOptions{}, &unasked).ok());
  EXPECT_FALSE(unasked.granted);
}

// A redirect names the live lease's expiry, so a non-leader can route to
// the leader without asking again until that lease could lapse.
TEST_F(LeaseTest, RedirectReportsLiveLeaseExpiry) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto grant = c1.Acquire(dir_);
  ASSERT_TRUE(grant.ok());

  LeaseClient::Delegation redirect;
  auto redirected = c2.Acquire(dir_, LeaseClient::AcquireOptions{}, &redirect);
  ASSERT_TRUE(IsRedirect(redirected.status()));
  EXPECT_FALSE(redirect.granted);  // no delegation asked for, expiry still set
  EXPECT_EQ(redirect.leader_until, grant->until);

  // The leader's renewal moves the expiry; the next redirect reports it.
  SleepFor(Millis(5));
  auto renewed = c1.Acquire(dir_);
  ASSERT_TRUE(renewed.ok());
  ASSERT_GT(renewed->until, grant->until);
  LeaseClient::Delegation later;
  ASSERT_FALSE(c2.Acquire(dir_, LeaseClient::AcquireOptions{}, &later).ok());
  EXPECT_EQ(later.leader_until, renewed->until);
}

// --- wire-codec hardening -------------------------------------------------
//
// Lease grants are the root of all fencing decisions, so every message must
// reject truncated input, trailing garbage, and out-of-range enums instead
// of decoding to something plausible.

template <typename Message>
void ExpectStrictCodec(const Message& message) {
  const Bytes encoded = message.Encode();
  // Round trip succeeds on the exact bytes.
  ASSERT_TRUE(Message::Decode(encoded).ok());
  // Every strict prefix is rejected (truncation sweep).
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Bytes truncated(encoded.begin(), encoded.begin() + len);
    EXPECT_FALSE(Message::Decode(truncated).ok())
        << "decoded a " << len << "-byte prefix of a " << encoded.size()
        << "-byte message";
  }
  // Trailing garbage is rejected.
  Bytes padded = encoded;
  padded.push_back(0x5a);
  EXPECT_FALSE(Message::Decode(padded).ok());
}

// Version-tolerant messages: newer fields ride in trailing extension
// blocks, so a frame that stops exactly at ANY older version's boundary
// must still decode (the missing extensions come back defaulted — frames
// from pre-extension peers keep working), while every OTHER truncation and
// any trailing garbage is still rejected. `extension_sizes` lists the
// trailing blocks oldest-first (v2 block, then v3 block, ...).
template <typename Message>
void ExpectVersionTolerantCodec(
    const Message& message,
    std::initializer_list<std::size_t> extension_sizes) {
  const Bytes encoded = message.Encode();
  ASSERT_TRUE(Message::Decode(encoded).ok());
  std::vector<std::size_t> boundaries;
  std::size_t suffix = 0;
  for (auto it = std::rbegin(extension_sizes); it != std::rend(extension_sizes);
       ++it) {
    suffix += *it;
    ASSERT_LT(suffix, encoded.size());
    boundaries.push_back(encoded.size() - suffix);
  }
  auto acceptable = [&](std::size_t len) {
    return std::find(boundaries.begin(), boundaries.end(), len) !=
           boundaries.end();
  };
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Bytes truncated(encoded.begin(), encoded.begin() + len);
    if (acceptable(len)) {
      EXPECT_TRUE(Message::Decode(truncated).ok())
          << "an older-version frame stopping at byte " << len
          << " must still parse";
    } else {
      EXPECT_FALSE(Message::Decode(truncated).ok())
          << "decoded a " << len << "-byte prefix of a " << encoded.size()
          << "-byte message";
    }
  }
  Bytes padded = encoded;
  padded.push_back(0x5a);
  EXPECT_FALSE(Message::Decode(padded).ok());
}

// Trailing extension blocks, per version (fixed-width codec fields).
constexpr std::size_t kAcquireRequestV2Ext = 1 + 8;       // flag + watermark
constexpr std::size_t kAcquireRequestV3Ext = 4;           // tenant
constexpr std::size_t kAcquireResponseV2Ext = 8 + 1 + 8;  // wm + flag + until
constexpr std::size_t kAcquireResponseV3Ext = 8;          // retry_after_ns
constexpr std::size_t kAcquireResponseV4Ext = 1;          // prev_released

TEST(LeaseWireTest, AcquireRequestCodec) {
  AcquireRequest req;
  req.dir_ino = DeterministicUuid(7, 7);
  req.client = "client-3";
  req.want_delegation = true;
  req.watermark = 99;
  req.tenant = 7;
  ExpectVersionTolerantCodec(req, {kAcquireRequestV2Ext, kAcquireRequestV3Ext});
  auto copy = AcquireRequest::Decode(req.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->dir_ino, req.dir_ino);
  EXPECT_EQ(copy->client, req.client);
  EXPECT_TRUE(copy->want_delegation);
  EXPECT_EQ(copy->watermark, 99u);
  EXPECT_EQ(copy->tenant, 7u);
}

TEST(LeaseWireTest, AcquireRequestLegacyFrameParses) {
  // A frame from a pre-delegation sender stops at the v1 boundary; the
  // extension fields must come back defaulted, everything else intact.
  AcquireRequest req;
  req.dir_ino = DeterministicUuid(7, 8);
  req.client = "client-old";
  req.want_delegation = true;  // must NOT survive the truncation
  req.watermark = 1234;
  req.tenant = 42;
  Bytes encoded = req.Encode();
  encoded.resize(encoded.size() - kAcquireRequestV2Ext - kAcquireRequestV3Ext);
  auto legacy = AcquireRequest::Decode(encoded);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->dir_ino, req.dir_ino);
  EXPECT_EQ(legacy->client, req.client);
  EXPECT_FALSE(legacy->want_delegation);
  EXPECT_EQ(legacy->watermark, 0u);
  EXPECT_EQ(legacy->tenant, 0u);
}

TEST(LeaseWireTest, AcquireRequestV2FrameDefaultsTenant) {
  // A frame from a pre-tenant (v2) sender stops before the v3 block; the
  // delegation fields survive, the tenant defaults to 0 ("untenanted").
  AcquireRequest req;
  req.dir_ino = DeterministicUuid(7, 9);
  req.client = "client-v2";
  req.want_delegation = true;
  req.watermark = 55;
  req.tenant = 9;  // must NOT survive the truncation
  Bytes encoded = req.Encode();
  encoded.resize(encoded.size() - kAcquireRequestV3Ext);
  auto v2 = AcquireRequest::Decode(encoded);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->client, req.client);
  EXPECT_TRUE(v2->want_delegation);
  EXPECT_EQ(v2->watermark, 55u);
  EXPECT_EQ(v2->tenant, 0u);
}

TEST(LeaseWireTest, AcquireResponseCodec) {
  AcquireResponse resp;
  resp.outcome = AcquireOutcome::kGranted;
  resp.leader = "c1";
  resp.lease_until_ns = 123456789;
  resp.fresh = true;
  resp.prev_leader = "c0";
  resp.token = FenceToken{4, 17};
  resp.watermark = 41;
  resp.deleg = true;
  resp.deleg_until_ns = 987654321;
  resp.retry_after_ns = 2500000;
  resp.prev_released = true;
  ExpectVersionTolerantCodec(resp, {kAcquireResponseV2Ext,
                                    kAcquireResponseV3Ext,
                                    kAcquireResponseV4Ext});
  auto copy = AcquireResponse::Decode(resp.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->outcome, resp.outcome);
  EXPECT_EQ(copy->leader, resp.leader);
  EXPECT_EQ(copy->lease_until_ns, resp.lease_until_ns);
  EXPECT_EQ(copy->fresh, resp.fresh);
  EXPECT_EQ(copy->prev_leader, resp.prev_leader);
  EXPECT_EQ(copy->token, resp.token);
  EXPECT_EQ(copy->watermark, 41u);
  EXPECT_TRUE(copy->deleg);
  EXPECT_EQ(copy->deleg_until_ns, 987654321);
  EXPECT_EQ(copy->retry_after_ns, 2500000);
  EXPECT_TRUE(copy->prev_released);

  // A redirect carries the live lease's expiry in the same field.
  AcquireResponse redirect;
  redirect.outcome = AcquireOutcome::kRedirect;
  redirect.leader = "c2";
  redirect.lease_until_ns = 555666777;
  auto redirect_copy = AcquireResponse::Decode(redirect.Encode());
  ASSERT_TRUE(redirect_copy.ok());
  EXPECT_EQ(redirect_copy->outcome, AcquireOutcome::kRedirect);
  EXPECT_EQ(redirect_copy->leader, "c2");
  EXPECT_EQ(redirect_copy->lease_until_ns, 555666777);
}

TEST(LeaseWireTest, AcquireResponseLegacyFrameParses) {
  AcquireResponse resp;
  resp.outcome = AcquireOutcome::kRedirect;
  resp.leader = "c9";
  resp.lease_until_ns = 42;
  resp.token = FenceToken{2, 3};
  resp.watermark = 77;
  resp.deleg = true;
  resp.deleg_until_ns = 777;
  resp.retry_after_ns = 999;
  resp.prev_released = true;
  Bytes encoded = resp.Encode();
  encoded.resize(encoded.size() - kAcquireResponseV2Ext -
                 kAcquireResponseV3Ext - kAcquireResponseV4Ext);
  auto legacy = AcquireResponse::Decode(encoded);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->outcome, resp.outcome);
  EXPECT_EQ(legacy->leader, resp.leader);
  EXPECT_EQ(legacy->token, resp.token);
  EXPECT_EQ(legacy->watermark, 0u);   // defaulted
  EXPECT_FALSE(legacy->deleg);        // defaulted: no phantom delegation
  EXPECT_EQ(legacy->deleg_until_ns, 0);
  EXPECT_EQ(legacy->retry_after_ns, 0);
  EXPECT_FALSE(legacy->prev_released);
}

TEST(LeaseWireTest, AcquireResponseV2FrameDefaultsRetryAfter) {
  // A frame from a pre-QoS (v2) manager stops before the v3 block; the
  // delegation fields survive, the retry-after hint defaults to "none".
  AcquireResponse resp;
  resp.outcome = AcquireOutcome::kWait;
  resp.leader = "c2";
  resp.watermark = 13;
  resp.deleg = true;
  resp.deleg_until_ns = 333;
  resp.retry_after_ns = 555;  // must NOT survive the truncation
  resp.prev_released = true;  // nor this
  Bytes encoded = resp.Encode();
  encoded.resize(encoded.size() - kAcquireResponseV3Ext -
                 kAcquireResponseV4Ext);
  auto v2 = AcquireResponse::Decode(encoded);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->outcome, resp.outcome);
  EXPECT_EQ(v2->watermark, 13u);
  EXPECT_TRUE(v2->deleg);
  EXPECT_EQ(v2->deleg_until_ns, 333);
  EXPECT_EQ(v2->retry_after_ns, 0);
  EXPECT_FALSE(v2->prev_released);
}

TEST(LeaseWireTest, AcquireResponseV3FrameDefaultsPrevReleased) {
  // A frame from a pre-handoff-bit (v3) manager stops before the v4 block:
  // the QoS hint survives and the grant never claims a clean release.
  AcquireResponse resp;
  resp.outcome = AcquireOutcome::kGranted;
  resp.prev_leader = "c1";
  resp.retry_after_ns = 777;
  resp.prev_released = true;  // must NOT survive the truncation
  Bytes encoded = resp.Encode();
  encoded.resize(encoded.size() - kAcquireResponseV4Ext);
  auto v3 = AcquireResponse::Decode(encoded);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3->prev_leader, "c1");
  EXPECT_EQ(v3->retry_after_ns, 777);
  EXPECT_FALSE(v3->prev_released);

  // The flag byte is strict: only 0 and 1 decode.
  Bytes bad = resp.Encode();
  bad.back() = 2;
  EXPECT_FALSE(AcquireResponse::Decode(bad).ok());
}

// Manager-side admission control sheds IN-BAND: a throttled tenant gets a
// kWait outcome carrying retry_after_ns, never a status-level kAgain (which
// the client would misread as a standby/leader redirect hint).
TEST(LeaseQosTest, ManagerAdmissionShedsInBandAsWait) {
  auto fabric = std::make_shared<rpc::Fabric>(sim::NetworkProfile::Instant());
  qos::TenantMetrics metrics;
  qos::AdmissionConfig ac;
  ac.enabled = true;
  ac.tenants[5] = qos::TenantRate{1.0, 1.0};  // one token, 1/s refill
  qos::AdmissionController admission(ac, &metrics);
  LeaseManagerConfig config = LeaseManagerConfig::ForTests();
  config.admission = &admission;
  LeaseManager manager(fabric, config);
  ASSERT_TRUE(manager.Start().ok());

  AcquireRequest req;
  req.dir_ino = DeterministicUuid(3, 3);
  req.client = "c1";
  req.tenant = 5;
  AcquireResponse first = manager.Acquire(req);
  EXPECT_EQ(first.outcome, AcquireOutcome::kGranted);
  AcquireResponse second = manager.Acquire(req);  // bucket now empty
  EXPECT_EQ(second.outcome, AcquireOutcome::kWait);
  EXPECT_GT(second.retry_after_ns, 0);

  // An untenanted (tenant 0) request rides the unlimited default bucket.
  AcquireRequest other;
  other.dir_ino = DeterministicUuid(3, 4);
  other.client = "c2";
  AcquireResponse granted = manager.Acquire(other);
  EXPECT_EQ(granted.outcome, AcquireOutcome::kGranted);
  EXPECT_EQ(metrics.For(5).shed.value(), 1u);
  manager.Stop();
}

TEST(LeaseWireTest, AcquireResponseRejectsUnknownOutcome) {
  AcquireResponse resp;
  resp.outcome = AcquireOutcome::kNotActive;
  Bytes encoded = resp.Encode();
  encoded[0] = 0x7f;  // outcome is the first byte
  EXPECT_FALSE(AcquireResponse::Decode(encoded).ok());
}

TEST(LeaseWireTest, ReleaseRequestCodec) {
  ReleaseRequest req;
  req.dir_ino = DeterministicUuid(9, 1);
  req.client = "client-1";
  req.token = FenceToken{2, 5};
  ExpectStrictCodec(req);
  auto copy = ReleaseRequest::Decode(req.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->token, req.token);
}

TEST(LeaseWireTest, RecoveryRequestCodec) {
  RecoveryRequest req;
  req.dir_ino = DeterministicUuid(9, 2);
  req.client = "client-2";
  req.phase = RecoveryPhase::kEnd;
  ExpectStrictCodec(req);
}

TEST(LeaseWireTest, LookupCodecs) {
  LookupRequest req;
  req.dir_ino = DeterministicUuid(9, 3);
  ExpectStrictCodec(req);
  LookupResponse resp;
  resp.has_leader = true;
  resp.leader = "c9";
  ExpectStrictCodec(resp);
}

TEST(LeaseWireTest, PingCodecs) {
  PingRequest req;
  req.epoch = 12;
  req.from = "lease-manager-2";
  ExpectStrictCodec(req);
  PingResponse resp;
  resp.epoch = 12;
  resp.active = true;
  resp.active_hint = "lease-manager-0";
  ExpectStrictCodec(resp);
  auto copy = PingResponse::Decode(resp.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->epoch, 12u);
  EXPECT_TRUE(copy->active);
  EXPECT_EQ(copy->active_hint, "lease-manager-0");
}

TEST(LeaseWireTest, EpochRecordCodec) {
  EpochRecord rec;
  rec.epoch = 42;
  rec.active = "lease-manager-1";
  ExpectStrictCodec(rec);
  auto copy = EpochRecord::Decode(rec.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->epoch, 42u);
  EXPECT_EQ(copy->active, "lease-manager-1");
}

TEST(LeaseWireTest, EpochRecordRejectsCorruption) {
  EpochRecord rec;
  rec.epoch = 7;
  rec.active = "lease-manager-0";
  const Bytes good = rec.Encode();

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(EpochRecord::Decode(bad_magic).ok());

  // A flipped bit anywhere in the body trips the CRC.
  for (std::size_t i = 4; i < good.size(); ++i) {
    Bytes flipped = good;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(EpochRecord::Decode(flipped).ok()) << "byte " << i;
  }

  EXPECT_FALSE(EpochRecord::Decode(Bytes{}).ok());
  EXPECT_FALSE(EpochRecord::Decode(Bytes{0xde, 0xad, 0xbe, 0xef}).ok());
}

TEST(LeaseWireTest, FenceObjectCodec) {
  const FenceToken token{3, 9};
  const Bytes encoded = EncodeFenceObject(token);
  auto decoded = DecodeFenceObject(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, token);

  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Bytes truncated(encoded.begin(), encoded.begin() + len);
    EXPECT_FALSE(DecodeFenceObject(truncated).ok()) << "prefix " << len;
  }
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes flipped = encoded;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(DecodeFenceObject(flipped).ok()) << "byte " << i;
  }
  Bytes padded = encoded;
  padded.push_back(0);
  EXPECT_FALSE(DecodeFenceObject(padded).ok());
}

}  // namespace
}  // namespace arkfs::lease

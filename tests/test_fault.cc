// Unit tests for the fault-injection layer and the recovery machinery it
// exercises: FaultPlan JSON round-trips and deterministic generation, the
// FaultClock's zero-draw determinism contract, the WriteDelivery completion
// rule (Sections 4 and 6), and the write-ahead journal's corruption modes
// (clean tear = exact recovery; damage = conservative superset).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/accelerator.h"
#include "core/delivery.h"
#include "core/journal.h"
#include "fault/clock.h"
#include "fault/plan.h"
#include "http/document_store.h"
#include "net/message.h"
#include "util/time.h"

namespace webcc {
namespace {

// --- fault plans: JSON round-trip ------------------------------------------------

fault::FaultPlan SamplePlan() {
  fault::FaultPlan plan;
  plan.name = "sample";
  plan.events.push_back({.at = 10 * kMinute,
                         .kind = fault::FaultKind::kProxyCrash,
                         .target = 3,
                         .duration = 2 * kMinute});
  plan.events.push_back({.at = 30 * kMinute,
                         .kind = fault::FaultKind::kServerCrash,
                         .target = -1,
                         .duration = 90 * kSecond});
  plan.events.push_back({.at = 5 * kMinute,
                         .kind = fault::FaultKind::kPartition,
                         .target = 1,
                         .duration = 4 * kMinute});
  plan.events.push_back({.at = 20 * kMinute,
                         .kind = fault::FaultKind::kLinkFault,
                         .target = -1,
                         .duration = 10 * kMinute,
                         .drop = 0.25,
                         .duplicate = 0.05,
                         .extra_delay = 40 * kMillisecond});
  return plan;
}

TEST(FaultPlanJson, RoundTripPreservesEveryField) {
  fault::FaultPlan plan = SamplePlan();
  const std::string json = fault::ToJson(plan);

  fault::FaultPlan parsed;
  std::string error;
  ASSERT_TRUE(fault::FromJson(json, parsed, error)) << error;

  fault::Canonicalize(plan);
  ASSERT_EQ(parsed.events.size(), plan.events.size());
  EXPECT_EQ(parsed.name, plan.name);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const fault::FaultEvent& a = plan.events[i];
    const fault::FaultEvent& b = parsed.events[i];
    EXPECT_EQ(a.at, b.at) << "event " << i;
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.target, b.target) << "event " << i;
    EXPECT_EQ(a.duration, b.duration) << "event " << i;
    EXPECT_DOUBLE_EQ(a.drop, b.drop) << "event " << i;
    EXPECT_DOUBLE_EQ(a.duplicate, b.duplicate) << "event " << i;
    EXPECT_EQ(a.extra_delay, b.extra_delay) << "event " << i;
  }
  // A second round-trip is byte-stable: the dialect is its own fixed point.
  EXPECT_EQ(fault::ToJson(parsed), json);
}

TEST(FaultPlanJson, CanonicalizeSortsByTimeKindTarget) {
  fault::FaultPlan plan = SamplePlan();
  fault::Canonicalize(plan);
  for (std::size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].at, plan.events[i].at);
  }
  EXPECT_EQ(plan.events.front().kind, fault::FaultKind::kPartition);
}

TEST(FaultPlanJson, RejectsMalformedInput) {
  fault::FaultPlan parsed;
  std::string error;
  EXPECT_FALSE(fault::FromJson("not json", parsed, error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fault::FromJson("{\"events\": [{\"kind\": \"warp_core\"}]}",
                               parsed, error));
}

TEST(FaultPlanJson, PlanFileCarriesRawExpectValues) {
  const std::string text =
      "{\"name\": \"golden\", \"events\": ["
      "{\"kind\": \"partition\", \"at_s\": 60, \"target\": 0,"
      " \"duration_s\": 120}],"
      " \"expect\": {\"replay.trace_digest\": 1234567890123456789,"
      " \"replay.strong_violations\": 0}}";
  fault::FaultPlanFile file;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlanFile(text, file, error)) << error;
  ASSERT_EQ(file.plan.events.size(), 1u);
  EXPECT_EQ(file.plan.events[0].at, 60 * kSecond);
  // Numbers survive as raw text, so 64-bit digests do not lose precision.
  EXPECT_EQ(file.expect.at("replay.trace_digest"), "1234567890123456789");
  EXPECT_EQ(file.expect.at("replay.strong_violations"), "0");
}

// --- fault plans: deterministic generation ---------------------------------------

TEST(FaultPlanRandom, SameSeedSamePlanDifferentSeedDifferent) {
  fault::RandomPlanConfig config;
  const fault::FaultPlan a = fault::Random(config, 7);
  const fault::FaultPlan b = fault::Random(config, 7);
  const fault::FaultPlan c = fault::Random(config, 8);
  EXPECT_EQ(fault::ToJson(a), fault::ToJson(b));
  EXPECT_NE(fault::ToJson(a), fault::ToJson(c));
}

TEST(FaultPlanRandom, RespectsConfigBounds) {
  fault::RandomPlanConfig config;
  config.horizon = 1 * kHour;
  config.clients = 8;
  config.allow_server_crash = false;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const fault::FaultPlan plan = fault::Random(config, seed);
    EXPECT_FALSE(plan.empty());
    for (const fault::FaultEvent& event : plan.events) {
      EXPECT_GE(event.at, 0);
      EXPECT_LT(event.at, config.horizon);
      EXPECT_GE(event.duration, config.min_duration);
      EXPECT_LE(event.duration, config.max_duration);
      EXPECT_LT(event.target, config.clients);
      EXPECT_NE(event.kind, fault::FaultKind::kServerCrash);
      EXPECT_LE(event.drop, config.max_drop);
      EXPECT_LE(event.duplicate, config.max_duplicate);
      EXPECT_LE(event.extra_delay, config.max_extra_delay);
    }
  }
}

// --- fault clock -----------------------------------------------------------------

fault::FaultPlan LinkFaultPlan(int target, Time at, Time duration, double drop,
                               double duplicate, Time extra_delay) {
  fault::FaultPlan plan;
  plan.events.push_back({.at = at,
                         .kind = fault::FaultKind::kLinkFault,
                         .target = target,
                         .duration = duration,
                         .drop = drop,
                         .duplicate = duplicate,
                         .extra_delay = extra_delay});
  return plan;
}

TEST(FaultClock, InactiveWindowPerturbsNothing) {
  fault::FaultClock clock(
      LinkFaultPlan(-1, 10 * kMinute, 5 * kMinute, 1.0, 1.0, kSecond), 1);
  clock.BindNodes(0, {1, 2});
  clock.Advance(0, 5 * kMinute);  // before the window
  EXPECT_EQ(clock.active_windows(), 0);
  const sim::Perturbation p = clock.Perturb(0, 1);
  EXPECT_FALSE(p.drop);
  EXPECT_FALSE(p.duplicate);
  EXPECT_EQ(p.extra_delay, 0);
}

TEST(FaultClock, SubIntervalWindowStillActivates) {
  // Window [6m, 7m) is shorter than the [5m, 10m) lock-step interval;
  // overlap semantics must still latch it, like ApplyFailure does.
  fault::FaultClock clock(
      LinkFaultPlan(-1, 6 * kMinute, 1 * kMinute, 1.0, 0.0, 0), 1);
  clock.BindNodes(0, {1});
  clock.Advance(5 * kMinute, 10 * kMinute);
  EXPECT_EQ(clock.active_windows(), 1);
  EXPECT_TRUE(clock.Perturb(0, 1).drop);
  clock.Advance(10 * kMinute, 15 * kMinute);
  EXPECT_EQ(clock.active_windows(), 0);
}

TEST(FaultClock, TargetedWindowLeavesOtherLinksAlone) {
  fault::FaultClock clock(LinkFaultPlan(0, 0, kHour, 1.0, 0.0, kSecond), 1);
  const sim::NodeId server = 9;
  clock.BindNodes(server, {11, 12});
  clock.Advance(0, 5 * kMinute);
  ASSERT_EQ(clock.active_windows(), 1);
  // Both directions of proxy 0's link are hit (a dropped message carries no
  // delay — it never travels)...
  EXPECT_TRUE(clock.Perturb(server, 11).drop);
  EXPECT_TRUE(clock.Perturb(11, server).drop);
  // ...while proxy 1's link never is, for any number of calls.
  for (int i = 0; i < 50; ++i) {
    const sim::Perturbation p = clock.Perturb(server, 12);
    EXPECT_FALSE(p.drop);
    EXPECT_EQ(p.extra_delay, 0);
  }
}

TEST(FaultClock, TargetedDelayOnlyWindowDelaysJustItsLink) {
  fault::FaultClock clock(LinkFaultPlan(0, 0, kHour, 0.0, 0.0, kSecond), 1);
  const sim::NodeId server = 9;
  clock.BindNodes(server, {11, 12});
  clock.Advance(0, 5 * kMinute);
  EXPECT_EQ(clock.Perturb(server, 11).extra_delay, kSecond);
  EXPECT_EQ(clock.Perturb(11, server).extra_delay, kSecond);
  EXPECT_EQ(clock.Perturb(server, 12).extra_delay, 0);
}

TEST(FaultClock, SameSeedSameDecisionSequence) {
  const fault::FaultPlan plan =
      LinkFaultPlan(-1, 0, kHour, 0.4, 0.3, 10 * kMillisecond);
  fault::FaultClock a(plan, 99);
  fault::FaultClock b(plan, 99);
  a.BindNodes(0, {1, 2});
  b.BindNodes(0, {1, 2});
  a.Advance(0, kHour);
  b.Advance(0, kHour);
  for (int i = 0; i < 200; ++i) {
    const sim::NodeId to = 1 + (i % 2);
    const sim::Perturbation pa = a.Perturb(0, to);
    const sim::Perturbation pb = b.Perturb(0, to);
    EXPECT_EQ(pa.drop, pb.drop) << "call " << i;
    EXPECT_EQ(pa.duplicate, pb.duplicate) << "call " << i;
    EXPECT_EQ(pa.extra_delay, pb.extra_delay) << "call " << i;
  }
}

TEST(FaultClock, OverlappingWindowsAddDelays) {
  fault::FaultPlan plan = LinkFaultPlan(-1, 0, kHour, 0.0, 0.0, 20 * kMillisecond);
  plan.events.push_back({.at = 0,
                         .kind = fault::FaultKind::kLinkFault,
                         .target = -1,
                         .duration = kHour,
                         .extra_delay = 30 * kMillisecond});
  fault::FaultClock clock(plan, 1);
  clock.BindNodes(0, {1});
  clock.Advance(0, 5 * kMinute);
  EXPECT_EQ(clock.active_windows(), 2);
  EXPECT_EQ(clock.Perturb(0, 1).extra_delay, 50 * kMillisecond);
}

// --- write-delivery state machine ------------------------------------------------

// WriteDelivery keys on site ids; the tests name their sites through one
// id space.
core::SiteId Site(std::string_view name) {
  static core::Interner sites;
  return sites.Intern(name);
}

TEST(WriteDelivery, NoTargetsIsCompleteImmediately) {
  core::WriteDelivery delivery;
  EXPECT_TRUE(delivery.complete());
  EXPECT_EQ(delivery.completion(), core::WriteDelivery::Completion::kNoTargets);
}

TEST(WriteDelivery, AllAckedPath) {
  core::WriteDelivery delivery;
  delivery.AddTarget(Site("a"), net::kNoLease);
  delivery.AddTarget(Site("b"), net::kNoLease);
  EXPECT_FALSE(delivery.complete());
  EXPECT_EQ(delivery.completion(), core::WriteDelivery::Completion::kPending);
  EXPECT_FALSE(delivery.Ack(Site("a")));
  EXPECT_TRUE(delivery.Ack(Site("b")));
  EXPECT_EQ(delivery.completion(), core::WriteDelivery::Completion::kAllAcked);
  // Duplicate and unknown acks are ignored (a duplicated datagram may ack
  // twice; a stray site was never a target).
  EXPECT_FALSE(delivery.Ack(Site("b")));
  EXPECT_FALSE(delivery.Ack(Site("nobody")));
  EXPECT_EQ(delivery.completion(), core::WriteDelivery::Completion::kAllAcked);
}

TEST(WriteDelivery, LeaseExpiryResolvesStragglerHalfOpen) {
  core::WriteDelivery delivery;
  delivery.AddTarget(Site("fast"), net::kNoLease);
  delivery.AddTarget(Site("stuck"), /*lease_until=*/100);
  EXPECT_FALSE(delivery.Ack(Site("fast")));
  EXPECT_EQ(delivery.NextExpiry(), 100);
  // Half-open lease interval: still active at 99, dead at exactly 100.
  EXPECT_FALSE(delivery.ExpireLeases(99));
  EXPECT_FALSE(delivery.complete());
  EXPECT_TRUE(delivery.ExpireLeases(100));
  EXPECT_EQ(delivery.completion(),
            core::WriteDelivery::Completion::kLeasesExpired);
}

TEST(WriteDelivery, NoLeaseTargetOnlyResolvesByAckOrDeath) {
  core::WriteDelivery delivery;
  delivery.AddTarget(Site("forever"), net::kNoLease);
  EXPECT_FALSE(delivery.ExpireLeases(365 * kDay));
  EXPECT_FALSE(delivery.complete());
  EXPECT_EQ(delivery.NextExpiry(), net::kNoLease);
  EXPECT_TRUE(delivery.MarkDead(Site("forever")));
  // Death is not a clean ack set: the completion records the bound.
  EXPECT_EQ(delivery.completion(),
            core::WriteDelivery::Completion::kLeasesExpired);
}

TEST(WriteDelivery, ReAddingTargetKeepsLaterExpiry) {
  core::WriteDelivery delivery;
  delivery.AddTarget(Site("s"), 50);
  delivery.AddTarget(Site("s"), 200);
  EXPECT_EQ(delivery.total_targets(), 1);
  EXPECT_FALSE(delivery.ExpireLeases(100));  // 50 would have lapsed; 200 holds
  EXPECT_EQ(delivery.NextExpiry(), 200);
  EXPECT_TRUE(delivery.ExpireLeases(200));
}

TEST(WriteDelivery, MixedResolutionCountsAsLeaseBound) {
  core::WriteDelivery delivery;
  delivery.AddTarget(Site("acked"), net::kNoLease);
  delivery.AddTarget(Site("leased"), 10);
  delivery.AddTarget(Site("dead"), net::kNoLease);
  EXPECT_FALSE(delivery.Ack(Site("acked")));
  EXPECT_FALSE(delivery.MarkDead(Site("dead")));
  EXPECT_EQ(delivery.outstanding(), 1);
  EXPECT_TRUE(delivery.ExpireLeases(10));
  EXPECT_EQ(delivery.completion(),
            core::WriteDelivery::Completion::kLeasesExpired);
  EXPECT_EQ(delivery.total_targets(), 3);
}

// --- write-ahead journal corruption modes ----------------------------------------

core::SiteJournal FilledJournal() {
  core::SiteJournal journal;
  journal.AppendVersion("/a.html", 1);
  journal.AppendRegister("/a.html", "site1", net::kNoLease);
  journal.AppendRegister("/a.html", "site2", 5 * kMinute);
  journal.AppendVersion("/b.html", 3);
  journal.AppendRegister("/b.html", "site1", net::kNoLease);
  journal.AppendInvalidate("/a.html");
  journal.AppendRegister("/a.html", "site3", net::kNoLease);
  return journal;
}

TEST(SiteJournal, ReplayRoundTripsEveryRecordKind) {
  const core::SiteJournal journal = FilledJournal();
  const core::SiteJournal::ReplayResult result = journal.Replay();
  EXPECT_FALSE(result.damaged);
  EXPECT_FALSE(result.truncated_tail);
  EXPECT_EQ(result.records_rejected, 0u);
  ASSERT_EQ(result.records_applied, 7u);
  EXPECT_EQ(result.entries[0].kind, 'V');
  EXPECT_EQ(result.entries[0].url, "/a.html");
  EXPECT_EQ(result.entries[0].version, 1u);
  EXPECT_EQ(result.entries[1].kind, 'R');
  EXPECT_EQ(result.entries[1].site, "site1");
  EXPECT_EQ(result.entries[1].lease_until, net::kNoLease);
  EXPECT_EQ(result.entries[2].lease_until, 5 * kMinute);
  EXPECT_EQ(result.entries[5].kind, 'I');
}

TEST(SiteJournal, TornFinalLineIsCleanTruncationNotDamage) {
  core::SiteJournal journal = FilledJournal();
  std::string text = journal.text();
  // Tear mid-way through the final record: drop the '\n' and a few bytes,
  // as a crash during the final append would.
  text.resize(text.size() - 5);
  const core::SiteJournal::ReplayResult result =
      core::SiteJournal::Replay(text);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_FALSE(result.damaged);  // append-before-act: the tear is exact
  EXPECT_EQ(result.records_applied, 6u);
  EXPECT_EQ(result.records_rejected, 0u);
}

TEST(SiteJournal, ChecksumFlipMarksDamagedAndRejectsSuffix) {
  core::SiteJournal journal = FilledJournal();
  std::string text = journal.text();
  // Flip one byte inside the third record's body.
  std::size_t pos = 0;
  for (int i = 0; i < 2; ++i) pos = text.find('\n', pos) + 1;
  const std::size_t victim = text.find("site2", pos);
  ASSERT_NE(victim, std::string::npos);
  text[victim] = 'X';
  const core::SiteJournal::ReplayResult result =
      core::SiteJournal::Replay(text);
  EXPECT_TRUE(result.damaged);
  // The valid prefix survives; the damaged line and everything after it —
  // trustworthy or not — is rejected.
  EXPECT_EQ(result.records_applied, 2u);
  EXPECT_EQ(result.records_rejected, 5u);
}

TEST(SiteJournal, GarbageAndUnknownKindsAreDamage) {
  {
    core::SiteJournal journal;
    journal.SetText("complete garbage\n");
    const auto result = journal.Replay();
    EXPECT_TRUE(result.damaged);
    EXPECT_EQ(result.records_applied, 0u);
  }
  {
    // Well-formed line shape but an unknown record kind.
    core::SiteJournal journal;
    journal.SetText("0123456789abcdef X /a.html\n");
    EXPECT_TRUE(journal.Replay().damaged);
  }
}

// --- accelerator journal recovery ------------------------------------------------

net::Request Get(std::string url, std::string client) {
  net::Request request;
  request.type = net::MessageType::kGet;
  request.url = std::move(url);
  request.client_id = std::move(client);
  return request;
}

struct RecoveryFixture {
  http::DocumentStore docs;
  core::Accelerator accel;

  RecoveryFixture() : accel(docs, core::LeaseConfig{}, "origin") {
    docs.Add("/a.html", 4096, /*last_modified=*/0);
    docs.Add("/b.html", 4096, /*last_modified=*/0);
    accel.EnableJournal(true);
    accel.HandleRequest(Get("/a.html", "site1"), kSecond);
    accel.HandleRequest(Get("/a.html", "site2"), 2 * kSecond);
    accel.HandleRequest(Get("/b.html", "site1"), 3 * kSecond);
  }
};

TEST(AcceleratorJournal, IntactJournalRestoresExactlyAndTargetsChangedDocs) {
  RecoveryFixture fx;
  const std::vector<core::InvalidationTable::Snapshot> before =
      fx.accel.table().SnapshotEntries();
  ASSERT_EQ(before.size(), 3u);

  // /a.html changes while the server is down; /b.html does not.
  fx.docs.Touch("/a.html", kMinute);
  fx.accel.Crash();
  EXPECT_TRUE(fx.accel.table().SnapshotEntries().empty());

  const core::Accelerator::RecoveryOutcome outcome =
      fx.accel.RecoverFromJournal(2 * kMinute);
  EXPECT_FALSE(outcome.journal_damaged);
  EXPECT_EQ(outcome.records_rejected, 0u);
  EXPECT_EQ(outcome.entries_restored, 3u);

  // Targeted recovery: only /a.html's registered sites hear about it, as
  // kInvalidateUrl with the recovery flag — never a server-wide broadcast.
  ASSERT_EQ(outcome.invalidations.size(), 2u);
  std::set<std::string> notified;
  for (const net::Invalidation& inv : outcome.invalidations) {
    EXPECT_EQ(inv.type, net::MessageType::kInvalidateUrl);
    EXPECT_EQ(inv.url, "/a.html");
    EXPECT_TRUE(inv.recovery);
    notified.insert(inv.client_id);
  }
  EXPECT_EQ(notified, (std::set<std::string>{"site1", "site2"}));

  // /b.html's registration survived the crash; /a.html's list was taken by
  // the recovery invalidations, exactly as a normal modification would.
  const auto after = fx.accel.table().SnapshotEntries();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].url, "/b.html");
  EXPECT_EQ(after[0].site, "site1");
}

TEST(AcceleratorJournal, DamagedJournalRestoresSupersetAndBroadcasts) {
  RecoveryFixture fx;
  // The modification (and its journaled 'I' wipe) happens, THEN the tail of
  // the journal is damaged — so recovery cannot see the wipe and must keep
  // the conservative superset.
  fx.docs.Touch("/a.html", kMinute);
  const std::vector<net::Invalidation> live =
      fx.accel.HandleNotify(net::Notify{"/a.html"}, kMinute);
  EXPECT_EQ(live.size(), 2u);  // normal operation invalidated both sites
  const auto before_crash = fx.accel.table().SnapshotEntries();
  ASSERT_EQ(before_crash.size(), 1u);  // only /b.html remains

  std::string text = fx.accel.journal().text();
  // Corrupt the journaled wipe: damage the final 'I' record's checksum.
  const std::size_t wipe = text.rfind(" I /a.html");
  ASSERT_NE(wipe, std::string::npos);
  const std::size_t line_start = text.rfind('\n', wipe) + 1;
  text[line_start] = text[line_start] == '0' ? '1' : '0';
  fx.accel.journal().SetText(std::move(text));

  fx.accel.Crash();
  const core::Accelerator::RecoveryOutcome outcome =
      fx.accel.RecoverFromJournal(2 * kMinute);
  EXPECT_TRUE(outcome.journal_damaged);
  EXPECT_GE(outcome.records_rejected, 1u);

  // Conservative superset: every entry alive before the crash is restored
  // (extra, already-invalidated ones may also reappear — never fewer).
  const auto after = fx.accel.table().SnapshotEntries();
  for (const auto& entry : before_crash) {
    const bool present = std::any_of(
        after.begin(), after.end(), [&entry](const auto& candidate) {
          return candidate.url == entry.url && candidate.site == entry.site;
        });
    EXPECT_TRUE(present) << entry.url << " @ " << entry.site;
  }
  EXPECT_GE(after.size(), before_crash.size());

  // Damage means history is unknowable: the blanket INVSRV broadcast goes
  // to every site ever seen, each flagged as recovery traffic.
  ASSERT_EQ(outcome.invalidations.size(), 2u);  // site1, site2
  for (const net::Invalidation& inv : outcome.invalidations) {
    EXPECT_EQ(inv.type, net::MessageType::kInvalidateServer);
    EXPECT_EQ(inv.server, "origin");
    EXPECT_TRUE(inv.recovery);
  }
}

TEST(AcceleratorJournal, RebuildDropsLeasesThatLapsedWhileDown) {
  // Regression (ISSUE 7): journal replay used to Restore already-expired
  // leases verbatim, so a recovery after a long outage reported inflated
  // entries/storage_bytes until the next prune (and seeded the expiry
  // wheel with dead slots). Lapsed registrations must die at rebuild.
  http::DocumentStore docs;
  core::LeaseConfig lease;
  lease.mode = core::LeaseMode::kFixed;
  lease.duration = 10 * kMinute;
  core::Accelerator accel(docs, lease, "origin");
  docs.Add("/a.html", 4096, /*last_modified=*/0);
  accel.EnableJournal(true);
  accel.HandleRequest(Get("/a.html", "early"), kMinute);    // lease: 11min
  accel.HandleRequest(Get("/a.html", "late"), 25 * kMinute);  // lease: 35min

  accel.Crash();
  // Recovery at t=30min: "early"'s lease lapsed during the outage, "late"
  // still holds one. Only the live entry may be restored.
  const core::Accelerator::RecoveryOutcome outcome =
      accel.RecoverFromJournal(30 * kMinute);
  EXPECT_FALSE(outcome.journal_damaged);
  EXPECT_EQ(outcome.entries_restored, 1u);
  const auto entries = accel.table().SnapshotEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].site, "late");
  // The dropped lease leaves no storage behind — the metric the old code
  // inflated — and the boundary is the same half-open rule as everywhere:
  // recovery at exactly the expiry instant also drops it.
  EXPECT_EQ(accel.table().TotalEntries(), 1u);
  accel.Crash();
  EXPECT_EQ(accel.RecoverFromJournal(35 * kMinute).entries_restored, 0u);
}

TEST(AcceleratorJournal, RecoveryCompactsJournalToSnapshot) {
  RecoveryFixture fx;
  const std::uint64_t appends_before = fx.accel.journal().appends();
  EXPECT_GT(appends_before, 0u);
  fx.accel.Crash();
  (void)fx.accel.RecoverFromJournal(kMinute);

  // The compacted journal replays cleanly to exactly the restored state:
  // one V per known document, one R per live table entry.
  const core::SiteJournal::ReplayResult compacted = fx.accel.journal().Replay();
  EXPECT_FALSE(compacted.damaged);
  std::size_t versions = 0;
  std::size_t registrations = 0;
  for (const core::SiteJournal::Entry& entry : compacted.entries) {
    versions += entry.kind == 'V' ? 1 : 0;
    registrations += entry.kind == 'R' ? 1 : 0;
  }
  EXPECT_EQ(versions, 2u);  // /a.html and /b.html baselines
  EXPECT_EQ(registrations, fx.accel.table().SnapshotEntries().size());

  // A second crash+recovery off the compacted journal is a fixed point.
  fx.accel.Crash();
  const auto again = fx.accel.RecoverFromJournal(2 * kMinute);
  EXPECT_FALSE(again.journal_damaged);
  EXPECT_EQ(again.entries_restored, 3u);
  EXPECT_TRUE(again.invalidations.empty());  // nothing changed meanwhile
}

}  // namespace
}  // namespace webcc

// Mutation-style tests of the invariant auditor (src/audit): each test
// injects one specific violation — through a deliberately broken scheme, a
// corrupted data structure, or a lock-table backdoor — and proves the
// corresponding audit invariant detects exactly it. A final test runs a
// full federation with the fail-fast auditor live and proves a healthy
// system reports nothing.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "audit/ser_graph.h"
#include "gtm/gtm2.h"
#include "gtm/scheme0.h"
#include "gtm/scheme1.h"
#include "gtm/tsgd.h"
#include "lcc/lock_manager.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace mdbs {
namespace {

/// gtm::Tsgd::AddDependency takes slots and a site index; this looks up
/// ids.
void AddDep(gtm::Tsgd* tsgd, SiteId site, GlobalTxnId from,
            GlobalTxnId to) {
  tsgd->AddDependency(tsgd->SiteIndexOf(site), tsgd->SlotOf(from),
                      tsgd->SlotOf(to));
}

audit::AuditConfig Collecting() {
  audit::AuditConfig config;
  config.fail_fast = false;  // Collect violations instead of aborting.
  return config;
}

// --------------------------------------------------------------------
// conservative-discipline: a scheme claiming the conservative guarantee
// (Theorems 3/5/8: Schemes 0-3 never abort) demands an abort anyway.
// --------------------------------------------------------------------

class AbortingConservativeScheme : public gtm::SchemeNone {
 public:
  bool IsConservative() const override { return true; }
  gtm::Verdict CondSer(GlobalTxnId, SiteId) override {
    return gtm::Verdict::kAbort;
  }
};

TEST(AuditMutationTest, ConservativeSchemeAbortIsFlagged) {
  if (!audit::kAuditCompiledIn) GTEST_SKIP() << "audit compiled out";
  audit::Auditor collector(Collecting());
  gtm::Gtm2 driver(std::make_unique<AbortingConservativeScheme>(), {});
  driver.EnableAudit(Collecting(), &collector);

  driver.Enqueue(gtm::QueueOp::Init(GlobalTxnId(1), {SiteId(0)}));
  ASSERT_TRUE(collector.clean());
  driver.Enqueue(gtm::QueueOp::Ser(GlobalTxnId(1), SiteId(0)));

  EXPECT_EQ(collector.CountFor("conservative-discipline"), 1);
  EXPECT_EQ(collector.total_reported(), 1);
  // The report names the offending transaction — under threaded execution
  // that attribution is what makes a concurrent failure debuggable.
  const audit::AuditViolation& violation = collector.violations().back();
  EXPECT_EQ(violation.offending_txn, 1);
  EXPECT_NE(violation.ToString().find("txn=1"), std::string::npos)
      << violation.ToString();
}

// --------------------------------------------------------------------
// ser-release-discipline: Scheme 1 with its cond(ser) sabotaged to always
// fire. The inherited release-rule re-derivation must notice that a marked
// operation was released while not at the front of its insert queue.
// --------------------------------------------------------------------

class BrokenScheme1 : public gtm::Scheme1 {
 public:
  gtm::Verdict CondSer(GlobalTxnId, SiteId) override {
    return gtm::Verdict::kReady;  // Sabotage: ignore the marking rule.
  }
};

TEST(AuditMutationTest, MarkedOpReleasedOutOfOrderIsFlagged) {
  if (!audit::kAuditCompiledIn) GTEST_SKIP() << "audit compiled out";
  audit::Auditor collector(Collecting());
  gtm::Gtm2 driver(std::make_unique<BrokenScheme1>(), {});
  driver.EnableAudit(Collecting(), &collector);

  // Two transactions over the same two sites form a TSG cycle, so both of
  // G2's edges are marked at its init. G1 heads both insert queues.
  driver.Enqueue(gtm::QueueOp::Init(GlobalTxnId(1), {SiteId(0), SiteId(1)}));
  driver.Enqueue(gtm::QueueOp::Init(GlobalTxnId(2), {SiteId(0), SiteId(1)}));
  ASSERT_TRUE(collector.clean());
  // Releasing marked ser(G2@s0) ahead of G1 violates Scheme 1's rule.
  driver.Enqueue(gtm::QueueOp::Ser(GlobalTxnId(2), SiteId(0)));

  EXPECT_GE(collector.CountFor("ser-release-discipline"), 1);
}

// --------------------------------------------------------------------
// ser-graph-acyclic: a permissive "conservative" scheme releases ser
// operations in opposite orders at two sites; the incremental abstract
// ser(S) graph must report the cycle with its witness (Theorem 1).
// --------------------------------------------------------------------

class PermissiveScheme : public gtm::SchemeNone {
 public:
  bool IsConservative() const override { return true; }
};

TEST(AuditMutationTest, OppositeReleaseOrdersCloseSerGraphCycle) {
  if (!audit::kAuditCompiledIn) GTEST_SKIP() << "audit compiled out";
  audit::Auditor collector(Collecting());
  gtm::Gtm2 driver(std::make_unique<PermissiveScheme>(), {});
  driver.EnableAudit(Collecting(), &collector);

  driver.Enqueue(gtm::QueueOp::Init(GlobalTxnId(1), {SiteId(0), SiteId(1)}));
  driver.Enqueue(gtm::QueueOp::Init(GlobalTxnId(2), {SiteId(0), SiteId(1)}));
  driver.Enqueue(gtm::QueueOp::Ser(GlobalTxnId(1), SiteId(0)));
  driver.Enqueue(gtm::QueueOp::Ser(GlobalTxnId(2), SiteId(1)));
  ASSERT_TRUE(collector.clean());
  // G1 before G2 at s0, G2 before G1 at s1: the second order closes the
  // cycle the moment ser(G1@s1) is released.
  driver.Enqueue(gtm::QueueOp::Ser(GlobalTxnId(2), SiteId(0)));
  driver.Enqueue(gtm::QueueOp::Ser(GlobalTxnId(1), SiteId(1)));

  ASSERT_EQ(collector.CountFor("ser-graph-acyclic"), 1);
  // The witness names both transactions, starting and ending at the same
  // node.
  const audit::AuditViolation& violation = collector.violations().back();
  ASSERT_GE(violation.witness.size(), 3u);
  EXPECT_EQ(violation.witness.front(), violation.witness.back());
}

// --------------------------------------------------------------------
// scheme-structure: a TSGD with an injected dependency cycle — the state
// Eliminate_Cycles exists to prevent (paper §6) — must fail its structural
// self-check, and the audited driver must report it after the next act.
// --------------------------------------------------------------------

class CorruptibleTsgdScheme : public gtm::SchemeNone {
 public:
  Status CheckStructuralInvariants() const override {
    return tsgd_.Validate();
  }
  void ActInit(const gtm::QueueOp& op) override {
    tsgd_.InsertTxn(op.txn, op.sites);
  }
  void ActFin(GlobalTxnId txn) override { tsgd_.RemoveTxn(txn); }
  void ActAbortCleanup(GlobalTxnId txn) override {
    if (tsgd_.HasTxn(txn)) tsgd_.RemoveTxn(txn);
  }

  /// The mutation: a directed dependency cycle G1 -> G2 (at s0) -> G1
  /// (at s1), as if Eliminate_Cycles had been skipped.
  void InjectDependencyCycle() {
    AddDep(&tsgd_, SiteId(0), GlobalTxnId(1), GlobalTxnId(2));
    AddDep(&tsgd_, SiteId(1), GlobalTxnId(2), GlobalTxnId(1));
  }

 private:
  gtm::Tsgd tsgd_;
};

TEST(AuditMutationTest, TsgdDependencyCycleIsFlagged) {
  if (!audit::kAuditCompiledIn) GTEST_SKIP() << "audit compiled out";
  audit::Auditor collector(Collecting());
  auto scheme = std::make_unique<CorruptibleTsgdScheme>();
  CorruptibleTsgdScheme* handle = scheme.get();
  gtm::Gtm2 driver(std::move(scheme), {});
  driver.EnableAudit(Collecting(), &collector);

  driver.Enqueue(gtm::QueueOp::Init(GlobalTxnId(1), {SiteId(0), SiteId(1)}));
  driver.Enqueue(gtm::QueueOp::Init(GlobalTxnId(2), {SiteId(0), SiteId(1)}));
  ASSERT_TRUE(collector.clean());

  handle->InjectDependencyCycle();
  // Any subsequent act makes the driver re-run the structural self-check.
  driver.Enqueue(gtm::QueueOp::Ack(GlobalTxnId(1), SiteId(0)));

  EXPECT_GE(collector.CountFor("scheme-structure"), 1);
}

// The same injected cycle is caught by the TSGD validator directly.
TEST(AuditMutationTest, TsgdValidatorDetectsInjectedDependencyCycle) {
  gtm::Tsgd tsgd;
  tsgd.InsertTxn(GlobalTxnId(1), {SiteId(0), SiteId(1)});
  tsgd.InsertTxn(GlobalTxnId(2), {SiteId(0), SiteId(1)});
  ASSERT_TRUE(tsgd.Validate().ok());

  AddDep(&tsgd, SiteId(0), GlobalTxnId(1), GlobalTxnId(2));
  ASSERT_TRUE(tsgd.Validate().ok());
  AddDep(&tsgd, SiteId(1), GlobalTxnId(2), GlobalTxnId(1));

  EXPECT_FALSE(tsgd.Validate().ok());
}

// --------------------------------------------------------------------
// wakeup-complete: Scheme 0 with ack@s left out of its wake rules. The
// ack hands the site's queue head to a waiting ser, which GTM2 then never
// retries; the audit re-evaluates the un-woken waiters after the drain.
// --------------------------------------------------------------------

class AckWakesNothingScheme0 : public gtm::Scheme0 {
 public:
  bool WakeClasses(const gtm::QueueOp&,
                   std::vector<gtm::WakeClass>*) const override {
    return true;  // Sabotage: no act unblocks anything.
  }
};

TEST(AuditMutationTest, UnwokenReadyWaiterIsFlagged) {
  if (!audit::kAuditCompiledIn) GTEST_SKIP() << "audit compiled out";
  audit::Auditor collector(Collecting());
  gtm::Gtm2 driver(std::make_unique<AckWakesNothingScheme0>(), {});
  driver.EnableAudit(Collecting(), &collector);

  driver.Enqueue(gtm::QueueOp::Init(GlobalTxnId(1), {SiteId(0)}));
  driver.Enqueue(gtm::QueueOp::Init(GlobalTxnId(2), {SiteId(0)}));
  driver.Enqueue(gtm::QueueOp::Ser(GlobalTxnId(2), SiteId(0)));  // Waits.
  driver.Enqueue(gtm::QueueOp::Ser(GlobalTxnId(1), SiteId(0)));
  ASSERT_TRUE(collector.clean());
  int64_t steps = driver.scheme().steps();
  int64_t evaluations = driver.stats().cond_evaluations;
  driver.Enqueue(gtm::QueueOp::Ack(GlobalTxnId(1), SiteId(0)));

  EXPECT_EQ(collector.CountFor("wakeup-complete"), 1);
  EXPECT_EQ(collector.violations().back().offending_txn, 2);
  EXPECT_EQ(driver.wait_size(), 1u);
  // The audit's own cond evaluation is not metered: the ack's act is.
  EXPECT_EQ(driver.scheme().steps(), steps + 1);
  EXPECT_EQ(driver.stats().cond_evaluations, evaluations + 1);
}

// --------------------------------------------------------------------
// lock-table: a grant injected behind the bookkeeping's back (S/X
// co-grant) must fail the table self-check at the next lock event.
// --------------------------------------------------------------------

TEST(AuditMutationTest, CorruptedGrantIsFlagged) {
  if (!audit::kAuditCompiledIn) GTEST_SKIP() << "audit compiled out";
  audit::Auditor collector(Collecting());
  lcc::LockManager lm;
  lm.EnableAudit(&collector);

  ASSERT_EQ(lm.Acquire(TxnId(1), DataItemId(7), lcc::LockMode::kShared),
            lcc::LockResult::kGranted);
  ASSERT_TRUE(collector.clean());

  // Mutation: grant an exclusive lock to T2 alongside T1's shared lock,
  // without going through Acquire's bookkeeping.
  lm.TestOnlyCorruptGrant(TxnId(2), DataItemId(7),
                          lcc::LockMode::kExclusive);
  EXPECT_FALSE(lm.CheckTableInvariants().ok());

  // The next audited lock event reports it, attributed to the transaction
  // whose request triggered the audited check.
  (void)lm.Acquire(TxnId(3), DataItemId(8), lcc::LockMode::kShared);
  EXPECT_GE(collector.CountFor("lock-table"), 1);
  EXPECT_EQ(collector.violations().back().offending_txn, 3);
}

// --------------------------------------------------------------------
// strict-2pl-phase: acquiring after the shrink phase began.
// --------------------------------------------------------------------

TEST(AuditMutationTest, AcquireAfterReleaseIsFlagged) {
  if (!audit::kAuditCompiledIn) GTEST_SKIP() << "audit compiled out";
  audit::Auditor collector(Collecting());
  lcc::LockManager lm;
  lm.EnableAudit(&collector);

  ASSERT_EQ(lm.Acquire(TxnId(1), DataItemId(1), lcc::LockMode::kExclusive),
            lcc::LockResult::kGranted);
  lm.ReleaseAll(TxnId(1));
  ASSERT_TRUE(collector.clean());

  (void)lm.Acquire(TxnId(1), DataItemId(2), lcc::LockMode::kShared);
  EXPECT_EQ(collector.CountFor("strict-2pl-phase"), 1);
  EXPECT_EQ(collector.violations().back().offending_txn, 1);
}

// --------------------------------------------------------------------
// The ser-graph checker in isolation: consistent orders stay clean,
// removal of an aborted transaction unblocks its edges.
// --------------------------------------------------------------------

TEST(SerGraphAuditTest, ConsistentOrdersStayAcyclic) {
  audit::SerGraphAudit graph;
  EXPECT_FALSE(graph.RecordRelease(1, 0).has_value());
  EXPECT_FALSE(graph.RecordRelease(2, 0).has_value());
  EXPECT_FALSE(graph.RecordRelease(1, 1).has_value());
  EXPECT_FALSE(graph.RecordRelease(2, 1).has_value());
}

TEST(SerGraphAuditTest, RemovedTxnNoLongerConstrains) {
  audit::SerGraphAudit graph;
  EXPECT_FALSE(graph.RecordRelease(1, 0).has_value());
  EXPECT_FALSE(graph.RecordRelease(2, 0).has_value());  // 1 -> 2 at s0.
  graph.RemoveTxn(1);                                   // 1 aborted.
  EXPECT_FALSE(graph.RecordRelease(2, 1).has_value());
  // With 1 gone, releasing it afresh cannot close a cycle.
  EXPECT_FALSE(graph.RecordRelease(1, 1).has_value());
}

// --------------------------------------------------------------------
// A healthy federation under the default fail-fast auditor: every hook is
// live (GTM2 driver, lock tables, end-of-run oracle) and nothing fires.
// --------------------------------------------------------------------

TEST(AuditIntegrationTest, HealthyFederationReportsNothing) {
  if (!audit::kAuditCompiledIn) GTEST_SKIP() << "audit compiled out";
  MdbsConfig config = MdbsConfig::Mixed(
      {lcc::ProtocolKind::kTwoPhaseLocking,
       lcc::ProtocolKind::kTimestampOrdering,
       lcc::ProtocolKind::kTwoPhaseLocking},
      gtm::SchemeKind::kScheme2);
  config.seed = 7;
  Mdbs system(config);
  ASSERT_TRUE(system.audit_enabled());

  DriverConfig driver;
  driver.global_clients = 4;
  driver.local_clients_per_site = 1;
  driver.target_global_commits = 40;
  DriverReport report = RunDriver(&system, driver, /*seed=*/7);

  EXPECT_GT(report.global_committed, 0);
  EXPECT_TRUE(system.auditor().clean());
  EXPECT_TRUE(system.RunAuditOracle().ok());
}

}  // namespace
}  // namespace mdbs

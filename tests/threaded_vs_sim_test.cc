// Differential test between the two execution engines: one workload
// configuration, run by RunDriver once in the deterministic simulator and
// once on real strands (MdbsConfig::threaded), must agree on the
// audit verdict — clean under both — and both complete the target number
// of global transactions. Ticks mean virtual time in the first run and
// real microseconds in the second; the configuration carries over
// unchanged.
#include <string>

#include <gtest/gtest.h>

#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

// No OCC in the mix: its partial commits (atomic commitment is out of
// scope, paper §6) would make `global_failed == 0` engine-dependent.
MdbsConfig SystemConfig(SchemeKind scheme, bool threaded) {
  MdbsConfig config = MdbsConfig::Mixed(
      {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
       ProtocolKind::kSerializationGraph},
      scheme);
  config.seed = 17;
  config.threaded = threaded;
  // Identical in both engines, but sized for the threaded one: with ~20
  // clients on one core a strand can starve past the default 200ms
  // attempt timeout, and repeated timeouts read as `global_failed` noise.
  // 2s keeps the cross-site-deadlock escape hatch without the starvation
  // flake, so `global_failed == 0` stays a strict differential claim.
  config.gtm.attempt_timeout = 2'000'000;
  return config;
}

DriverConfig Workload() {
  DriverConfig config;
  config.global_clients = 6;
  config.local_clients_per_site = 2;
  config.target_global_commits = 40;
  config.global_workload.items_per_site = 30;
  config.local_workload.items_per_site = 30;
  return config;
}

class ThreadedVsSim : public ::testing::TestWithParam<SchemeKind> {};

INSTANTIATE_TEST_SUITE_P(Schemes, ThreadedVsSim,
                         ::testing::Values(SchemeKind::kScheme0,
                                           SchemeKind::kScheme3),
                         [](const ::testing::TestParamInfo<SchemeKind>& info) {
                           return gtm::SchemeKindName(info.param);
                         });

TEST_P(ThreadedVsSim, EnginesAgreeOnOutcomeAndAuditVerdict) {
  DriverConfig workload = Workload();

  Mdbs sim_system(SystemConfig(GetParam(), /*threaded=*/false));
  DriverReport sim_report = RunDriver(&sim_system, workload, 23);

  Mdbs threaded_system(SystemConfig(GetParam(), /*threaded=*/true));
  DriverReport threaded_report =
      RunDriver(&threaded_system, workload, 23);

  for (const DriverReport* report : {&sim_report, &threaded_report}) {
    EXPECT_GE(report->global_committed, workload.target_global_commits);
    EXPECT_EQ(report->global_failed, 0);
    EXPECT_GT(report->local_committed, 0);
  }
  // Audit ran inside each driver (fail-fast would have aborted already);
  // assert the verdicts agree on clean anyway for noaudit builds' sake.
  EXPECT_TRUE(sim_system.auditor().clean());
  EXPECT_TRUE(threaded_system.auditor().clean());
  EXPECT_TRUE(sim_system.CheckGloballySerializable().ok());
  EXPECT_TRUE(threaded_system.CheckGloballySerializable().ok())
      << threaded_system.GlobalSerializabilityResult().ToString();
}

TEST(ThreadedEngineTest, ReportsWallClockThroughput) {
  Mdbs system(SystemConfig(SchemeKind::kScheme3, /*threaded=*/true));
  DriverConfig workload = Workload();
  workload.target_global_commits = 10;
  DriverReport report = RunDriver(&system, workload, 5);
  EXPECT_GE(report.global_committed, 10);
  EXPECT_GT(report.duration, 0);  // Real microseconds elapsed.
  EXPECT_GT(report.global_throughput, 0);  // Committed txns per second.
}

}  // namespace
}  // namespace mdbs

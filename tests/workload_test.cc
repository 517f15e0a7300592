#include <set>

#include <gtest/gtest.h>

#include "gtm/serialization_function.h"
#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "mdbs/workload.h"

namespace mdbs {
namespace {

using gtm::SchemeKind;
using lcc::ProtocolKind;

std::vector<SiteId> Sites(int count) {
  std::vector<SiteId> sites;
  for (int i = 0; i < count; ++i) sites.push_back(SiteId(i));
  return sites;
}

// --------------------------------------------------------------------------
// Global workload generator
// --------------------------------------------------------------------------

TEST(GlobalWorkloadTest, RespectsDavBounds) {
  GlobalWorkloadConfig config;
  config.dav_min = 2;
  config.dav_max = 3;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    gtm::GlobalTxnSpec spec = MakeGlobalTxn(config, Sites(6), &rng);
    size_t sites = spec.Sites().size();
    EXPECT_GE(sites, 2u);
    EXPECT_LE(sites, 3u);
  }
}

TEST(GlobalWorkloadTest, DavClampedToSiteCount) {
  GlobalWorkloadConfig config;
  config.dav_min = 4;
  config.dav_max = 8;
  Rng rng(1);
  gtm::GlobalTxnSpec spec = MakeGlobalTxn(config, Sites(2), &rng);
  EXPECT_LE(spec.Sites().size(), 2u);
}

TEST(GlobalWorkloadTest, OpsPerSiteBounds) {
  GlobalWorkloadConfig config;
  config.dav_min = config.dav_max = 2;
  config.ops_per_site_min = 3;
  config.ops_per_site_max = 3;
  Rng rng(7);
  gtm::GlobalTxnSpec spec = MakeGlobalTxn(config, Sites(4), &rng);
  EXPECT_EQ(spec.ops.size(), 6u);
}

TEST(GlobalWorkloadTest, ItemsWithinRangeAndBelowTicket) {
  GlobalWorkloadConfig config;
  config.items_per_site = 10;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    gtm::GlobalTxnSpec spec = MakeGlobalTxn(config, Sites(3), &rng);
    for (const auto& op : spec.ops) {
      EXPECT_GE(op.op.item.value(), 0);
      EXPECT_LT(op.op.item.value(), 10);
      EXPECT_LT(op.op.item.value(), gtm::kTicketItem.value());
    }
  }
}

TEST(GlobalWorkloadTest, ReadRatioExtremes) {
  GlobalWorkloadConfig config;
  config.read_ratio = 1.0;
  Rng rng(5);
  gtm::GlobalTxnSpec spec = MakeGlobalTxn(config, Sites(3), &rng);
  for (const auto& op : spec.ops) EXPECT_EQ(op.op.type, OpType::kRead);
  config.read_ratio = 0.0;
  spec = MakeGlobalTxn(config, Sites(3), &rng);
  for (const auto& op : spec.ops) EXPECT_EQ(op.op.type, OpType::kWrite);
}

TEST(GlobalWorkloadTest, GroupedModeKeepsSitesContiguous) {
  GlobalWorkloadConfig config;
  config.interleave_sites = false;
  config.dav_min = config.dav_max = 3;
  Rng rng(9);
  gtm::GlobalTxnSpec spec = MakeGlobalTxn(config, Sites(5), &rng);
  // Once a site changes, it never reappears.
  std::set<int64_t> closed;
  SiteId current = spec.ops.front().site;
  for (const auto& op : spec.ops) {
    if (op.site != current) {
      closed.insert(current.value());
      EXPECT_FALSE(closed.contains(op.site.value()));
      current = op.site;
    }
  }
}

// A non-positive item count is a configuration error. It used to divide by
// zero (0) or spin in the zeta sum for 2^64 items (-1); now it fails loudly
// in every build type, NDEBUG included.
TEST(WorkloadDeathTest, NonPositiveItemCountFailsLoudly) {
  for (int64_t items : {int64_t{0}, int64_t{-1}}) {
    GlobalWorkloadConfig global;
    global.items_per_site = items;
    LocalWorkloadConfig local;
    local.items_per_site = items;
    Rng rng(1);
    EXPECT_DEATH(MakeGlobalTxn(global, Sites(3), &rng), "items_per_site");
    EXPECT_DEATH(MakeLocalTxn(local, &rng), "items_per_site");
  }
}

TEST(LocalWorkloadTest, BoundsHold) {
  LocalWorkloadConfig config;
  config.ops_min = 1;
  config.ops_max = 4;
  config.items_per_site = 20;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    std::vector<DataOp> ops = MakeLocalTxn(config, &rng);
    EXPECT_GE(ops.size(), 1u);
    EXPECT_LE(ops.size(), 4u);
    for (const DataOp& op : ops) {
      EXPECT_LT(op.item.value(), 20);
    }
  }
}

// --------------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------------

TEST(DriverTest, DeterministicForSameSeed) {
  auto run = []() {
    MdbsConfig config = MdbsConfig::Mixed(
        {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering},
        SchemeKind::kScheme3);
    config.seed = 10;
    Mdbs system(config);
    DriverConfig driver;
    driver.global_clients = 4;
    driver.local_clients_per_site = 1;
    driver.target_global_commits = 40;
    return RunDriver(&system, driver, 10);
  };
  DriverReport a = run();
  DriverReport b = run();
  EXPECT_EQ(a.global_committed, b.global_committed);
  EXPECT_EQ(a.local_committed, b.local_committed);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.gtm2.processed_ops, b.gtm2.processed_ops);
}

TEST(DriverTest, ReportContainsAllSections) {
  MdbsConfig config =
      MdbsConfig::Uniform(2, ProtocolKind::kTwoPhaseLocking,
                          SchemeKind::kScheme0);
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 2;
  driver.target_global_commits = 10;
  DriverReport report = RunDriver(&system, driver, 1);
  std::string text = report.ToString();
  EXPECT_NE(text.find("global:"), std::string::npos);
  EXPECT_NE(text.find("local:"), std::string::npos);
  EXPECT_NE(text.find("gtm1:"), std::string::npos);
  EXPECT_NE(text.find("gtm2:"), std::string::npos);
  EXPECT_GT(report.duration, 0);
  EXPECT_GT(report.global_throughput, 0.0);
}

TEST(DriverTest, NoLocalClientsMeansNoLocalTxns) {
  MdbsConfig config =
      MdbsConfig::Uniform(2, ProtocolKind::kTwoPhaseLocking,
                          SchemeKind::kScheme0);
  Mdbs system(config);
  DriverConfig driver;
  driver.global_clients = 2;
  driver.local_clients_per_site = 0;
  driver.target_global_commits = 10;
  DriverReport report = RunDriver(&system, driver, 1);
  EXPECT_EQ(report.local_committed, 0);
  EXPECT_GE(report.global_committed, 10);
}

// --------------------------------------------------------------------------
// Serialization functions
// --------------------------------------------------------------------------

TEST(SerializationFunctionTest, KindsPerProtocol) {
  using gtm::SerPointKind;
  EXPECT_EQ(gtm::SerPointKindFor(ProtocolKind::kTimestampOrdering),
            SerPointKind::kBegin);
  EXPECT_EQ(gtm::SerPointKindFor(ProtocolKind::kTwoPhaseLocking),
            SerPointKind::kLastOp);
  EXPECT_EQ(gtm::SerPointKindFor(ProtocolKind::kSerializationGraph),
            SerPointKind::kTicket);
  EXPECT_EQ(gtm::SerPointKindFor(ProtocolKind::kOptimistic),
            SerPointKind::kTicket);
}

TEST(SerializationFunctionTest, Names) {
  using gtm::SerPointKind;
  EXPECT_STREQ(gtm::SerPointKindName(SerPointKind::kBegin), "begin");
  EXPECT_STREQ(gtm::SerPointKindName(SerPointKind::kLastOp), "last-op");
  EXPECT_STREQ(gtm::SerPointKindName(SerPointKind::kTicket), "ticket");
}

// --------------------------------------------------------------------------
// QueueOp formatting
// --------------------------------------------------------------------------

TEST(QueueOpTest, ToStringFormats) {
  EXPECT_EQ(gtm::QueueOp::Init(GlobalTxnId(3), {SiteId(0)}).ToString(),
            "init(G3)");
  EXPECT_EQ(gtm::QueueOp::Ser(GlobalTxnId(3), SiteId(2)).ToString(),
            "ser(G3@s2)");
  EXPECT_EQ(gtm::QueueOp::Ack(GlobalTxnId(3), SiteId(2)).ToString(),
            "ack(G3@s2)");
  EXPECT_EQ(gtm::QueueOp::Fin(GlobalTxnId(3)).ToString(), "fin(G3)");
  EXPECT_EQ(gtm::QueueOp::Validate(GlobalTxnId(3)).ToString(),
            "validate(G3)");
}

}  // namespace
}  // namespace mdbs

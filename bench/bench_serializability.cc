// E4 — Global serializability (paper Theorems 2, 3, 5, 8 and the §1
// motivation). Runs a hot-spot mixed workload under every scheme plus the
// "no global control" strawman and checks, with the independent conflict-
// graph verifier, whether the committed global schedule is conflict
// serializable. Conservative schemes and the optimistic ticket baseline
// must never violate; releasing ser operations unconditionally must
// eventually violate through direct races and indirect conflicts.

#include <cstdio>

#include "mdbs/driver.h"
#include "mdbs/mdbs.h"

namespace {

using mdbs::DriverConfig;
using mdbs::Mdbs;
using mdbs::MdbsConfig;
using mdbs::gtm::SchemeKind;
using mdbs::lcc::ProtocolKind;

struct Row {
  int violations = 0;
  int runs = 0;
  int64_t committed = 0;
  int64_t gtm_aborts = 0;
};

Row RunScheme(SchemeKind scheme) {
  Row row;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    MdbsConfig config = MdbsConfig::Mixed(
        {ProtocolKind::kTwoPhaseLocking, ProtocolKind::kTimestampOrdering,
         ProtocolKind::kTwoPhaseLocking},
        scheme);
    config.seed = seed;
    config.audit.enabled = false;  // Auditing is for correctness runs.
    Mdbs system(config);
    DriverConfig driver;
    driver.global_clients = 10;
    driver.local_clients_per_site = 1;
    driver.target_global_commits = 120;
    driver.global_workload.items_per_site = 3;  // Hot spot.
    driver.global_workload.dav_min = 2;
    driver.global_workload.dav_max = 3;
    driver.global_workload.read_ratio = 0.3;
    driver.local_workload.items_per_site = 3;
    driver.local_workload.read_ratio = 0.3;
    mdbs::DriverReport report = RunDriver(&system, driver, seed);
    ++row.runs;
    row.committed += report.global_committed;
    row.gtm_aborts += report.gtm1.scheme_aborts;
    if (!system.CheckGloballySerializable().ok()) ++row.violations;
    // Local schedules are always serializable — the local DBMSs guarantee
    // it regardless of the GTM (paper §2.1).
    if (!system.CheckLocallySerializable().ok()) {
      std::printf("!! local serializability violated — bug\n");
    }
  }
  return row;
}

}  // namespace

int main() {
  std::printf("E4 — global serializability under hot-spot contention\n");
  std::printf("3 sites (2PL, TO, 2PL), 10 global clients, 1 local client "
              "per site, 3 items per site, 8 seeds\n\n");
  std::printf("%-18s %10s %12s %12s %12s\n", "scheme", "runs",
              "violations", "commits", "gtm_aborts");
  for (SchemeKind scheme :
       {SchemeKind::kScheme0, SchemeKind::kScheme1, SchemeKind::kScheme2,
        SchemeKind::kScheme3, SchemeKind::kTicketOptimistic,
        SchemeKind::kNone}) {
    Row row = RunScheme(scheme);
    std::printf("%-18s %10d %12d %12lld %12lld\n",
                mdbs::gtm::SchemeKindName(scheme), row.runs, row.violations,
                static_cast<long long>(row.committed),
                static_cast<long long>(row.gtm_aborts));
  }
  std::printf("\n(Schemes 0-3 and the ticket baseline must show 0 "
              "violations; NoControl guarantees nothing and may violate.)\n");
  return 0;
}

// E4 — Global serializability (paper Theorems 2, 3, 5, 8 and the §1
// motivation). Runs a hot-spot mixed workload under every scheme plus the
// "no global control" strawman and checks, with the independent conflict-
// graph verifier, whether the committed global schedule is conflict
// serializable. Conservative schemes and the optimistic ticket baseline
// must never violate. Releasing ser operations unconditionally may violate;
// the last row shows it does, on a mix of multi-site globals that conflict
// only indirectly (no local clients, so retries cannot decongest it).

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

/// One E4 row: 8 seeds of the hot-spot mix under `scheme`, with
/// `local_clients` local clients per site, until `commits` global commits.
Row RunScheme(SchemeKind scheme, int local_clients, int64_t commits) {
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
    driver.local_clients_per_site = local_clients;
    driver.target_global_commits = commits;
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

void PrintRow(const char* name, const Row& row) {
  std::printf("%-18s %10d %12d %12lld %12lld\n", name, row.runs,
              row.violations, static_cast<long long>(row.committed),
              static_cast<long long>(row.gtm_aborts));
}

}  // namespace

int main() {
  std::printf("E4 — global serializability under hot-spot contention\n");
  std::printf("3 sites (2PL, TO, 2PL), 10 global clients, 1 local client "
              "per site (none in the last row), 3 items per site, "
              "8 seeds\n\n");
  std::printf("%-18s %10s %12s %12s %12s\n", "scheme", "runs",
              "violations", "commits", "gtm_aborts");
  for (SchemeKind scheme :
       {SchemeKind::kScheme0, SchemeKind::kScheme1, SchemeKind::kScheme2,
        SchemeKind::kScheme3, SchemeKind::kTicketOptimistic,
        SchemeKind::kNone}) {
    PrintRow(mdbs::gtm::SchemeKindName(scheme),
             RunScheme(scheme, /*local_clients=*/1, /*commits=*/120));
  }
  // The `mdbsim --sites=2pl,to,2pl --scheme=none --global_clients=10
  // --local_clients=0 --commits=150 --items=3 --dav=2-3 --read_ratio=0.3`
  // mix.
  PrintRow("NoControl-indirect",
           RunScheme(SchemeKind::kNone, /*local_clients=*/0,
                     /*commits=*/150));
  std::printf("\n(Schemes 0-3 and the ticket baseline must show 0 "
              "violations; NoControl guarantees nothing. NoControl-indirect "
              "is the same mix without local clients, to 150 commits: it "
              "must violate.)\n");
  return 0;
}

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mdbs/driver.h"
#include "mdbs/mdbs.h"
#include "spans.h"

namespace perfbench {

/// One benchmark workload: a federation, how it is driven, and how big one
/// measured round is. Everything random is drawn from the run's --seed.
struct Workload {
  std::string name;
  /// A closed loop on the simulator, driven by RunDriver in rounds of
  /// `round_commits` global commits.
  mdbs::MdbsConfig config;
  /// Client population and generator configs.
  mdbs::DriverConfig driver;
  int64_t round_commits = 0;
  /// Simulated rounds every run makes, whatever --seconds says. Their
  /// simulated results (goodput, response ticks, counters) repeat exactly
  /// for a seed; later rounds, run while time remains, only add to the
  /// CPU-time measurements.
  int sim_rounds = 1;
  /// Layer cells: transactions through the SyntheticGtmHarness and its
  /// active population (the paper's n).
  int64_t synthetic_txns = 0;
  int synthetic_active = 0;
};

/// The workload called `name` (local-heavy, gtm-contention, durable-chaos),
/// or nullopt. `tiny` shrinks it for the smoke check.
std::optional<Workload> MakeWorkload(const std::string& name, bool tiny);

/// The benchmark's checks of one round: the four oracle calls and the
/// metrics engine's phase balance.
struct Verdict {
  bool ok = true;
  std::string error;
};

/// Everything one measured round produced.
struct RoundResult {
  double drive_cpu_s = 0;
  /// Process CPU of the oracle calls plus the snapshot.
  double check_cpu_s = 0;
  double local_csr_s = 0;
  double ser_key_s = 0;
  double strictness_s = 0;
  double global_csr_s = 0;
  double snapshot_s = 0;
  Verdict verdict;

  int64_t committed = 0;
  /// Global transactions that finished without committing: partial
  /// commits and failures the client did not (or could no longer) retry.
  int64_t failed = 0;
  int64_t local_committed = 0;
  int64_t submitted = 0;
  /// Transactions generated (global specs and local op lists).
  int64_t generated_global = 0;
  int64_t generated_local = 0;

  /// Simulated response time (ticks) of committed global transactions and
  /// the simulated duration of the drive.
  mdbs::sim::Summary sim_response;
  int64_t sim_ticks = 0;
  /// The steady part of a round: commits up to the timeline
  /// window in which 90% of the round's commits had landed, and that
  /// window's end tick. Leaves out the drain, where the last stragglers
  /// finish alone.
  int64_t steady_commits = 0;
  int64_t steady_ticks = 0;

  mdbs::gtm::Gtm1Stats gtm1;
  mdbs::gtm::Gtm2Stats gtm2;
  mdbs::site::SiteDurabilityStats site_wal;
  mdbs::gtm::GtmDurabilityStats gtm_wal;
  mdbs::gtm::GtmStandbyStats standby;
  mdbs::fault::FaultStats faults;
  int64_t site_blocked = 0;
  int64_t site_aborts = 0;
  int64_t site_crashes = 0;
  int64_t site_commits = 0;  // Committed site-level transactions.
  int64_t recorded_ops = 0;
  /// Site-level transactions per protocol name ("2pl", "to", ...).
  std::map<std::string, int64_t> site_txns;
  /// Metrics-engine histogram records and phase ticks.
  int64_t histogram_records = 0;
  std::array<int64_t, mdbs::obs::kTxnPhaseCount> phase_ticks{};
  int64_t lifetime_ticks = 0;
};

/// Runs one measured round of `w` with `seed`. Spans go to `log`, tagged
/// with `round`.
RoundResult RunRound(const Workload& w, uint64_t seed, int round,
                     SpanLog* log);

/// Times `count` set-ups (Mdbs construction) without driving them, in
/// seconds each.
std::vector<double> MeasureSetups(const Workload& w, uint64_t seed, int count,
                                  SpanLog* log);

/// Short protocol name used in metric names ("2pl", "to", "sgt", "occ",
/// "mvto").
std::string ProtocolTag(mdbs::lcc::ProtocolKind kind);

/// The run seed of round `round`.
uint64_t RoundSeed(uint64_t seed, int round);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

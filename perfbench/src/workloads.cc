#include "workloads.h"

#include <memory>

namespace perfbench {

namespace {

using mdbs::gtm::SchemeKind;
using mdbs::lcc::ProtocolKind;

constexpr ProtocolKind k2PL = ProtocolKind::kTwoPhaseLocking;
constexpr ProtocolKind kTO = ProtocolKind::kTimestampOrdering;
constexpr ProtocolKind kSGT = ProtocolKind::kSerializationGraph;
constexpr ProtocolKind kOCC = ProtocolKind::kOptimistic;
constexpr ProtocolKind kMVTO = ProtocolKind::kMultiversionTO;

mdbs::MdbsConfig BaseConfig(const std::vector<ProtocolKind>& sites,
                            SchemeKind scheme) {
  mdbs::MdbsConfig config = mdbs::MdbsConfig::Mixed(sites, scheme);
  // Off as in every bench: correctness comes from the end-of-run oracle.
  config.audit.enabled = false;
  return config;
}

void SetItems(mdbs::DriverConfig* driver, int64_t items) {
  driver->global_workload.items_per_site = items;
  driver->local_workload.items_per_site = items;
}

// W1: the ROADMAP profile federation. Local clients dominate; GTM2 has
// little to schedule.
Workload LocalHeavy(bool tiny) {
  Workload w;
  w.name = "local-heavy";
  w.config = BaseConfig({k2PL, kTO, kSGT, kOCC, kMVTO, k2PL, kTO, kSGT},
                        SchemeKind::kScheme3);
  // A tenth of mdbsim's default: the timeout is the only way out of a
  // cross-site deadlock, and at 200000 ticks one deadlock stalls the closed
  // loop long enough to swing a run's throughput by a quarter between seeds
  // (see NOTES.md).
  w.config.gtm.attempt_timeout = 20'000;
  w.driver.global_clients = 32;
  w.driver.local_clients_per_site = 2;
  w.driver.global_workload.dav_min = 2;
  w.driver.global_workload.dav_max = 4;
  SetItems(&w.driver, 2000);
  w.round_commits = tiny ? 60 : 1000;
  w.sim_rounds = tiny ? 1 : 12;
  w.synthetic_txns = tiny ? 100 : 2000;
  w.synthetic_active = 32;
  return w;
}

// W2: global-only contention on the scheduler (Scheme 2's TSGD).
Workload GtmContention(bool tiny) {
  Workload w;
  w.name = "gtm-contention";
  w.config = BaseConfig({k2PL, kTO, kSGT, kMVTO, k2PL, kTO, kSGT, kMVTO},
                        SchemeKind::kScheme2);
  // As in W1. 10000 items keep data conflicts rare, so the contention is
  // on the scheduler.
  w.config.gtm.attempt_timeout = 20'000;
  w.driver.global_clients = 64;
  w.driver.local_clients_per_site = 0;
  w.driver.global_workload.dav_min = 2;
  w.driver.global_workload.dav_max = 4;
  SetItems(&w.driver, 10000);
  w.round_commits = tiny ? 60 : 1000;
  w.sim_rounds = tiny ? 1 : 8;
  w.synthetic_txns = tiny ? 50 : 300;
  w.synthetic_active = 64;
  return w;
}

// W4: durable sites and a durable GTM with a warm standby under a fault
// plan: a site crash sweep, message loss and duplicates, one failover.
Workload DurableChaos(bool tiny) {
  Workload w;
  w.name = "durable-chaos";
  w.config = BaseConfig({k2PL, kTO, kSGT, kMVTO, k2PL, kTO},
                        SchemeKind::kScheme3);
  for (mdbs::site::SiteConfig& site : w.config.sites) {
    site.durable = true;
    site.wal_sync.policy = mdbs::storage::WalSyncPolicy::kEveryCommit;
  }
  w.config.gtm.durable = true;
  w.config.gtm.wal_sync.policy = mdbs::storage::WalSyncPolicy::kEveryCommit;
  w.config.gtm_standby = true;
  // Lost messages are recovered by the attempt timeout; the repository's
  // fault-plan examples pair loss with 10000 ticks.
  w.config.gtm.attempt_timeout = 10'000;
  // Crash times are ticks of the simulated round (about 900000 ticks, the
  // tiny one about 40000): one site at a time goes down, spread over the
  // round, and the GTM fails over once in the middle.
  mdbs::StatusOr<mdbs::fault::FaultPlan> plan = mdbs::fault::ParseFaultPlan(
      tiny ? "sweep@2000:4000:1500;req_loss=0.005;resp_loss=0.005;dup=0.01;"
             "gtm_failover@15000:1000"
           : "sweep@50000:120000:3000;req_loss=0.005;resp_loss=0.005;"
             "dup=0.01;gtm_failover@400000:2000");
  w.config.fault_plan = *plan;
  w.driver.global_clients = 16;
  w.driver.local_clients_per_site = 1;
  w.driver.global_workload.dav_min = 2;
  w.driver.global_workload.dav_max = 3;
  w.driver.retry.max_resubmissions = 3;
  SetItems(&w.driver, 1000);
  w.round_commits = tiny ? 60 : 1500;
  w.sim_rounds = tiny ? 1 : 10;
  w.synthetic_txns = tiny ? 100 : 2000;
  w.synthetic_active = 16;
  return w;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Runs the four oracle calls and the phase-balance check, timing each.
void Check(mdbs::Mdbs* system, SpanLog* log, int round, RoundResult* r) {
  auto timed = [&](const char* name, double* out, auto fn) {
    Scope span(log, name, round);
    mdbs::Status status = fn();
    span.End();
    *out = span.cpu_s();
    r->check_cpu_s += span.cpu_s();
    if (!status.ok() && r->verdict.ok) {
      r->verdict = {false, std::string(name) + ": " + status.ToString()};
    }
  };
  timed("sched.CheckLocallySerializable", &r->local_csr_s,
        [&]() { return system->CheckLocallySerializable(); });
  timed("sched.CheckSerializationKeyProperty", &r->ser_key_s,
        [&]() { return system->CheckSerializationKeyProperty(); });
  timed("sched.CheckStrictness", &r->strictness_s,
        [&]() { return system->CheckStrictness(); });
  timed("sched.CheckGloballySerializable", &r->global_csr_s,
        [&]() { return system->CheckGloballySerializable(); });

  Scope span(log, "obs.MetricsEngine::Snapshot", round);
  mdbs::obs::MetricsSnapshot snapshot = system->metrics()->Snapshot();
  span.End();
  r->snapshot_s = span.cpu_s();
  r->check_cpu_s += span.cpu_s();
  if (snapshot.balance_violations != 0 && r->verdict.ok) {
    r->verdict = {false, "metrics: " +
                             std::to_string(snapshot.balance_violations) +
                             " phase-balance violations"};
  }
  r->histogram_records += snapshot.lifetime.count();
  for (const mdbs::sim::Summary& phase : snapshot.phases) {
    r->histogram_records += phase.count();
  }
  for (const auto& [site, summary] : snapshot.site_exec) {
    r->histogram_records += summary.count();
  }
  r->phase_ticks = snapshot.phase_ticks;
  r->lifetime_ticks = snapshot.lifetime_ticks;
  for (const mdbs::obs::TimelinePoint& point : snapshot.timeline) {
    r->steady_commits += point.committed;
    if (10 * r->steady_commits >= 9 * snapshot.committed) {
      r->steady_ticks = (point.window + 1) * snapshot.window_size;
      break;
    }
  }
}

/// Site-level counters read from the quiescent system.
void CollectSites(mdbs::Mdbs* system, RoundResult* r) {
  r->recorded_ops = static_cast<int64_t>(system->recorder().ops().size());
  r->site_commits = system->recorder().CommittedCount();
  for (const auto& [txn, record] : system->recorder().txns()) {
    ++r->site_txns[ProtocolTag(system->ProtocolAt(record.site))];
  }
}

}  // namespace

RoundResult RunRound(const Workload& w, uint64_t seed, int round,
                     SpanLog* log) {
  RoundResult r;
  Scope setup(log, "mdbs.setup", round);
  mdbs::MdbsConfig config = w.config;
  config.seed = seed;
  auto system = std::make_unique<mdbs::Mdbs>(config);
  mdbs::DriverConfig driver = w.driver;
  driver.target_global_commits = w.round_commits;
  setup.End();

  Scope drive(log, "mdbs.RunDriver", round);
  mdbs::DriverReport report = mdbs::RunDriver(system.get(), driver, seed);
  drive.End();
  r.drive_cpu_s = drive.cpu_s();

  Check(system.get(), log, round, &r);
  CollectSites(system.get(), &r);
  r.committed = report.global_committed;
  r.failed = report.global_failed;
  r.submitted = report.global_committed + report.global_failed;
  r.generated_global = r.submitted;
  r.local_committed = report.local_committed;
  r.generated_local = report.local_committed + report.local_failed;
  r.sim_response = report.global_response;
  r.sim_ticks = report.duration;
  r.gtm1 = report.gtm1;
  r.gtm2 = report.gtm2;
  r.site_wal = report.durability;
  r.gtm_wal = report.gtm_durability;
  r.standby = report.gtm_standby;
  r.faults = report.faults;
  r.site_crashes = report.crashes;
  r.site_blocked = report.site_blocked;
  r.site_aborts = report.site_aborts;
  return r;
}

std::optional<Workload> MakeWorkload(const std::string& name, bool tiny) {
  if (name == "local-heavy") return LocalHeavy(tiny);
  if (name == "gtm-contention") return GtmContention(tiny);
  if (name == "durable-chaos") return DurableChaos(tiny);
  return std::nullopt;
}

std::string ProtocolTag(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kTwoPhaseLocking:
    case ProtocolKind::kTwoPhaseLockingWoundWait:
    case ProtocolKind::kTwoPhaseLockingWaitDie:
      return "2pl";
    case ProtocolKind::kTimestampOrdering:
      return "to";
    case ProtocolKind::kSerializationGraph:
      return "sgt";
    case ProtocolKind::kOptimistic:
      return "occ";
    case ProtocolKind::kMultiversionTO:
      return "mvto";
  }
  return "unknown";
}

uint64_t RoundSeed(uint64_t seed, int round) {
  return SplitMix(seed * 1000003ULL + static_cast<uint64_t>(round));
}

std::vector<double> MeasureSetups(const Workload& w, uint64_t seed, int count,
                                  SpanLog* log) {
  // A set-up takes microseconds, so each sample is the mean of a batch;
  // each member is destroyed (untimed) before the next is built. The
  // closed loop's generator lives inside RunDriver and needs no set-up.
  constexpr int kBatch = 128;
  std::vector<double> samples;
  for (int i = 0; i < count; ++i) {
    double total_s = 0;
    for (int j = 0; j < kBatch; ++j) {
      Scope setup(log, "mdbs.setup", -1 - i);
      mdbs::MdbsConfig config = w.config;
      config.seed = seed;
      auto system = std::make_unique<mdbs::Mdbs>(config);
      setup.End();
      total_s += setup.wall_s();
    }
    samples.push_back(total_s / kBatch);
  }
  return samples;
}

}  // namespace perfbench

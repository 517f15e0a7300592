// E1 — Scheduling complexity of Schemes 0-3 (paper Theorems 4, 6, 9).
//
// Reproduces the paper's complexity claims empirically: the average number
// of abstract scheduler steps per transaction as a function of
//   n   — concurrently active global transactions,
//   dav — sites per transaction,
//   m   — number of sites.
// Expected shapes:
//   Scheme 0: O(dav)              (flat in n)
//   Scheme 1: O(m + n + n*dav)    (linear in n)
//   Scheme 2: O(n^2 * dav)        (quadratic in n)
//   Scheme 3: O(n^2 * dav)        (quadratic in n)
// The steps_per_txn counter is the datum; wall time is reported by the
// framework as usual. BM_EliminateCycles times the Figure 4 walk alone, in
// ns per call, on a TSGD shaped like Scheme 2's at (n, dav=3, m=8).

#include <algorithm>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "gtm/synthetic.h"
#include "gtm/tsgd.h"

namespace {

using mdbs::GlobalTxnId;
using mdbs::Rng;
using mdbs::SiteId;
using mdbs::gtm::Dependency;
using mdbs::gtm::MakeScheme;
using mdbs::gtm::SchemeKind;
using mdbs::gtm::SyntheticConfig;
using mdbs::gtm::SyntheticGtmHarness;
using mdbs::gtm::SyntheticReport;
using mdbs::gtm::Tsgd;

void RunScheme(benchmark::State& state, SchemeKind kind) {
  SyntheticConfig config;
  config.active_txns = static_cast<int>(state.range(0));
  config.dav_min = config.dav_max = static_cast<int>(state.range(1));
  config.sites = static_cast<int>(state.range(2));
  config.total_txns = 400;
  config.seed = 42;

  double steps_per_txn = 0;
  double sched_steps_per_txn = 0;
  double waits_per_ser = 0;
  int64_t completed = 0;
  for (auto _ : state) {
    SyntheticGtmHarness harness(MakeScheme(kind), config);
    SyntheticReport report = harness.Run();
    steps_per_txn = report.StepsPerTxn();
    sched_steps_per_txn = report.SchedulingStepsPerTxn();
    waits_per_ser = report.WaitsPerSerOp();
    completed += report.completed;
    benchmark::DoNotOptimize(report.completed);
  }
  // sched_steps_per_txn is the paper's cost model (targeted wakeup, §4);
  // steps_per_txn additionally pays for failed WAIT re-evaluations in our
  // rescanning driver.
  state.counters["sched_steps_per_txn"] = sched_steps_per_txn;
  state.counters["steps_per_txn"] = steps_per_txn;
  state.counters["waits_per_ser"] = waits_per_ser;
  state.SetItemsProcessed(completed);
}

void ApplySweeps(benchmark::internal::Benchmark* bench) {
  // Sweep n with dav=3, m=8 (complexity in the population size).
  for (int n : {4, 8, 16, 32, 64, 128}) bench->Args({n, 3, 8});
  // Sweep dav with n=16, m=16 (complexity in transaction footprint).
  for (int dav : {1, 2, 4, 8, 16}) bench->Args({16, dav, 16});
  // Sweep m with n=16, dav=3 (site-count sensitivity, Scheme 1's m term).
  for (int m : {4, 8, 16, 32, 64}) bench->Args({16, 3, m});
  bench->ArgNames({"n", "dav", "m"})->Unit(benchmark::kMillisecond);
}

void BM_Scheme0(benchmark::State& state) {
  RunScheme(state, SchemeKind::kScheme0);
}
void BM_Scheme1(benchmark::State& state) {
  RunScheme(state, SchemeKind::kScheme1);
}
void BM_Scheme2(benchmark::State& state) {
  RunScheme(state, SchemeKind::kScheme2);
}
void BM_Scheme3(benchmark::State& state) {
  RunScheme(state, SchemeKind::kScheme3);
}

/// n live transactions on dav of m sites each, plus a newcomer. At each
/// site a random prefix of the members, in one random order shared by
/// all sites, has executed its ser: each precedes every member after it, as Scheme 2's act(ser)
/// records. The newcomer is inserted last, with the dependencies from the
/// executed sers at its sites, as act(init) adds them before the walk.
Tsgd ScheduledTsgd(int n, int dav, int m, Rng* rng, GlobalTxnId* newcomer) {
  Tsgd tsgd;
  std::vector<SiteId> all;
  for (int s = 0; s < m; ++s) all.push_back(SiteId(s));
  auto pick = [&]() {
    rng->Shuffle(&all);
    return std::vector<SiteId>(all.begin(), all.begin() + dav);
  };
  for (int t = 0; t < n; ++t) tsgd.InsertTxn(GlobalTxnId(t), pick());
  // One execution order across all sites keeps the dependencies acyclic.
  std::vector<int64_t> rank(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) rank[static_cast<size_t>(t)] = t;
  rng->Shuffle(&rank);
  std::vector<std::vector<GlobalTxnId>> executed(static_cast<size_t>(m));
  for (SiteId site : all) {
    std::vector<GlobalTxnId> members(tsgd.TxnsAt(site).begin(),
                                     tsgd.TxnsAt(site).end());
    std::sort(members.begin(), members.end(),
              [&](GlobalTxnId a, GlobalTxnId b) {
                return rank[static_cast<size_t>(a.value())] <
                       rank[static_cast<size_t>(b.value())];
              });
    size_t prefix = rng->NextBelow(members.size() + 1);
    for (size_t i = 0; i < prefix; ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        tsgd.AddDependency(tsgd.SiteIndexOf(site), tsgd.SlotOf(members[i]),
                           tsgd.SlotOf(members[j]));
      }
    }
    executed[static_cast<size_t>(site.value())].assign(members.begin(), members.begin() + prefix);
  }
  *newcomer = GlobalTxnId(n);
  tsgd.InsertTxn(*newcomer, pick());
  for (SiteId site : tsgd.SitesOf(*newcomer)) {
    for (GlobalTxnId other : executed[static_cast<size_t>(site.value())]) {
      tsgd.AddDependency(tsgd.SiteIndexOf(site), tsgd.SlotOf(other),
                         tsgd.SlotOf(*newcomer));
    }
  }
  return tsgd;
}

void BM_EliminateCycles(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // A handful of graphs, cycled, so one lucky shape does not decide.
  Rng rng(42);
  std::vector<Tsgd> graphs;
  std::vector<GlobalTxnId> origins;
  for (int g = 0; g < 8; ++g) {
    GlobalTxnId origin;
    graphs.push_back(ScheduledTsgd(n, /*dav=*/3, /*m=*/8, &rng, &origin));
    origins.push_back(origin);
  }
  int64_t steps = 0;
  int64_t delta = 0;
  size_t next = 0;
  for (auto _ : state) {
    std::vector<Dependency> found =
        graphs[next].EliminateCycles(origins[next], &steps);
    delta += static_cast<int64_t>(found.size());
    benchmark::DoNotOptimize(found.data());
    next = (next + 1) % graphs.size();
  }
  const double calls = static_cast<double>(state.iterations());
  state.counters["steps_per_call"] = static_cast<double>(steps) / calls;
  state.counters["delta_per_call"] = static_cast<double>(delta) / calls;
}

BENCHMARK(BM_Scheme0)->Apply(ApplySweeps);
BENCHMARK(BM_Scheme1)->Apply(ApplySweeps);
BENCHMARK(BM_Scheme2)->Apply(ApplySweeps);
BENCHMARK(BM_Scheme3)->Apply(ApplySweeps);
// The reported time is ns per call.
BENCHMARK(BM_EliminateCycles)
    ->Arg(64)
    ->Arg(128)
    ->ArgName("n")
    ->Unit(benchmark::kNanosecond);

}  // namespace

BENCHMARK_MAIN();

// E6 — Non-minimality of Eliminate_Cycles and the cost of exactness
// (paper Theorem 7). Computing a *minimal* dependency set Δ is NP-hard;
// the paper's Eliminate_Cycles is polynomial but may over-constrain. On
// random small TSGDs this experiment compares |Δ| from Eliminate_Cycles
// against the true minimum (found by exhaustive subset search) and shows
// the exhaustive search's running time exploding with the candidate count
// while Eliminate_Cycles stays flat.

#include <chrono>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "gtm/tsgd.h"

namespace {

using mdbs::GlobalTxnId;
using mdbs::Rng;
using mdbs::SiteId;
using mdbs::gtm::Dependency;
using mdbs::gtm::Tsgd;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Builds a random TSGD with `txns` existing transactions over `sites`
/// sites plus a newcomer touching all sites; returns the structure and the
/// newcomer id.
Tsgd RandomTsgd(int txns, int sites, double density, Rng* rng,
                GlobalTxnId* newcomer) {
  Tsgd tsgd;
  for (int t = 0; t < txns; ++t) {
    std::vector<SiteId> txn_sites;
    for (int s = 0; s < sites; ++s) {
      if (rng->NextBernoulli(density)) txn_sites.push_back(SiteId(s));
    }
    if (txn_sites.empty()) txn_sites.push_back(SiteId(0));
    tsgd.InsertTxn(GlobalTxnId(t), txn_sites);
  }
  *newcomer = GlobalTxnId(1000);
  std::vector<SiteId> newcomer_sites;
  for (int s = 0; s < sites; ++s) {
    if (rng->NextBernoulli(density)) newcomer_sites.push_back(SiteId(s));
  }
  if (newcomer_sites.size() < 2 && sites >= 2) {
    newcomer_sites = {SiteId(0), SiteId(1)};
  }
  tsgd.InsertTxn(*newcomer, newcomer_sites);
  return tsgd;
}

/// All legal Δ candidates: (v, u) -> (u, newcomer).
std::vector<Dependency> Candidates(const Tsgd& tsgd, GlobalTxnId newcomer) {
  std::vector<Dependency> result;
  for (SiteId site : tsgd.SitesOf(newcomer)) {
    for (GlobalTxnId other : tsgd.TxnsAt(site)) {
      if (other != newcomer) {
        result.push_back(Dependency{site, other, newcomer});
      }
    }
  }
  return result;
}

bool AcyclicWith(const Tsgd& base, GlobalTxnId newcomer,
                 const std::vector<Dependency>& candidates,
                 const std::vector<int>& chosen) {
  // Copy-free would need removal support; instead rebuild via a scratch
  // copy each time (instances are tiny).
  Tsgd copy;
  // Rebuild: transactions + edges.
  // (Tsgd has no clone; reconstruct from public accessors.)
  std::vector<GlobalTxnId> ids;
  for (SiteId site : base.SitesOf(newcomer)) {
    for (GlobalTxnId txn : base.TxnsAt(site)) {
      bool seen = false;
      for (GlobalTxnId known : ids) {
        if (known == txn) seen = true;
      }
      if (!seen) ids.push_back(txn);
    }
  }
  for (GlobalTxnId txn : ids) copy.InsertTxn(txn, base.SitesOf(txn));
  for (int index : chosen) {
    const Dependency& dep = candidates[static_cast<size_t>(index)];
    copy.AddDependency(copy.SiteIndexOf(dep.site), copy.SlotOf(dep.from),
                       copy.SlotOf(dep.to));
  }
  return !copy.HasCycleInvolving(newcomer);
}

/// Exhaustive minimum Δ: sweep all candidate subsets in increasing size
/// (bitmask order grouped by popcount). The full candidate set always
/// works — it forces the newcomer after everything at every site — so a
/// minimum exists.
std::optional<size_t> MinimumDelta(const Tsgd& tsgd, GlobalTxnId newcomer,
                                   const std::vector<Dependency>& candidates,
                                   int64_t* subsets_checked) {
  size_t count = candidates.size();
  if (count > 20) return std::nullopt;  // Exhaustion infeasible: skip.
  std::optional<size_t> best;
  for (uint32_t mask = 0; mask < (1u << count); ++mask) {
    size_t size = static_cast<size_t>(__builtin_popcount(mask));
    if (best.has_value() && size >= *best) continue;
    ++*subsets_checked;
    std::vector<int> chosen;
    for (size_t i = 0; i < count; ++i) {
      if (mask & (1u << i)) chosen.push_back(static_cast<int>(i));
    }
    if (AcyclicWith(tsgd, newcomer, candidates, chosen)) best = size;
  }
  return best;
}

}  // namespace

int main() {
  std::printf("E6 — Eliminate_Cycles Δ vs the NP-hard minimal Δ "
              "(Theorem 7)\n\n");
  std::printf("%-6s %-6s %-8s %12s %12s %10s %12s %14s %10s\n", "txns",
              "sites", "density", "|delta_EC|", "|delta_min|", "nonmin%",
              "EC_time_ms", "exact_time_ms", "subsets");
  Rng rng(99);
  for (int txns : {2, 3, 4, 5}) {
    for (int sites : {2, 3}) {
      for (double density : {0.5, 0.9}) {
        double sum_ec = 0, sum_min = 0;
        double ec_time = 0, exact_time = 0;
        int64_t subsets = 0;
        int nonminimal = 0;
        const int kTrials = 12;
        for (int trial = 0; trial < kTrials; ++trial) {
          GlobalTxnId newcomer;
          Tsgd tsgd = RandomTsgd(txns, sites, density, &rng, &newcomer);
          std::vector<Dependency> candidates = Candidates(tsgd, newcomer);

          auto t0 = std::chrono::steady_clock::now();
          std::vector<Dependency> delta =
              tsgd.EliminateCycles(newcomer, nullptr);
          auto t1 = std::chrono::steady_clock::now();
          std::optional<size_t> minimum =
              MinimumDelta(tsgd, newcomer, candidates, &subsets);
          auto t2 = std::chrono::steady_clock::now();

          sum_ec += static_cast<double>(delta.size());
          sum_min += static_cast<double>(minimum.value_or(0));
          if (minimum.has_value() && delta.size() > *minimum) ++nonminimal;
          ec_time += Seconds(t1 - t0);
          exact_time += Seconds(t2 - t1);
        }
        std::printf("%-6d %-6d %-8.1f %12.2f %12.2f %9d%% %12.4f %14.4f "
                    "%10lld\n",
                    txns, sites, density, sum_ec / kTrials,
                    sum_min / kTrials, 100 * nonminimal / kTrials,
                    1e3 * ec_time / kTrials, 1e3 * exact_time / kTrials,
                    static_cast<long long>(subsets));
      }
    }
  }
  std::printf("\n(|delta_EC| >= |delta_min| always; the exact search's "
              "subset count grows exponentially with instance size while "
              "Eliminate_Cycles stays polynomial.)\n");
  return 0;
}

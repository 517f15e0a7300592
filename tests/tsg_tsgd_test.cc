#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gtm/tsg.h"
#include "gtm/tsgd.h"

namespace mdbs::gtm {
namespace {

const GlobalTxnId kG1{1};
const GlobalTxnId kG2{2};
const GlobalTxnId kG3{3};
const GlobalTxnId kG4{4};
const SiteId kA{0};
const SiteId kB{1};
const SiteId kC{2};

/// Tsgd's dependency calls take slots and site indices; these look up ids.
void AddDep(Tsgd* tsgd, SiteId site, GlobalTxnId from, GlobalTxnId to) {
  tsgd->AddDependency(tsgd->SiteIndexOf(site), tsgd->SlotOf(from),
                      tsgd->SlotOf(to));
}
bool HasDep(const Tsgd& tsgd, SiteId site, GlobalTxnId from,
            GlobalTxnId to) {
  return tsgd.HasDependency(tsgd.SiteIndexOf(site), tsgd.SlotOf(from),
                            tsgd.SlotOf(to));
}

// --------------------------------------------------------------------------
// TransactionSiteGraph (Scheme 1)
// --------------------------------------------------------------------------

TEST(TsgTest, InsertAndRemove) {
  TransactionSiteGraph tsg;
  tsg.InsertTxn(kG1, {kA, kB});
  EXPECT_TRUE(tsg.HasTxn(kG1));
  EXPECT_EQ(tsg.EdgeCount(), 2u);
  EXPECT_EQ(tsg.SitesOf(kG1).size(), 2u);
  tsg.RemoveTxn(kG1);
  EXPECT_FALSE(tsg.HasTxn(kG1));
  EXPECT_EQ(tsg.EdgeCount(), 0u);
  EXPECT_EQ(tsg.SiteCount(), 0u);
}

TEST(TsgTest, SingleTxnHasNoCycle) {
  TransactionSiteGraph tsg;
  tsg.InsertTxn(kG1, {kA, kB});
  EXPECT_FALSE(tsg.EdgeOnCycle(kG1, kA, nullptr));
  EXPECT_FALSE(tsg.EdgeOnCycle(kG1, kB, nullptr));
}

TEST(TsgTest, TwoTxnsSharingTwoSitesFormCycle) {
  TransactionSiteGraph tsg;
  tsg.InsertTxn(kG1, {kA, kB});
  tsg.InsertTxn(kG2, {kA, kB});
  // Cycle G1 - A - G2 - B - G1: all four edges lie on it.
  EXPECT_TRUE(tsg.EdgeOnCycle(kG1, kA, nullptr));
  EXPECT_TRUE(tsg.EdgeOnCycle(kG1, kB, nullptr));
  EXPECT_TRUE(tsg.EdgeOnCycle(kG2, kA, nullptr));
  EXPECT_TRUE(tsg.EdgeOnCycle(kG2, kB, nullptr));
}

TEST(TsgTest, SharingOneSiteIsAcyclic) {
  TransactionSiteGraph tsg;
  tsg.InsertTxn(kG1, {kA, kB});
  tsg.InsertTxn(kG2, {kB, kC});
  EXPECT_FALSE(tsg.EdgeOnCycle(kG2, kB, nullptr));
  EXPECT_FALSE(tsg.EdgeOnCycle(kG2, kC, nullptr));
}

TEST(TsgTest, TriangleThroughThreeTxns) {
  // G1: {A,B}, G2: {B,C}, G3: {C,A} — cycle through all three.
  TransactionSiteGraph tsg;
  tsg.InsertTxn(kG1, {kA, kB});
  tsg.InsertTxn(kG2, {kB, kC});
  tsg.InsertTxn(kG3, {kC, kA});
  EXPECT_TRUE(tsg.EdgeOnCycle(kG3, kC, nullptr));
  EXPECT_TRUE(tsg.EdgeOnCycle(kG3, kA, nullptr));
  EXPECT_TRUE(tsg.EdgeOnCycle(kG1, kA, nullptr));
}

TEST(TsgTest, EdgeNotOnCycleWhenBranchOnly) {
  TransactionSiteGraph tsg;
  tsg.InsertTxn(kG1, {kA, kB});
  tsg.InsertTxn(kG2, {kA, kB, kC});
  // Edges at A and B are on the cycle; the C edge is a dead-end branch.
  EXPECT_TRUE(tsg.EdgeOnCycle(kG2, kA, nullptr));
  EXPECT_FALSE(tsg.EdgeOnCycle(kG2, kC, nullptr));
}

TEST(TsgTest, StepsAreCounted) {
  TransactionSiteGraph tsg;
  tsg.InsertTxn(kG1, {kA, kB});
  tsg.InsertTxn(kG2, {kA, kB});
  int64_t steps = 0;
  tsg.EdgeOnCycle(kG1, kA, &steps);
  EXPECT_GT(steps, 0);
}

// --------------------------------------------------------------------------
// TSGD (Scheme 2) — dependency semantics
// --------------------------------------------------------------------------

TEST(TsgdTest, DependencyBookkeeping) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA});
  tsgd.InsertTxn(kG2, {kA});
  AddDep(&tsgd, kA, kG1, kG2);
  EXPECT_TRUE(HasDep(tsgd, kA, kG1, kG2));
  EXPECT_FALSE(HasDep(tsgd, kA, kG2, kG1));
  EXPECT_TRUE(tsgd.HasDependenciesInto(kG2, kA));
  EXPECT_FALSE(tsgd.HasDependenciesInto(kG1, kA));
  ASSERT_EQ(tsgd.DependenciesInto(kG2, kA).size(), 1u);
  EXPECT_EQ(tsgd.DependenciesInto(kG2, kA)[0], kG1);
  EXPECT_EQ(tsgd.DependencyCount(), 1u);
}

TEST(TsgdTest, RemoveTxnDropsDependenciesBothDirections) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA});
  tsgd.InsertTxn(kG2, {kA});
  tsgd.InsertTxn(kG3, {kA});
  AddDep(&tsgd, kA, kG1, kG2);
  AddDep(&tsgd, kA, kG2, kG3);
  tsgd.RemoveTxn(kG2);
  EXPECT_EQ(tsgd.DependencyCount(), 0u);
  EXPECT_FALSE(tsgd.HasDependenciesInto(kG3, kA));
  EXPECT_FALSE(tsgd.HasTxn(kG2));
}

TEST(TsgdTest, NoDependenciesMeansGraphCycleIsTsgdCycle) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA, kB});
  tsgd.InsertTxn(kG2, {kA, kB});
  EXPECT_TRUE(tsgd.HasCycleInvolving(kG1));
  EXPECT_TRUE(tsgd.HasCycleInvolving(kG2));
}

TEST(TsgdTest, OneDependencyBreaksOneOrientationOnly) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA, kB});
  tsgd.InsertTxn(kG2, {kA, kB});
  // Committing G1 before G2 at A blocks the orientation G2 -> A -> G1 but
  // the cycle remains realizable the other way (G1 before G2 at A, G2
  // before G1 at B).
  AddDep(&tsgd, kA, kG1, kG2);
  EXPECT_TRUE(tsgd.HasCycleInvolving(kG1));
}

TEST(TsgdTest, ConsistentDependenciesEliminateCycle) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA, kB});
  tsgd.InsertTxn(kG2, {kA, kB});
  // G1 before G2 at both junctions: only a consistent serialization
  // remains; no TSGD cycle.
  AddDep(&tsgd, kA, kG1, kG2);
  AddDep(&tsgd, kB, kG1, kG2);
  EXPECT_FALSE(tsgd.HasCycleInvolving(kG1));
  EXPECT_FALSE(tsgd.HasCycleInvolving(kG2));
}

TEST(TsgdTest, InconsistentCrossSiteDependenciesRealizeCycle) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA, kB});
  tsgd.InsertTxn(kG2, {kA, kB});
  // G1 before G2 at A and G2 before G1 at B is exactly a serialization
  // cycle: the orientation G1 -> A -> G2 -> B -> G1 is opposed by no
  // dependency (both *support* it). The checker must report it. Scheme 2
  // never reaches this state — Eliminate_Cycles blocks one orientation
  // before the other can be committed.
  AddDep(&tsgd, kA, kG1, kG2);
  AddDep(&tsgd, kB, kG2, kG1);
  EXPECT_TRUE(tsgd.HasCycleInvolving(kG1));
}

TEST(TsgdTest, ThreeTxnTriangleCycle) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA, kB});
  tsgd.InsertTxn(kG2, {kB, kC});
  tsgd.InsertTxn(kG3, {kC, kA});
  EXPECT_TRUE(tsgd.HasCycleInvolving(kG1));
  // Break it at one junction per orientation.
  AddDep(&tsgd, kB, kG1, kG2);
  EXPECT_TRUE(tsgd.HasCycleInvolving(kG1));  // Reverse orientation remains.
  AddDep(&tsgd, kC, kG2, kG3);
  AddDep(&tsgd, kA, kG3, kG1);
  // Now the remaining orientation is G1 -> G2 -> G3 consistently; wait —
  // those dependencies orient the triangle consistently, which is exactly
  // a realizable serialization ordering around the cycle... but a TSGD
  // cycle requires an orientation NOT contradicted by dependencies, and
  // traversing G1,B,G2,C,G3,A forward is contradicted by none of them?
  // No: a dependency (G1,B)->(B,G2) *supports* G1 before G2; the cycle
  // definition only forbids orientations with an opposing dependency.
  // A fully forward-supported cycle would mean ser(S) is already
  // non-serializable — Scheme 2 prevents it by construction. The checker
  // must still report it:
  EXPECT_TRUE(tsgd.HasCycleInvolving(kG1));
}

// --------------------------------------------------------------------------
// Eliminate_Cycles (Figure 4)
// --------------------------------------------------------------------------

TEST(EliminateCyclesTest, NoCycleReturnsEmptyDelta) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA, kB});
  tsgd.InsertTxn(kG2, {kB, kC});
  EXPECT_TRUE(tsgd.EliminateCycles(kG2, nullptr).empty());
}

TEST(EliminateCyclesTest, TwoTxnCycleBroken) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA, kB});
  tsgd.InsertTxn(kG2, {kA, kB});
  std::vector<Dependency> delta = tsgd.EliminateCycles(kG2, nullptr);
  EXPECT_FALSE(delta.empty());
  for (const Dependency& dep : delta) {
    EXPECT_EQ(dep.to, kG2);  // All Δ dependencies point into the new txn.
    AddDep(&tsgd, dep.site, dep.from, dep.to);
  }
  EXPECT_FALSE(tsgd.HasCycleInvolving(kG2));
}

TEST(EliminateCyclesTest, RespectsExistingDependencies) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA, kB});
  tsgd.InsertTxn(kG2, {kA, kB});
  // Both junctions already committed G1 before G2: no cycle remains, so
  // Δ must be empty.
  AddDep(&tsgd, kA, kG1, kG2);
  AddDep(&tsgd, kB, kG1, kG2);
  EXPECT_TRUE(tsgd.EliminateCycles(kG2, nullptr).empty());
}

TEST(EliminateCyclesTest, CountsSteps) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA, kB});
  tsgd.InsertTxn(kG2, {kA, kB});
  int64_t steps = 0;
  tsgd.EliminateCycles(kG2, &steps);
  EXPECT_GT(steps, 0);
}

// The Figure 4 walk as it reads in the paper: every return to a frame
// rescans that frame's candidates from its first site. It is the reference
// for Tsgd::EliminateCycles, which resumes each frame at its cursor instead
// and must make the same moves. Besides Δ it reports every examination
// (`steps`), the examinations that were a frame's first look at a candidate
// (`first_looks`, what the resuming walk should count), and how often the
// walk entered a transaction that was already on its path.
struct ReferenceWalk {
  std::vector<Dependency> delta;
  int64_t steps = 0;
  int64_t first_looks = 0;
  int64_t reentries = 0;
};

ReferenceWalk RescanningEliminateCycles(const Tsgd& tsgd,
                                        GlobalTxnId origin) {
  ReferenceWalk walk;
  std::set<std::tuple<int64_t, int64_t, int64_t>> delta_index;  // (u, v, w)
  std::set<std::pair<int64_t, int64_t>> used;                   // (u, w)
  std::unordered_map<GlobalTxnId, std::vector<SiteId>> s_par;
  std::unordered_map<GlobalTxnId, std::vector<GlobalTxnId>> t_par;
  // Per frame on the path: the (u, w) candidates it has looked at.
  std::vector<std::set<std::pair<int64_t, int64_t>>> looked(1);

  GlobalTxnId v = origin;
  for (;;) {
    bool traversed = false;
    for (SiteId u : tsgd.SitesOf(v)) {
      const auto& stack = s_par[v];
      if (!stack.empty() && stack.back() == u) continue;  // Entry site.
      for (GlobalTxnId w : tsgd.TxnsAt(u)) {
        ++walk.steps;
        if (looked.back().insert({u.value(), w.value()}).second) {
          ++walk.first_looks;
        }
        if (w == v) continue;
        if (w != origin && used.contains({u.value(), w.value()})) continue;
        if (HasDep(tsgd, u, v, w) ||
            delta_index.contains({u.value(), v.value(), w.value()})) {
          continue;
        }
        used.insert({u.value(), w.value()});
        if (w == origin) {
          walk.delta.push_back(Dependency{u, v, origin});
          delta_index.insert({u.value(), v.value(), origin.value()});
        } else {
          if (!s_par[w].empty()) ++walk.reentries;
          s_par[w].push_back(u);
          t_par[w].push_back(v);
          looked.emplace_back();
          v = w;
        }
        traversed = true;
        break;
      }
      if (traversed) break;
    }
    if (traversed) continue;
    if (v == origin) break;
    GlobalTxnId parent = t_par[v].back();
    t_par[v].pop_back();
    s_par[v].pop_back();
    looked.pop_back();
    v = parent;
  }
  return walk;
}

std::string DeltaString(const std::vector<Dependency>& delta) {
  std::string text;
  for (const Dependency& dep : delta) {
    text += "(" + ToString(dep.from) + "," + ToString(dep.site) + ")->" +
            ToString(dep.to) + " ";
  }
  return text;
}

// Differential test: on random TSGDs — up to 64 transactions over 2-8
// sites, dense enough that the walk re-enters transactions through other
// sites, with random acyclic dependency sets — the resuming walk returns
// the reference's Δ in the reference's order, and counts exactly the
// reference's first looks. Several origins per graph and a remove/insert
// in between exercise the reused marks and slots.
TEST(EliminateCyclesTest, ResumingWalkMatchesTheRescanningReference) {
  Rng rng(1992);
  int64_t reentries = 0;
  int64_t nonempty = 0;
  int64_t steps_total = 0;
  int64_t reference_steps_total = 0;
  for (int trial = 0; trial < 600; ++trial) {
    Tsgd tsgd;
    int sites = static_cast<int>(rng.NextInRange(2, 8));
    int txns = static_cast<int>(rng.NextInRange(2, 64));
    double density = 0.15 + 0.5 * rng.NextDouble();
    auto random_sites = [&]() {
      std::vector<SiteId> chosen;
      for (int s = 0; s < sites; ++s) {
        if (rng.NextBernoulli(density)) chosen.push_back(SiteId(s));
      }
      if (chosen.size() < 2) chosen = {SiteId(0), SiteId(sites - 1)};
      return chosen;
    };
    for (int t = 0; t < txns; ++t) {
      tsgd.InsertTxn(GlobalTxnId(t), random_sites());
    }
    // Acyclic: every dependency follows one random priority order.
    std::vector<GlobalTxnId> priority = tsgd.Txns();
    rng.Shuffle(&priority);
    std::unordered_map<GlobalTxnId, size_t> rank;
    for (size_t i = 0; i < priority.size(); ++i) rank[priority[i]] = i;
    double dep_p = rng.NextDouble() * 0.4;
    for (int s = 0; s < sites; ++s) {
      const std::vector<GlobalTxnId>& at = tsgd.TxnsAt(SiteId(s));
      std::vector<GlobalTxnId> members(at.begin(), at.end());
      for (GlobalTxnId a : members) {
        for (GlobalTxnId b : members) {
          if (rank[a] < rank[b] && rng.NextBernoulli(dep_p)) {
            AddDep(&tsgd, SiteId(s), a, b);
          }
        }
      }
    }
    ASSERT_TRUE(tsgd.Validate().ok()) << tsgd.Validate();
    for (int call = 0; call < 4; ++call) {
      if (call == 2) {
        // Free a slot and fill it again with a different site set.
        GlobalTxnId moved(static_cast<int64_t>(rng.NextBelow(txns)));
        tsgd.RemoveTxn(moved);
        tsgd.InsertTxn(moved, random_sites());
      }
      GlobalTxnId origin(static_cast<int64_t>(rng.NextBelow(txns)));
      ReferenceWalk reference = RescanningEliminateCycles(tsgd, origin);
      int64_t steps = 0;
      std::vector<Dependency> delta = tsgd.EliminateCycles(origin, &steps);
      ASSERT_EQ(DeltaString(delta), DeltaString(reference.delta))
          << "trial " << trial << " call " << call;
      ASSERT_EQ(steps, reference.first_looks)
          << "trial " << trial << " call " << call;
      ASSERT_LE(steps, reference.steps);
      reentries += reference.reentries;
      nonempty += delta.empty() ? 0 : 1;
      steps_total += steps;
      reference_steps_total += reference.steps;
    }
  }
  // The battery reaches the cases the cursor argument is about.
  EXPECT_GT(reentries, 100);
  EXPECT_GT(nonempty, 500);
  EXPECT_LT(steps_total, reference_steps_total);
}

// Pinned counts on hand-traced graphs. G1 and G2 at sites A and B, walk
// from G2: G2 -A-> G1 (1 look); at G1, B offers G1 (skip) and G2 (Δ gets
// (G1,B)->G2) — 3; back at G2, A's G2 — 4; B's G1 -B-> G1 — 5; at G1, A
// offers G1 and G2 (Δ gets (G1,A)->G2) — 7; back at G2, B's G2 — 8.
// Rescanning every frame from its first site costs 16.
TEST(EliminateCyclesTest, ResumingWalkStepsArePinned) {
  Tsgd tsgd;
  tsgd.InsertTxn(kG1, {kA, kB});
  tsgd.InsertTxn(kG2, {kA, kB});
  int64_t steps = 0;
  std::vector<Dependency> delta = tsgd.EliminateCycles(kG2, &steps);
  EXPECT_EQ(steps, 8);
  EXPECT_EQ(RescanningEliminateCycles(tsgd, kG2).steps, 16);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0], (Dependency{kB, kG1, kG2}));
  EXPECT_EQ(delta[1], (Dependency{kA, kG1, kG2}));

  // G1 at every site: the walk from G3 enters G1 through A, goes on to
  // G2 through B and comes back into G1 through C while G1's first frame
  // is still on the path. G3 is already after G2 at B.
  Tsgd reentry;
  reentry.InsertTxn(kG1, {kA, kB, kC});
  reentry.InsertTxn(kG2, {kB, kC});
  reentry.InsertTxn(kG3, {kA, kB});
  AddDep(&reentry, kB, kG2, kG3);
  steps = 0;
  delta = reentry.EliminateCycles(kG3, &steps);
  ReferenceWalk reference = RescanningEliminateCycles(reentry, kG3);
  EXPECT_EQ(steps, 24);
  EXPECT_EQ(reference.steps, 41);
  EXPECT_EQ(reference.reentries, 2);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0], (Dependency{kA, kG1, kG3}));
  EXPECT_EQ(delta[1], (Dependency{kB, kG1, kG3}));
}

// Property test: on random TSGDs, adding Δ from Eliminate_Cycles leaves no
// cycle involving the new transaction — the Scheme 2 safety invariant
// (Theorem 5 rests on it).
TEST(EliminateCyclesTest, PropertyRandomGraphsBecomeAcyclic) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    Tsgd tsgd;
    int sites = static_cast<int>(rng.NextInRange(2, 5));
    int txns = static_cast<int>(rng.NextInRange(1, 6));
    // Existing transactions with random site sets and random consistent
    // dependencies (simulate processing order at each site).
    for (int t = 0; t < txns; ++t) {
      GlobalTxnId txn{t};
      std::vector<SiteId> txn_sites;
      for (int s = 0; s < sites; ++s) {
        if (rng.NextBernoulli(0.6)) txn_sites.push_back(SiteId(s));
      }
      if (txn_sites.empty()) txn_sites.push_back(SiteId(0));
      tsgd.InsertTxn(txn, txn_sites);
    }
    // Random dependencies consistent with a random per-site execution
    // prefix (as ActSer would create them): pick a random global priority
    // and at each site add deps from a random executed prefix.
    for (int s = 0; s < sites; ++s) {
      std::vector<GlobalTxnId> at_site(tsgd.TxnsAt(SiteId(s)).begin(),
                                       tsgd.TxnsAt(SiteId(s)).end());
      rng.Shuffle(&at_site);
      size_t executed =
          at_site.empty() ? 0 : rng.NextBelow(at_site.size() + 1);
      for (size_t i = 0; i < executed; ++i) {
        for (size_t j = i + 1; j < at_site.size(); ++j) {
          AddDep(&tsgd, SiteId(s), at_site[i], at_site[j]);
        }
      }
    }
    // New transaction arrives.
    GlobalTxnId newcomer{1000};
    std::vector<SiteId> newcomer_sites;
    for (int s = 0; s < sites; ++s) {
      if (rng.NextBernoulli(0.7)) newcomer_sites.push_back(SiteId(s));
    }
    if (newcomer_sites.empty()) newcomer_sites.push_back(SiteId(0));
    tsgd.InsertTxn(newcomer, newcomer_sites);

    std::vector<Dependency> delta = tsgd.EliminateCycles(newcomer, nullptr);
    for (const Dependency& dep : delta) {
      EXPECT_EQ(dep.to, newcomer);
      AddDep(&tsgd, dep.site, dep.from, dep.to);
    }
    EXPECT_FALSE(tsgd.HasCycleInvolving(newcomer))
        << "trial " << trial << ": cycle survived Eliminate_Cycles";
  }
}

// Non-minimality demonstration (Theorem 7 context): Eliminate_Cycles may
// return more dependencies than strictly necessary; minimal Δ computation
// is NP-hard, so the paper accepts this.
TEST(EliminateCyclesTest, DeltaNeedNotBeMinimal) {
  Rng rng(77);
  int64_t total_delta = 0;
  int64_t trials_with_delta = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Tsgd tsgd;
    for (int t = 0; t < 3; ++t) {
      tsgd.InsertTxn(GlobalTxnId(t), {kA, kB, kC});
    }
    GlobalTxnId newcomer{1000};
    tsgd.InsertTxn(newcomer, {kA, kB, kC});
    std::vector<Dependency> delta = tsgd.EliminateCycles(newcomer, nullptr);
    if (!delta.empty()) {
      ++trials_with_delta;
      total_delta += static_cast<int64_t>(delta.size());
    }
  }
  EXPECT_GT(trials_with_delta, 0);
  // Non-trivial Δ sizes occur; exact minimality is not required.
  EXPECT_GT(total_delta, trials_with_delta);
}

}  // namespace
}  // namespace mdbs::gtm

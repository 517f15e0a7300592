// Differential test of the serializability oracle (src/sched). Randomized
// recorded schedules — several sites, single-version keyed sites, keyless
// (SGT-like) sites and multiversion (MVTO) sites, aborted and unfinished
// transactions, planted cycles — are checked by every sched::Check* and by
// a brute-force reference built here: all conflicting pairs instead of the
// oracle's reduced edges, all version pairs instead of version chains, and
// a transitive closure instead of a DFS. Verdicts must agree, and every
// witness cycle the oracle returns must be a cycle of the reference graph.
// A second battery draws ids from both of the MDBS's counters and names
// versions whose writer never began; fixed schedules pin edge cases and the
// exact SerializabilityResult strings.

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sched/graph.h"
#include "sched/schedule.h"
#include "sched/serializability.h"

namespace mdbs::sched {
namespace {

enum class SiteKind { kKeyed, kKeyless, kMultiversion };

using Edge = std::pair<int64_t, int64_t>;
using EdgeSet = std::set<Edge>;

struct Scenario {
  std::vector<SiteKind> kinds;  // indexed by site id
  std::vector<SiteId> mv_sites;
};

// --------------------------------------------------------------------------
// Random schedules
// --------------------------------------------------------------------------

/// First local transaction id of an MDBS run (Mdbs::kLocalTxnIdBase).
constexpr int64_t kLocalTxnIdBase = 1'000'000'000;

class ScheduleBuilder {
 public:
  ScheduleBuilder(ScheduleRecorder* recorder, const Scenario& scenario)
      : recorder_(recorder), scenario_(scenario) {}

  /// Begins a transaction with the next id: from one counter, or with
  /// `mixed_ids` as the MDBS numbers them (subtransactions from 0, local
  /// transactions from kLocalTxnIdBase).
  TxnId Begin(SiteId site, GlobalTxnId global = GlobalTxnId()) {
    if (mixed_ids_) {
      TxnId txn = global.valid() ? TxnId(next_sub_++) : TxnId(next_local_++);
      return BeginAs(txn, site, global);
    }
    return BeginAs(TxnId(next_txn_++), site, global);
  }
  TxnId BeginAs(TxnId txn, SiteId site, GlobalTxnId global = GlobalTxnId()) {
    begun_[txn] = {site, recorder_->RecordBegin(site, txn, global)};
    return txn;
  }
  void set_mixed_ids(bool mixed) { mixed_ids_ = mixed; }
  void Read(TxnId txn, int64_t item, TxnId read_from = TxnId()) {
    recorder_->RecordOp(begun_.at(txn).ordinal, DataOp::Read(DataItemId(item)),
                        0, read_from);
  }
  void Write(TxnId txn, int64_t item) {
    recorder_->RecordOp(begun_.at(txn).ordinal,
                        DataOp::Write(DataItemId(item), 1), 0);
    writers_[{begun_.at(txn).site.value(), item}].push_back(txn);
  }
  /// Finishes `txn`; keyed and multiversion sites give it `key`.
  void Finish(TxnId txn, TxnOutcome outcome, int64_t key) {
    SiteKind kind = scenario_.kinds[begun_.at(txn).site.value()];
    recorder_->RecordFinish(begun_.at(txn).ordinal, outcome,
                            kind == SiteKind::kKeyless
                                ? std::nullopt
                                : std::optional<int64_t>(key));
  }
  /// Earlier writers of `item` at `site`, in write order.
  const std::vector<TxnId>& Writers(SiteId site, int64_t item) {
    return writers_[{site.value(), item}];
  }

 private:
  ScheduleRecorder* recorder_;
  const Scenario& scenario_;
  int64_t next_txn_ = 1;
  bool mixed_ids_ = false;
  int64_t next_sub_ = 0;
  int64_t next_local_ = kLocalTxnIdBase;
  struct Begun {
    SiteId site;
    TxnOrdinal ordinal;
  };
  std::map<TxnId, Begun> begun_;
  std::map<std::pair<int64_t, int64_t>, std::vector<TxnId>> writers_;
};

/// Keys of planted transactions: above every random key, so no two
/// versions of an item share a timestamp.
constexpr int64_t kPlanted = int64_t{1} << 40;

/// Plants a cycle (global or local) or a ser-key inversion at the start of
/// the schedule.
void PlantCycle(Rng* rng, const Scenario& scenario, ScheduleBuilder* b) {
  const size_t sites = scenario.kinds.size();
  SiteId s0(static_cast<int64_t>(rng->NextBelow(sites)));
  constexpr int64_t kX = 100;
  constexpr int64_t kY = 101;
  switch (rng->NextBelow(3)) {
    case 0: {
      // Global: G1 before G2 at s0, G2 before G1 at s1.
      SiteId s1((s0.value() + 1) % static_cast<int64_t>(sites));
      GlobalTxnId g1(900);
      GlobalTxnId g2(901);
      TxnId a1 = b->Begin(s0, g1);
      TxnId a2 = b->Begin(s0, g2);
      TxnId b1 = b->Begin(s1, g1);
      TxnId b2 = b->Begin(s1, g2);
      b->Write(a1, kX);
      b->Write(a2, kX);
      b->Write(b2, kY);
      b->Write(b1, kY);
      b->Finish(a1, TxnOutcome::kCommitted, kPlanted + 1);
      b->Finish(a2, TxnOutcome::kCommitted, kPlanted + 2);
      b->Finish(b2, TxnOutcome::kCommitted, kPlanted + 1);
      b->Finish(b1, TxnOutcome::kCommitted, kPlanted + 2);
      break;
    }
    case 1: {
      // Local: r1(x) w2(x) w2(y) r1(y) — at a multiversion site the reads
      // name their versions, so make T1 read the initial x and T2's y.
      TxnId t1 = b->Begin(s0);
      TxnId t2 = b->Begin(s0);
      b->Read(t1, kX);
      b->Write(t2, kX);
      b->Write(t2, kY);
      b->Read(t1, kY, t2);
      b->Finish(t2, TxnOutcome::kCommitted, kPlanted + 20);
      b->Finish(t1, TxnOutcome::kCommitted, kPlanted + 10);
      break;
    }
    default: {
      // Ser-key inversion without a cycle: w1(x) w2(x), key(T1) > key(T2).
      TxnId t1 = b->Begin(s0);
      TxnId t2 = b->Begin(s0);
      b->Write(t1, kX);
      b->Write(t2, kX);
      b->Finish(t1, TxnOutcome::kCommitted, kPlanted + 50);
      b->Finish(t2, TxnOutcome::kCommitted, kPlanted + 40);
      break;
    }
  }
}

Scenario MakeScenario(Rng* rng) {
  Scenario scenario;
  size_t sites = 2 + rng->NextBelow(3);
  for (size_t s = 0; s < sites; ++s) {
    auto kind = static_cast<SiteKind>(rng->NextBelow(3));
    scenario.kinds.push_back(kind);
    if (kind == SiteKind::kMultiversion) {
      scenario.mv_sites.push_back(SiteId(static_cast<int64_t>(s)));
    }
  }
  return scenario;
}

/// Variations of the random schedules; the default draws the original
/// battery's schedules.
struct GenOptions {
  /// Ids from both MDBS counters (see ScheduleBuilder::Begin).
  bool mixed_ids = false;
  /// Versioned reads may also name a writer that never began.
  bool phantom_writers = false;
};

/// A transaction id no generated schedule begins.
constexpr TxnId kPhantomWriter(int64_t{1} << 50);

/// Records one random schedule under `scenario`.
void Generate(Rng* rng, const Scenario& scenario, ScheduleRecorder* recorder,
              const GenOptions& options = {}) {
  ScheduleBuilder b(recorder, scenario);
  b.set_mixed_ids(options.mixed_ids);
  if (rng->NextBernoulli(0.3)) PlantCycle(rng, scenario, &b);

  struct Pending {
    TxnId txn;
    SiteId site;
    std::vector<std::pair<OpType, int64_t>> ops;
    size_t next = 0;
  };
  std::vector<Pending> live;
  const auto sites = static_cast<int64_t>(scenario.kinds.size());
  const int64_t items = 2 + static_cast<int64_t>(rng->NextBelow(3));
  auto add = [&](SiteId site, GlobalTxnId global) {
    Pending p{b.Begin(site, global), site, {}};
    int64_t ops = 1 + rng->NextInRange(0, 3);
    for (int64_t i = 0; i < ops; ++i) {
      p.ops.emplace_back(rng->NextBernoulli(0.5) ? OpType::kRead
                                                 : OpType::kWrite,
                         static_cast<int64_t>(rng->NextBelow(items)));
    }
    live.push_back(std::move(p));
  };
  int64_t globals = rng->NextInRange(1, 4);
  for (int64_t g = 0; g < globals; ++g) {
    for (int64_t s = 0; s < sites; ++s) {
      if (rng->NextBernoulli(0.6)) add(SiteId(s), GlobalTxnId(g + 1));
    }
  }
  for (int64_t s = 0; s < sites; ++s) {
    int64_t locals = rng->NextInRange(1, 4);
    for (int64_t l = 0; l < locals; ++l) add(SiteId(s), GlobalTxnId());
  }

  // Random interleaving; a transaction finishes right after its last op,
  // or stays unfinished. Keys are finish order, now and then shuffled;
  // they stay distinct either way.
  int64_t finish_key = 0;
  const bool shuffle_keys = rng->NextBernoulli(0.3);
  while (!live.empty()) {
    size_t pick = rng->NextBelow(live.size());
    Pending& p = live[pick];
    if (p.next < p.ops.size()) {
      auto [type, item] = p.ops[p.next++];
      if (type == OpType::kWrite) {
        b.Write(p.txn, item);
        continue;
      }
      TxnId read_from;
      if (scenario.kinds[p.site.value()] == SiteKind::kMultiversion) {
        // Any earlier version: the initial one, or any writer's (own,
        // committed, aborted or still running), or a phantom's.
        const std::vector<TxnId>& writers = b.Writers(p.site, item);
        size_t choice = rng->NextBelow(writers.size() + 1 +
                                       (options.phantom_writers ? 1 : 0));
        if (choice < writers.size()) read_from = writers[choice];
        if (choice == writers.size() + 1) read_from = kPhantomWriter;
      }
      b.Read(p.txn, item, read_from);
      continue;
    }
    double roll = rng->NextDouble();
    if (roll < 0.9) {
      TxnOutcome outcome =
          roll < 0.75 ? TxnOutcome::kCommitted : TxnOutcome::kAborted;
      ++finish_key;
      int64_t key = shuffle_keys
                        ? rng->NextInRange(0, 1000) * 1000 + finish_key
                        : finish_key;
      b.Finish(p.txn, outcome, key);
    }
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
  }
}

// --------------------------------------------------------------------------
// Brute-force reference
// --------------------------------------------------------------------------

bool Committed(const ScheduleRecorder& recorder, TxnId txn) {
  const TxnRecord* record = recorder.FindTxn(txn);
  return record != nullptr && record->outcome == TxnOutcome::kCommitted;
}

/// All conflicting pairs between distinct committed transactions at `site`,
/// earlier -> later, as transaction ids.
EdgeSet AllPairsConflicts(const ScheduleRecorder& recorder, SiteId site) {
  std::vector<const RecordedOp*> ops;
  for (const RecordedOp& op : recorder.ops()) {
    if (op.site == site && Committed(recorder, op.txn)) ops.push_back(&op);
  }
  EdgeSet edges;
  for (size_t i = 0; i < ops.size(); ++i) {
    for (size_t j = i + 1; j < ops.size(); ++j) {
      if (ops[i]->txn != ops[j]->txn && ops[i]->op.ConflictsWith(ops[j]->op)) {
        edges.insert({ops[i]->txn.value(), ops[j]->txn.value()});
      }
    }
  }
  return edges;
}

/// The multiversion serialization graph at `site` with every implied pair:
/// all version-order pairs, reads-from, and reader -> every later version.
EdgeSet AllPairsMvsg(const ScheduleRecorder& recorder, SiteId site) {
  std::map<int64_t, std::set<std::pair<int64_t, int64_t>>> versions;
  for (const RecordedOp& op : recorder.ops()) {
    if (op.site == site && op.op.type == OpType::kWrite &&
        Committed(recorder, op.txn)) {
      versions[op.op.item.value()].insert(
          {*recorder.FindTxn(op.txn)->serialization_key, op.txn.value()});
    }
  }
  EdgeSet edges;
  auto add = [&](int64_t from, int64_t to) {
    if (from != to) edges.insert({from, to});
  };
  for (const auto& [item, list] : versions) {
    for (const auto& [key_a, a] : list) {
      for (const auto& [key_b, b] : list) {
        if (key_a < key_b) add(a, b);
      }
    }
  }
  for (const RecordedOp& op : recorder.ops()) {
    if (op.site != site || op.op.type != OpType::kRead ||
        !Committed(recorder, op.txn)) {
      continue;
    }
    int64_t read_key = -1;
    if (op.read_from.valid()) {
      if (recorder.FindTxn(op.read_from) != nullptr) {
        add(op.read_from.value(), op.txn.value());
      }
      if (!Committed(recorder, op.read_from)) continue;
      read_key = recorder.FindTxn(op.read_from)->serialization_key.value();
    }
    for (const auto& [key, writer] : versions[op.op.item.value()]) {
      if (key > read_key) add(op.txn.value(), writer);
    }
  }
  return edges;
}

/// True iff the edge set has a directed cycle: transitive closure over the
/// (small) node set, then a node that reaches itself.
bool HasCycleByClosure(const EdgeSet& edges) {
  std::map<int64_t, size_t> index;
  for (const auto& [from, to] : edges) {
    index.try_emplace(from, index.size());
    index.try_emplace(to, index.size());
  }
  const size_t n = index.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (const auto& [from, to] : edges) reach[index[from]][index[to]] = true;
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (size_t j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = true;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (reach[i][i]) return true;
  }
  return false;
}

EdgeSet ToGlobalKeys(const ScheduleRecorder& recorder, const EdgeSet& local) {
  EdgeSet edges;
  for (const auto& [from, to] : local) {
    int64_t a = GlobalNodeKey(*recorder.FindTxn(TxnId(from)));
    int64_t b = GlobalNodeKey(*recorder.FindTxn(TxnId(to)));
    if (a != b) edges.insert({a, b});
  }
  return edges;
}

/// Ser-key reference: every conflicting pair of keyed committed
/// transactions must have increasing keys.
bool KeysMonotone(const ScheduleRecorder& recorder, const EdgeSet& conflicts) {
  for (const auto& [from, to] : conflicts) {
    const TxnRecord* a = recorder.FindTxn(TxnId(from));
    const TxnRecord* b = recorder.FindTxn(TxnId(to));
    if (a->serialization_key.has_value() && b->serialization_key.has_value() &&
        *a->serialization_key >= *b->serialization_key) {
      return false;
    }
  }
  return true;
}

/// Strictness reference: every op on an item follows the finish of every
/// earlier writer of that item (other than itself); at multiversion sites,
/// reads instead follow the finish of the version's writer.
bool StrictByAllWriters(const ScheduleRecorder& recorder, SiteId site,
                        bool multiversion) {
  auto finished_before = [&](TxnId txn, int64_t seq) {
    const TxnRecord* record = recorder.FindTxn(txn);
    return record != nullptr && record->finish_seq >= 0 &&
           record->finish_seq < seq;
  };
  const std::vector<RecordedOp>& ops = recorder.ops();
  for (size_t j = 0; j < ops.size(); ++j) {
    const RecordedOp& op = ops[j];
    if (op.site != site) continue;
    if (multiversion) {
      if (op.op.type == OpType::kRead && op.read_from.valid() &&
          op.read_from != op.txn && !finished_before(op.read_from, op.seq)) {
        return false;
      }
      continue;
    }
    for (size_t i = 0; i < j; ++i) {
      const RecordedOp& earlier = ops[i];
      if (earlier.site == site && earlier.op.type == OpType::kWrite &&
          earlier.op.item == op.op.item && earlier.txn != op.txn &&
          !finished_before(earlier.txn, op.seq)) {
        return false;
      }
    }
  }
  return true;
}

/// The witness must close on itself and follow edges of `reference`.
void ExpectWitnessIn(const std::optional<std::vector<int64_t>>& cycle,
                     const EdgeSet& reference, const DirectedGraph* built) {
  ASSERT_TRUE(cycle.has_value());
  ASSERT_GE(cycle->size(), 2u);
  EXPECT_EQ(cycle->front(), cycle->back());
  for (size_t i = 0; i + 1 < cycle->size(); ++i) {
    Edge edge{(*cycle)[i], (*cycle)[i + 1]};
    EXPECT_TRUE(reference.contains(edge))
        << edge.first << " -> " << edge.second << " is no real edge";
    if (built != nullptr) {
      EXPECT_TRUE(built->HasEdge(edge.first, edge.second));
    }
  }
}

// --------------------------------------------------------------------------
// The battery
// --------------------------------------------------------------------------

/// How often each check of the battery came out negative.
struct BatteryCounts {
  int local_cycles = 0;
  int global_cycles = 0;
  int key_violations = 0;
  int strictness_violations = 0;
};

/// Runs every check on one recorded schedule and compares it with the
/// brute-force reference.
void CheckAgainstBruteForce(const ScheduleRecorder& recorder,
                            const Scenario& scenario, BatteryCounts* counts) {
  EdgeSet global_reference;
  for (size_t s = 0; s < scenario.kinds.size(); ++s) {
    SiteId site(static_cast<int64_t>(s));
    const bool mv = scenario.kinds[s] == SiteKind::kMultiversion;
    EdgeSet conflicts = AllPairsConflicts(recorder, site);
    EdgeSet local = mv ? AllPairsMvsg(recorder, site) : conflicts;

    SerializabilityResult result =
        mv ? CheckMultiversionSerializability(recorder, site)
           : CheckLocalSerializability(recorder, site);
    bool cyclic = HasCycleByClosure(local);
    ASSERT_EQ(result.serializable, !cyclic) << "site " << s;
    if (cyclic) {
      ++counts->local_cycles;
      DirectedGraph built =
          mv ? BuildMultiversionSerializationGraph(recorder, site)
             : BuildLocalConflictGraph(recorder, site);
      ExpectWitnessIn(result.cycle, local, &built);
    }

    bool monotone = KeysMonotone(recorder, conflicts);
    EXPECT_EQ(CheckSerializationKeyProperty(recorder, site).ok(), monotone)
        << "site " << s;
    counts->key_violations += !monotone;

    bool strict = StrictByAllWriters(recorder, site, mv);
    EXPECT_EQ(CheckStrictness(recorder, site, mv).ok(), strict)
        << "site " << s;
    counts->strictness_violations += !strict;

    for (const Edge& edge : ToGlobalKeys(recorder, local)) {
      global_reference.insert(edge);
    }
  }

  SerializabilityResult global =
      scenario.mv_sites.empty()
          ? CheckGlobalSerializability(recorder)
          : CheckGlobalSerializabilityMixed(recorder, scenario.mv_sites);
  bool cyclic = HasCycleByClosure(global_reference);
  ASSERT_EQ(global.serializable, !cyclic);
  if (cyclic) {
    ++counts->global_cycles;
    std::optional<DirectedGraph> built;
    if (scenario.mv_sites.empty()) {
      built = BuildGlobalConflictGraph(recorder);
    }
    ExpectWitnessIn(global.cycle, global_reference,
                    built.has_value() ? &*built : nullptr);
  }
}

/// Checks `schedules` random schedules drawn with `options`; the battery
/// must exercise both verdicts of every check.
void RunBattery(int schedules, const GenOptions& options) {
  BatteryCounts counts;
  int mv_schedules = 0;
  for (int seed = 1; seed <= schedules; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<uint64_t>(seed));
    Scenario scenario = MakeScenario(&rng);
    ScheduleRecorder recorder;
    Generate(&rng, scenario, &recorder, options);
    mv_schedules += !scenario.mv_sites.empty();
    CheckAgainstBruteForce(recorder, scenario, &counts);
  }
  EXPECT_GT(counts.local_cycles, schedules / 20);
  EXPECT_GT(counts.global_cycles, schedules / 20);
  EXPECT_LT(counts.global_cycles, schedules * 9 / 10);
  EXPECT_GT(counts.key_violations, schedules / 20);
  EXPECT_GT(counts.strictness_violations, schedules / 20);
  EXPECT_GT(mv_schedules, schedules / 4);
}

TEST(OracleDifferentialTest, RandomSchedulesAgreeWithBruteForce) {
  RunBattery(400, GenOptions{});
}

TEST(OracleDifferentialTest, MixedIdsAndPhantomWritersAgreeWithBruteForce) {
  RunBattery(400, GenOptions{.mixed_ids = true, .phantom_writers = true});
}

/// Site 0 multiversion, site 1 keyed single-version: versioned reads of an
/// aborted writer, a writer that never began and the reader's own write,
/// and transactions that began, operated and never finished.
TEST(OracleDifferentialTest, EdgeCaseSchedulesAgreeWithBruteForce) {
  Scenario scenario{{SiteKind::kMultiversion, SiteKind::kKeyed},
                    {SiteId(0)}};
  ScheduleRecorder recorder;
  ScheduleBuilder b(&recorder, scenario);
  b.set_mixed_ids(true);
  const SiteId mv(0);
  const SiteId sv(1);
  TxnId aborted = b.Begin(mv, GlobalTxnId(1));
  TxnId reader = b.Begin(mv);
  TxnId own = b.Begin(mv, GlobalTxnId(2));
  TxnId open_mv = b.Begin(mv);
  TxnId sv_g1 = b.Begin(sv, GlobalTxnId(1));
  TxnId sv_g2 = b.Begin(sv, GlobalTxnId(2));
  TxnId open_sv = b.Begin(sv);
  b.Write(aborted, 0);
  b.Write(own, 1);
  b.Write(open_mv, 2);
  b.Read(reader, 0, aborted);          // Writer aborted.
  b.Read(reader, 3, kPhantomWriter);   // Writer never began.
  b.Read(own, 1, own);                 // The reader's own version.
  b.Read(reader, 2, open_mv);          // Writer never finished.
  b.Write(open_sv, 5);                 // Never finishes.
  b.Write(sv_g2, 4);
  b.Write(sv_g1, 4);                   // G2 -> G1 at the keyed site.
  b.Read(sv_g1, 5);                    // Dirty read of open_sv's write.
  b.Finish(aborted, TxnOutcome::kAborted, 0);
  b.Finish(own, TxnOutcome::kCommitted, 3);
  b.Finish(reader, TxnOutcome::kCommitted, 4);
  b.Finish(sv_g2, TxnOutcome::kCommitted, 1);
  b.Finish(sv_g1, TxnOutcome::kCommitted, 2);

  BatteryCounts counts;
  CheckAgainstBruteForce(recorder, scenario, &counts);
  // Strict at neither site (reads of unfinished writers), cycle-free.
  EXPECT_EQ(counts.strictness_violations, 2);
  EXPECT_EQ(counts.local_cycles, 0);
  EXPECT_EQ(counts.global_cycles, 0);
  EXPECT_FALSE(CheckStrictness(recorder, mv, true).ok());
  EXPECT_FALSE(CheckStrictness(recorder, sv, false).ok());
}

/// A local cycle T0 -> L0 -> T1 -> T0 at one site, among transactions of
/// both counters, beside an aborted, an unfinished and an acyclic one. A
/// second cycle A <-> B begins first but accesses last, so the witness
/// shows which one the search reaches first.
void RecordCyclicLocalSchedule(ScheduleRecorder* recorder) {
  static const Scenario scenario{{SiteKind::kKeyed}, {}};
  ScheduleBuilder b(recorder, scenario);
  b.set_mixed_ids(true);
  const SiteId s(0);
  TxnId a = b.Begin(s);
  TxnId bb = b.Begin(s);
  TxnId t0 = b.Begin(s, GlobalTxnId(1));
  TxnId t1 = b.Begin(s, GlobalTxnId(2));
  TxnId l0 = b.Begin(s);
  TxnId l1 = b.Begin(s);
  TxnId aborted = b.Begin(s);
  TxnId open = b.Begin(s, GlobalTxnId(3));
  b.Write(t0, 0);
  b.Read(l0, 0);
  b.Write(aborted, 1);
  b.Write(l0, 1);
  b.Read(t1, 1);
  b.Read(l1, 0);
  b.Write(t1, 2);
  b.Read(t0, 2);
  b.Write(open, 3);
  b.Write(a, 8);
  b.Read(bb, 8);
  b.Write(bb, 9);
  b.Read(a, 9);
  b.Finish(a, TxnOutcome::kCommitted, 5);
  b.Finish(bb, TxnOutcome::kCommitted, 6);
  b.Finish(aborted, TxnOutcome::kAborted, 0);
  b.Finish(t0, TxnOutcome::kCommitted, 1);
  b.Finish(l0, TxnOutcome::kCommitted, 2);
  b.Finish(t1, TxnOutcome::kCommitted, 3);
  b.Finish(l1, TxnOutcome::kCommitted, 4);
}

/// G1 -> L -> G2 at site 0 through a local transaction, G2 -> G1 at site
/// 1, and a third global G3 after both at site 1. A second cycle
/// G4 <-> G5 begins first but accesses last.
void RecordCyclicGlobalSchedule(ScheduleRecorder* recorder) {
  static const Scenario scenario{{SiteKind::kKeyed, SiteKind::kKeyed}, {}};
  ScheduleBuilder b(recorder, scenario);
  b.set_mixed_ids(true);
  const SiteId s0(0);
  const SiteId s1(1);
  TxnId g4 = b.Begin(s1, GlobalTxnId(4));
  TxnId g5 = b.Begin(s1, GlobalTxnId(5));
  TxnId g1_s0 = b.Begin(s0, GlobalTxnId(1));
  TxnId local = b.Begin(s0);
  TxnId g2_s0 = b.Begin(s0, GlobalTxnId(2));
  TxnId g2_s1 = b.Begin(s1, GlobalTxnId(2));
  TxnId g1_s1 = b.Begin(s1, GlobalTxnId(1));
  TxnId g3_s1 = b.Begin(s1, GlobalTxnId(3));
  b.Write(g1_s0, 0);
  b.Read(local, 0);
  b.Write(local, 1);
  b.Read(g2_s0, 1);
  b.Write(g2_s1, 7);
  b.Read(g1_s1, 7);
  b.Write(g3_s1, 7);
  b.Write(g4, 8);
  b.Read(g5, 8);
  b.Write(g5, 9);
  b.Read(g4, 9);
  b.Finish(g4, TxnOutcome::kCommitted, 4);
  b.Finish(g5, TxnOutcome::kCommitted, 5);
  b.Finish(g1_s0, TxnOutcome::kCommitted, 1);
  b.Finish(local, TxnOutcome::kCommitted, 2);
  b.Finish(g2_s0, TxnOutcome::kCommitted, 3);
  b.Finish(g2_s1, TxnOutcome::kCommitted, 1);
  b.Finish(g1_s1, TxnOutcome::kCommitted, 2);
  b.Finish(g3_s1, TxnOutcome::kCommitted, 3);
}

// The strings below were recorded before the oracle numbered transactions
// densely; verdict, sizes and witness must not move.
TEST(OracleDifferentialTest, CyclicLocalScheduleResultIsPinned) {
  ScheduleRecorder recorder;
  RecordCyclicLocalSchedule(&recorder);
  EXPECT_EQ(CheckLocalSerializability(recorder, SiteId(0)).ToString(),
            "NOT serializable (nodes=6 edges=6 cycle=[0 1000000002 1 0])");
}

TEST(OracleDifferentialTest, CyclicGlobalScheduleResultIsPinned) {
  ScheduleRecorder recorder;
  RecordCyclicGlobalSchedule(&recorder);
  EXPECT_EQ(CheckGlobalSerializability(recorder).ToString(),
            "NOT serializable (nodes=6 edges=7 cycle=[2 2000000001 4 2])");
}

}  // namespace
}  // namespace mdbs::sched

// Differential test of GTM2's targeted wakeup. Gtm2 retries only the WAIT
// entries an act woke; RescanGtm2 below is the driver it replaced, which
// retries all of WAIT after every act (the paper's Figure 3, literally).
// Both run the same random, GTM1-shaped QUEUE streams — inits, sequential
// sers, acks, validates, fins, aborts from outside and from inside a drain,
// and a checkpoint/restore mid-stream — and must make the same decisions:
// the same callbacks in the same order, the same WAIT at every quiescent
// point, the same counters except the evaluations targeted wakeup skips.

#include <algorithm>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "common/rng.h"
#include "gtm/baselines.h"
#include "gtm/gtm2.h"
#include "gtm/scheme1.h"
#include "gtm/scheme2.h"
#include "gtm/scheme3.h"

namespace mdbs::gtm {
namespace {

Verdict CondOf(Scheme& scheme, const QueueOp& op) {
  switch (op.kind) {
    case QueueOpKind::kInit:
      return scheme.CondInit(op);
    case QueueOpKind::kSer:
      return scheme.CondSer(op.txn, op.site);
    case QueueOpKind::kAck:
      return scheme.CondAck(op.txn, op.site);
    case QueueOpKind::kValidate:
      return scheme.CondValidate(op.txn);
    case QueueOpKind::kFin:
      return scheme.CondFin(op.txn);
  }
  return Verdict::kReady;
}

/// The reference: GTM2's driver before targeted wakeup. After every act it
/// rescans all of WAIT, and — unless `restart` is off, the mutation the
/// test must catch — starts a new full pass whenever a pass made progress.
class RescanGtm2 {
 public:
  RescanGtm2(std::unique_ptr<Scheme> scheme, Gtm2::Callbacks callbacks,
             bool restart = true)
      : scheme_(std::move(scheme)),
        callbacks_(std::move(callbacks)),
        restart_(restart) {}

  void Enqueue(QueueOp op) {
    queue_.push_back(std::move(op));
    if (!pumping_) Pump();
  }

  void AbortCleanup(GlobalTxnId txn) {
    dead_.insert(txn);
    if (!pumping_) {
      std::erase_if(wait_, [txn](const QueueOp& op) { return op.txn == txn; });
    }
    scheme_->ActAbortCleanup(txn);
    if (!pumping_) {
      pumping_ = true;
      DrainWait();
      pumping_ = false;
      if (!queue_.empty()) Pump();
    }
  }

  Gtm2::VolatileImage SnapshotForCheckpoint() const {
    Gtm2::VolatileImage image;
    image.wait.assign(wait_.begin(), wait_.end());
    for (GlobalTxnId txn : dead_) image.dead_txns.push_back(txn.value());
    std::sort(image.dead_txns.begin(), image.dead_txns.end());
    image.stats = stats_;
    image.scheme_steps = scheme_->steps();
    scheme_->EncodeState(&image.scheme_state);
    return image;
  }

  void RestoreFromCheckpoint(const Gtm2::VolatileImage& image) {
    wait_.assign(image.wait.begin(), image.wait.end());
    for (int64_t txn : image.dead_txns) dead_.insert(GlobalTxnId(txn));
    stats_ = image.stats;
    ASSERT_TRUE(scheme_->DecodeState(image.scheme_state.data(),
                                     image.scheme_state.size()));
    scheme_->RestoreSteps(image.scheme_steps);
  }

 private:
  void Pump() {
    pumping_ = true;
    while (!queue_.empty()) {
      QueueOp op = std::move(queue_.front());
      queue_.pop_front();
      if (dead_.contains(op.txn)) continue;
      if (TryProcess(op)) {
        DrainWait();
      } else {
        ++stats_.wait_additions;
        if (op.kind == QueueOpKind::kSer) ++stats_.ser_wait_additions;
        wait_.push_back(std::move(op));
      }
    }
    pumping_ = false;
  }

  bool TryProcess(const QueueOp& op) {
    ++stats_.cond_evaluations;
    switch (CondOf(*scheme_, op)) {
      case Verdict::kWait:
        return false;
      case Verdict::kAbort:
        ++stats_.scheme_aborts;
        if (callbacks_.abort_txn) callbacks_.abort_txn(op.txn);
        return true;
      case Verdict::kReady:
        break;
    }
    ++stats_.processed_ops;
    switch (op.kind) {
      case QueueOpKind::kInit:
        scheme_->ActInit(op);
        break;
      case QueueOpKind::kSer:
        scheme_->ActSer(op.txn, op.site);
        if (callbacks_.release_ser) callbacks_.release_ser(op.txn, op.site);
        break;
      case QueueOpKind::kAck:
        scheme_->ActAck(op.txn, op.site);
        if (callbacks_.forward_ack) callbacks_.forward_ack(op.txn, op.site);
        break;
      case QueueOpKind::kValidate:
        scheme_->ActValidate(op.txn);
        if (callbacks_.validate_passed) callbacks_.validate_passed(op.txn);
        break;
      case QueueOpKind::kFin:
        scheme_->ActFin(op.txn);
        if (callbacks_.fin_done) callbacks_.fin_done(op.txn);
        break;
    }
    return true;
  }

  void DrainWait() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = wait_.begin(); it != wait_.end();) {
        if (dead_.contains(it->txn)) {
          it = wait_.erase(it);
          continue;
        }
        int64_t steps_before = scheme_->steps();
        if (TryProcess(*it)) {
          it = wait_.erase(it);
          progress = true;
        } else {
          stats_.failed_rescan_steps += scheme_->steps() - steps_before;
          ++it;
        }
      }
      if (!restart_) break;
    }
  }

  std::unique_ptr<Scheme> scheme_;
  Gtm2::Callbacks callbacks_;
  bool restart_;
  std::deque<QueueOp> queue_;
  std::list<QueueOp> wait_;
  std::unordered_set<GlobalTxnId> dead_;
  Gtm2Stats stats_;
  bool pumping_ = false;
};

using SchemeFactory = std::function<std::unique_ptr<Scheme>()>;

struct StreamConfig {
  int sites = 5;
  int active_txns = 8;
  int64_t total_txns = 120;
  /// Chance per step of aborting a live transaction from outside.
  double outside_abort = 0.02;
  /// Chance per release/ack callback of aborting one from inside a drain.
  double inside_abort = 0.03;
  /// Step after which the driver is checkpointed and restored (-1: never).
  int64_t checkpoint_at = -1;
};

/// A GTM1-shaped client of one driver (the synthetic harness's protocol:
/// one outstanding ser per transaction, validate after the last ack, fin
/// after validation). Its random choices depend only on the seed and on
/// the callbacks it has seen, so two clients of drivers that agree make
/// the same choices.
template <typename Driver>
class Client {
 public:
  using MakeDriver = std::function<std::unique_ptr<Driver>(
      std::unique_ptr<Scheme>, Gtm2::Callbacks)>;

  Client(SchemeFactory make_scheme, MakeDriver make_driver,
         const StreamConfig& config, uint64_t seed)
      : make_scheme_(std::move(make_scheme)),
        make_driver_(std::move(make_driver)),
        config_(config),
        rng_(seed) {
    driver_ = make_driver_(make_scheme_(), Callbacks());
  }

  // The driver's callbacks hold `this`.
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One client action; false once the population is done or stalled.
  bool Step() {
    if (steps_++ == config_.checkpoint_at &&
        make_scheme_()->SupportsSnapshot()) {
      Gtm2::VolatileImage image = driver_->SnapshotForCheckpoint();
      driver_ = make_driver_(make_scheme_(), Callbacks());
      driver_->RestoreFromCheckpoint(image);
      log_.push_back("checkpoint");
    }
    while (Live().size() < static_cast<size_t>(config_.active_txns) &&
           started_ < config_.total_txns) {
      Spawn();
    }
    if (!pending_acks_.empty() && rng_.NextBernoulli(0.5)) {
      DeliverAck();
      return true;
    }
    std::vector<int64_t> live = Live();
    if (!live.empty() && rng_.NextBernoulli(config_.outside_abort)) {
      Abort(live[rng_.NextBelow(live.size())]);
      return true;
    }
    std::vector<std::function<void()>> actions;
    for (int64_t id : live) {
      Txn& txn = txns_[static_cast<size_t>(id)];
      GlobalTxnId gid(id);
      if (!txn.inited) {
        actions.push_back([this, gid] {
          Txn& t = txns_[static_cast<size_t>(gid.value())];
          t.inited = true;
          driver_->Enqueue(QueueOp::Init(gid, t.sites));
        });
      } else if (!txn.ser_out && txn.next_ser < txn.sites.size()) {
        actions.push_back([this, gid] {
          Txn& t = txns_[static_cast<size_t>(gid.value())];
          t.ser_out = true;
          driver_->Enqueue(QueueOp::Ser(gid, t.sites[t.next_ser++]));
        });
      } else if (txn.acked == txn.sites.size() && !txn.validate_sent) {
        actions.push_back([this, gid] {
          txns_[static_cast<size_t>(gid.value())].validate_sent = true;
          driver_->Enqueue(QueueOp::Validate(gid));
        });
      } else if (txn.validated && !txn.fin_sent) {
        actions.push_back([this, gid] {
          txns_[static_cast<size_t>(gid.value())].fin_sent = true;
          driver_->Enqueue(QueueOp::Fin(gid));
        });
      }
    }
    if (!actions.empty()) {
      actions[rng_.NextBelow(actions.size())]();
      return true;
    }
    if (!pending_acks_.empty()) {
      DeliverAck();
      return true;
    }
    return false;
  }

  Driver& driver() { return *driver_; }
  const std::vector<std::string>& log() const { return log_; }

 private:
  struct Txn {
    std::vector<SiteId> sites;
    bool inited = false;
    size_t next_ser = 0;
    bool ser_out = false;
    size_t acked = 0;
    bool validate_sent = false;
    bool validated = false;
    bool fin_sent = false;
    bool done = false;
  };

  Gtm2::Callbacks Callbacks() {
    Gtm2::Callbacks callbacks;
    callbacks.release_ser = [this](GlobalTxnId txn, SiteId site) {
      log_.push_back("release " + ToString(txn) + "@" + ToString(site));
      pending_acks_.push_back(QueueOp::Ack(txn, site));
      MaybeAbortInside();
    };
    callbacks.forward_ack = [this](GlobalTxnId txn, SiteId site) {
      log_.push_back("ack " + ToString(txn) + "@" + ToString(site));
      Txn& t = txns_[static_cast<size_t>(txn.value())];
      t.ser_out = false;
      ++t.acked;
      MaybeAbortInside();
    };
    callbacks.validate_passed = [this](GlobalTxnId txn) {
      log_.push_back("validated " + ToString(txn));
      txns_[static_cast<size_t>(txn.value())].validated = true;
    };
    callbacks.abort_txn = [this](GlobalTxnId txn) {
      log_.push_back("scheme abort " + ToString(txn));
      if (!txns_[static_cast<size_t>(txn.value())].done) Abort(txn.value());
    };
    callbacks.fin_done = [this](GlobalTxnId txn) {
      log_.push_back("fin " + ToString(txn));
      txns_[static_cast<size_t>(txn.value())].done = true;
    };
    return callbacks;
  }

  void Spawn() {
    std::vector<SiteId> sites;
    for (int s = 0; s < config_.sites; ++s) sites.push_back(SiteId(s));
    rng_.Shuffle(&sites);
    sites.resize(static_cast<size_t>(rng_.NextInRange(2, 3)));
    txns_.push_back(Txn{std::move(sites)});
    ++started_;
  }

  std::vector<int64_t> Live() const {
    std::vector<int64_t> live;
    for (size_t id = 0; id < txns_.size(); ++id) {
      if (!txns_[id].done) live.push_back(static_cast<int64_t>(id));
    }
    return live;
  }

  void DeliverAck() {
    size_t index = rng_.NextBelow(pending_acks_.size());
    QueueOp ack = pending_acks_[index];
    pending_acks_.erase(pending_acks_.begin() +
                        static_cast<ptrdiff_t>(index));
    driver_->Enqueue(std::move(ack));
  }

  /// GTM1 retires an attempt: it is dead to the client and to GTM2.
  void Abort(int64_t id) {
    Txn& txn = txns_[static_cast<size_t>(id)];
    txn.done = true;
    if (!txn.inited) return;
    log_.push_back("abort " + ToString(GlobalTxnId(id)));
    driver_->AbortCleanup(GlobalTxnId(id));
  }

  /// An abort raised from a callback, i.e. while the driver is pumping.
  void MaybeAbortInside() {
    if (!rng_.NextBernoulli(config_.inside_abort)) return;
    std::vector<int64_t> live = Live();
    if (!live.empty()) Abort(live[rng_.NextBelow(live.size())]);
  }

  SchemeFactory make_scheme_;
  MakeDriver make_driver_;
  StreamConfig config_;
  Rng rng_;
  std::unique_ptr<Driver> driver_;
  std::vector<Txn> txns_;
  std::vector<QueueOp> pending_acks_;
  std::vector<std::string> log_;
  int64_t started_ = 0;
  int64_t steps_ = 0;
};

std::string WaitString(const std::vector<QueueOp>& wait) {
  std::string out;
  for (const QueueOp& op : wait) out += op.ToString() + " ";
  return out;
}

struct Outcome {
  /// "" when the drivers agreed throughout, else the first disagreement.
  std::string diff;
  int64_t targeted_conds = 0;
  int64_t rescan_conds = 0;
};

/// Runs one stream through Gtm2 and through the reference in lockstep.
Outcome Compare(const SchemeFactory& targeted_scheme,
                    const SchemeFactory& reference_scheme,
                    const StreamConfig& config, uint64_t seed,
                    bool reference_restarts = true) {
  audit::AuditConfig audit_config;
  audit_config.fail_fast = false;
  audit::Auditor auditor(audit_config);
  Client<Gtm2> targeted(
      targeted_scheme,
      [&](std::unique_ptr<Scheme> scheme, Gtm2::Callbacks callbacks) {
        auto driver =
            std::make_unique<Gtm2>(std::move(scheme), std::move(callbacks));
        driver->EnableAudit(audit_config, &auditor);
        return driver;
      },
      config, seed);
  Client<RescanGtm2> reference(
      reference_scheme,
      [&](std::unique_ptr<Scheme> scheme, Gtm2::Callbacks callbacks) {
        return std::make_unique<RescanGtm2>(
            std::move(scheme), std::move(callbacks), reference_restarts);
      },
      config, seed);
  Outcome outcome;
  auto differ = [&outcome](std::string diff) {
    outcome.diff = std::move(diff);
    return outcome;
  };
  for (int64_t step = 0;; ++step) {
    bool more = targeted.Step();
    bool reference_more = reference.Step();
    std::string at = "step " + std::to_string(step) + ": ";
    if (targeted.log() != reference.log()) {
      size_t i = 0;
      while (i < targeted.log().size() && i < reference.log().size() &&
             targeted.log()[i] == reference.log()[i]) {
        ++i;
      }
      return differ(
          at + "callback " + std::to_string(i) + " differs: targeted '" +
          (i < targeted.log().size() ? targeted.log()[i] : "<none>") +
          "', rescan '" +
          (i < reference.log().size() ? reference.log()[i] : "<none>") +
          "'");
    }
    Gtm2::VolatileImage got = targeted.driver().SnapshotForCheckpoint();
    Gtm2::VolatileImage want = reference.driver().SnapshotForCheckpoint();
    if (WaitString(got.wait) != WaitString(want.wait)) {
      return differ(at + "WAIT [" + WaitString(got.wait) + "] vs rescan [" +
                    WaitString(want.wait) + "]");
    }
    const Gtm2Stats& a = got.stats;
    const Gtm2Stats& b = want.stats;
    if (a.processed_ops != b.processed_ops ||
        a.wait_additions != b.wait_additions ||
        a.ser_wait_additions != b.ser_wait_additions ||
        a.scheme_aborts != b.scheme_aborts) {
      return differ(at + "driver counters differ");
    }
    if (got.scheme_steps - a.failed_rescan_steps !=
        want.scheme_steps - b.failed_rescan_steps) {
      return differ(at + "steps - failed_rescan_steps " +
                    std::to_string(got.scheme_steps - a.failed_rescan_steps) +
                    " vs rescan " +
                    std::to_string(want.scheme_steps - b.failed_rescan_steps));
    }
    if (a.cond_evaluations > b.cond_evaluations) {
      return differ(at + "targeted wakeup evaluated more conds");
    }
    if (more != reference_more) return differ(at + "one stream ended early");
    outcome.targeted_conds = a.cond_evaluations;
    outcome.rescan_conds = b.cond_evaluations;
    if (!more) break;
  }
  if (!auditor.clean()) {
    return differ("audit: " + auditor.violations().front().ToString());
  }
  return outcome;
}

struct NamedScheme {
  const char* name;
  SchemeFactory make;
};

std::vector<NamedScheme> AllSchemes() {
  std::vector<NamedScheme> schemes;
  for (SchemeKind kind :
       {SchemeKind::kScheme0, SchemeKind::kScheme1, SchemeKind::kScheme2,
        SchemeKind::kScheme3, SchemeKind::kTicketOptimistic,
        SchemeKind::kNone}) {
    schemes.push_back(
        {SchemeKindName(kind), [kind] { return MakeScheme(kind); }});
  }
  schemes.push_back(
      {"Scheme1-markall", [] { return std::make_unique<Scheme1>(true); }});
  schemes.push_back(
      {"Scheme3-nopin", [] { return std::make_unique<Scheme3>(false); }});
  // Side-effecting conds: these keep Figure 3's literal rescan.
  schemes.push_back(
      {"Naive2PL", [] { return std::make_unique<NaiveTwoPhase>(); }});
  schemes.push_back(
      {"NaiveTO", [] { return std::make_unique<NaiveTimestamp>(); }});
  return schemes;
}

TEST(Gtm2WakeupTest, TargetedWakeupMakesFigure3sDecisions) {
  for (const NamedScheme& scheme : AllSchemes()) {
    int64_t targeted_conds = 0;
    int64_t rescan_conds = 0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      StreamConfig config;
      config.checkpoint_at = seed % 3 == 0 ? -1 : 40 + 25 * (seed % 4);
      Outcome outcome = Compare(scheme.make, scheme.make, config, seed);
      EXPECT_EQ(outcome.diff, "") << scheme.name << " seed " << seed;
      targeted_conds += outcome.targeted_conds;
      rescan_conds += outcome.rescan_conds;
    }
    // Declared wakeups skip evaluations; the rest is the literal rescan.
    if (scheme.make()->DeclaresWakeups()) {
      EXPECT_LT(targeted_conds, rescan_conds) << scheme.name;
    } else {
      EXPECT_EQ(targeted_conds, rescan_conds) << scheme.name;
    }
  }
}

TEST(Gtm2WakeupTest, HotSitesAndManyAbortsStillAgree) {
  StreamConfig config;
  config.sites = 3;
  config.active_txns = 12;
  config.outside_abort = 0.05;
  config.inside_abort = 0.1;
  config.checkpoint_at = 60;
  for (const NamedScheme& scheme : AllSchemes()) {
    for (uint64_t seed = 100; seed < 106; ++seed) {
      EXPECT_EQ(Compare(scheme.make, scheme.make, config, seed).diff, "")
          << scheme.name << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// The comparison has teeth: each mutation below must be caught.
// ---------------------------------------------------------------------------

/// Scheme 2 with ack@s left out of its wake rules.
class Scheme2AckWakesNothing : public Scheme2 {
 public:
  bool WakeClasses(const QueueOp& op,
                   std::vector<WakeClass>* out) const override {
    if (op.kind == QueueOpKind::kAck) return true;
    return Scheme2::WakeClasses(op, out);
  }
};

TEST(Gtm2WakeupTest, CatchesAScheme2RuleWithoutAck) {
  // Caught by the comparison itself (a missing release), before the
  // wakeup-complete audit gets its say.
  StreamConfig config;
  SchemeFactory mutated = [] {
    return std::make_unique<Scheme2AckWakesNothing>();
  };
  SchemeFactory correct = [] { return MakeScheme(SchemeKind::kScheme2); };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::string diff = Compare(mutated, correct, config, seed).diff;
    EXPECT_EQ(diff.rfind("step ", 0), 0u) << "seed " << seed << ": " << diff;
  }
}

TEST(Gtm2WakeupTest, CatchesADrainWithoutTheNewPassRestart) {
  // Gtm2 is Figure 3 with its restart; a rescan driver without one must
  // disagree with it, as Gtm2 without one would disagree with Figure 3.
  StreamConfig config;
  SchemeFactory make = [] { return MakeScheme(SchemeKind::kScheme3); };
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EXPECT_NE(Compare(make, make, config, seed, /*reference_restarts=*/false)
                  .diff,
              "")
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace mdbs::gtm

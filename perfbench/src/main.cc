// The repository benchmark's driver: runs one workload through the public
// API for a fixed time, checks the recorded schedule with the
// serializability oracle, and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--spans_out <file>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced pass (spans around every layer call, written to
// --spans_out) plus the layer cells. Exit status is 0 only when every check
// passed.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cells.h"
#include "reference.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-up samples taken before each round. Spread over the run, so that
/// the median does not hang on the core the process started on.
constexpr int kSetupsPerRound = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--tiny") {
      options->tiny = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") {
      options->workload = v;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options->trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--spans_out") {
      options->spans_out = v;
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Ordered name -> (value, unit) list, printed as the result's "metrics".
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// One pass over the workload: the set-up samples, the reference-kernel
/// samples and every round.
struct Pass {
  std::vector<double> setups;
  std::vector<double> reference_s;
  std::vector<RoundResult> rounds;
  bool ok = true;
  std::string error;

  /// Summed counters over the first `count` rounds (all by default).
  RoundResult Total(size_t count = SIZE_MAX) const {
    RoundResult t;
    for (size_t i = 0; i < std::min(count, rounds.size()); ++i) {
      const RoundResult& r = rounds[i];
      t.drive_cpu_s += r.drive_cpu_s;
      t.check_cpu_s += r.check_cpu_s;
      t.local_csr_s += r.local_csr_s;
      t.ser_key_s += r.ser_key_s;
      t.strictness_s += r.strictness_s;
      t.global_csr_s += r.global_csr_s;
      t.snapshot_s += r.snapshot_s;
      t.committed += r.committed;
      t.failed += r.failed;
      t.local_committed += r.local_committed;
      t.submitted += r.submitted;
      t.generated_global += r.generated_global;
      t.generated_local += r.generated_local;
      t.sim_response.Merge(r.sim_response);
      t.gtm1.attempts += r.gtm1.attempts;
      t.gtm1.timeouts += r.gtm1.timeouts;
      t.gtm1.partial_commits += r.gtm1.partial_commits;
      t.gtm2.processed_ops += r.gtm2.processed_ops;
      t.gtm2.cond_evaluations += r.gtm2.cond_evaluations;
      t.gtm2.failed_rescan_steps += r.gtm2.failed_rescan_steps;
      t.gtm2.ser_wait_additions += r.gtm2.ser_wait_additions;
      t.site_wal.wal_records += r.site_wal.wal_records;
      t.site_wal.wal_bytes += r.site_wal.wal_bytes;
      t.site_wal.wal_syncs += r.site_wal.wal_syncs;
      t.site_wal.replay_records += r.site_wal.replay_records;
      t.gtm_wal.wal_records += r.gtm_wal.wal_records;
      t.gtm_wal.wal_bytes += r.gtm_wal.wal_bytes;
      t.standby.lag_records += r.standby.lag_records;
      t.faults.requests_lost += r.faults.requests_lost;
      t.faults.responses_lost += r.faults.responses_lost;
      t.faults.duplicates_suppressed += r.faults.duplicates_suppressed;
      t.site_crashes += r.site_crashes;
      t.site_blocked += r.site_blocked;
      t.site_aborts += r.site_aborts;
      t.site_commits += r.site_commits;
      t.recorded_ops += r.recorded_ops;
      for (const auto& [tag, count] : r.site_txns) t.site_txns[tag] += count;
      t.histogram_records += r.histogram_records;
      for (size_t i = 0; i < r.phase_ticks.size(); ++i) {
        t.phase_ticks[i] += r.phase_ticks[i];
      }
      t.lifetime_ticks += r.lifetime_ticks;
    }
    return t;
  }

  /// How much slower than the reference machine the host ran during the
  /// pass: the median reference-kernel time over kReferenceKernelS.
  double HostSlowdown() const {
    return Median(reference_s) / kReferenceKernelS;
  }

  /// Committed transactions, global and local, per CPU-second.
  double CommitsPerCpuS() const {
    RoundResult t = Total();
    return Ratio(static_cast<double>(t.committed + t.local_committed),
                 t.drive_cpu_s + t.check_cpu_s);
  }
};

/// Runs rounds until `seconds` of wall time have passed and at least
/// `min_rounds` ran, or exactly `fixed_rounds` when that is positive.
Pass RunPass(const Workload& w, const Options& o, int fixed_rounds,
             SpanLog* log) {
  Pass pass;
  const int64_t start = WallNs();
  for (int round = 0;; ++round) {
    if (fixed_rounds > 0 ? round >= fixed_rounds
                         : round >= w.sim_rounds &&
                               WallNs() - start >= o.seconds * 1e9) {
      break;
    }
    for (double s :
         MeasureSetups(w, RoundSeed(o.seed, round), kSetupsPerRound, log)) {
      pass.setups.push_back(s);
    }
    pass.reference_s.push_back(ReferenceKernelCpuS());
    RoundResult r = RunRound(w, RoundSeed(o.seed, round), round, log);
    std::fprintf(stderr,
                 "perfbench: %s round %d: %lld commits (%lld local txns), "
                 "drive %.2f s CPU, checks %.2f s CPU, %lld ticks, response "
                 "mean %.0f p50 %.0f p99 %.0f ticks\n",
                 w.name.c_str(), round, static_cast<long long>(r.committed),
                 static_cast<long long>(r.generated_local),
                 r.drive_cpu_s, r.check_cpu_s,
                 static_cast<long long>(r.sim_ticks), r.sim_response.mean(),
                 r.sim_response.Median(), r.sim_response.P99());
    if (!r.verdict.ok && pass.ok) {
      pass.ok = false;
      pass.error = "round " + std::to_string(round) + ": " + r.verdict.error;
    }
    pass.rounds.push_back(std::move(r));
    if (!pass.ok) break;
  }
  return pass;
}

void EndToEnd(const Workload& w, const Pass& pass, Metrics* m) {
  RoundResult t = pass.Total(static_cast<size_t>(w.sim_rounds));
  // Medians over rounds, so one stalled round (or one burst of load on the
  // machine) does not move the run's figure. The simulated figures come
  // from the first sim_rounds rounds, which every run of a seed repeats.
  std::vector<double> cpu_rates, goodputs, means;
  for (size_t i = 0; i < pass.rounds.size(); ++i) {
    const RoundResult& r = pass.rounds[i];
    cpu_rates.push_back(Ratio(static_cast<double>(r.committed +
                                                  r.local_committed),
                              r.drive_cpu_s + r.check_cpu_s));
    if (i >= static_cast<size_t>(w.sim_rounds)) continue;
    goodputs.push_back(Ratio(1e6 * static_cast<double>(r.steady_commits),
                             static_cast<double>(r.steady_ticks)));
    means.push_back(r.sim_response.mean());
  }
  const double finished = static_cast<double>(t.committed + t.failed);
  // The CPU-time figures are scaled to the reference machine's speed: the
  // host's speed changes by up to 2x over minutes (NOTES.md, "Host speed").
  const double slowdown = pass.HostSlowdown();
  std::fprintf(stderr,
               "perfbench: reference kernel median %.4f s, host slowdown "
               "%.3f; raw setup %.4g s, raw commits/CPU-s %.6g\n",
               Median(pass.reference_s), slowdown, Median(pass.setups),
               Median(cpu_rates));
  m->Set("setup_s", Median(pass.setups) / slowdown, "s");
  m->Set("commits_per_cpu_s", Median(cpu_rates) * slowdown, "txn/CPU-s");
  m->Set("commit_ratio", Ratio(static_cast<double>(t.committed), finished),
         "ratio");
  m->Set("sim_goodput_per_mtick", Median(goodputs), "txn/Mtick");
  m->Set("sim_resp_mean_ticks", Median(means), "ticks");
}

void PerLayer(const Pass& untraced, const Pass& traced,
              const CellCosts& c, Metrics* m) {
  RoundResult t = traced.Total();
  const double rounds = static_cast<double>(traced.rounds.size());
  const double committed = static_cast<double>(t.committed);
  const double generated =
      static_cast<double>(t.generated_global + t.generated_local);
  const double gen_us =
      c.gen_global_us * static_cast<double>(t.generated_global) +
      c.gen_local_us * static_cast<double>(t.generated_local);
  double site_us = 0;
  int64_t site_txns = 0;
  for (const auto& [tag, count] : t.site_txns) {
    auto it = c.site_us.find(tag);
    if (it != c.site_us.end()) site_us += it->second * count;
    site_txns += count;
  }
  const double accounted_s =
      1e-6 * (gen_us + site_us +
              c.scheme_us_per_txn * static_cast<double>(t.gtm1.attempts)) +
      1e-9 * (c.gtm_log_ns_per_append *
                  static_cast<double>(t.gtm_wal.wal_records) +
              c.wal_ns_per_append *
                  static_cast<double>(t.site_wal.wal_records) +
              c.histogram_ns * static_cast<double>(t.histogram_records));
  const double oracle_s =
      t.local_csr_s + t.ser_key_s + t.strictness_s + t.global_csr_s;

  std::vector<double> p50s, p99s;
  for (const RoundResult& r : traced.rounds) {
    p50s.push_back(r.sim_response.Median());
    p99s.push_back(r.sim_response.P99());
  }
  m->Set("sim_resp_p50_ticks", Median(p50s), "ticks");
  m->Set("sim_resp_p99_ticks", Median(p99s), "ticks");
  m->Set("mdbs.global_commits_per_cpu_s",
         Ratio(committed, t.drive_cpu_s + t.check_cpu_s), "txn/CPU-s");
  m->Set("mdbs.setup_s", Median(traced.setups), "s");
  m->Set("host.reference_kernel_s", Median(traced.reference_s), "s");
  m->Set("mdbs.drive_cpu_s", t.drive_cpu_s / rounds, "s");
  m->Set("mdbs.fail_ratio",
         Ratio(static_cast<double>(t.failed),
               static_cast<double>(t.committed + t.failed)),
         "ratio");
  m->Set("mdbs.workload.gen_us_per_txn", Ratio(gen_us, generated), "us");
  m->Set("mdbs.workload.txns_per_commit", Ratio(generated, committed),
         "ratio");
  m->Set("mdbs.unaccounted_share", 1 - Ratio(accounted_s, t.drive_cpu_s),
         "ratio");
  m->Set("mdbs.count.gen_txns", generated, "count");
  m->Set("mdbs.count.site_txns", static_cast<double>(site_txns), "count");
  m->Set("mdbs.count.scheme_attempts", static_cast<double>(t.gtm1.attempts),
         "count");
  m->Set("mdbs.count.gtm_log_appends",
         static_cast<double>(t.gtm_wal.wal_records), "count");
  m->Set("mdbs.count.wal_appends", static_cast<double>(t.site_wal.wal_records),
         "count");
  m->Set("mdbs.count.histogram_records",
         static_cast<double>(t.histogram_records), "count");
  m->Set("common.zipf.ctor_us", c.zipf_ctor_us, "us");

  m->Set("sched.local_csr_s", t.local_csr_s / rounds, "s");
  m->Set("sched.ser_key_s", t.ser_key_s / rounds, "s");
  m->Set("sched.strictness_s", t.strictness_s / rounds, "s");
  m->Set("sched.global_csr_s", t.global_csr_s / rounds, "s");
  m->Set("sched.oracle_ns_per_op",
         Ratio(oracle_s * 1e9, static_cast<double>(t.recorded_ops)), "ns");
  m->Set("sched.recorded_ops", static_cast<double>(t.recorded_ops) / rounds,
         "count");

  const double cond = static_cast<double>(t.gtm2.cond_evaluations);
  const double processed = static_cast<double>(t.gtm2.processed_ops);
  m->Set("gtm2.cond_evals_per_op", Ratio(cond, processed), "ratio");
  m->Set("gtm2.useful_cond_ratio", Ratio(processed, cond), "ratio");
  m->Set("gtm2.rescan_steps_per_txn",
         Ratio(static_cast<double>(t.gtm2.failed_rescan_steps), committed),
         "steps");
  m->Set("gtm2.ser_waits_per_txn",
         Ratio(static_cast<double>(t.gtm2.ser_wait_additions), committed),
         "ratio");
  m->Set("gtm.scheme.us_per_txn", c.scheme_us_per_txn, "us");
  m->Set("gtm.scheme.steps_per_txn", c.scheme_steps_per_txn, "steps");
  m->Set("gtm1.attempts_per_commit",
         Ratio(static_cast<double>(t.gtm1.attempts), committed), "ratio");
  m->Set("gtm1.timeouts_per_commit",
         Ratio(static_cast<double>(t.gtm1.timeouts), committed), "ratio");
  m->Set("gtm1.partial_commits", static_cast<double>(t.gtm1.partial_commits),
         "count");
  m->Set("gtm_log.bytes_per_commit",
         Ratio(static_cast<double>(t.gtm_wal.wal_bytes), committed), "bytes");
  m->Set("gtm_log.ns_per_append", c.gtm_log_ns_per_append, "ns");
  m->Set("gtm_standby.promote_tail_records",
         static_cast<double>(t.standby.lag_records), "count");

  for (const char* tag : {"2pl", "to", "sgt", "occ", "mvto"}) {
    m->Set(std::string("site.") + tag + ".us_per_txn", c.site_us.at(tag),
           "us");
  }
  m->Set("lcc.lock_manager.ns_per_op", c.lock_ns_per_op, "ns");
  m->Set("site.blocked_per_commit",
         Ratio(static_cast<double>(t.site_blocked), committed), "ratio");
  m->Set("site.aborts_per_commit",
         Ratio(static_cast<double>(t.site_aborts), committed), "ratio");

  const double site_commits = static_cast<double>(t.site_commits);
  m->Set("storage.wal.bytes_per_commit",
         Ratio(static_cast<double>(t.site_wal.wal_bytes), site_commits),
         "bytes");
  m->Set("storage.wal.syncs_per_commit",
         Ratio(static_cast<double>(t.site_wal.wal_syncs), site_commits),
         "ratio");
  m->Set("storage.wal.replayed_records",
         static_cast<double>(t.site_wal.replay_records), "count");
  m->Set("storage.wal.ns_per_append", c.wal_ns_per_append, "ns");

  m->Set("sim.event_loop.ns_per_event", c.event_ns, "ns");
  m->Set("sim.real_strand.hop_p50_us", c.hop_p50_us, "us");
  m->Set("sim.real_strand.hop_p99_us", c.hop_p99_us, "us");

  m->Set("obs.histogram.ns_per_record", c.histogram_ns, "ns");
  m->Set("obs.snapshot_s", t.snapshot_s / rounds, "s");
  for (int i = 0; i < mdbs::obs::kTxnPhaseCount; ++i) {
    m->Set(std::string("phase.") +
               mdbs::obs::TxnPhaseName(static_cast<mdbs::obs::TxnPhase>(i)) +
               ".share",
           Ratio(static_cast<double>(t.phase_ticks[static_cast<size_t>(i)]),
                 static_cast<double>(t.lifetime_ticks)),
           "ratio");
  }

  m->Set("fault.messages_lost",
         static_cast<double>(t.faults.requests_lost + t.faults.responses_lost),
         "count");
  m->Set("fault.dups_suppressed",
         static_cast<double>(t.faults.duplicates_suppressed), "count");
  m->Set("fault.site_crashes", static_cast<double>(t.site_crashes), "count");

  const double plain = untraced.CommitsPerCpuS();
  const double with_spans = traced.CommitsPerCpuS();
  m->Set("trace.commits_per_cpu_s", with_spans, "txn/CPU-s");
  m->Set("trace.overhead_share", Ratio(plain - with_spans, plain), "ratio");
}

/// Prints the result line and returns the exit status. "attempted" and
/// "failed" count the global transactions of the first `sim_rounds`
/// rounds, which every run of a seed repeats whatever the machine's speed,
/// so a faster program does not read as one that fails more.
int Report(const Pass& pass, int sim_rounds, const Metrics& metrics) {
  RoundResult t = pass.Total(static_cast<size_t>(sim_rounds));
  if (!pass.ok) std::fprintf(stderr, "perfbench: FAILED: %s\n",
                             pass.error.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      pass.ok ? "true" : "false", static_cast<long long>(t.submitted),
      static_cast<long long>(t.failed), metrics.Json().c_str());
  return pass.ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] [--spans_out <file>]\n");
    return 2;
  }
  std::optional<Workload> w = MakeWorkload(o.workload, o.tiny);
  if (!w.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  Metrics metrics;
  if (!o.trace) {
    SpanLog off(false);
    Pass pass = RunPass(*w, o, 0, &off);
    EndToEnd(*w, pass, &metrics);
    return Report(pass, w->sim_rounds, metrics);
  }
  // Traced run: the same rounds twice, without and with spans, so the
  // difference is the tracing overhead; then the layer cells.
  SpanLog off(false);
  Pass untraced = RunPass(*w, o, w->sim_rounds, &off);
  if (!untraced.ok) {
    EndToEnd(*w, untraced, &metrics);
    return Report(untraced, w->sim_rounds, metrics);
  }
  SpanLog log(true);
  Pass traced = RunPass(*w, o, w->sim_rounds, &log);
  if (!traced.ok) {
    EndToEnd(*w, traced, &metrics);
    return Report(traced, w->sim_rounds, metrics);
  }
  double latency_mean = traced.Total().sim_response.mean();
  CellCosts cells = RunCells(*w, RoundSeed(o.seed, 0), latency_mean, &log);
  PerLayer(untraced, traced, cells, &metrics);
  if (!o.spans_out.empty() && !log.WriteJsonLines(o.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_out.c_str());
    return 1;
  }
  return Report(traced, w->sim_rounds, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

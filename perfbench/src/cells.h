#ifndef PERFBENCH_CELLS_H_
#define PERFBENCH_CELLS_H_

#include <cstdint>
#include <map>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Unit costs of single layers, measured in isolation on inputs drawn with
/// the workload's own generator configs and seed.
struct CellCosts {
  double gen_global_us = 0;    // MakeGlobalTxn, per transaction.
  double gen_local_us = 0;     // MakeLocalTxn, per transaction.
  double zipf_ctor_us = 0;     // ZipfGenerator at the workload's item count.
  /// One contention-free local transaction on a standalone LocalDbms and
  /// EventLoop, per protocol tag ("2pl", "to", "sgt", "occ", "mvto").
  std::map<std::string, double> site_us;
  double lock_ns_per_op = 0;   // LockManager acquire or release.
  double scheme_us_per_txn = 0;  // SyntheticGtmHarness, per completed txn.
  double scheme_steps_per_txn = 0;
  double gtm_log_ns_per_append = 0;  // GtmLogWriter::Append.
  double wal_ns_per_append = 0;      // WalWriter::Append.
  double event_ns = 0;               // EventLoop schedule + run.
  double hop_p50_us = 0;             // RealStrand cross-strand hop.
  double hop_p99_us = 0;
  double histogram_ns = 0;           // LogLinearHistogram::Record.
};

/// Runs every cell once. Each cell is one span named after the public call
/// it times. `latency_mean` shapes the values the histogram cell records
/// (the run's mean response time).
CellCosts RunCells(const Workload& w, uint64_t seed, double latency_mean,
                   SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_CELLS_H_

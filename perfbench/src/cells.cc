#include "cells.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gtm/gtm2.h"
#include "gtm/gtm_log.h"
#include "gtm/synthetic.h"
#include "lcc/lock_manager.h"
#include "mdbs/workload.h"
#include "sim/event_loop.h"
#include "sim/metrics.h"
#include "sim/real_strand.h"
#include "site/local_dbms.h"
#include "storage/log_device.h"
#include "storage/wal.h"

namespace perfbench {

namespace {

using mdbs::DataOp;
using mdbs::OpType;

// Cell sizes: large enough that each cell runs for tens of milliseconds.
constexpr int kGenTxns = 4000;
constexpr int kZipfCtors = 200;
constexpr int kSiteTxns = 1500;
constexpr int kLogTxns = 3000;
constexpr int kEvents = 400'000;
constexpr int kHops = 4000;
constexpr int kHistogramRecords = 1'000'000;

/// Keeps a computed value alive so the timed loop is not optimized away.
volatile uint64_t g_sink = 0;

/// The local-transaction shape of the workload; a workload without local
/// clients uses its global subtransactions' shape instead.
mdbs::LocalWorkloadConfig LocalShape(const Workload& w) {
  if (w.driver.local_clients_per_site > 0) return w.driver.local_workload;
  const mdbs::GlobalWorkloadConfig& g = w.driver.global_workload;
  mdbs::LocalWorkloadConfig local;
  local.ops_min = g.ops_per_site_min;
  local.ops_max = g.ops_per_site_max;
  local.items_per_site = g.items_per_site;
  local.zipf_theta = g.zipf_theta;
  local.read_ratio = g.read_ratio;
  return local;
}

std::vector<std::vector<DataOp>> LocalTxns(const Workload& w, uint64_t seed,
                                           int count) {
  mdbs::Rng rng(seed);
  std::vector<std::vector<DataOp>> txns;
  for (int i = 0; i < count; ++i) {
    txns.push_back(mdbs::MakeLocalTxn(LocalShape(w), &rng));
  }
  return txns;
}

std::vector<mdbs::SiteId> SiteIds(const Workload& w) {
  std::vector<mdbs::SiteId> ids;
  for (const mdbs::site::SiteConfig& site : w.config.sites) {
    ids.push_back(site.id);
  }
  return ids;
}

void GenCells(const Workload& w, uint64_t seed, SpanLog* log,
              CellCosts* out) {
  std::vector<mdbs::SiteId> sites = SiteIds(w);
  {
    mdbs::Rng rng(seed);
    Scope span(log, "mdbs.MakeGlobalTxn", 0);
    for (int i = 0; i < kGenTxns; ++i) {
      g_sink = g_sink + mdbs::MakeGlobalTxn(w.driver.global_workload, sites,
                                            &rng)
                            .ops.size();
    }
    span.End();
    out->gen_global_us = span.cpu_s() * 1e6 / kGenTxns;
  }
  {
    mdbs::Rng rng(seed);
    Scope span(log, "mdbs.MakeLocalTxn", 0);
    for (int i = 0; i < kGenTxns; ++i) {
      g_sink = g_sink + mdbs::MakeLocalTxn(LocalShape(w), &rng).size();
    }
    span.End();
    out->gen_local_us = span.cpu_s() * 1e6 / kGenTxns;
  }
  {
    mdbs::Rng rng(seed);
    const mdbs::GlobalWorkloadConfig& g = w.driver.global_workload;
    Scope span(log, "common.ZipfGenerator", 0);
    for (int i = 0; i < kZipfCtors; ++i) {
      mdbs::ZipfGenerator zipf(static_cast<uint64_t>(g.items_per_site),
                               g.zipf_theta);
      g_sink = g_sink + zipf.Next(&rng);
    }
    span.End();
    out->zipf_ctor_us = span.cpu_s() * 1e6 / kZipfCtors;
  }
}

/// Contention-free local transactions on one standalone LocalDbms: begin,
/// each operation, commit, with the event loop run after every call.
double SiteCell(const Workload& w, mdbs::lcc::ProtocolKind protocol,
                const std::vector<std::vector<DataOp>>& txns, SpanLog* log) {
  mdbs::site::SiteConfig config = w.config.sites.front();
  config.id = mdbs::SiteId(0);
  config.protocol = protocol;
  config.durable = false;  // WAL appends are their own cell.
  mdbs::sim::EventLoop loop;
  mdbs::sched::ScheduleRecorder recorder;
  mdbs::site::LocalDbms dbms(config, &loop, &recorder);
  int64_t aborted = 0;
  Scope span(log, "site.LocalDbms." + ProtocolTag(protocol), 0);
  for (size_t i = 0; i < txns.size(); ++i) {
    mdbs::TxnId txn(static_cast<int64_t>(i) + 1);
    if (!dbms.Begin(txn, mdbs::GlobalTxnId()).ok()) continue;
    bool ok = true;
    for (const DataOp& op : txns[i]) {
      dbms.Submit(txn, op, [&ok](const mdbs::Status& s, int64_t) {
        ok = ok && s.ok();
      });
      loop.Run();
      if (!ok) break;
    }
    if (!ok) {
      ++aborted;
      continue;
    }
    dbms.Commit(txn, [&aborted](const mdbs::Status& s) {
      if (!s.ok()) ++aborted;
    });
    loop.Run();
  }
  span.End();
  g_sink = g_sink + static_cast<uint64_t>(aborted);
  return span.cpu_s() * 1e6 / static_cast<double>(txns.size());
}

double LockCell(const std::vector<std::vector<DataOp>>& txns, SpanLog* log) {
  mdbs::lcc::LockManager locks;
  int64_t calls = 0;
  Scope span(log, "lcc.LockManager", 0);
  for (size_t i = 0; i < txns.size(); ++i) {
    mdbs::TxnId txn(static_cast<int64_t>(i) + 1);
    for (const DataOp& op : txns[i]) {
      locks.Acquire(txn, op.item,
                    op.type == OpType::kWrite ? mdbs::lcc::LockMode::kExclusive
                                              : mdbs::lcc::LockMode::kShared);
      ++calls;
    }
    g_sink = g_sink + locks.ReleaseAll(txn).size();
    ++calls;
  }
  span.End();
  return span.cpu_s() * 1e9 / static_cast<double>(calls);
}

void SchemeCell(const Workload& w, uint64_t seed, SpanLog* log,
                CellCosts* out) {
  mdbs::gtm::SyntheticConfig config;
  config.sites = static_cast<int>(w.config.sites.size());
  config.active_txns = w.synthetic_active;
  config.total_txns = w.synthetic_txns;
  config.dav_min = w.driver.global_workload.dav_min;
  config.dav_max = w.driver.global_workload.dav_max;
  config.seed = seed;
  mdbs::gtm::SyntheticGtmHarness harness(
      mdbs::gtm::MakeScheme(w.config.gtm.scheme), config);
  Scope span(log, "gtm.SyntheticGtmHarness", 0);
  mdbs::gtm::SyntheticReport report = harness.Run();
  span.End();
  out->scheme_us_per_txn =
      span.cpu_s() * 1e6 / static_cast<double>(std::max<int64_t>(
                               1, report.completed));
  out->scheme_steps_per_txn = report.StepsPerTxn();
}

/// The GTM log records one committed global transaction writes, built from
/// the workload's generated transactions.
double GtmLogCell(const Workload& w, uint64_t seed, SpanLog* log) {
  using mdbs::gtm::GtmLogRecord;
  using mdbs::gtm::GtmLogRecordType;
  std::vector<mdbs::SiteId> sites = SiteIds(w);
  mdbs::Rng rng(seed);
  std::vector<GtmLogRecord> records;
  for (int job = 0; job < kLogTxns; ++job) {
    mdbs::gtm::GlobalTxnSpec spec =
        mdbs::MakeGlobalTxn(w.driver.global_workload, sites, &rng);
    auto add = [&](GtmLogRecordType type, int64_t site, int64_t item,
                   int64_t value, uint8_t code) {
      GtmLogRecord r;
      r.type = type;
      r.job = job;
      r.attempt = job;
      r.site = site;
      r.item = item;
      r.value = value;
      r.code = code;
      records.push_back(std::move(r));
    };
    add(GtmLogRecordType::kSubmit, -1, 0, 0, 0);
    add(GtmLogRecordType::kAttemptStart, -1, 0, 0, 0);
    GtmLogRecord init;
    init.type = GtmLogRecordType::kEnqueue;
    init.job = job;
    init.attempt = job;
    init.code = static_cast<uint8_t>(mdbs::gtm::QueueOpKind::kInit);
    for (mdbs::SiteId site : spec.Sites()) {
      init.sites.push_back(site.value());
      add(GtmLogRecordType::kBeginSite, site.value(), 0, 0, 0);
    }
    records.push_back(init);
    for (mdbs::SiteId site : spec.Sites()) {
      add(GtmLogRecordType::kEnqueue, site.value(), 0, 0,
          static_cast<uint8_t>(mdbs::gtm::QueueOpKind::kSer));
    }
    for (const mdbs::gtm::GlobalOp& op : spec.ops) {
      if (op.op.type == OpType::kRead) {
        add(GtmLogRecordType::kRead, op.site.value(), op.op.item.value(),
            op.op.value, 0);
      }
    }
    add(GtmLogRecordType::kCommitStart, -1, 0, 0, 0);
    for (mdbs::SiteId site : spec.Sites()) {
      add(GtmLogRecordType::kCommitSite, site.value(), 0, 0, 0);
    }
    add(GtmLogRecordType::kFinish, -1, 0, 0, 0);
  }
  mdbs::storage::MemLogDevice device;
  mdbs::gtm::GtmLogWriter writer(&device);
  writer.SetSyncConfig(w.config.gtm.wal_sync);
  Scope span(log, "gtm.GtmLogWriter::Append", 0);
  for (const GtmLogRecord& record : records) writer.Append(record);
  span.End();
  return span.cpu_s() * 1e9 / static_cast<double>(records.size());
}

/// The site WAL records of the workload's local transactions: begin, one
/// record per write, commit.
double WalCell(const Workload& w, const std::vector<std::vector<DataOp>>& txns,
               SpanLog* log) {
  using mdbs::storage::WalRecord;
  using mdbs::storage::WalRecordType;
  std::vector<WalRecord> records;
  auto add = [&](WalRecordType type, int64_t txn, int64_t item,
                 int64_t value) {
    WalRecord record;
    record.type = type;
    record.txn = txn;
    record.clock = txn;
    record.item = item;
    record.value = value;
    records.push_back(std::move(record));
  };
  for (size_t i = 0; i < txns.size(); ++i) {
    int64_t txn = static_cast<int64_t>(i) + 1;
    add(WalRecordType::kBegin, txn, 0, 0);
    for (const DataOp& op : txns[i]) {
      if (op.type == OpType::kWrite) {
        add(WalRecordType::kWrite, txn, op.item.value(), op.value);
      }
    }
    add(WalRecordType::kCommit, txn, 0, 0);
  }
  mdbs::storage::MemLogDevice device;
  mdbs::storage::WalWriter writer(&device);
  writer.SetSyncConfig(w.config.sites.front().wal_sync);
  Scope span(log, "storage.WalWriter::Append", 0);
  for (const WalRecord& record : records) writer.Append(record);
  span.End();
  return span.cpu_s() * 1e9 / static_cast<double>(records.size());
}

/// Schedule + run on an EventLoop holding one pending event per client of
/// the workload; each event reschedules itself after a service-time-sized
/// delay.
double EventLoopCell(const Workload& w, uint64_t seed, SpanLog* log) {
  mdbs::sim::EventLoop loop;
  mdbs::Rng rng(seed);
  int population = w.driver.global_clients +
                   w.driver.local_clients_per_site *
                       static_cast<int>(w.config.sites.size());
  population = std::max(population, 1);
  int64_t remaining = kEvents;
  mdbs::sim::Time max_delay =
      std::max<mdbs::sim::Time>(1, 2 * w.config.sites.front().op_service_time);
  std::function<void()> tick = [&]() {
    if (--remaining <= 0) return;
    loop.Schedule(static_cast<mdbs::sim::Time>(
                      rng.NextBelow(static_cast<uint64_t>(max_delay))),
                  tick);
  };
  Scope span(log, "sim.EventLoop", 0);
  for (int i = 0; i < population; ++i) loop.Schedule(0, tick);
  int64_t executed = loop.Run();
  span.End();
  return span.cpu_s() * 1e9 / static_cast<double>(executed);
}

/// Cross-strand hop latency: two RealStrands pass a token back and forth
/// with zero delay; each hop is timed from Schedule to the task starting.
void StrandCell(SpanLog* log, CellCosts* out) {
  mdbs::sim::RealTicker ticker;
  auto a = std::make_unique<mdbs::sim::RealStrand>(&ticker, "cell-a");
  auto b = std::make_unique<mdbs::sim::RealStrand>(&ticker, "cell-b");
  std::vector<double> hops_us;
  hops_us.reserve(kHops);
  std::atomic<bool> done{false};
  std::function<void(int)> hop = [&](int left) {
    int64_t sent = WallNs();
    mdbs::sim::RealStrand* next = (left % 2 == 0) ? a.get() : b.get();
    next->Schedule(0, [&, sent, left]() {
      hops_us.push_back(static_cast<double>(WallNs() - sent) / 1e3);
      if (left <= 1) {
        done.store(true);
        return;
      }
      hop(left - 1);
    });
  };
  Scope span(log, "sim.RealStrand", 0);
  hop(kHops);
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  span.End();
  a->Stop();
  b->Stop();
  out->hop_p50_us = Percentile(hops_us, 0.50);
  out->hop_p99_us = Percentile(hops_us, 0.99);
}

double HistogramCell(uint64_t seed, double mean, SpanLog* log) {
  mdbs::Rng rng(seed);
  std::vector<int64_t> values;
  values.reserve(kHistogramRecords);
  for (int i = 0; i < kHistogramRecords; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextExponential(mean)));
  }
  mdbs::sim::LogLinearHistogram histogram;
  Scope span(log, "sim.LogLinearHistogram::Record", 0);
  for (int64_t value : values) histogram.Record(value);
  span.End();
  g_sink = g_sink + static_cast<uint64_t>(histogram.total());
  return span.cpu_s() * 1e9 / kHistogramRecords;
}

}  // namespace

CellCosts RunCells(const Workload& w, uint64_t seed, double latency_mean,
                   SpanLog* log) {
  CellCosts out;
  GenCells(w, seed, log, &out);
  std::vector<std::vector<DataOp>> txns = LocalTxns(w, seed, kSiteTxns);
  for (mdbs::lcc::ProtocolKind protocol :
       {mdbs::lcc::ProtocolKind::kTwoPhaseLocking,
        mdbs::lcc::ProtocolKind::kTimestampOrdering,
        mdbs::lcc::ProtocolKind::kSerializationGraph,
        mdbs::lcc::ProtocolKind::kOptimistic,
        mdbs::lcc::ProtocolKind::kMultiversionTO}) {
    out.site_us[ProtocolTag(protocol)] = SiteCell(w, protocol, txns, log);
  }
  out.lock_ns_per_op = LockCell(txns, log);
  SchemeCell(w, seed, log, &out);
  out.gtm_log_ns_per_append = GtmLogCell(w, seed, log);
  out.wal_ns_per_append = WalCell(w, LocalTxns(w, seed, kLogTxns), log);
  out.event_ns = EventLoopCell(w, seed, log);
  StrandCell(log, &out);
  out.histogram_ns = HistogramCell(seed, std::max(latency_mean, 1.0), log);
  return out;
}

}  // namespace perfbench

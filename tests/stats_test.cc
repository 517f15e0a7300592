#include <gtest/gtest.h>

#include "sched/stats.h"

namespace mdbs::sched {
namespace {

const SiteId kS0{0};
const SiteId kS1{1};

TEST(ScheduleStatsTest, EmptyRecorder) {
  ScheduleRecorder recorder;
  ScheduleStats stats = ComputeScheduleStats(recorder);
  EXPECT_EQ(stats.total_ops, 0);
  EXPECT_EQ(stats.committed_global_txns, 0);
  EXPECT_TRUE(stats.per_site.empty());
}

TEST(ScheduleStatsTest, AggregatesPerSite) {
  ScheduleRecorder recorder;
  GlobalTxnId global{10};
  TxnOrdinal local = recorder.RecordBegin(kS0, TxnId(1), GlobalTxnId());
  TxnOrdinal sub_a = recorder.RecordBegin(kS0, TxnId(2), global);
  TxnOrdinal sub_b = recorder.RecordBegin(kS1, TxnId(3), global);
  recorder.RecordOp(local, DataOp::Read(DataItemId(1)), 0);
  recorder.RecordOp(local, DataOp::Write(DataItemId(1), 5), 1);
  recorder.RecordOp(sub_a, DataOp::Write(DataItemId(2), 5), 2);
  recorder.RecordOp(sub_b, DataOp::Read(DataItemId(3)), 3);
  recorder.RecordFinish(local, TxnOutcome::kCommitted, std::nullopt);
  recorder.RecordFinish(sub_a, TxnOutcome::kCommitted, std::nullopt);
  recorder.RecordFinish(sub_b, TxnOutcome::kAborted, std::nullopt);

  ScheduleStats stats = ComputeScheduleStats(recorder);
  EXPECT_EQ(stats.total_ops, 4);
  EXPECT_EQ(stats.committed_local_txns, 1);
  EXPECT_EQ(stats.committed_global_txns, 1);  // One distinct global id.
  const SiteScheduleStats& s0 = stats.per_site.at(kS0);
  EXPECT_EQ(s0.reads, 1);
  EXPECT_EQ(s0.writes, 2);
  EXPECT_EQ(s0.committed_txns, 2);
  EXPECT_EQ(s0.global_subtxns, 1);
  EXPECT_EQ(s0.distinct_items, 2);
  const SiteScheduleStats& s1 = stats.per_site.at(kS1);
  EXPECT_EQ(s1.aborted_txns, 1);
  EXPECT_EQ(s1.committed_txns, 0);
}

TEST(ScheduleStatsTest, ToStringListsSites) {
  ScheduleRecorder recorder;
  TxnOrdinal txn = recorder.RecordBegin(kS0, TxnId(1), GlobalTxnId());
  recorder.RecordOp(txn, DataOp::Read(DataItemId(1)), 0);
  recorder.RecordFinish(txn, TxnOutcome::kCommitted, std::nullopt);
  std::string text = ComputeScheduleStats(recorder).ToString();
  EXPECT_NE(text.find("s0"), std::string::npos);
  EXPECT_NE(text.find("r=1"), std::string::npos);
}

TEST(ScheduleDumpTest, TruncatesAndFormats) {
  ScheduleRecorder recorder;
  TxnOrdinal txn = recorder.RecordBegin(kS0, TxnId(1), GlobalTxnId());
  for (int i = 0; i < 10; ++i) {
    recorder.RecordOp(txn, DataOp::Read(DataItemId(i)), i);
  }
  std::string dump = recorder.Dump(/*limit=*/3);
  EXPECT_NE(dump.find("#0"), std::string::npos);
  EXPECT_NE(dump.find("7 more"), std::string::npos);
  EXPECT_EQ(dump.find("#5"), std::string::npos);
}

TEST(ScheduleDumpTest, FinishSeqOrdersAgainstOps) {
  ScheduleRecorder recorder;
  TxnOrdinal t1 = recorder.RecordBegin(kS0, TxnId(1), GlobalTxnId());
  TxnOrdinal t2 = recorder.RecordBegin(kS0, TxnId(2), GlobalTxnId());
  recorder.RecordOp(t1, DataOp::Write(DataItemId(1), 5), 0);
  recorder.RecordFinish(t1, TxnOutcome::kCommitted, std::nullopt);
  recorder.RecordOp(t2, DataOp::Read(DataItemId(1)), 1);
  const TxnRecord* r1 = recorder.FindTxn(TxnId(1));
  ASSERT_NE(r1, nullptr);
  EXPECT_GT(r1->finish_seq, recorder.ops()[0].seq);
  EXPECT_LT(r1->finish_seq, recorder.ops()[1].seq);
}

}  // namespace
}  // namespace mdbs::sched

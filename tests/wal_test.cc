// WAL edge cases: empty logs, reopen round-trips, rotation exactly at the
// segment boundary, torn tails (mid-length and mid-payload), CRC-caught bit
// flips, garbage length fields, segment GC, fsync policies, and the
// fault-injecting FileOps itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/fault_env.h"
#include "src/storage/wal.h"

namespace expfinder {
namespace {

class WalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/wal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from a previous run
    ASSERT_TRUE(FileOps::Real()->CreateDirs(dir_).ok());
  }

  WalOptions Options() {
    WalOptions o;
    o.dir = dir_;
    return o;
  }

  std::vector<std::string> SegmentFiles() {
    auto names = FileOps::Real()->ListDir(dir_);
    EXPECT_TRUE(names.ok()) << names.status();
    std::vector<std::string> segs;
    for (const auto& n : *names) {
      if (n.rfind("wal-", 0) == 0) segs.push_back(n);
    }
    std::sort(segs.begin(), segs.end());
    return segs;
  }

  // Appends raw bytes to the newest segment file, as a crashed writer
  // would have left them.
  void AppendRawToNewestSegment(std::string_view raw) {
    auto segs = SegmentFiles();
    ASSERT_FALSE(segs.empty());
    auto f = FileOps::Real()->NewWritableFile(dir_ + "/" + segs.back(),
                                              /*truncate=*/false);
    ASSERT_TRUE(f.ok()) << f.status();
    ASSERT_TRUE((*f)->Append(raw).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }

  std::string dir_;
};

TEST_F(WalFixture, EmptyLogRecoversToNothing) {
  WalRecovery rec;
  auto wal = Wal::Open(Options(), &rec);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_TRUE(rec.records.empty());
  EXPECT_EQ(rec.next_lsn, 0u);
  EXPECT_FALSE(rec.tail_truncated);
  EXPECT_FALSE(rec.data_loss);
  EXPECT_EQ((*wal)->next_lsn(), 0u);
}

TEST_F(WalFixture, AppendReopenRoundTrip) {
  {
    WalRecovery rec;
    auto wal = Wal::Open(Options(), &rec);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 5; ++i) {
      auto lsn = (*wal)->Append("record " + std::to_string(i));
      ASSERT_TRUE(lsn.ok()) << lsn.status();
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i));
    }
  }
  WalRecovery rec;
  auto wal = Wal::Open(Options(), &rec);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_EQ(rec.records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rec.records[i].lsn, i);
    EXPECT_EQ(rec.records[i].payload, "record " + std::to_string(i));
  }
  EXPECT_EQ(rec.next_lsn, 5u);
  EXPECT_FALSE(rec.tail_truncated);
  EXPECT_FALSE(rec.data_loss);
}

TEST_F(WalFixture, RotatesExactlyAtSegmentBoundary) {
  // segment_bytes == one framed record: every record that would grow the
  // segment past the threshold starts a new one, so each record lands in
  // its own segment and recovery stitches them back in LSN order.
  const std::string payload = "0123456789";
  WalOptions o = Options();
  o.segment_bytes = EncodeWalRecord(payload).size();
  {
    WalRecovery rec;
    auto wal = Wal::Open(o, &rec);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE((*wal)->Append(payload).ok());
    EXPECT_EQ((*wal)->NumSegments(), 3u);
  }
  EXPECT_EQ(SegmentFiles().size(), 3u);
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.next_lsn, 3u);
  EXPECT_FALSE(rec.data_loss);
}

TEST_F(WalFixture, TornTailMidLengthField) {
  {
    WalRecovery rec;
    auto wal = Wal::Open(Options(), &rec);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("alpha").ok());
    ASSERT_TRUE((*wal)->Append("beta").ok());
  }
  // A crash mid-way through the 4-byte length field of record 2.
  AppendRawToNewestSegment(std::string("\x07\x00", 2));
  WalRecovery rec;
  auto wal = Wal::Open(Options(), &rec);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[1].payload, "beta");
  EXPECT_TRUE(rec.tail_truncated);
  EXPECT_FALSE(rec.data_loss);
  EXPECT_EQ(rec.next_lsn, 2u);

  // Recovery physically truncated the torn bytes: a second recovery is
  // clean and reports nothing abnormal.
  WalRecovery rec2;
  auto wal2 = Wal::Open(Options(), &rec2);
  ASSERT_TRUE(wal2.ok());
  EXPECT_EQ(rec2.records.size(), 2u);
  EXPECT_FALSE(rec2.tail_truncated);
  EXPECT_FALSE(rec2.data_loss);
}

TEST_F(WalFixture, TornTailMidPayload) {
  {
    WalRecovery rec;
    auto wal = Wal::Open(Options(), &rec);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("alpha").ok());
  }
  // Full header of a 1000-byte record, but only 3 payload bytes made it.
  std::string frame = EncodeWalRecord(std::string(1000, 'q'));
  AppendRawToNewestSegment(frame.substr(0, 8 + 3));
  WalRecovery rec;
  auto wal = Wal::Open(Options(), &rec);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(rec.records.size(), 1u);
  EXPECT_TRUE(rec.tail_truncated);
  EXPECT_FALSE(rec.data_loss);
}

TEST_F(WalFixture, GarbageLengthFieldDoesNotAllocate) {
  {
    WalRecovery rec;
    auto wal = Wal::Open(Options(), &rec);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("alpha").ok());
  }
  // 0xFFFFFFFF "length" followed by junk: recovery must refuse (bounded by
  // kMaxRecordBytes) and treat it as the torn tail, not try to read 4 GiB.
  AppendRawToNewestSegment(std::string("\xff\xff\xff\xff????????", 12));
  WalRecovery rec;
  auto wal = Wal::Open(Options(), &rec);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(rec.records.size(), 1u);
  EXPECT_TRUE(rec.tail_truncated);
  EXPECT_FALSE(rec.data_loss);
}

TEST_F(WalFixture, BitFlipInFinalSegmentDroppedAsTail) {
  std::string frame = EncodeWalRecord("payload-x");
  frame[frame.size() - 1] ^= 0x10;  // corrupt the payload under its CRC
  {
    WalRecovery rec;
    auto wal = Wal::Open(Options(), &rec);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("good").ok());
  }
  AppendRawToNewestSegment(frame);
  WalRecovery rec;
  auto wal = Wal::Open(Options(), &rec);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(rec.records.size(), 1u);
  EXPECT_EQ(rec.records[0].payload, "good");
  EXPECT_TRUE(rec.tail_truncated);
}

TEST_F(WalFixture, CorruptionInEarlierSegmentIsDataLoss) {
  WalOptions o = Options();
  o.segment_bytes = EncodeWalRecord("0123456789").size();  // 1 record/segment
  {
    WalRecovery rec;
    auto wal = Wal::Open(o, &rec);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE((*wal)->Append("0123456789").ok());
  }
  // Flip a payload bit in the FIRST (sealed) segment: acknowledged records
  // after it are unreachable — that is data loss, not a torn tail.
  auto segs = SegmentFiles();
  ASSERT_EQ(segs.size(), 3u);
  std::string path = dir_ + "/" + segs.front();
  auto content = FileOps::Real()->ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string tampered = *content;
  tampered[tampered.size() - 1] ^= 0x01;
  auto f = FileOps::Real()->NewWritableFile(path, /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(tampered).ok());
  ASSERT_TRUE((*f)->Close().ok());

  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok()) << wal.status();  // degrades, never fails Open
  EXPECT_TRUE(rec.data_loss);
  EXPECT_TRUE(rec.records.empty());  // nothing before the corrupt record

  // Recovery converged the directory to the (empty) replayed prefix: the
  // corrupt segment and its unreachable successors are gone, so the next
  // recovery starts clean instead of re-reporting the same loss.
  EXPECT_TRUE(SegmentFiles().empty());
  WalRecovery rec2;
  auto wal2 = Wal::Open(o, &rec2);
  ASSERT_TRUE(wal2.ok());
  EXPECT_FALSE(rec2.data_loss);
  EXPECT_TRUE(rec2.records.empty());
  EXPECT_EQ(rec2.next_lsn, 0u);
}

TEST_F(WalFixture, MissingMiddleSegmentIsDataLoss) {
  WalOptions o = Options();
  o.segment_bytes = EncodeWalRecord("0123456789").size();
  {
    WalRecovery rec;
    auto wal = Wal::Open(o, &rec);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE((*wal)->Append("0123456789").ok());
  }
  auto segs = SegmentFiles();
  ASSERT_EQ(segs.size(), 3u);
  ASSERT_TRUE(FileOps::Real()->RemoveFile(dir_ + "/" + segs[1]).ok());
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(rec.data_loss);  // LSN gap between segments 0 and 2
  EXPECT_EQ(rec.records.size(), 1u);

  // The orphaned third segment (unreachable past the gap) was removed: a
  // second recovery sees a contiguous one-segment chain and is clean.
  EXPECT_EQ(SegmentFiles().size(), 1u);
  WalRecovery rec2;
  auto wal2 = Wal::Open(o, &rec2);
  ASSERT_TRUE(wal2.ok());
  EXPECT_FALSE(rec2.data_loss);
  EXPECT_EQ(rec2.records.size(), 1u);
}

TEST_F(WalFixture, MidLogCorruptionConvergesAndLaterAppendsSurviveRestart) {
  const std::string payload = "0123456789";
  const size_t frame = EncodeWalRecord(payload).size();
  WalOptions o = Options();
  o.segment_bytes = 2 * frame;  // two records per segment
  {
    WalRecovery rec;
    auto wal = Wal::Open(o, &rec);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE((*wal)->Append(payload).ok());
  }
  auto segs = SegmentFiles();
  ASSERT_EQ(segs.size(), 2u);  // [rec0, rec1], [rec2]
  // Corrupt record 1 — the second record of the sealed first segment.
  const std::string path = dir_ + "/" + segs.front();
  auto content = FileOps::Real()->ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string tampered = *content;
  tampered[tampered.size() - 1] ^= 0x01;
  auto f = FileOps::Real()->NewWritableFile(path, /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(tampered).ok());
  ASSERT_TRUE((*f)->Close().ok());

  // Degraded boot: only record 0 survives. The corrupt suffix is truncated
  // and the unreachable second segment removed, so the chain on disk is
  // exactly the replayed prefix.
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(rec.data_loss);
  ASSERT_EQ(rec.records.size(), 1u);
  EXPECT_EQ(rec.next_lsn, 1u);
  EXPECT_EQ(SegmentFiles().size(), 1u);

  // Appends acknowledged after the degraded boot...
  ASSERT_TRUE((*wal)->Append("after-1").ok());
  ASSERT_TRUE((*wal)->Append("after-2").ok());
  (*wal).reset();

  // ...are reachable by the NEXT recovery: the fresh segment continues the
  // contiguous chain and nothing abnormal is reported anymore.
  WalRecovery rec2;
  auto wal2 = Wal::Open(o, &rec2);
  ASSERT_TRUE(wal2.ok());
  EXPECT_FALSE(rec2.data_loss);
  EXPECT_FALSE(rec2.tail_truncated);
  ASSERT_EQ(rec2.records.size(), 3u);
  EXPECT_EQ(rec2.records[0].payload, payload);
  EXPECT_EQ(rec2.records[1].lsn, 1u);
  EXPECT_EQ(rec2.records[1].payload, "after-1");
  EXPECT_EQ(rec2.records[2].payload, "after-2");
}

TEST_F(WalFixture, RotationSyncsSealedSegmentUnderEveryPolicy) {
  // A torn tail in a SEALED segment reads as data_loss, so sealing must
  // sync even when the policy never would — otherwise kInterval/kNone lose
  // whole later segments instead of a bounded tail.
  for (FsyncPolicy policy : {FsyncPolicy::kNone, FsyncPolicy::kInterval}) {
    FaultyFileOps faulty(FaultPlan{});  // no faults: just the sync counter
    WalOptions o = Options();
    o.dir = dir_ + "/" + std::string(FsyncPolicyName(policy));
    o.file_ops = &faulty;
    o.fsync_policy = policy;
    o.segment_bytes = EncodeWalRecord("p").size();  // 1 record/segment
    WalRecovery rec;
    auto wal = Wal::Open(o, &rec);
    ASSERT_TRUE(wal.ok());
    const uint64_t before = faulty.syncs();
    ASSERT_TRUE((*wal)->Append("p").ok());  // fills segment 1
    ASSERT_TRUE((*wal)->Append("p").ok());  // seals segment 1 first
    EXPECT_GE(faulty.syncs(), before + 1) << FsyncPolicyName(policy);
  }
}

TEST_F(WalFixture, RemoveFileDistinguishesMissingFromRemoved) {
  EXPECT_TRUE(FileOps::Real()->RemoveFile(dir_ + "/absent").IsNotFound());
  auto f = FileOps::Real()->NewWritableFile(dir_ + "/present", /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Close().ok());
  EXPECT_TRUE(FileOps::Real()->RemoveFile(dir_ + "/present").ok());
}

TEST_F(WalFixture, TruncateBeforeDropsCoveredSegments) {
  WalOptions o = Options();
  o.segment_bytes = EncodeWalRecord("0123456789").size();
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE((*wal)->Append("0123456789").ok());
  ASSERT_EQ((*wal)->NumSegments(), 4u);
  // Records 0..2 are checkpointed; their sealed segments go. The segment
  // holding record 3 (the active one) stays.
  ASSERT_TRUE((*wal)->TruncateBefore(3).ok());
  EXPECT_EQ((*wal)->NumSegments(), 1u);
  EXPECT_EQ(SegmentFiles().size(), 1u);
  // The surviving log still recovers record 3.
  (*wal).reset();
  WalRecovery rec2;
  auto wal2 = Wal::Open(o, &rec2);
  ASSERT_TRUE(wal2.ok());
  ASSERT_EQ(rec2.records.size(), 1u);
  EXPECT_EQ(rec2.records[0].lsn, 3u);
  EXPECT_FALSE(rec2.data_loss);
}

TEST_F(WalFixture, FullTruncationKeepsNamingTheNextLsn) {
  WalRecovery first;
  auto wal = Wal::Open(Options(), &first);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE((*wal)->Append("r").ok());
  // A checkpoint covering every record: rotate, then drop what it covers.
  ASSERT_TRUE((*wal)->Rotate().ok());
  ASSERT_TRUE((*wal)->TruncateBefore(3).ok());
  EXPECT_EQ(SegmentFiles(), std::vector<std::string>{"wal-0000000000000003.log"});
  // A reader one record behind must learn that it has to re-anchor.
  auto behind = (*wal)->TailFrom(2, 16);
  ASSERT_TRUE(behind.ok()) << behind.status();
  EXPECT_TRUE(behind->lost_prefix);
  EXPECT_TRUE(behind->records.empty());
  auto caught_up = (*wal)->TailFrom(3, 16);
  ASSERT_TRUE(caught_up.ok());
  EXPECT_FALSE(caught_up->lost_prefix);
  EXPECT_TRUE(caught_up->records.empty());
  // Rotating again before any append reopens the same empty segment.
  ASSERT_TRUE((*wal)->Rotate().ok());
  EXPECT_EQ((*wal)->NumSegments(), 1u);
  // Recovery resumes the numbering; appends continue it.
  (*wal).reset();
  WalRecovery rec;
  auto reopened = Wal::Open(Options(), &rec);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(rec.records.empty());
  EXPECT_EQ(rec.next_lsn, 3u);
  EXPECT_FALSE(rec.data_loss);
  auto lsn = (*reopened)->Append("after");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
  EXPECT_EQ((*reopened)->NumSegments(), 1u);
  auto tail = (*reopened)->TailFrom(3, 16);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->records.size(), 1u);
  EXPECT_EQ(tail->records[0].payload, "after");
}

TEST_F(WalFixture, AppendAfterRecoveryStartsFreshSegment) {
  {
    WalRecovery rec;
    auto wal = Wal::Open(Options(), &rec);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("one").ok());
  }
  WalRecovery rec;
  auto wal = Wal::Open(Options(), &rec);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("two").ok());
  EXPECT_EQ(SegmentFiles().size(), 2u);  // never appends into the old file
  (*wal).reset();
  WalRecovery rec2;
  auto wal2 = Wal::Open(Options(), &rec2);
  ASSERT_TRUE(wal2.ok());
  ASSERT_EQ(rec2.records.size(), 2u);
  EXPECT_EQ(rec2.records[1].payload, "two");
}

TEST_F(WalFixture, FsyncPoliciesAllAppend) {
  for (FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kInterval, FsyncPolicy::kEveryRecord}) {
    WalOptions o = Options();
    o.dir = dir_ + "/" + std::string(FsyncPolicyName(policy));
    o.fsync_policy = policy;
    WalRecovery rec;
    auto wal = Wal::Open(o, &rec);
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (int i = 0; i < 10; ++i) ASSERT_TRUE((*wal)->Append("p").ok());
    ASSERT_TRUE((*wal)->Sync().ok());  // explicit barrier always works
    (*wal).reset();
    WalRecovery rec2;
    auto wal2 = Wal::Open(o, &rec2);
    ASSERT_TRUE(wal2.ok());
    EXPECT_EQ(rec2.records.size(), 10u) << FsyncPolicyName(policy);
  }
}

// --- FaultyFileOps ---------------------------------------------------------

TEST_F(WalFixture, FaultyOpsCrashTearsTheCrossingWrite) {
  FaultPlan plan;
  plan.crash_after_bytes = 10;
  FaultyFileOps faulty(plan);
  auto f = faulty.NewWritableFile(dir_ + "/t", /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append("12345678").ok());  // 8 bytes, under budget
  Status torn = (*f)->Append("abcdef");        // crosses at byte 10
  EXPECT_TRUE(torn.IsIOError());
  EXPECT_TRUE(faulty.crashed());
  EXPECT_EQ(faulty.bytes_written(), 10);
  // Everything after the crash fails...
  EXPECT_TRUE((*f)->Append("x").IsIOError());
  EXPECT_TRUE(faulty.Rename(dir_ + "/t", dir_ + "/u").IsIOError());
  // ...but reads still work (the post-reboot view): 8 + 2 torn bytes.
  // (Close flushes the base stream; it is not a mutating op in the model.)
  ASSERT_TRUE((*f)->Close().ok());
  auto back = faulty.ReadFileToString(dir_ + "/t");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "12345678ab");
}

TEST_F(WalFixture, FaultyOpsFailsTheNthSync) {
  FaultPlan plan;
  plan.fail_sync_at_count = 2;
  FaultyFileOps faulty(plan);
  WalOptions o = Options();
  o.file_ops = &faulty;
  WalRecovery rec;
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE((*wal)->Append("one").ok());  // sync #1 passes
  EXPECT_TRUE((*wal)->Append("two").status().IsIOError());  // sync #2 fails
  EXPECT_TRUE((*wal)->Append("three").ok());  // not a crash: #3 passes
}

TEST_F(WalFixture, FaultyOpsBitFlipIsCaughtByRecordCrc) {
  FaultPlan plan;
  plan.flip_bit_at_byte = 9;  // a payload byte of record 0 (8-byte header)
  FaultyFileOps faulty(plan);
  WalOptions o = Options();
  o.file_ops = &faulty;
  o.segment_bytes = EncodeWalRecord("payload").size();  // 1 record/segment
  {
    WalRecovery rec;
    auto wal = Wal::Open(o, &rec);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("payload").ok());  // silently corrupted
    ASSERT_TRUE((*wal)->Append("second!").ok());  // lands in segment 2
  }
  WalRecovery rec;
  o.file_ops = nullptr;  // clean reboot
  auto wal = Wal::Open(o, &rec);
  ASSERT_TRUE(wal.ok());
  // Record 0's CRC fails in a sealed segment with records beyond it: the
  // flip is provable loss, not a torn tail.
  EXPECT_TRUE(rec.data_loss);
  EXPECT_TRUE(rec.records.empty());
}

}  // namespace
}  // namespace expfinder

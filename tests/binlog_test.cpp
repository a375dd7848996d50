// Tests for the append-only binlog (binlog/binlog.h) and capture replay
// (binlog/replay.h). The torture section truncates a multi-record log at
// every byte offset and flips bits through every region of a record
// header, asserting the reader always returns exactly the valid prefix
// with the right stop_reason — a writer killed mid-append costs the tail,
// never the prefix. The replay section pins determinism: two reads of one
// capture produce identical traces.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "binlog/binlog.h"
#include "binlog/replay.h"
#include "common/rng.h"
#include "wire/codec.h"

namespace radar::binlog {
namespace {

/// Unique-per-test temp path; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = testing::TempDir() + "radar_binlog_" + tag + "_" +
            std::to_string(::getpid()) + ".bin";
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Record MakeRecord(std::int64_t t, std::int32_t src, std::int32_t dst,
                  std::initializer_list<int> payload) {
  Record r;
  r.time_us = t;
  r.src = src;
  r.dst = dst;
  for (int b : payload) r.payload.push_back(static_cast<std::uint8_t>(b));
  return r;
}

void AppendAll(const std::string& path, const std::vector<Record>& records) {
  BinlogWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path, FsyncPolicy::kNone, &error)) << error;
  for (const Record& r : records) {
    ASSERT_TRUE(writer.Append(r.time_us, r.src, r.dst, r.payload.data(),
                              r.payload.size()));
  }
}

TEST(Crc32Test, KnownVectors) {
  // The standard IEEE check value: CRC32("123456789") == 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits, sizeof(digits)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(BinlogTest, RoundTripAndReopenAppends) {
  TempFile file("roundtrip");
  const std::vector<Record> first = {
      MakeRecord(10, 0, 1, {1, 2, 3}),
      MakeRecord(20, 1, 0, {}),
  };
  AppendAll(file.path(), first);
  // Reopening continues the same log (restart semantics).
  AppendAll(file.path(), {MakeRecord(30, 2, 3, {0xff})});

  std::string error;
  const auto result = ReadBinlog(file.path(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_TRUE(result->clean);
  ASSERT_EQ(result->records.size(), 3u);
  EXPECT_EQ(result->records[0], first[0]);
  EXPECT_EQ(result->records[1], first[1]);
  EXPECT_EQ(result->records[2].time_us, 30);
  EXPECT_EQ(result->valid_bytes, FileBytes(file.path()).size());
}

TEST(BinlogGolden, RecordHeaderAndPayloadBytes) {
  // The exact bytes of one record: spools, captures and WALs written by
  // any earlier build must keep reading back the same.
  const std::vector<std::uint8_t> golden = {
      0x52, 0x42, 0x4c, 0x47,                          // magic "RBLG"
      0x04, 0x00, 0x00, 0x00,                          // payload_len 4
      0x5a, 0xa3, 0x9c, 0x7c,                          // crc32 0x7c9ca35a
      0x00, 0x00, 0x00, 0x00,                          // reserved
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // time_us
      0x03, 0x00, 0x00, 0x00,                          // src 3
      0xff, 0xff, 0xff, 0xff,                          // dst -1
      0xde, 0xad, 0xbe, 0xef,                          // payload
  };
  const Record record =
      MakeRecord(0x0102030405060708, 3, -1, {0xde, 0xad, 0xbe, 0xef});
  TempFile written("golden_write");
  AppendAll(written.path(), {record});
  EXPECT_EQ(FileBytes(written.path()), golden);

  TempFile read("golden_read");
  WriteFileBytes(read.path(), golden);
  std::string error;
  const auto result = ReadBinlog(read.path(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_TRUE(result->clean);
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_EQ(result->records[0], record);
}

TEST(BinlogTest, MissingFileIsErrorEmptyFileIsClean) {
  std::string error;
  EXPECT_FALSE(ReadBinlog(testing::TempDir() + "radar_binlog_nonexistent",
                          &error)
                   .has_value());

  TempFile file("empty");
  WriteFileBytes(file.path(), {});
  const auto result = ReadBinlog(file.path(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  EXPECT_TRUE(result->clean);
  EXPECT_TRUE(result->records.empty());
}

TEST(BinlogTest, ResetTruncatesForSpoolDrain) {
  TempFile file("reset");
  BinlogWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(file.path(), FsyncPolicy::kNone, &error)) << error;
  const std::uint8_t b = 7;
  ASSERT_TRUE(writer.Append(1, 0, 1, &b, 1));
  ASSERT_TRUE(writer.Reset());
  ASSERT_TRUE(writer.Append(2, 0, 1, &b, 1));
  writer.Close();

  const auto result = ReadBinlog(file.path(), &error);
  ASSERT_TRUE(result.has_value()) << error;
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_EQ(result->records[0].time_us, 2);
}

// ---------------------------------------------------------------------
// Torture: truncation at every byte, corruption in every header region.
// ---------------------------------------------------------------------

TEST(BinlogTorture, TruncationAtEveryByteKeepsValidPrefix) {
  TempFile file("truncate");
  const std::vector<Record> records = {
      MakeRecord(10, 0, 1, {1, 2, 3, 4, 5}),
      MakeRecord(20, 1, 2, {6, 7}),
      MakeRecord(30, 2, 3, {8, 9, 10, 11}),
  };
  AppendAll(file.path(), records);
  const auto full = FileBytes(file.path());

  // Record boundaries (byte offsets where a clean file may end).
  std::vector<std::size_t> boundaries = {0};
  for (const Record& r : records) {
    boundaries.push_back(boundaries.back() + kRecordHeaderSize +
                         r.payload.size());
  }
  ASSERT_EQ(boundaries.back(), full.size());

  TempFile cut("truncate_cut");
  for (std::size_t n = 0; n <= full.size(); ++n) {
    WriteFileBytes(cut.path(),
                   std::vector<std::uint8_t>(full.begin(),
                                             full.begin() + static_cast<
                                                 std::ptrdiff_t>(n)));
    std::string error;
    const auto result = ReadBinlog(cut.path(), &error);
    ASSERT_TRUE(result.has_value()) << error << " at " << n;

    // The reader must return every record wholly contained in the prefix
    // and nothing else.
    std::size_t expect_records = 0;
    while (expect_records + 1 < boundaries.size() &&
           boundaries[expect_records + 1] <= n) {
      ++expect_records;
    }
    EXPECT_EQ(result->records.size(), expect_records) << "prefix " << n;
    EXPECT_EQ(result->valid_bytes, boundaries[expect_records])
        << "prefix " << n;
    const bool at_boundary = boundaries[expect_records] == n;
    EXPECT_EQ(result->clean, at_boundary) << "prefix " << n;
    if (!at_boundary) {
      const std::size_t into = n - boundaries[expect_records];
      EXPECT_EQ(result->stop_reason,
                into < kRecordHeaderSize ? "torn-header" : "torn-payload")
          << "prefix " << n;
    }
    for (std::size_t i = 0; i < result->records.size(); ++i) {
      EXPECT_EQ(result->records[i], records[i]);
    }
  }
}

TEST(BinlogTorture, CorruptionStopsAtLastValidRecord) {
  TempFile file("corrupt");
  const std::vector<Record> records = {
      MakeRecord(10, 0, 1, {1, 2, 3}),
      MakeRecord(20, 1, 2, {4, 5, 6}),
  };
  AppendAll(file.path(), records);
  const auto full = FileBytes(file.path());
  const std::size_t second = kRecordHeaderSize + 3;

  struct Case {
    std::size_t offset;      // byte to corrupt, relative to second record
    const char* stop_reason;
  };
  const Case cases[] = {
      {0, "bad-magic"},    // record magic
      {4, "bad-length"},   // payload_len -> implausibly large
      {8, "bad-crc"},      // stored crc
      {32, "bad-crc"},     // payload byte -> crc mismatch
  };
  TempFile dup("corrupt_dup");
  for (const Case& c : cases) {
    auto bytes = full;
    // For the length case, set a value past kMaxRecordPayload.
    if (c.offset == 4) {
      bytes[second + 4] = 0xff;
      bytes[second + 5] = 0xff;
      bytes[second + 6] = 0xff;
      bytes[second + 7] = 0x7f;
    } else {
      bytes[second + c.offset] ^= 0xff;
    }
    WriteFileBytes(dup.path(), bytes);
    std::string error;
    const auto result = ReadBinlog(dup.path(), &error);
    ASSERT_TRUE(result.has_value()) << error;
    EXPECT_FALSE(result->clean);
    EXPECT_EQ(result->stop_reason, c.stop_reason);
    ASSERT_EQ(result->records.size(), 1u);
    EXPECT_EQ(result->records[0], records[0]);
    EXPECT_EQ(result->valid_bytes, second);
  }
}

TEST(BinlogTorture, RandomFlipsNeverLoseTheValidPrefix) {
  TempFile file("fuzz");
  std::vector<Record> records;
  Rng rng(77);
  for (int i = 0; i < 8; ++i) {
    Record r;
    r.time_us = i * 100;
    r.src = static_cast<std::int32_t>(rng.NextBounded(4));
    r.dst = static_cast<std::int32_t>(rng.NextBounded(4));
    r.payload.resize(rng.NextBounded(40));
    for (auto& b : r.payload) {
      b = static_cast<std::uint8_t>(rng.NextBounded(256));
    }
    records.push_back(std::move(r));
  }
  AppendAll(file.path(), records);
  const auto full = FileBytes(file.path());

  std::vector<std::size_t> starts = {0};
  for (const Record& r : records) {
    starts.push_back(starts.back() + kRecordHeaderSize + r.payload.size());
  }

  TempFile dup("fuzz_dup");
  for (int iter = 0; iter < 200; ++iter) {
    auto bytes = full;
    const std::size_t at = rng.NextBounded(bytes.size());
    bytes[at] ^= static_cast<std::uint8_t>(rng.NextBounded(255) + 1);
    WriteFileBytes(dup.path(), bytes);
    std::string error;
    const auto result = ReadBinlog(dup.path(), &error);
    ASSERT_TRUE(result.has_value()) << error;

    // Which record holds the flipped byte, and which header region?
    std::size_t hit = 0;
    while (starts[hit + 1] <= at) ++hit;
    const std::size_t into = at - starts[hit];
    // Bytes 12..31 (reserved/time/src/dst) are not covered by the payload
    // CRC: the record still reads, with (at most) altered metadata. Every
    // other region breaks validation and costs the tail from `hit` on.
    const bool metadata_only = into >= 12 && into < kRecordHeaderSize;
    if (metadata_only) {
      EXPECT_TRUE(result->clean) << "iter " << iter;
      ASSERT_EQ(result->records.size(), records.size());
    } else {
      EXPECT_FALSE(result->clean) << "iter " << iter;
      ASSERT_EQ(result->records.size(), hit) << "iter " << iter;
      EXPECT_EQ(result->valid_bytes, starts[hit]);
    }
    // Records before the flip are always returned intact.
    for (std::size_t i = 0; i < hit; ++i) {
      EXPECT_EQ(result->records[i], records[i]) << "iter " << iter;
    }
    if (metadata_only) {
      // The payload itself is still CRC-protected.
      EXPECT_EQ(result->records[hit].payload, records[hit].payload);
      for (std::size_t i = hit + 1; i < records.size(); ++i) {
        EXPECT_EQ(result->records[i], records[i]) << "iter " << iter;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Capture replay.
// ---------------------------------------------------------------------

void AppendFrame(BinlogWriter& writer, std::int64_t t, std::int32_t src,
                 std::uint64_t seq, const wire::Message& msg) {
  const auto bytes = wire::Encode(seq, msg);
  ASSERT_TRUE(writer.Append(t, src, 0, bytes.data(), bytes.size()));
}

TEST(ReplayTest, ExtractsRequestStreamRebasedAndMonotonic) {
  TempFile file("replay");
  {
    BinlogWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(file.path(), FsyncPolicy::kNone, &error))
        << error;
    AppendFrame(writer, 1000, 4, 1, wire::Hello{4, wire::PeerRole::kClient});
    AppendFrame(writer, 2000, 4, 2, wire::Request{5, 1});
    AppendFrame(writer, 2500, 1, 3,
                wire::PlacementStat{1, 0.5, 1.0, 4});
    // Out-of-order timestamp (clock skew): must clamp, not reorder.
    AppendFrame(writer, 1500, 4, 4, wire::Request{6, 2});
    AppendFrame(writer, 9000, 4, 5, wire::Request{0, 1});
  }

  CaptureSummary summary;
  std::string error;
  const auto trace = TraceFromCapture(file.path(), 100, &summary, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(summary.records, 5u);
  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.placement_stats, 1u);
  EXPECT_EQ(summary.other, 1u);
  EXPECT_EQ(summary.undecodable, 0u);
  EXPECT_TRUE(summary.clean);

  ASSERT_EQ(trace->size(), 3u);
  const auto& recs = trace->records();
  // First request rebased to start_offset_us.
  EXPECT_EQ(recs[0].t, 100);
  EXPECT_EQ(recs[0].object, 5);
  EXPECT_EQ(recs[0].gateway, 1);
  // The skewed record clamps to its predecessor's time.
  EXPECT_EQ(recs[1].t, 100);
  EXPECT_EQ(recs[1].object, 6);
  // 9000 - 2000 + 100.
  EXPECT_EQ(recs[2].t, 7100);
  EXPECT_EQ(trace->NumObjectsReferenced(), 7);
}

TEST(ReplayTest, TwoReadsYieldIdenticalTraces) {
  TempFile file("replay_det");
  {
    BinlogWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(file.path(), FsyncPolicy::kNone, &error))
        << error;
    Rng rng(123);
    for (int i = 0; i < 100; ++i) {
      AppendFrame(writer, i * 500, 4, static_cast<std::uint64_t>(i),
                  wire::Request{static_cast<ObjectId>(rng.NextBounded(10)),
                                static_cast<NodeId>(rng.NextBounded(3))});
    }
  }
  std::string error;
  const auto a = TraceFromCapture(file.path(), 0, nullptr, &error);
  const auto b = TraceFromCapture(file.path(), 0, nullptr, &error);
  ASSERT_TRUE(a.has_value() && b.has_value()) << error;
  ASSERT_EQ(a->size(), b->size());
  EXPECT_EQ(a->records(), b->records());
}

TEST(ReplayTest, TornTailAndForeignPayloadsAreTolerated) {
  TempFile file("replay_torn");
  {
    BinlogWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(file.path(), FsyncPolicy::kNone, &error))
        << error;
    AppendFrame(writer, 100, 4, 1, wire::Request{1, 0});
    // A record whose payload is not a wire frame at all (e.g. a WAL op
    // accidentally pointed at the capture): counted undecodable, skipped.
    const std::uint8_t junk[] = {1, 2, 3};
    ASSERT_TRUE(writer.Append(200, 1, 0, junk, sizeof(junk)));
    AppendFrame(writer, 300, 4, 2, wire::Request{2, 0});
  }
  // Tear the file mid-way through the last record.
  auto bytes = FileBytes(file.path());
  bytes.resize(bytes.size() - 5);
  WriteFileBytes(file.path(), bytes);

  CaptureSummary summary;
  std::string error;
  const auto trace = TraceFromCapture(file.path(), 0, &summary, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_FALSE(summary.clean);
  EXPECT_EQ(summary.undecodable, 1u);
  ASSERT_EQ(trace->size(), 1u);
  EXPECT_EQ(trace->records()[0].object, 1);
}

TEST(ReplayTest, MissingCaptureIsError) {
  std::string error;
  EXPECT_FALSE(TraceFromCapture(testing::TempDir() + "radar_no_capture", 0,
                                nullptr, &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace radar::binlog

// WAL durability contract (docs/INDEXING.md § Write-ahead log): framed
// records with CRC-32 checksums, torn-tail detection on replay, and the
// truncate-then-append recovery handshake between ReplayWal and
// WalWriter::Open.

#include "index/wal.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace gks {
namespace {

std::string TempWalPath(const std::string& name) {
  std::string path = gks::testing::UniqueTempDir() + "gks_wal_" + name + ".log";
  std::remove(path.c_str());
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

WalRecord InsertRecord(uint32_t doc_id, std::string name, std::string xml) {
  WalRecord record;
  record.type = WalRecordType::kInsert;
  record.doc_id = doc_id;
  record.name = std::move(name);
  record.xml = std::move(xml);
  return record;
}

WalRecord DeleteRecord(uint32_t doc_id, std::string name) {
  WalRecord record;
  record.type = WalRecordType::kDelete;
  record.doc_id = doc_id;
  record.name = std::move(name);
  return record;
}

TEST(WalTest, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check value ("123456789" -> 0xCBF43926) pins the
  // polynomial and reflection choices the on-disk format documents.
  EXPECT_EQ(WalCrc32(""), 0u);
  EXPECT_EQ(WalCrc32("123456789"), 0xCBF43926u);
}

TEST(WalTest, EncodeDecodeRoundTripsBothRecordTypes) {
  std::vector<WalRecord> records = {
      InsertRecord(0, "a.xml", "<doc>alpha</doc>"),
      InsertRecord(700, "names with spaces.xml", std::string(5000, 'x')),
      DeleteRecord(700, "names with spaces.xml"),
  };
  std::string encoded;
  for (const WalRecord& record : records) EncodeWalRecord(record, &encoded);

  std::string_view input = encoded;
  for (const WalRecord& expected : records) {
    WalRecord decoded;
    Status status = DecodeWalRecord(&input, &decoded);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded, expected);
  }
  EXPECT_TRUE(input.empty());
}

TEST(WalTest, DecodeRejectsFlippedPayloadByte) {
  std::string encoded;
  EncodeWalRecord(InsertRecord(1, "a.xml", "<doc>alpha</doc>"), &encoded);
  encoded[encoded.size() / 2] ^= 0x40;  // inside the payload
  std::string_view input = encoded;
  WalRecord decoded;
  EXPECT_EQ(DecodeWalRecord(&input, &decoded).code(), StatusCode::kCorruption);
}

TEST(WalTest, WriterThenReplayRoundTrips) {
  std::string path = TempWalPath("roundtrip");
  std::vector<WalRecord> records = {
      InsertRecord(0, "a.xml", "<doc>alpha</doc>"),
      InsertRecord(1, "b.xml", "<doc>beta</doc>"),
      DeleteRecord(0, "a.xml"),
  };
  {
    Result<WalWriter> writer = WalWriter::Open(path, /*fsync=*/false);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const WalRecord& record : records) {
      Status status = writer->Append(record);
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
    EXPECT_EQ(writer->records(), records.size());
  }
  Result<WalReplay> replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->clean);
  EXPECT_EQ(replay->records, records);
  EXPECT_EQ(replay->valid_bytes, ReadFileBytes(path).size());
}

TEST(WalTest, EmptyLogIsJustTheMagic) {
  std::string path = TempWalPath("empty");
  { ASSERT_TRUE(WalWriter::Open(path, false).ok()); }
  Result<WalReplay> replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->clean);
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->valid_bytes, kWalMagic.size());
}

TEST(WalTest, ReplayMissingFileIsNotFound) {
  EXPECT_EQ(ReplayWal(TempWalPath("missing")).status().code(),
            StatusCode::kNotFound);
}

TEST(WalTest, ReplayRejectsWrongMagic) {
  std::string path = TempWalPath("magic");
  WriteFileBytes(path, "NOTAWAL0somepayload");
  EXPECT_EQ(ReplayWal(path).status().code(), StatusCode::kCorruption);
}

TEST(WalTest, TornTailStopsAtTheValidPrefix) {
  std::string path = TempWalPath("torn");
  std::vector<WalRecord> committed = {
      InsertRecord(0, "a.xml", "<doc>alpha</doc>"),
      InsertRecord(1, "b.xml", "<doc>beta</doc>"),
  };
  {
    Result<WalWriter> writer = WalWriter::Open(path, false);
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& record : committed)
      ASSERT_TRUE(writer->Append(record).ok());
  }
  std::string intact = ReadFileBytes(path);

  // The classic crash shape: a frame header promising more payload than
  // ever reached the disk.
  std::string torn = intact;
  torn += std::string("\x12\x34\x56\x78", 4);  // bogus crc
  torn += std::string("\x40\x00\x00\x00", 4);  // length 64...
  torn += "only-a-few-bytes";                  // ...but the tail is short
  WriteFileBytes(path, torn);

  Result<WalReplay> replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->clean);
  EXPECT_EQ(replay->records, committed);
  EXPECT_EQ(replay->valid_bytes, intact.size());
}

TEST(WalTest, CorruptTailRecordIsDroppedNotFatal) {
  std::string path = TempWalPath("crc_tail");
  {
    Result<WalWriter> writer = WalWriter::Open(path, false);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(InsertRecord(0, "a.xml", "<a>x</a>")).ok());
    ASSERT_TRUE(writer->Append(InsertRecord(1, "b.xml", "<b>y</b>")).ok());
  }
  std::string bytes = ReadFileBytes(path);
  bytes.back() ^= 0x01;  // half-written final payload
  WriteFileBytes(path, bytes);

  Result<WalReplay> replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->clean);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].name, "a.xml");
}

TEST(WalTest, RecoveryTruncatesTheTornTailBeforeAppending) {
  std::string path = TempWalPath("truncate");
  {
    Result<WalWriter> writer = WalWriter::Open(path, false);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(InsertRecord(0, "a.xml", "<a>x</a>")).ok());
  }
  std::string intact = ReadFileBytes(path);
  WriteFileBytes(path, intact + "torn-garbage-tail");

  Result<WalReplay> replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_FALSE(replay->clean);

  // Re-open through the recovery path: the valid prefix survives, the
  // garbage is cut, and the next append lands on a clean boundary.
  {
    Result<WalWriter> writer = WalWriter::Open(
        path, false, static_cast<int64_t>(replay->valid_bytes));
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(InsertRecord(1, "b.xml", "<b>y</b>")).ok());
  }
  Result<WalReplay> after = ReplayWal(path);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->clean);
  ASSERT_EQ(after->records.size(), 2u);
  EXPECT_EQ(after->records[0].name, "a.xml");
  EXPECT_EQ(after->records[1].name, "b.xml");
}

}  // namespace
}  // namespace gks

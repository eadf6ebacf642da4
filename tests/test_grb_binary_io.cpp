// Tests for the binary CSR format (factor persistence).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/gen/unicode_like.hpp"
#include "kronlab/grb/binary_io.hpp"
#include "support/temp_dir.hpp"

namespace kronlab::grb {
namespace {

TEST(BinaryIo, RoundTripsRandomFactor) {
  Rng rng(3);
  const auto a = gen::random_bipartite(9, 11, 40, rng);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, a);
  EXPECT_EQ(read_binary(buf), a);
}

TEST(BinaryIo, RoundTripsEmptyAndCanonical) {
  {
    const Csr<count_t> empty;
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    write_binary(buf, empty);
    EXPECT_EQ(read_binary(buf), empty);
  }
  {
    const auto u = gen::unicode_like();
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    write_binary(buf, u);
    EXPECT_EQ(read_binary(buf), u);
  }
}

TEST(BinaryIo, FileRoundTrip) {
  const test_support::TempDir tmp("binary_io");
  const std::string path = tmp.file("binary.krn");
  Rng rng(4);
  const auto a = gen::preferential_bipartite(8, 8, 20, rng);
  write_binary_file(path, a);
  EXPECT_EQ(read_binary_file(path), a);
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  buf << "NOTACSR1xxxxxxxxxxxxxxxx";
  EXPECT_THROW(read_binary(buf), io_error);
}

TEST(BinaryIo, RejectsTruncation) {
  Rng rng(5);
  const auto a = gen::random_bipartite(5, 5, 12, rng);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, a);
  std::string data = buf.str();
  data.resize(data.size() / 2);
  std::stringstream cut(std::ios::in | std::ios::out | std::ios::binary);
  cut << data;
  EXPECT_THROW(read_binary(cut), io_error);
}

TEST(BinaryIo, RejectsCorruptStructure) {
  Rng rng(6);
  const auto a = gen::random_bipartite(4, 4, 8, rng);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, a);
  std::string data = buf.str();
  // Smash the high byte of col_idx[0] (offset: magic 8 + header 24 +
  // row_ptr (nrows+1)·8) so the column lands far out of range.
  const std::size_t col0 =
      8 + 24 + static_cast<std::size_t>(a.nrows() + 1) * 8;
  data[col0 + 7] = '\x7f';
  std::stringstream bad(std::ios::in | std::ios::out | std::ios::binary);
  bad << data;
  EXPECT_THROW(read_binary(bad), io_error);
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(read_binary_file("/nonexistent/factor.krn"), io_error);
}

namespace {

std::string serialized(const Csr<count_t>& a) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, a);
  return buf.str();
}

std::stringstream as_stream(std::string data) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  buf << data;
  return buf;
}

/// A stream holding just a magic and a header — for header-validation
/// tests that must fail before any array is read.
std::stringstream header_only(const char* magic, std::int64_t nrows,
                              std::int64_t ncols, std::int64_t nnz) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  buf.write(magic, 8);
  const std::int64_t header[3] = {nrows, ncols, nnz};
  buf.write(reinterpret_cast<const char*>(header), sizeof header);
  return buf;
}

} // namespace

TEST(BinaryIo, ChecksumDetectsValueBitFlip) {
  Rng rng(7);
  const auto a = gen::random_bipartite(6, 6, 14, rng);
  std::string data = serialized(a);
  // Flip one bit in the last value word — structurally still a valid CSR
  // (values are unconstrained), so only the checksum can catch it.
  data[data.size() - 9] ^= 0x01;
  auto bad = as_stream(data);
  try {
    (void)read_binary(bad);
    FAIL() << "corrupt value accepted";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(BinaryIo, RejectsLegacyV1ByDefault) {
  // The checksum-less KRNLCSR1 format is retired: such a file must be
  // refused with a typed error, never read as an unverified CSR.
  Rng rng(8);
  const auto a = gen::random_bipartite(7, 5, 16, rng);
  std::string data = serialized(a);
  data[7] = '1';                   // KRNLCSR2 -> KRNLCSR1
  data.resize(data.size() - 8);    // V1 carries no trailing checksum
  auto legacy = as_stream(data);
  EXPECT_THROW((void)read_binary(legacy), io_error);
}

TEST(BinaryIo, RejectsNegativeDimensions) {
  auto buf = header_only("KRNLCSR2", -1, 4, 0);
  EXPECT_THROW(read_binary(buf), io_error);
}

TEST(BinaryIo, RejectsImplausibleDimensions) {
  // A few corrupt bytes must not trigger a terabyte allocation.
  auto buf = header_only("KRNLCSR2", std::int64_t{1} << 41, 4, 0);
  EXPECT_THROW(read_binary(buf), io_error);
}

TEST(BinaryIo, RejectsNnzExceedingMatrixCapacity) {
  auto buf = header_only("KRNLCSR2", 2, 2, 5); // nnz > nrows*ncols
  try {
    (void)read_binary(buf);
    FAIL() << "overfull header accepted";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Snapshot envelope (the distributed checkpoint format).

TEST(Snapshot, RoundTripsMetaAndPayload) {
  Rng rng(9);
  SnapshotEnvelope snap;
  snap.meta = {1, 42, -7, 1'000'000};
  snap.payload = gen::random_bipartite(5, 9, 20, rng);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_snapshot(buf, snap);
  const auto back = read_snapshot(buf);
  EXPECT_EQ(back.meta, snap.meta);
  EXPECT_EQ(back.payload, snap.payload);
}

TEST(Snapshot, FileRoundTripIsAtomic) {
  const test_support::TempDir dir("snapshot");
  const std::string path = dir.file("snapshot.ckpt");
  Rng rng(10);
  SnapshotEnvelope snap;
  snap.meta = {1, 2, 3};
  snap.payload = gen::random_bipartite(4, 4, 9, rng);
  write_snapshot_file(path, snap);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind after rename";
  const auto back = read_snapshot_file(path);
  EXPECT_EQ(back.meta, snap.meta);
  EXPECT_EQ(back.payload, snap.payload);
}

TEST(Snapshot, MetaCorruptionIsDetected) {
  SnapshotEnvelope snap;
  snap.meta = {5, 6, 7};
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_snapshot(buf, snap);
  std::string data = buf.str();
  data[8 + 8 + 4] ^= 0x10; // flip a bit inside meta[0]
  auto bad = as_stream(data);
  try {
    (void)read_snapshot(bad);
    FAIL() << "corrupt metadata accepted";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("metadata checksum"),
              std::string::npos);
  }
}

TEST(Snapshot, PayloadCorruptionIsDetected) {
  Rng rng(11);
  SnapshotEnvelope snap;
  snap.meta = {1};
  snap.payload = gen::random_bipartite(4, 4, 10, rng);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_snapshot(buf, snap);
  std::string data = buf.str();
  data[data.size() - 9] ^= 0x01; // inside the embedded CSR's last value
  auto bad = as_stream(data);
  EXPECT_THROW(read_snapshot(bad), io_error);
}

TEST(Snapshot, RejectsTruncationAndBadMagic) {
  SnapshotEnvelope snap;
  snap.meta = {1, 2};
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_snapshot(buf, snap);
  std::string data = buf.str();
  data.resize(20); // cut inside the metadata
  auto cut = as_stream(data);
  EXPECT_THROW(read_snapshot(cut), io_error);
  auto wrong = as_stream("KRNLCSR2whatever........");
  EXPECT_THROW(read_snapshot(wrong), io_error);
}

TEST(Snapshot, RejectsImplausibleMetaLength) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  buf.write("KRNLCKP1", 8);
  const std::int64_t n_meta = std::int64_t{1} << 30;
  buf.write(reinterpret_cast<const char*>(&n_meta), sizeof n_meta);
  EXPECT_THROW(read_snapshot(buf), io_error);
}

} // namespace
} // namespace kronlab::grb

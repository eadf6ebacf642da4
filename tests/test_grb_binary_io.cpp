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

TEST(BinaryIo, EveryBitFlipIsTypedError) {
  // Every flip must raise io_error: none may be accepted, and none may
  // escape as another exception (e.g. std::bad_alloc from a header count
  // that the reader trusted before it had the bytes).
  Rng rng(7);
  const std::string good = serialized(gen::random_bipartite(6, 6, 14, rng));
  int escaped = 0;
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string data = good;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      auto in = as_stream(data);
      try {
        (void)read_binary(in);
        ADD_FAILURE() << "flip of byte " << byte << " bit " << bit
                      << " was accepted";
      } catch (const io_error&) {
      } catch (const std::exception& e) {
        if (++escaped <= 5) {
          ADD_FAILURE() << "flip of byte " << byte << " bit " << bit
                        << " threw " << e.what() << ", not io_error";
        }
      }
    }
  }
  EXPECT_EQ(escaped, 0);
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

} // namespace
} // namespace kronlab::grb

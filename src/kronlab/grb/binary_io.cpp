#include "kronlab/grb/binary_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "kronlab/common/checksum.hpp"
#include "kronlab/common/error.hpp"
#include "kronlab/common/registry.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab::grb {

namespace {
/// Trace detail for file-io spans: the path, interned only when tracing.
const char* io_detail(const std::string& path) {
  return trace::enabled() ? trace::intern(path) : nullptr;
}
} // namespace

namespace {

// One definition per magic lives in common/registry.hpp (the analyzer's
// registry rule keeps it that way); this is a local alias.
constexpr const char (&kMagicV2)[8] = magic::kCsr2;

/// Hard sanity cap on any single dimension/count read from a file: far
/// above every real workload, far below anything that could overflow the
/// size arithmetic below.  It does not bound allocation — get_array does,
/// by growing only as words arrive.
constexpr std::int64_t kMaxPlausible = std::int64_t{1} << 40;

void put_words(std::ostream& out, const std::int64_t* data,
               std::size_t n) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(n * sizeof(std::int64_t)));
}

/// Read `n` words, folding them into `hash` (FNV-1a) when non-null.
void get_words(std::istream& in, std::int64_t* data, std::size_t n,
               std::uint64_t* hash, const char* what) {
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(n * sizeof(std::int64_t)));
  if (!in) {
    throw io_error(std::string("kronlab binary matrix: truncated while "
                               "reading ") +
                   what);
  }
  if (hash) *hash = fnv1a64(data, n * sizeof(std::int64_t), *hash);
}

/// Read an `n`-word array in bounded chunks, growing `out` as words
/// arrive.  `n` comes from an unverified header: a count that overstates
/// the stream hits get_words' "truncated" io_error before the vector
/// holds much more than the bytes actually read.
void get_array(std::istream& in, std::vector<std::int64_t>& out,
               std::size_t n, std::uint64_t* hash, const char* what) {
  constexpr std::size_t kChunkWords = std::size_t{1} << 16;
  out.clear();
  while (out.size() < n) {
    const std::size_t at = out.size();
    const std::size_t take = std::min(kChunkWords, n - at);
    out.resize(at + take);
    get_words(in, out.data() + at, take, hash, what);
  }
}

} // namespace

void write_binary(std::ostream& out, const Csr<count_t>& a) {
  out.write(kMagicV2, sizeof kMagicV2);
  const std::int64_t header[3] = {a.nrows(), a.ncols(), a.nnz()};
  std::uint64_t hash = fnv1a64(header, sizeof header);
  const auto hashed_put = [&](const std::int64_t* data, std::size_t n) {
    hash = fnv1a64(data, n * sizeof(std::int64_t), hash);
    put_words(out, data, n);
  };
  put_words(out, header, 3);
  hashed_put(a.row_ptr().data(), a.row_ptr().size());
  hashed_put(a.col_idx().data(), a.col_idx().size());
  hashed_put(a.vals().data(), a.vals().size());
  const auto checksum = static_cast<std::int64_t>(hash);
  put_words(out, &checksum, 1);
  if (!out) throw io_error("failed writing kronlab binary matrix");
}

Csr<count_t> read_binary(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagicV2, sizeof kMagicV2) != 0) {
    throw io_error("not a kronlab binary matrix (bad magic)");
  }
  std::uint64_t hash = kFnvBasis;
  std::int64_t header[3];
  get_words(in, header, 3, &hash, "header");
  const index_t nrows = header[0];
  const index_t ncols = header[1];
  const offset_t nnz = header[2];
  if (nrows < 0 || ncols < 0 || nnz < 0) {
    throw io_error("kronlab binary matrix: negative dimensions (nrows=" +
                   std::to_string(nrows) + " ncols=" + std::to_string(ncols) +
                   " nnz=" + std::to_string(nnz) + ")");
  }
  if (nrows > kMaxPlausible || ncols > kMaxPlausible ||
      nnz > kMaxPlausible) {
    throw io_error("kronlab binary matrix: implausible dimensions (likely "
                   "corrupt header): nrows=" +
                   std::to_string(nrows) + " ncols=" + std::to_string(ncols) +
                   " nnz=" + std::to_string(nnz));
  }
  // Division form of nnz > nrows*ncols — the product can overflow even
  // under the plausibility caps.  ceil-divide so e.g. nnz=5 in a 2x2
  // matrix is caught (5/2 truncates to nrows exactly).
  if (nnz > 0 && (ncols == 0 || (nnz - 1) / ncols >= nrows)) {
    throw io_error("kronlab binary matrix: nnz=" + std::to_string(nnz) +
                   " exceeds nrows*ncols (corrupt header)");
  }
  std::vector<offset_t> row_ptr;
  std::vector<index_t> col_idx;
  std::vector<count_t> vals;
  get_array(in, row_ptr, static_cast<std::size_t>(nrows) + 1, &hash,
            "row_ptr");
  get_array(in, col_idx, static_cast<std::size_t>(nnz), &hash, "col_idx");
  get_array(in, vals, static_cast<std::size_t>(nnz), &hash, "vals");
  std::int64_t stored = 0;
  get_words(in, &stored, 1, nullptr, "checksum");
  if (static_cast<std::uint64_t>(stored) != hash) {
    throw io_error("kronlab binary matrix: FNV-1a checksum mismatch "
                   "(file is corrupt)");
  }
  try {
    return Csr<count_t>(nrows, ncols, std::move(row_ptr),
                        std::move(col_idx), std::move(vals));
  } catch (const invalid_argument& e) {
    throw io_error(std::string("kronlab binary matrix: corrupt CSR — ") +
                   e.what());
  }
}

void write_binary_file(const std::string& path, const Csr<count_t>& a) {
  trace::Span span("io", "write_binary", io_detail(path));
  std::ofstream out(path, std::ios::binary);
  if (!out) throw io_error("cannot open for writing: " + path);
  write_binary(out, a);
}

Csr<count_t> read_binary_file(const std::string& path) {
  trace::Span span("io", "read_binary", io_detail(path));
  std::ifstream in(path, std::ios::binary);
  if (!in) throw io_error("cannot open: " + path);
  return read_binary(in);
}

} // namespace kronlab::grb

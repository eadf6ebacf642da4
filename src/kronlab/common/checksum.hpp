// kronlab/common/checksum.hpp
//
// The FNV-1a checksums every kronlab envelope carries, in one place.
//
// Two folds share the offset basis and prime:
//
//   fnv1a64        byte-serial FNV-1a — KRNLCSR2 files
//                  (grb/binary_io.hpp), KRNLSRV1 serve frames
//                  (serve/protocol.hpp) and the stream-spec hash.
//   fnv1a64_words  word-folded FNV-1a — KRNLSEG1 segments, the KRNLMAN1
//                  manifest and the per-shard chain hashes
//                  (io/durable.hpp).
//
// Both values are part of on-disk and wire formats: changing either fold
// changes every stored checksum.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace kronlab {

/// FNV-1a offset basis — every hash and chain starts here.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// 64-bit FNV-1a over a byte range, one xor-multiply per byte.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t nbytes,
                                    std::uint64_t basis = kFnvBasis);

/// Word-folded FNV-1a: one xor-multiply per little-endian int64 word
/// instead of per byte.  Every durable-store checksum and chain hash
/// uses this fold — resume re-verifies the whole committed prefix, so
/// the hash sits on the restart hot path, where byte-serial FNV would
/// make every restart pay a large fraction of a cold run just
/// re-hashing (bench_streaming's `resume_scan` section).  A flipped bit
/// still cascades through every later word.  `nbytes` must be a
/// multiple of 8: the formats are whole-word by construction.
[[nodiscard]] inline std::uint64_t fnv1a64_words(
    const void* data, std::size_t nbytes,
    std::uint64_t basis = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = basis;
  for (std::size_t i = 0; i + 8 <= nbytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kFnvPrime;
  }
  return h;
}

} // namespace kronlab

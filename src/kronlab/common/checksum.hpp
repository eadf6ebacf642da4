// kronlab/common/checksum.hpp
//
// The FNV-1a checksum every kronlab envelope carries, in one place.
//
// One fold, one xor-multiply per little-endian int64 word, serves three
// formats:
//
//   KRNLSEG2  durable segments and the per-shard chain hashes
//             (io/durable.hpp)
//   KRNLMAN1  the durable manifest and the stream-spec hash it records
//             (io/durable.hpp, io/stream_gen.hpp)
//   KRNLSRV2  query-daemon frames (serve/protocol.hpp)
//
// The value is part of on-disk and wire formats: changing the fold
// changes every stored checksum, so it bumps the manifest version and
// the serve magic's digit.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace kronlab {

/// FNV-1a offset basis — every hash and chain starts here.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Word-folded FNV-1a: one xor-multiply per little-endian int64 word
/// instead of per byte.  Both steps are bijections mod 2^64 (xor with a
/// fixed word, multiply by an odd prime), so changing any one word — a
/// single flipped bit included — changes the result.  `nbytes` must be a multiple of 8:
/// the formats are whole-word by construction.
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

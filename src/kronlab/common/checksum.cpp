#include "kronlab/common/checksum.hpp"

namespace kronlab {

std::uint64_t fnv1a64(const void* data, std::size_t nbytes,
                      std::uint64_t basis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = basis;
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

} // namespace kronlab

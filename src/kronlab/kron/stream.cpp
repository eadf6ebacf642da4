#include "kronlab/kron/stream.hpp"

#include <ostream>

namespace kronlab::kron {

void EdgeStream::write_edge_list(std::ostream& out) const {
  out << "% kronecker product edge list: " << kp_->num_vertices()
      << " vertices, " << kp_->num_edges() << " edges\n";
  for_each_edge([&](index_t p, index_t q) {
    out << (p + 1) << ' ' << (q + 1) << '\n';
  });
}

} // namespace kronlab::kron

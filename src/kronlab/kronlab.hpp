// kronlab/kronlab.hpp
//
// Umbrella header: the full public API.
//
//   grb::      mini-GraphBLAS (vectors, CSR matrices, semiring kernels,
//              Kronecker products, I/O)
//   graph::    graph algorithms over adjacency matrices (BFS, components,
//              bipartiteness, eccentricity, direct triangle & butterfly
//              counting, community metrics, degree statistics)
//   gen::      factor generators (canonical, random, R-MAT, BTER-lite,
//              KONECT loader, unicode-like stand-in)
//   kron::     the bipartite Kronecker generator with ground truth
//              (products, streaming, factored statistics, Thm 1–7 / Cor 1–2)
//   serve::    the ground-truth oracle as a service (wire protocol,
//              transports, query server, client — kronlab_served)

#pragma once

#include "kronlab/common/checksum.hpp"
#include "kronlab/common/error.hpp"
#include "kronlab/common/random.hpp"
#include "kronlab/common/timer.hpp"
#include "kronlab/common/types.hpp"
#include "kronlab/dist/comm.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/gen/bter.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/konect.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/gen/rmat.hpp"
#include "kronlab/gen/spec.hpp"
#include "kronlab/gen/unicode_like.hpp"
#include "kronlab/graph/approx_butterflies.hpp"
#include "kronlab/graph/bipartite.hpp"
#include "kronlab/graph/bipartite_clustering.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/graph/community.hpp"
#include "kronlab/graph/degeneracy.hpp"
#include "kronlab/graph/eccentricity.hpp"
#include "kronlab/graph/graph.hpp"
#include "kronlab/graph/stats.hpp"
#include "kronlab/graph/tip.hpp"
#include "kronlab/graph/traversal.hpp"
#include "kronlab/graph/triangles.hpp"
#include "kronlab/graph/wing.hpp"
#include "kronlab/grb/binary_io.hpp"
#include "kronlab/grb/csr.hpp"
#include "kronlab/grb/io.hpp"
#include "kronlab/grb/kron.hpp"
#include "kronlab/grb/masked.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/grb/semiring.hpp"
#include "kronlab/grb/vector.hpp"
#include "kronlab/io/durable.hpp"
#include "kronlab/io/file_ops.hpp"
#include "kronlab/io/stream_gen.hpp"
#include "kronlab/kron/clustering.hpp"
#include "kronlab/kron/community.hpp"
#include "kronlab/kron/connectivity.hpp"
#include "kronlab/kron/distance.hpp"
#include "kronlab/kron/factored.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/kron/index_map.hpp"
#include "kronlab/kron/oracle.hpp"
#include "kronlab/kron/partition.hpp"
#include "kronlab/kron/power.hpp"
#include "kronlab/kron/product.hpp"
#include "kronlab/kron/stream.hpp"
#include "kronlab/kron/triangles.hpp"
#include "kronlab/serve/client.hpp"
#include "kronlab/serve/protocol.hpp"
#include "kronlab/serve/server.hpp"
#include "kronlab/serve/transport.hpp"

#include "kronlab/gen/spec.hpp"

#include <limits>
#include <sstream>
#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/common/random.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/konect.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/gen/unicode_like.hpp"
#include "kronlab/grb/io.hpp"

namespace kronlab::gen {

namespace {

std::vector<index_t> parse_ints(const std::string& args, std::size_t want,
                                const std::string& spec) {
  std::vector<index_t> out;
  std::istringstream ss(args);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    try {
      std::size_t pos = 0;
      out.push_back(static_cast<index_t>(std::stoll(tok, &pos)));
      if (pos != tok.size()) throw std::invalid_argument(tok);
    } catch (const std::exception&) {
      throw invalid_argument("bad integer '" + tok + "' in spec: " + spec);
    }
  }
  if (out.size() != want) {
    throw invalid_argument("spec '" + spec + "' expects " +
                           std::to_string(want) + " argument(s), got " +
                           std::to_string(out.size()));
  }
  return out;
}

} // namespace

graph::Adjacency parse_graph_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::string args =
      colon == std::string::npos ? "" : spec.substr(colon + 1);

  if (name == "path") return path_graph(parse_ints(args, 1, spec)[0]);
  if (name == "cycle") return cycle_graph(parse_ints(args, 1, spec)[0]);
  if (name == "star") return star_graph(parse_ints(args, 1, spec)[0]);
  if (name == "complete")
    return complete_graph(parse_ints(args, 1, spec)[0]);
  if (name == "kbip") {
    const auto v = parse_ints(args, 2, spec);
    return complete_bipartite(v[0], v[1]);
  }
  if (name == "crown") return crown_graph(parse_ints(args, 1, spec)[0]);
  if (name == "hypercube") {
    // hypercube() checks its own bound, but only after the narrowing to
    // int, which would wrap 2^32 + 4 to 4.
    const index_t d = parse_ints(args, 1, spec)[0];
    if (d < 0 || d > std::numeric_limits<int>::max()) {
      throw invalid_argument("hypercube dimension out of range in spec: " +
                             spec);
    }
    return hypercube(static_cast<int>(d));
  }
  if (name == "grid") {
    const auto v = parse_ints(args, 2, spec);
    return grid_graph(v[0], v[1]);
  }
  if (name == "dstar") {
    const auto v = parse_ints(args, 2, spec);
    return double_star(v[0], v[1]);
  }
  if (name == "tritail")
    return triangle_with_tail(parse_ints(args, 1, spec)[0]);
  if (name == "wheel") return wheel_graph(parse_ints(args, 1, spec)[0]);
  if (name == "book") return book_graph(parse_ints(args, 1, spec)[0]);
  if (name == "randbip") {
    const auto v = parse_ints(args, 4, spec);
    Rng rng(static_cast<std::uint64_t>(v[3]));
    return random_bipartite(v[0], v[1], v[2], rng);
  }
  if (name == "connbip") {
    const auto v = parse_ints(args, 4, spec);
    Rng rng(static_cast<std::uint64_t>(v[3]));
    return connected_random_bipartite(v[0], v[1], v[2], rng);
  }
  if (name == "prefbip") {
    const auto v = parse_ints(args, 4, spec);
    Rng rng(static_cast<std::uint64_t>(v[3]));
    return preferential_bipartite(v[0], v[1], v[2], rng);
  }
  if (name == "nonbip") {
    const auto v = parse_ints(args, 3, spec);
    Rng rng(static_cast<std::uint64_t>(v[2]));
    return random_nonbipartite_connected(v[0], v[1], rng);
  }
  if (name == "unicode") {
    if (!args.empty()) {
      throw invalid_argument("spec 'unicode' takes no arguments");
    }
    return unicode_like();
  }
  if (name == "konect") {
    if (args.empty()) throw invalid_argument("konect: needs a file path");
    return load_konect_bipartite(args);
  }
  if (name == "mtx") {
    if (args.empty()) throw invalid_argument("mtx: needs a file path");
    auto a = grb::read_matrix_market_file(args);
    KRONLAB_REQUIRE(a.nrows() == a.ncols(),
                    "mtx adjacency must be square");
    for (auto& v : a.vals()) v = 1;
    return a;
  }
  throw invalid_argument("unknown graph spec: " + spec);
}

std::string graph_spec_help() {
  return "  path:N cycle:N star:LEAVES complete:N kbip:NU,NW crown:N\n"
         "  hypercube:D grid:R,C dstar:A,B tritail:T wheel:N book:PAGES\n"
         "  randbip:NU,NW,M,SEED connbip:NU,NW,M,SEED\n"
         "  prefbip:NU,NW,M,SEED nonbip:N,M,SEED\n"
         "  unicode konect:PATH mtx:PATH";
}

} // namespace kronlab::gen

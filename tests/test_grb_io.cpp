// Tests for MatrixMarket and bipartite edge-list I/O, including malformed
// inputs (failure injection).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "kronlab/grb/io.hpp"
#include "kronlab/grb/ops.hpp"
#include "support/temp_dir.hpp"

namespace kronlab::grb {
namespace {

TEST(MatrixMarket, ReadsGeneralInteger) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "% a comment\n"
      "3 3 2\n"
      "1 2 5\n"
      "3 1 7\n");
  const auto a = read_matrix_market(in);
  EXPECT_EQ(a.nrows(), 3);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_EQ(a.at(0, 1), 5);
  EXPECT_EQ(a.at(2, 0), 7);
}

TEST(MatrixMarket, ReadsSymmetricPattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  const auto a = read_matrix_market(in);
  EXPECT_EQ(a.at(1, 0), 1);
  EXPECT_EQ(a.at(0, 1), 1); // mirrored
  EXPECT_EQ(a.at(2, 2), 1); // diagonal not doubled
  EXPECT_EQ(a.nnz(), 3);
}

TEST(MatrixMarket, RoundTripsThroughWrite) {
  Coo<count_t> coo(3, 4);
  coo.push(0, 3, 2);
  coo.push(2, 1, -5);
  const auto a = Csr<count_t>::from_coo(coo);
  std::ostringstream out;
  write_matrix_market(out, a);
  std::istringstream in(out.str());
  EXPECT_EQ(read_matrix_market(in), a);
}

TEST(MatrixMarket, RejectsMalformedInputs) {
  {
    std::istringstream in("not a matrix\n1 1 0\n");
    EXPECT_THROW(read_matrix_market(in), io_error);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix array real general\n1 1\n1.0\n");
    EXPECT_THROW(read_matrix_market(in), io_error);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 2 1\n"
        "3 1 1\n"); // out of range
    EXPECT_THROW(read_matrix_market(in), io_error);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 2 2\n"
        "1 1 1\n"); // truncated
    EXPECT_THROW(read_matrix_market(in), io_error);
  }
  {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate complex hermitian\n"
        "1 1 0\n");
    EXPECT_THROW(read_matrix_market(in), io_error);
  }
}

TEST(EdgeList, ReadsKonectStyle) {
  std::istringstream in(
      "% bip comment\n"
      "# another comment\n"
      "1 2\n"
      "3 1 4.5 1234567\n" // weight + timestamp columns ignored
      "2 2\n");
  const auto el = read_bipartite_edge_list(in);
  EXPECT_EQ(el.n_left, 3);
  EXPECT_EQ(el.n_right, 2);
  ASSERT_EQ(el.edges.size(), 3u);
  EXPECT_EQ(el.edges[0], (std::pair<index_t, index_t>{0, 1}));
  EXPECT_EQ(el.edges[1], (std::pair<index_t, index_t>{2, 0}));
}

TEST(EdgeList, RejectsMalformedLines) {
  // Table-driven: every malformed shape the KONECT-style parser guards
  // against, with the 1-based line number it must report.
  struct Case {
    const char* name;
    const char* input;
    const char* expect_in_what; // substring of the io_error message
  };
  const Case cases[] = {
      {"too few fields", "1 2\n1\n", "line 2"},
      {"zero id", "0 1\n", "must be positive"},
      {"negative id", "1 2\n-3 4\n", "must be positive"},
      {"alphabetic token", "a b\n", "non-numeric"},
      {"numeric prefix with junk", "12x 3\n", "non-numeric"},
      {"junk weight column", "1 2 heavy\n", "non-numeric"},
      {"too many fields", "1 2 3 4 5\n", "too many fields"},
      {"lone sign", "+ 2\n", "non-numeric"},
      {"line number is counted", "1 1\n\n% c\n2 2\nbad 3\n", "line 5"},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.input);
    try {
      read_bipartite_edge_list(in);
      FAIL() << "accepted malformed input: " << c.name;
    } catch (const io_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_what),
                std::string::npos)
          << c.name << " — got: " << e.what();
    }
  }
}

TEST(EdgeList, AcceptsCrlfAndFractionalWeights) {
  std::istringstream in("1 2\r\n2 1 0.5\r\n% comment\r\n\r\n3 2 1.25 99\r\n");
  const auto el = read_bipartite_edge_list(in);
  EXPECT_EQ(el.edges.size(), 3u);
  EXPECT_EQ(el.n_left, 3);
  EXPECT_EQ(el.n_right, 2);
}

TEST(EdgeList, DuplicateEdgesToleratedUnlessStrict) {
  const char* input = "1 2\n1 2\n2 1\n";
  {
    std::istringstream in(input);
    EXPECT_EQ(read_bipartite_edge_list(in).edges.size(), 3u);
  }
  {
    std::istringstream in(input);
    EdgeListOptions opt;
    opt.reject_duplicates = true;
    try {
      read_bipartite_edge_list(in, opt);
      FAIL() << "duplicate accepted in strict mode";
    } catch (const io_error& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate edge"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
  }
}

TEST(EdgeList, EnforcesVertexIdCap) {
  EdgeListOptions opt;
  opt.max_vertex_id = 100;
  {
    std::istringstream in("1 100\n");
    EXPECT_EQ(read_bipartite_edge_list(in, opt).n_right, 100);
  }
  {
    std::istringstream in("1 101\n");
    EXPECT_THROW(read_bipartite_edge_list(in, opt), io_error);
  }
  {
    // Default cap guards against ids that would overflow allocation math
    // (e.g. 20 digits of garbage parsed as a vertex id).
    std::istringstream in("1 99999999999999999999\n");
    EXPECT_THROW(read_bipartite_edge_list(in), io_error);
  }
}

TEST(EdgeList, FileErrorsArePrefixedWithPath) {
  const test_support::TempDir tmp("grb_io");
  const std::string path = tmp.file("badedges.txt");
  {
    std::ofstream out(path);
    out << "1 2\nnot numeric\n";
  }
  try {
    read_bipartite_edge_list_file(path);
    FAIL() << "malformed file accepted";
  } catch (const io_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos);
    EXPECT_NE(what.find("line 2"), std::string::npos);
  }
}

TEST(EdgeList, RoundTripsThroughWrite) {
  BipartiteEdgeList el;
  el.n_left = 3;
  el.n_right = 4;
  el.edges = {{0, 3}, {2, 1}};
  std::ostringstream out;
  write_bipartite_edge_list(out, el);
  std::istringstream in(out.str());
  const auto back = read_bipartite_edge_list(in);
  EXPECT_EQ(back.edges, el.edges);
  EXPECT_EQ(back.n_left, 3);
  EXPECT_EQ(back.n_right, 4);
}

TEST(Files, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/file.mtx"), io_error);
  EXPECT_THROW(read_bipartite_edge_list_file("/nonexistent/out.x"),
               io_error);
}

} // namespace
} // namespace kronlab::grb

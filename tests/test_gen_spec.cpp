// Tests for the textual graph-spec parser used by the kronlab_gen CLI.

#include <gtest/gtest.h>

#include <fstream>

#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/spec.hpp"
#include "kronlab/gen/unicode_like.hpp"
#include "kronlab/graph/graph.hpp"
#include "support/temp_dir.hpp"

namespace kronlab::gen {
namespace {

TEST(Spec, CanonicalForms) {
  EXPECT_EQ(parse_graph_spec("path:5"), path_graph(5));
  EXPECT_EQ(parse_graph_spec("cycle:6"), cycle_graph(6));
  EXPECT_EQ(parse_graph_spec("star:4"), star_graph(4));
  EXPECT_EQ(parse_graph_spec("complete:4"), complete_graph(4));
  EXPECT_EQ(parse_graph_spec("kbip:2,3"), complete_bipartite(2, 3));
  EXPECT_EQ(parse_graph_spec("crown:4"), crown_graph(4));
  EXPECT_EQ(parse_graph_spec("hypercube:3"), hypercube(3));
  EXPECT_EQ(parse_graph_spec("grid:2,4"), grid_graph(2, 4));
  EXPECT_EQ(parse_graph_spec("dstar:2,3"), double_star(2, 3));
  EXPECT_EQ(parse_graph_spec("tritail:2"), triangle_with_tail(2));
  EXPECT_EQ(parse_graph_spec("wheel:6"), wheel_graph(6));
  EXPECT_EQ(parse_graph_spec("book:4"), book_graph(4));
  EXPECT_EQ(parse_graph_spec("unicode"), unicode_like());
}

TEST(Spec, RandomFormsAreSeedDeterministic) {
  EXPECT_EQ(parse_graph_spec("randbip:5,6,12,42"),
            parse_graph_spec("randbip:5,6,12,42"));
  EXPECT_NE(parse_graph_spec("randbip:5,6,12,42"),
            parse_graph_spec("randbip:5,6,12,43"));
  const auto c = parse_graph_spec("connbip:4,5,12,7");
  EXPECT_EQ(graph::num_edges(c), 12);
  const auto n = parse_graph_spec("nonbip:8,14,3");
  EXPECT_EQ(graph::num_edges(n), 14);
  const auto p = parse_graph_spec("prefbip:6,6,14,1");
  EXPECT_EQ(graph::num_edges(p), 14);
}

TEST(Spec, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_graph_spec("nosuch:3"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("path"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("path:3,4"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("kbip:3"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("path:x"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("path:3x"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("unicode:7"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("konect:"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("mtx:"), invalid_argument);
}

TEST(Spec, PropagatesGeneratorValidation) {
  EXPECT_THROW(parse_graph_spec("cycle:2"), invalid_argument);
  EXPECT_THROW(parse_graph_spec("randbip:2,2,100,1"), invalid_argument);
}

TEST(Spec, FileFormsRoundTrip) {
  const test_support::TempDir tmp("gen_spec");
  // mtx: write a small symmetric adjacency and parse it back.
  const std::string mtx_path = tmp.file("spec.mtx");
  {
    std::ofstream out(mtx_path);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
        << "3 3 2\n"
        << "2 1\n"
        << "3 2\n";
  }
  const auto a = parse_graph_spec("mtx:" + mtx_path);
  EXPECT_EQ(a, path_graph(3));

  const std::string el_path = tmp.file("spec.el");
  {
    std::ofstream out(el_path);
    out << "% two-mode\n1 1\n2 2\n2 1\n";
  }
  const auto b = parse_graph_spec("konect:" + el_path);
  EXPECT_EQ(b.nrows(), 4);
  EXPECT_EQ(graph::num_edges(b), 3);

  EXPECT_THROW(parse_graph_spec("mtx:/nonexistent.mtx"), io_error);
  EXPECT_THROW(parse_graph_spec("konect:/nonexistent.el"), io_error);
}

TEST(Spec, HelpMentionsEveryForm) {
  const auto help = graph_spec_help();
  for (const char* form :
       {"path", "cycle", "star", "kbip", "crown", "hypercube", "grid",
        "dstar", "tritail", "wheel", "book", "randbip", "connbip", "prefbip", "nonbip",
        "unicode", "konect", "mtx"}) {
    EXPECT_NE(help.find(form), std::string::npos) << form;
  }
}

} // namespace
} // namespace kronlab::gen

#include "hg/io_netare.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>

#include "hg/builder.hpp"
#include "hg/stats.hpp"

namespace fixedpart::hg {
namespace {

TEST(IoNetD, ReadsBasicInstance) {
  std::istringstream net(
      "0\n"
      "5\n"
      "2\n"
      "3\n"
      "1\n"           // cells a0, a1; pad p1
      "a0 s O\n"
      "a1 l I\n"
      "p1 l I\n"
      "a1 s B\n"
      "a0 l B\n");
  std::istringstream are(
      "a0 10\n"
      "a1 20\n"
      "p1 0\n");
  const NetDInstance inst = read_netd(net, are);
  EXPECT_EQ(inst.graph.num_vertices(), 3);
  EXPECT_EQ(inst.graph.num_nets(), 2);
  EXPECT_EQ(inst.graph.vertex_weight(0), 10);
  EXPECT_EQ(inst.graph.vertex_weight(1), 20);
  EXPECT_TRUE(inst.graph.is_pad(2));
  EXPECT_EQ(inst.graph.net_size(0), 3);
  EXPECT_EQ(inst.graph.net_size(1), 2);
  EXPECT_EQ(inst.names[0], "a0");
  EXPECT_EQ(inst.names[2], "p1");
  inst.graph.validate();
}

TEST(IoNetD, DefaultAreasWhenAreFileSparse) {
  std::istringstream net(
      "0\n2\n1\n2\n0\n"
      "a0 s\n"
      "p1 l\n");
  std::istringstream are("");  // no areas: cells default 1, pads 0
  const NetDInstance inst = read_netd(net, are);
  EXPECT_EQ(inst.graph.vertex_weight(0), 1);
  EXPECT_EQ(inst.graph.vertex_weight(1), 0);
}

TEST(IoNetD, RoundTripPreservesStructure) {
  HypergraphBuilder b;
  const VertexId c0 = b.add_vertex(5);
  const VertexId pad = b.add_vertex(0, /*is_pad=*/true);
  const VertexId c1 = b.add_vertex(7);
  b.add_net(std::vector<VertexId>{c0, c1});
  b.add_net(std::vector<VertexId>{c1, pad});
  const Hypergraph g = b.build();

  std::ostringstream net_out;
  std::ostringstream are_out;
  write_netd(net_out, are_out, g);
  std::istringstream net_in(net_out.str());
  std::istringstream are_in(are_out.str());
  const NetDInstance inst = read_netd(net_in, are_in);

  EXPECT_EQ(inst.graph.num_vertices(), 3);
  EXPECT_EQ(inst.graph.num_nets(), 2);
  EXPECT_EQ(inst.graph.num_pads(), 1);
  EXPECT_EQ(inst.graph.num_pins(), g.num_pins());
  EXPECT_EQ(inst.graph.total_weight(), g.total_weight());
  const InstanceStats before = compute_stats(g);
  const InstanceStats after = compute_stats(inst.graph);
  EXPECT_EQ(before.num_external_nets, after.num_external_nets);
  EXPECT_EQ(before.max_cell_area, after.max_cell_area);
}

struct BadNetD {
  const char* label;
  const char* net;
  const char* are;
};

// Names the case by its label: the default byte dump would print the
// pointers, so the test's CTest name would change from build to build.
void PrintTo(const BadNetD& input, std::ostream* os) { *os << input.label; }

class IoNetDErrors : public ::testing::TestWithParam<BadNetD> {};

TEST_P(IoNetDErrors, Rejected) {
  std::istringstream net(GetParam().net);
  std::istringstream are(GetParam().are);
  EXPECT_THROW(read_netd(net, are), std::runtime_error) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, IoNetDErrors,
    ::testing::Values(
        BadNetD{"empty", "", ""},
        BadNetD{"pin count mismatch", "0\n9\n1\n2\n0\na0 s\np1 l\n", ""},
        BadNetD{"net count mismatch", "0\n2\n5\n2\n0\na0 s\np1 l\n", ""},
        BadNetD{"l before s", "0\n1\n1\n1\n0\na0 l\n", ""},
        BadNetD{"bad marker", "0\n1\n1\n1\n0\na0 x\n", ""},
        BadNetD{"bad direction", "0\n1\n1\n1\n0\na0 s Q\n", ""},
        BadNetD{"cell out of range", "0\n1\n1\n1\n0\na9 s\n", ""},
        BadNetD{"pad out of range", "0\n1\n1\n1\n0\np2 s\n", ""},
        BadNetD{"bad prefix", "0\n1\n1\n1\n0\nx0 s\n", ""},
        BadNetD{"bad are line", "0\n1\n1\n1\n0\na0 s\n", "a0\n"},
        BadNetD{"are names unknown module", "0\n1\n1\n1\n0\na0 s\n",
                "a5 3\n"}));

TEST(IoNetD, FileRoundTrip) {
  HypergraphBuilder b;
  b.add_vertex(1);
  b.add_vertex(2);
  b.add_net(std::vector<VertexId>{0, 1});
  const Hypergraph g = b.build();
  const std::string net_path = ::testing::TempDir() + "/x.netD";
  const std::string are_path = ::testing::TempDir() + "/x.are";
  write_netd_files(net_path, are_path, g);
  const NetDInstance inst = read_netd_files(net_path, are_path);
  EXPECT_EQ(inst.graph.num_vertices(), 2);
  EXPECT_THROW(read_netd_files("/nope.netD", are_path), std::runtime_error);
  EXPECT_THROW(read_netd_files(net_path, "/nope.are"), std::runtime_error);
}

}  // namespace
}  // namespace fixedpart::hg

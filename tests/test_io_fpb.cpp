#include "hg/io_bookshelf.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>

#include "hg/builder.hpp"

namespace fixedpart::hg {
namespace {

BenchmarkInstance sample_instance() {
  BenchmarkInstance inst;
  HypergraphBuilder b(2);
  const Weight w0[] = {10, 1};
  const Weight w1[] = {20, 2};
  const Weight w2[] = {0, 0};
  b.add_vertex(std::span<const Weight>(w0, 2));
  b.add_vertex(std::span<const Weight>(w1, 2));
  b.add_vertex(std::span<const Weight>(w2, 2), /*is_pad=*/true);
  b.add_net(std::vector<VertexId>{0, 1}, 1);
  b.add_net(std::vector<VertexId>{1, 2}, 3);
  inst.graph = b.build();
  inst.num_parts = 4;
  inst.fixed = FixedAssignment(3, 4);
  inst.fixed.fix(2, 1);
  inst.fixed.restrict_to(1, 0b0101);  // p0|p2
  inst.balance.relative = true;
  inst.balance.tolerance_pct = 5.0;
  inst.names = {"a", "b", "pad0"};
  return inst;
}

TEST(IoFpb, RoundTripRelative) {
  const BenchmarkInstance inst = sample_instance();
  std::ostringstream out;
  write_fpb(out, inst);
  std::istringstream in(out.str());
  const BenchmarkInstance got = read_fpb(in);

  EXPECT_EQ(got.graph.num_vertices(), 3);
  EXPECT_EQ(got.graph.num_nets(), 2);
  EXPECT_EQ(got.graph.num_resources(), 2);
  EXPECT_EQ(got.num_parts, 4);
  EXPECT_EQ(got.graph.vertex_weight(1, 1), 2);
  EXPECT_TRUE(got.graph.is_pad(2));
  EXPECT_EQ(got.names, inst.names);
  EXPECT_TRUE(got.balance.relative);
  EXPECT_DOUBLE_EQ(got.balance.tolerance_pct, 5.0);
  EXPECT_EQ(got.fixed.fixed_part(2), 1);
  EXPECT_EQ(got.fixed.allowed_mask(1), 0b0101u);
  EXPECT_FALSE(got.fixed.is_restricted(0));
  EXPECT_EQ(got.graph.net_weight(1), 3);
}

TEST(IoFpb, RoundTripAbsoluteCapacities) {
  BenchmarkInstance inst = sample_instance();
  inst.balance.relative = false;
  inst.balance.capacities = {
      {.part = 0, .resource = 0, .min = 0, .max = 25},
      {.part = 1, .resource = 1, .min = 1, .max = 2},
  };
  std::ostringstream out;
  write_fpb(out, inst);
  std::istringstream in(out.str());
  const BenchmarkInstance got = read_fpb(in);
  ASSERT_FALSE(got.balance.relative);
  ASSERT_EQ(got.balance.capacities.size(), 2u);
  EXPECT_EQ(got.balance.capacities[0].max, 25);
  EXPECT_EQ(got.balance.capacities[1].part, 1);
  EXPECT_EQ(got.balance.capacities[1].resource, 1);
}

TEST(IoFpb, OrSetParsing) {
  std::istringstream in(
      "FPB 1.0\n"
      "resources 1\n"
      "vertices 2\n"
      "u 1\n"
      "v 2 pad\n"
      "nets 1\n"
      "1 2 u v\n"
      "partitions 3\n"
      "tolerance 2\n"
      "fixed 1\n"
      "v p0|p2\n");
  const BenchmarkInstance got = read_fpb(in);
  EXPECT_EQ(got.fixed.allowed_mask(1), 0b101u);
  EXPECT_TRUE(got.graph.is_pad(1));
}

TEST(IoFpb, CommentsIgnored) {
  std::istringstream in(
      "# leading comment\n"
      "FPB 1.0\n"
      "resources 1\n"
      "vertices 1\n"
      "# vertex section\n"
      "u 1\n"
      "nets 0\n"
      "partitions 2\n"
      "tolerance 2\n"
      "fixed 0\n");
  const BenchmarkInstance got = read_fpb(in);
  EXPECT_EQ(got.graph.num_vertices(), 1);
}

TEST(IoFpb, DefaultNames) {
  const auto names = default_names(3);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "v0");
  EXPECT_EQ(names[2], "v2");
}

struct BadInput {
  const char* label;
  const char* text;
};

// Names the case by its label: the default byte dump would print the two
// pointers, so the test's CTest name would change from build to build.
void PrintTo(const BadInput& input, std::ostream* os) { *os << input.label; }

class IoFpbErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(IoFpbErrors, Rejected) {
  std::istringstream in(GetParam().text);
  EXPECT_THROW(read_fpb(in), std::runtime_error) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, IoFpbErrors,
    ::testing::Values(
        BadInput{"empty", ""},
        BadInput{"bad magic", "XPB 1.0\n"},
        BadInput{"bad version", "FPB 9.9\n"},
        BadInput{"dup vertex",
                 "FPB 1.0\nresources 1\nvertices 2\nu 1\nu 1\n"},
        BadInput{"unknown net pin",
                 "FPB 1.0\nresources 1\nvertices 1\nu 1\nnets 1\n1 2 u w\n"},
        BadInput{"trailing vertex token",
                 "FPB 1.0\nresources 1\nvertices 1\nu 1 junk\n"},
        BadInput{"missing balance",
                 "FPB 1.0\nresources 1\nvertices 1\nu 1\nnets 0\n"
                 "partitions 2\n"},
        BadInput{"bad partition token",
                 "FPB 1.0\nresources 1\nvertices 1\nu 1\nnets 0\n"
                 "partitions 2\ntolerance 2\nfixed 1\nu q0\n"},
        BadInput{"part out of range",
                 "FPB 1.0\nresources 1\nvertices 1\nu 1\nnets 0\n"
                 "partitions 2\ntolerance 2\nfixed 1\nu p5\n"},
        BadInput{"unknown fixed vertex",
                 "FPB 1.0\nresources 1\nvertices 1\nu 1\nnets 0\n"
                 "partitions 2\ntolerance 2\nfixed 1\nw p0\n"},
        BadInput{"too many partitions",
                 "FPB 1.0\nresources 1\nvertices 0\nnets 0\npartitions 99\n"
                 "tolerance 2\nfixed 0\n"}));

TEST(IoFpb, WriteRejectsNameMismatch) {
  BenchmarkInstance inst = sample_instance();
  inst.names.pop_back();
  std::ostringstream out;
  EXPECT_THROW(write_fpb(out, inst), std::invalid_argument);
}

TEST(IoFpb, FileRoundTrip) {
  const BenchmarkInstance inst = sample_instance();
  const std::string path = ::testing::TempDir() + "/inst.fpb";
  write_fpb_file(path, inst);
  const BenchmarkInstance got = read_fpb_file(path);
  EXPECT_EQ(got.graph.num_vertices(), 3);
  EXPECT_THROW(read_fpb_file("/nonexistent/x.fpb"), std::runtime_error);
}

}  // namespace
}  // namespace fixedpart::hg

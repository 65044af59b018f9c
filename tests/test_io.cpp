// Mesh and PSLG I/O round trips.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "delaunay/triangulator.hpp"
#include "io/mesh_io.hpp"
#include "core/timer.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per process: ctest runs each case in its own process, concurrently.
    dir_ = std::filesystem::temp_directory_path() /
           ("aeromesh_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

MergedMesh small_mesh() {
  const auto r = triangulate_points({{0, 0}, {2, 0}, {1, 2}, {1, 0.7}});
  MergedMesh m;
  m.append(r.mesh);
  return m;
}

TEST_F(IoTest, VtkContainsAllCells) {
  const MergedMesh m = small_mesh();
  write_vtk(m, path("mesh.vtk"));
  std::ifstream f(path("mesh.vtk"));
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("POINTS 4 double"), std::string::npos);
  EXPECT_NE(content.find("CELLS 3 12"), std::string::npos);
  EXPECT_NE(content.find("CELL_TYPES 3"), std::string::npos);
}

TEST_F(IoTest, VtkWithScalars) {
  const MergedMesh m = small_mesh();
  const std::vector<double> field{1.0, 2.0, 3.0, 4.0};
  write_vtk(m, path("field.vtk"), &field, "pressure");
  std::ifstream f(path("field.vtk"));
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("SCALARS pressure double 1"), std::string::npos);
  const std::vector<double> short_field{1.0};
  EXPECT_THROW(write_vtk(m, path("bad.vtk"), &short_field, "x"),
               std::invalid_argument);
}

TEST_F(IoTest, NodeEleFormat) {
  const MergedMesh m = small_mesh();
  write_node_ele(m, path("mesh"));
  std::ifstream nodes(path("mesh") + ".node");
  std::size_t np, dim, a, b;
  nodes >> np >> dim >> a >> b;
  EXPECT_EQ(np, 4u);
  EXPECT_EQ(dim, 2u);
  std::ifstream eles(path("mesh") + ".ele");
  std::size_t nt, per;
  eles >> nt >> per;
  EXPECT_EQ(nt, 3u);
  EXPECT_EQ(per, 3u);
}

TEST_F(IoTest, BinaryDumpSized) {
  const MergedMesh m = small_mesh();
  write_binary(m, path("mesh.bin"));
  const auto size = std::filesystem::file_size(path("mesh.bin"));
  EXPECT_EQ(size, 16u + 4u * 16u + 3u * 12u);
}

TEST_F(IoTest, PolyRoundTrip) {
  Pslg p;
  p.points = {{0, 0}, {1.5, 0}, {1.5, 2.25}, {0, 2.25}, {0.5, 0.5}};
  p.segments = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  p.holes = {{0.75, 1.0}};
  p.point_markers = {1, 1, 1, 1, 0};
  write_poly(p, path("domain.poly"));
  const Pslg q = read_poly(path("domain.poly"));
  EXPECT_EQ(q.points, p.points);
  EXPECT_EQ(q.segments, p.segments);
  EXPECT_EQ(q.holes, p.holes);
  EXPECT_EQ(q.point_markers, p.point_markers);
}

// The unit square in Triangle's .poly format, vertices numbered from 0 and
// from 1, and two files whose vertex numbers do not add up.
constexpr const char* kSquareFrom0 =
    "4 2 0 0\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n"
    "4 0\n0 0 1\n1 1 2\n2 2 3\n3 3 0\n0\n";
constexpr const char* kSquareFrom1 =
    "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0 1\n"
    "4 0\n1 1 2\n2 2 3\n3 3 4\n4 4 1\n0\n";
constexpr const char* kEndpointPastTheVertices =
    "4 2 0 0\n0 0 0\n1 1 0\n2 1 1\n3 0 1\n"
    "4 0\n0 0 1\n1 1 2\n2 2 3\n3 3 4\n0\n";
constexpr const char* kSquareFrom2 =
    "4 2 0 0\n2 0 0\n3 1 0\n4 1 1\n5 0 1\n"
    "4 0\n2 2 3\n3 3 4\n4 4 5\n5 5 2\n0\n";

void write_text(const std::string& path, const char* text) {
  std::ofstream f(path);
  f << text;
}

TEST_F(IoTest, ReadPolyCountsSegmentsFromTheFirstVertexNumber) {
  write_text(path("from0.poly"), kSquareFrom0);
  write_text(path("from1.poly"), kSquareFrom1);
  const Pslg zero = read_poly(path("from0.poly"));
  const Pslg one = read_poly(path("from1.poly"));
  ASSERT_EQ(zero.segments.size(), 4u);
  EXPECT_EQ(zero.segments[3], (std::pair<std::uint32_t, std::uint32_t>{3, 0}));
  EXPECT_EQ(one.points, zero.points);
  EXPECT_EQ(one.segments, zero.segments);
  EXPECT_EQ(one.holes, zero.holes);
}

TEST_F(IoTest, ReadPolyRejectsGarbage) {
  write_text(path("bad.poly"), "not a poly file");
  EXPECT_THROW(read_poly(path("bad.poly")), std::runtime_error);
  EXPECT_THROW(read_poly(path("missing.poly")), std::runtime_error);
  // An endpoint past the vertex count crashed the CLI's loop walk, and a
  // first vertex number other than 0 or 1 is no numbering base at all.
  write_text(path("past.poly"), kEndpointPastTheVertices);
  write_text(path("from2.poly"), kSquareFrom2);
  EXPECT_THROW(read_poly(path("past.poly")), std::runtime_error);
  EXPECT_THROW(read_poly(path("from2.poly")), std::runtime_error);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(PhaseTimings, Accumulates) {
  PhaseTimings pt;
  pt.record("a", 1.5);
  pt.record("b", 2.5);
  EXPECT_EQ(pt.entries().size(), 2u);
  EXPECT_DOUBLE_EQ(pt.total(), 4.0);
}

}  // namespace
}  // namespace aero

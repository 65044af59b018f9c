#include "io/mesh_io.hpp"

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/mesh_view.hpp"

namespace aero {

namespace {

std::ofstream open_out(const std::string& path, bool binary = false) {
  std::ofstream f(path, binary ? std::ios::binary : std::ios::out);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  return f;
}

}  // namespace

void write_vtk(const MergedMesh& mesh, const std::string& path,
               const std::vector<double>* point_scalars,
               const std::string& scalar_name) {
  std::ofstream f = open_out(path);
  f << "# vtk DataFile Version 3.0\naeromesh\nASCII\n"
    << "DATASET UNSTRUCTURED_GRID\n";
  const MeshView view(mesh);
  const std::size_t np = view.point_count();
  f << "POINTS " << np << " double\n";
  for (std::uint32_t i = 0; i < np; ++i) {
    const Vec2 p = view.point(i);
    f << p.x << ' ' << p.y << " 0\n";
  }

  const std::size_t nt = view.triangle_count();
  f << "CELLS " << nt << ' ' << nt * 4 << '\n';
  view.for_each_tri_ids([&](const std::array<std::uint32_t, 3>& tri) {
    f << "3 " << tri[0] << ' ' << tri[1] << ' ' << tri[2] << '\n';
  });
  f << "CELL_TYPES " << nt << '\n';
  for (std::size_t t = 0; t < nt; ++t) f << "5\n";

  if (point_scalars) {
    if (point_scalars->size() != np) {
      throw std::invalid_argument("scalar field size mismatch");
    }
    f << "POINT_DATA " << np << "\nSCALARS " << scalar_name
      << " double 1\nLOOKUP_TABLE default\n";
    for (const double v : *point_scalars) f << v << '\n';
  }
}

void write_node_ele(const MergedMesh& mesh, const std::string& basename) {
  const MeshView view(mesh);
  {
    std::ofstream f = open_out(basename + ".node");
    f << view.point_count() << " 2 0 0\n";
    for (std::uint32_t i = 0; i < view.point_count(); ++i) {
      const Vec2 p = view.point(i);
      f << i << ' ' << p.x << ' ' << p.y << '\n';
    }
  }
  {
    std::ofstream f = open_out(basename + ".ele");
    f << view.triangle_count() << " 3 0\n";
    std::size_t id = 0;
    view.for_each_tri_ids([&](const std::array<std::uint32_t, 3>& tri) {
      f << id++ << ' ' << tri[0] << ' ' << tri[1] << ' ' << tri[2] << '\n';
    });
  }
}

void write_binary(const MergedMesh& mesh, const std::string& path) {
  // The on-disk .bin layout is the MeshView blob minus its tag+version
  // header: [np u64 | nt u64 | points | tris]. It predates the versioned
  // blob and external tooling reads it, so the bytes stay as they are.
  std::ofstream f = open_out(path, /*binary=*/true);
  const std::vector<std::uint8_t> blob = MeshView(mesh).serialize();
  f.write(reinterpret_cast<const char*>(blob.data() + 8),
          static_cast<std::streamsize>(blob.size() - 8));
}

void write_poly(const Pslg& pslg, const std::string& path) {
  std::ofstream f = open_out(path);
  f << pslg.points.size() << " 2 0 "
    << (pslg.point_markers.empty() ? 0 : 1) << '\n';
  for (std::size_t i = 0; i < pslg.points.size(); ++i) {
    f << i << ' ' << pslg.points[i].x << ' ' << pslg.points[i].y;
    if (!pslg.point_markers.empty()) f << ' ' << pslg.point_markers[i];
    f << '\n';
  }
  f << pslg.segments.size() << " 0\n";
  for (std::size_t i = 0; i < pslg.segments.size(); ++i) {
    f << i << ' ' << pslg.segments[i].first << ' ' << pslg.segments[i].second
      << '\n';
  }
  f << pslg.holes.size() << '\n';
  for (std::size_t i = 0; i < pslg.holes.size(); ++i) {
    f << i << ' ' << pslg.holes[i].x << ' ' << pslg.holes[i].y << '\n';
  }
}

Pslg read_poly(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  Pslg pslg;
  std::size_t np, dim, nattr, nmark;
  f >> np >> dim >> nattr >> nmark;
  if (!f || dim != 2) throw std::runtime_error("bad .poly header: " + path);
  pslg.points.resize(np);
  if (nmark) pslg.point_markers.resize(np);
  // Triangle's format numbers vertices from 0 or from 1; the first vertex
  // number sets the base the segment endpoints are counted from.
  std::size_t base = 0;
  for (std::size_t i = 0; i < np; ++i) {
    std::size_t id;
    f >> id >> pslg.points[i].x >> pslg.points[i].y;
    if (i == 0) base = id;
    for (std::size_t a = 0; a < nattr; ++a) {
      double skip;
      f >> skip;
    }
    if (nmark) f >> pslg.point_markers[i];
  }
  if (base > 1) {
    throw std::runtime_error("bad .poly vertex numbering (first vertex " +
                             std::to_string(base) + ", not 0 or 1): " + path);
  }
  std::size_t ns, smark;
  f >> ns >> smark;
  pslg.segments.resize(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    std::size_t id, a, b;
    f >> id >> a >> b;
    if (!f) break;  // reported as a truncated file below
    if (a < base || a - base >= np || b < base || b - base >= np) {
      throw std::runtime_error("segment " + std::to_string(i) +
                               " names a vertex outside the file: " + path);
    }
    pslg.segments[i] = {static_cast<std::uint32_t>(a - base),
                        static_cast<std::uint32_t>(b - base)};
    for (std::size_t m = 0; m < smark; ++m) {
      int skip;
      f >> skip;
    }
  }
  std::size_t nh;
  f >> nh;
  pslg.holes.resize(nh);
  for (std::size_t i = 0; i < nh; ++i) {
    std::size_t id;
    f >> id >> pslg.holes[i].x >> pslg.holes[i].y;
  }
  if (!f) throw std::runtime_error("truncated .poly file: " + path);
  return pslg;
}

}  // namespace aero

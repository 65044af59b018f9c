// MeshView read facade over the SoA mesh core: the versioned "AMSH" blob
// (golden bytes, round-trip, typed rejection), chunk-boundary growth of the
// backing arenas, and the 32-bit capacity ceiling.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/merged_mesh.hpp"
#include "core/mesh_view.hpp"
#include "delaunay/chunked.hpp"  // aerolint: allow(public-api) // aerolint: allow(mesh-internal-access)

namespace aero {
namespace {

MergedMesh two_triangle_mesh() {
  MergedMesh m;
  m.add_triangle({0, 0}, {1, 0}, {0, 1});
  m.add_triangle({1, 0}, {1, 1}, {0, 1});
  return m;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

TEST(MeshBlob, GoldenBytes) {
  // The serialized form is a wire/disk contract (service cache, checkpoint
  // journal); pin its exact layout, not just its round-trip behavior.
  const MergedMesh m = two_triangle_mesh();
  const std::vector<std::uint8_t> blob = MeshView(m).serialize();
  ASSERT_EQ(blob.size(),
            kMeshBlobHeaderSize + 4 * sizeof(Vec2) +
                2 * 3 * sizeof(std::uint32_t));
  EXPECT_EQ(blob[0], 'A');
  EXPECT_EQ(blob[1], 'M');
  EXPECT_EQ(blob[2], 'S');
  EXPECT_EQ(blob[3], 'H');
  std::uint32_t version;
  std::memcpy(&version, blob.data() + 4, 4);
  EXPECT_EQ(version, kMeshBlobVersion);
  EXPECT_EQ(get_u64(blob.data() + 8), 4u);   // welded points
  EXPECT_EQ(get_u64(blob.data() + 16), 2u);  // live triangles
  // Points in interned-id order: (0,0) (1,0) (0,1) (1,1).
  const double expect_coords[8] = {0, 0, 1, 0, 0, 1, 1, 1};
  double coords[8];
  std::memcpy(coords, blob.data() + kMeshBlobHeaderSize, sizeof(coords));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(coords[i], expect_coords[i]);
  // Connectivity by interned id: {0,1,2} then {1,3,2}.
  const std::uint32_t expect_ids[6] = {0, 1, 2, 1, 3, 2};
  std::uint32_t ids[6];
  std::memcpy(ids, blob.data() + kMeshBlobHeaderSize + sizeof(expect_coords),
              sizeof(ids));
  for (int i = 0; i < 6; ++i) EXPECT_EQ(ids[i], expect_ids[i]);
}

TEST(MeshBlob, RoundTripThroughOwningView) {
  MergedMesh m = two_triangle_mesh();
  m.add_triangle({1, 1}, {2, 1}, {1, 2});
  m.kill(1);  // dead records are dropped from the blob
  const std::vector<std::uint8_t> blob = MeshView(m).serialize();

  MeshView back;
  ASSERT_EQ(MeshView::parse(blob, back), MeshBlobStatus::kOk);
  EXPECT_EQ(back.point_count(), m.point_count());
  EXPECT_EQ(back.triangle_count(), m.triangle_count());
  // The owning view re-serializes to the same bytes: serialization is a
  // fixed point, which is what lets the service cache store blobs produced
  // by either kind of view interchangeably.
  EXPECT_EQ(back.serialize(), blob);
}

TEST(MeshBlob, TypedRejection) {
  const std::vector<std::uint8_t> blob = MeshView(two_triangle_mesh()).serialize();

  EXPECT_EQ(mesh_blob_status(blob.data(), 7), MeshBlobStatus::kTruncated);

  std::vector<std::uint8_t> bad = blob;
  bad[0] = 'X';
  EXPECT_EQ(mesh_blob_status(bad), MeshBlobStatus::kBadMagic);

  bad = blob;
  bad[4] = 0xee;  // future layout version
  EXPECT_EQ(mesh_blob_status(bad), MeshBlobStatus::kBadVersion);

  bad = blob;
  bad.pop_back();  // counts no longer match the payload size
  EXPECT_EQ(mesh_blob_status(bad), MeshBlobStatus::kCountMismatch);

  MeshView out;
  EXPECT_EQ(MeshView::parse(bad, out), MeshBlobStatus::kCountMismatch);
  EXPECT_EQ(out.point_count(), 0u);
  EXPECT_EQ(out.triangle_count(), 0u);

  bad = blob;
  bad[15] = 0x10;  // 2^60 points: the size check must not wrap around
  EXPECT_EQ(mesh_blob_status(bad), MeshBlobStatus::kCountMismatch);

  bad = blob;
  bad[bad.size() - 4] = 0xff;  // the last triangle names a missing point
  EXPECT_EQ(mesh_blob_status(bad), MeshBlobStatus::kOk);
  EXPECT_EQ(MeshView::parse(bad, out), MeshBlobStatus::kBadIndex);
  EXPECT_EQ(out.triangle_count(), 0u);
}

TEST(ChunkedStorage, GrowthCrossesChunkBoundaryWithoutRelocation) {
  // Small chunks (2^2 = 4 elements) so the test exercises many boundaries.
  ChunkedArray<int, 2> a;  // aerolint: allow(mesh-internal-access)
  std::vector<const int*> addrs;
  for (int i = 0; i < 25; ++i) {
    a.push_back(i);
    addrs.push_back(&a[static_cast<std::size_t>(i)]);
  }
  ASSERT_EQ(a.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)], i);
    // Grow-only chunks never relocate: the address captured at insertion
    // time stays valid (this is what lets readers hold references across
    // concurrent appends).
    EXPECT_EQ(&a[static_cast<std::size_t>(i)], addrs[static_cast<std::size_t>(i)]);
  }
}

TEST(MeshView, SerializeAcrossDefaultChunkBoundary) {
  // Push the point arena past its first 2^14-element chunk and check the
  // chunk-wise blob copy against the element-wise accessors.
  MergedMesh m;
  const int side = 140;  // (side+1)^2 = 19881 points > 16384
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const Vec2 a{static_cast<double>(x), static_cast<double>(y)};
      const Vec2 b{static_cast<double>(x + 1), static_cast<double>(y)};
      const Vec2 c{static_cast<double>(x), static_cast<double>(y + 1)};
      m.add_triangle(a, b, c);
    }
  }
  ASSERT_GT(m.point_count(), ChunkedArray<Vec2>::kChunkSize);  // aerolint: allow(mesh-internal-access)

  const std::vector<std::uint8_t> blob = MeshView(m).serialize();
  MeshView back;
  ASSERT_EQ(MeshView::parse(blob, back), MeshBlobStatus::kOk);
  ASSERT_EQ(back.point_count(), m.point_count());
  ASSERT_EQ(back.triangle_count(), m.triangle_count());
  for (std::uint32_t i = 0; i < m.point_count(); ++i) {
    ASSERT_EQ(back.point(i).x, m.point(i).x);
    ASSERT_EQ(back.point(i).y, m.point(i).y);
  }
  for (std::size_t t = 0; t < m.record_count(); ++t) {
    ASSERT_EQ(back.tri(t), m.tri(t));
  }
}

TEST(MergedMesh, CapacityCeilingThrowsMeshTooLarge) {
  MergedMesh m;
  m.set_capacity_limit_for_test(3);
  // Exactly at the ceiling is fine: ids 0..2.
  m.add_triangle({0, 0}, {1, 0}, {0, 1});
  EXPECT_EQ(m.point_count(), 3u);
  // Re-interning existing coordinates allocates no ids and must not throw.
  m.add_triangle({0, 0}, {1, 0}, {0, 1});
  // The first new coordinate past the ceiling throws the typed overflow.
  EXPECT_THROW(m.add_point({2, 2}), MeshTooLargeError);
  EXPECT_THROW(m.add_triangle({0, 0}, {1, 0}, {5, 5}), MeshTooLargeError);
  // The mesh already assembled stays intact after the rejection.
  EXPECT_EQ(m.point_count(), 3u);
  EXPECT_EQ(m.triangle_count(), 2u);
}

}  // namespace
}  // namespace aero

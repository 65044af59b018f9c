#include "delaunay/brio.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "geom/bbox.hpp"

namespace aero {

namespace {

/// Grid resolution of the Hilbert sort. 2^16 cells per axis is far below
/// double precision but far above what locality needs: points sharing a
/// cell are inserted consecutively anyway.
constexpr int kHilbertOrder = 16;

}  // namespace

std::uint64_t hilbert_d(std::uint32_t x, std::uint32_t y, int order) {
  std::uint64_t d = 0;
  for (std::uint32_t s = 1u << (order - 1); s > 0; s >>= 1) {
    const std::uint32_t rx = (x & s) ? 1u : 0u;
    const std::uint32_t ry = (y & s) ? 1u : 0u;
    d += static_cast<std::uint64_t>(s) * s * ((3u * rx) ^ ry);
    // Rotate the quadrant so the curve stays continuous.
    if (ry == 0) {
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

std::vector<std::uint32_t> brio_order(const std::vector<Vec2>& pts) {
  const std::size_t n = pts.size();
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  if (n < 2) return perm;

  BBox2 box{pts[0], pts[0]};
  for (const Vec2 p : pts) box.expand(p);
  const double w = box.hi.x - box.lo.x;
  const double h = box.hi.y - box.lo.y;
  const double sx = w > 0.0 ? ((1u << kHilbertOrder) - 1) / w : 0.0;
  const double sy = h > 0.0 ? ((1u << kHilbertOrder) - 1) / h : 0.0;

  // Rounds: every point flips a fair coin per round, so round `r` (counted
  // from the last) keeps a fraction ~2^-(r+1) of the points. Small inputs
  // take a single round (pure Hilbert order); the cap keeps the first round
  // from degenerating below a useful seed size.
  int nrounds = 1;
  while ((n >> (nrounds + 5)) > 0 && nrounds < 24) ++nrounds;

  struct Key {
    std::uint8_t round;
    std::uint64_t hilbert;
  };
  std::vector<Key> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int heads =
        std::countr_one(splitmix64(static_cast<std::uint64_t>(i)));
    const int round = std::max(0, nrounds - 1 - heads);
    const auto gx = static_cast<std::uint32_t>((pts[i].x - box.lo.x) * sx);
    const auto gy = static_cast<std::uint32_t>((pts[i].y - box.lo.y) * sy);
    keys[i] = {static_cast<std::uint8_t>(round),
               hilbert_d(gx, gy, kHilbertOrder)};
  }
  std::sort(perm.begin(), perm.end(),
            [&keys](std::uint32_t a, std::uint32_t b) {
              if (keys[a].round != keys[b].round) {
                return keys[a].round < keys[b].round;
              }
              if (keys[a].hilbert != keys[b].hilbert) {
                return keys[a].hilbert < keys[b].hilbert;
              }
              return a < b;  // deterministic tiebreak
            });
  return perm;
}

}  // namespace aero

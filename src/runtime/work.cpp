#include "runtime/work.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

#include "core/crc32.hpp"

namespace aero {

namespace {

class Writer {
 public:
  /// `capacity` sizes the buffer exactly.
  explicit Writer(std::size_t capacity) { bytes_.reserve(capacity); }
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  void put_points(const std::vector<Vec2>& pts) {
    put<std::uint64_t>(pts.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(pts.data());
    bytes_.insert(bytes_.end(), p, p + pts.size() * sizeof(Vec2));
  }
  void put_piece(const MeshView& piece) {
    bytes_ = piece.serialize(std::move(bytes_));
  }
  /// Append the CRC-32 trailer and hand out the framed payload.
  std::vector<std::uint8_t> take() {
    put<std::uint32_t>(crc32(bytes_.data(), bytes_.size()));
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  /// Validates the CRC-32 trailer up front; the readable range excludes it.
  Reader(const std::uint8_t* data, std::size_t n) : data_(data) {
    if (n < sizeof(std::uint32_t)) {
      throw std::runtime_error("work unit payload truncated");
    }
    end_ = n - sizeof(std::uint32_t);
    std::uint32_t stored;
    std::memcpy(&stored, data_ + end_, sizeof(stored));
    if (stored != crc32(data_, end_)) {
      throw std::runtime_error("work unit payload corrupt (CRC-32 mismatch)");
    }
  }
  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > end_) {
      throw std::runtime_error("work unit payload truncated");
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::vector<Vec2> get_points() {
    const auto n = get<std::uint64_t>();
    if (pos_ + n * sizeof(Vec2) > end_) {
      throw std::runtime_error("work unit payload truncated");
    }
    std::vector<Vec2> pts(n);
    // An empty vector's data() may be null, which memcpy forbids even for
    // zero bytes.
    if (n > 0) std::memcpy(pts.data(), data_ + pos_, n * sizeof(Vec2));
    pos_ += n * sizeof(Vec2);
    return pts;
  }
  /// The rest of the payload as an "AMSH" mesh piece.
  MeshView get_piece() {
    MeshView piece;
    if (MeshView::parse(data_ + pos_, end_ - pos_, piece) !=
        MeshBlobStatus::kOk) {
      throw std::runtime_error("work unit payload holds no mesh piece");
    }
    pos_ = end_;
    return piece;
  }

 private:
  const std::uint8_t* data_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

}  // namespace

std::size_t serialized_size(const WorkUnit& unit) {
  std::size_t n = 8 + 8 + 1;  // id, failed_ranks, kind
  if (unit.kind == WorkUnit::Kind::kBlDecompose) {
    const Subdomain& s = unit.bl;
    n += 4 + 1 + 8;                                  // level, final_, ncuts
    n += s.cuts.size() * (1 + 8 + 1);                // axis, line, keep_left
    n += 8 + s.xsorted.size() * sizeof(Vec2);        // xsorted
    if (!s.final_) n += 8 + s.ysorted.size() * sizeof(Vec2);
  } else {
    const InviscidSubdomain& s = unit.inv;
    n += 4 + s.corners.size() * 8;                   // level, corners
    n += 8 + s.border.size() * sizeof(Vec2);
    n += 8 + s.hole_segments.size() * 2 * sizeof(Vec2);
    n += 8 + s.hole_seeds.size() * sizeof(Vec2);
  }
  return n + 4;  // CRC trailer
}

std::size_t serialized_size(const MeshView& piece) {
  return piece.serialized_size() + 4;  // CRC trailer
}

std::vector<std::uint8_t> serialize(const WorkUnit& unit) {
  Writer w(serialized_size(unit));
  w.put<std::uint64_t>(unit.id);
  w.put<std::uint64_t>(unit.failed_ranks);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(unit.kind));
  if (unit.kind == WorkUnit::Kind::kBlDecompose) {
    const Subdomain& s = unit.bl;
    w.put<std::int32_t>(s.level);
    w.put<std::uint8_t>(s.final_ ? 1 : 0);
    w.put<std::uint64_t>(s.cuts.size());
    for (const Cut& c : s.cuts) {
      w.put<std::uint8_t>(c.axis == CutAxis::kVertical ? 1 : 0);
      w.put<double>(c.line);
      w.put<std::uint8_t>(c.keep_left ? 1 : 0);
    }
    w.put_points(s.xsorted);
    if (!s.final_) w.put_points(s.ysorted);
  } else {
    const InviscidSubdomain& s = unit.inv;
    w.put<std::int32_t>(s.level);
    for (const std::size_t c : s.corners) w.put<std::uint64_t>(c);
    w.put_points(s.border);
    w.put<std::uint64_t>(s.hole_segments.size());
    for (const auto& [a, b] : s.hole_segments) {
      w.put<Vec2>(a);
      w.put<Vec2>(b);
    }
    w.put_points(s.hole_seeds);
  }
  return w.take();
}

WorkUnit deserialize_work(const std::uint8_t* data, std::size_t n) {
  Reader r(data, n);
  WorkUnit unit;
  unit.id = r.get<std::uint64_t>();
  unit.failed_ranks = r.get<std::uint64_t>();
  unit.kind = static_cast<WorkUnit::Kind>(r.get<std::uint8_t>());
  if (unit.kind == WorkUnit::Kind::kBlDecompose) {
    Subdomain& s = unit.bl;
    s.level = r.get<std::int32_t>();
    s.final_ = r.get<std::uint8_t>() != 0;
    const auto ncuts = r.get<std::uint64_t>();
    s.cuts.resize(ncuts);
    for (auto& c : s.cuts) {
      c.axis = r.get<std::uint8_t>() ? CutAxis::kVertical
                                     : CutAxis::kHorizontal;
      c.line = r.get<double>();
      c.keep_left = r.get<std::uint8_t>() != 0;
    }
    s.xsorted = r.get_points();
    if (!s.final_) s.ysorted = r.get_points();
  } else {
    InviscidSubdomain& s = unit.inv;
    s.level = r.get<std::int32_t>();
    for (auto& c : s.corners) c = r.get<std::uint64_t>();
    s.border = r.get_points();
    const auto nholes = r.get<std::uint64_t>();
    s.hole_segments.resize(nholes);
    for (auto& [a, b] : s.hole_segments) {
      a = r.get<Vec2>();
      b = r.get<Vec2>();
    }
    s.hole_seeds = r.get_points();
  }
  return unit;
}

WorkUnit deserialize_work(const std::vector<std::uint8_t>& bytes) {
  return deserialize_work(bytes.data(), bytes.size());
}

std::vector<std::uint8_t> serialize_piece(const MeshView& piece) {
  Writer w(serialized_size(piece));
  w.put_piece(piece);
  return w.take();
}

MeshView deserialize_piece(const std::uint8_t* data, std::size_t n) {
  return Reader(data, n).get_piece();
}

MeshView deserialize_piece(const std::vector<std::uint8_t>& bytes) {
  return deserialize_piece(bytes.data(), bytes.size());
}

}  // namespace aero

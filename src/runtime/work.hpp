#pragma once

#include <cstdint>
#include <vector>

#include "core/subdomain_tree.hpp"

namespace aero {

/// Exact size in bytes of serialize(unit) including the CRC trailer (and of
/// serialize_piece(piece)). The serializers reserve it up front, so they
/// write once into a right-sized buffer and never reallocate.
std::size_t serialized_size(const WorkUnit& unit);
std::size_t serialized_size(const MeshView& piece);

/// Serialize a work unit for transfer to another rank. Finalized
/// boundary-layer subdomains ship only their x-sorted vertices (the paper's
/// communication optimization); unfinalized ones also ship the y-sorted
/// copy. Projected coordinates are never shipped -- they depend on the next
/// median vertex and are recomputed after transfer. The payload ends with a
/// CRC-32 trailer; `deserialize_work` throws `std::runtime_error` on a
/// truncated or corrupted payload.
std::vector<std::uint8_t> serialize(const WorkUnit& unit);
WorkUnit deserialize_work(const std::uint8_t* data, std::size_t n);
WorkUnit deserialize_work(const std::vector<std::uint8_t>& bytes);

/// Serialize a mesh piece for the result gather: its "AMSH" blob followed by
/// the same CRC-32 trailer as work-unit payloads.
/// `deserialize_piece` throws `std::runtime_error` on a truncated or
/// corrupted payload, or one whose blob MeshView::parse rejects.
std::vector<std::uint8_t> serialize_piece(const MeshView& piece);
MeshView deserialize_piece(const std::uint8_t* data, std::size_t n);
MeshView deserialize_piece(const std::vector<std::uint8_t>& bytes);

}  // namespace aero

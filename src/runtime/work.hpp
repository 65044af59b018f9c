#pragma once

#include <cstdint>
#include <vector>

#include "core/subdomain_tree.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/bytes.hpp"

namespace aero {

/// Exact size in bytes of serialize(unit) including the CRC trailer (and of
/// serialize_piece(piece)). Lets the transport size a pooled buffer before
/// serializing, so the hot path writes once into a right-sized buffer and
/// never reallocates.
std::size_t serialized_size(const WorkUnit& unit);
std::size_t serialized_size(const MeshView& piece);

/// Serialize a work unit for transfer to another rank. Finalized
/// boundary-layer subdomains ship only their x-sorted vertices (the paper's
/// communication optimization); unfinalized ones also ship the y-sorted
/// copy. Projected coordinates are never shipped -- they depend on the next
/// median vertex and are recomputed after transfer. The payload ends with a
/// CRC-32 trailer; `deserialize_work` throws `std::runtime_error` on a
/// truncated or corrupted payload. `pool` (optional) recycles the output
/// buffer.
std::vector<std::uint8_t> serialize(const WorkUnit& unit,
                                    BufferPool* pool = nullptr);
WorkUnit deserialize_work(const std::uint8_t* data, std::size_t n);
WorkUnit deserialize_work(const std::vector<std::uint8_t>& bytes);
WorkUnit deserialize_work(const ByteBuf& bytes);

/// Serialize a mesh piece for the result gather: its "AMSH" blob followed by
/// the same CRC-32 trailer / pool contract as work-unit payloads.
/// `deserialize_piece` throws `std::runtime_error` on a truncated or
/// corrupted payload, or one whose blob MeshView::parse rejects.
std::vector<std::uint8_t> serialize_piece(const MeshView& piece,
                                          BufferPool* pool = nullptr);
MeshView deserialize_piece(const std::uint8_t* data, std::size_t n);
MeshView deserialize_piece(const std::vector<std::uint8_t>& bytes);

}  // namespace aero

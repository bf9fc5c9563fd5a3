#pragma once
// Byte-buffer helpers shared across the library.
//
// `Bytes` is the canonical octet-string type used for wire encodings, hash
// inputs/outputs, keys, and signatures.  All multi-byte integers written by
// these helpers use network byte order (big-endian) so that canonical
// serializations are platform independent.

#include <cstdint>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tactic::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Appends a big-endian integer of the given width to `out`.
void append_u8(Bytes& out, std::uint8_t v);
void append_u16(Bytes& out, std::uint16_t v);
void append_u32(Bytes& out, std::uint32_t v);
void append_u64(Bytes& out, std::uint64_t v);

/// Appends raw bytes / a UTF-8 string verbatim.
void append_bytes(Bytes& out, BytesView data);
void append_string(Bytes& out, std::string_view s);

/// Appends a length-prefixed (u32 big-endian) octet string.  Length
/// prefixing makes concatenated encodings non-ambiguous (no field can
/// impersonate the boundary of another), which matters for signed inputs.
void append_lv(Bytes& out, BytesView data);
void append_lv(Bytes& out, std::string_view s);

/// Reads a big-endian integer starting at `offset`.  The caller must
/// guarantee the buffer is large enough; `read_*` are bounds-checked and
/// throw std::out_of_range on short input.
std::uint16_t read_u16(BytesView in, std::size_t offset);
std::uint32_t read_u32(BytesView in, std::size_t offset);
std::uint64_t read_u64(BytesView in, std::size_t offset);

/// Lowercase hex encoding / decoding.  `from_hex` throws
/// std::invalid_argument on odd length or non-hex characters.
std::string to_hex(BytesView data);
Bytes from_hex(std::string_view hex);

/// Converts a string to its byte representation (no copy of encoding
/// semantics implied; bytes are taken verbatim).
Bytes to_bytes(std::string_view s);

/// Constant-time equality for secret-dependent comparisons (MACs, tags).
bool constant_time_equal(BytesView a, BytesView b);

/// Hash functor for unordered containers keyed on Bytes (digests, keys).
struct BytesHash {
  std::size_t operator()(BytesView data) const noexcept {
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char*>(data.data()), data.size()));
  }
};

}  // namespace tactic::util

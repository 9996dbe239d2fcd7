// Growable byte buffer with separate read/write cursors, used as the
// universal carrier between codecs (XDR, BASE64, SOAP) and transports
// (HTTP, XDR sockets, SimNetwork links). Numeric accessors exist in both
// big-endian (network/XDR order) and little-endian (host-raw) flavours so
// wire formats are byte-exact rather than memcpy-of-struct approximations.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace h2 {

/// Converts an unsigned integer between host and big-endian (network/XDR)
/// byte order; the conversion is its own inverse.
template <typename T>
constexpr T big_endian(T v) {
  static_assert(std::is_unsigned_v<T> && sizeof(T) <= 8);
  if constexpr (std::endian::native == std::endian::big || sizeof(T) == 1) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::uint8_t> data) : data_(std::move(data)) {}
  explicit ByteBuffer(std::string_view text)
      : data_(text.begin(), text.end()) {}

  // ---- introspection -------------------------------------------------------

  /// Total bytes written so far (independent of the read cursor).
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  /// Bytes remaining between the read cursor and the end.
  std::size_t remaining() const { return data_.size() - read_pos_; }
  std::size_t read_position() const { return read_pos_; }

  const std::uint8_t* data() const { return data_.data(); }
  std::span<const std::uint8_t> bytes() const { return {data_.data(), data_.size()}; }
  std::span<const std::uint8_t> unread() const {
    return {data_.data() + read_pos_, remaining()};
  }

  /// Whole contents viewed as text (for HTTP/XML payloads).
  std::string_view as_string_view() const {
    return {reinterpret_cast<const char*>(data_.data()), data_.size()};
  }
  std::string to_string() const { return std::string(as_string_view()); }

  void clear() {
    data_.clear();
    read_pos_ = 0;
  }
  void reserve(std::size_t n) { data_.reserve(n); }

  /// Moves the read cursor. Positions past the end are clamped.
  void seek(std::size_t pos) { read_pos_ = pos > data_.size() ? data_.size() : pos; }

  // ---- writing -------------------------------------------------------------

  void write_u8(std::uint8_t v) { data_.push_back(v); }
  void write_bytes(std::span<const std::uint8_t> bytes) {
    data_.insert(data_.end(), bytes.begin(), bytes.end());
  }
  void write_string(std::string_view s) {
    data_.insert(data_.end(), s.begin(), s.end());
  }
  /// Appends `count` copies of `fill` (XDR padding, HTTP spacing).
  void write_fill(std::size_t count, std::uint8_t fill = 0) {
    data_.insert(data_.end(), count, fill);
  }

  void write_u16_be(std::uint16_t v);
  void write_u32_be(std::uint32_t v);
  /// Overwrites 4 already-written bytes at `offset` with `v` in big-endian
  /// order (length backpatching for frames whose size is known only after
  /// the payload is written). `offset + 4` must not exceed size().
  void patch_u32_be(std::size_t offset, std::uint32_t v) {
    const std::uint32_t wire = big_endian(v);
    std::memcpy(data_.data() + offset, &wire, sizeof(wire));
  }
  void write_u64_be(std::uint64_t v);
  void write_u32_le(std::uint32_t v);
  void write_u64_le(std::uint64_t v);
  /// IEEE-754 bits in big-endian byte order (XDR float/double encoding).
  void write_f32_be(float v);
  void write_f64_be(double v);
  /// Bulk write_f64_be: one resize, then one byteswap loop over `values`.
  void write_f64s_be(std::span<const double> values);
  void write_f64_le(double v);

  // ---- reading -------------------------------------------------------------
  // All reads return Result and never read past the end.

  Result<std::uint8_t> read_u8();
  Result<std::uint16_t> read_u16_be();
  Result<std::uint32_t> read_u32_be();
  Result<std::uint64_t> read_u64_be();
  Result<std::uint32_t> read_u32_le();
  Result<std::uint64_t> read_u64_le();
  Result<float> read_f32_be();
  Result<double> read_f64_be();
  Result<double> read_f64_le();

  /// Copies `n` bytes out; fails with kParseError if fewer remain.
  Result<std::vector<std::uint8_t>> read_bytes(std::size_t n);
  Result<std::string> read_string(std::size_t n);
  /// Advances the cursor without copying.
  Status skip(std::size_t n);

 private:
  Status ensure(std::size_t n) const {
    if (remaining() < n) {
      return err::parse("byte buffer underrun: need " + std::to_string(n) +
                        " bytes, have " + std::to_string(remaining()));
    }
    return Status::success();
  }

  std::vector<std::uint8_t> data_;
  std::size_t read_pos_ = 0;
};

/// Views text as bytes without copying (HTTP bodies feeding binary
/// decoders). The view aliases `text`'s storage.
inline std::span<const std::uint8_t> as_byte_span(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

}  // namespace h2

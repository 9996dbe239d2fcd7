#include "util/byte_buffer.hpp"

#include <bit>

namespace h2 {

namespace {

template <typename T>
void append_be(std::vector<std::uint8_t>& out, T v) {
  const T wire = big_endian(v);
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &wire, sizeof(T));
}

template <typename T>
void append_le(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

template <typename T>
T load_be(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return big_endian(v);
}

template <typename T>
T load_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void ByteBuffer::write_u16_be(std::uint16_t v) { append_be(data_, v); }
void ByteBuffer::write_u32_be(std::uint32_t v) { append_be(data_, v); }
void ByteBuffer::write_u64_be(std::uint64_t v) { append_be(data_, v); }
void ByteBuffer::write_u32_le(std::uint32_t v) { append_le(data_, v); }
void ByteBuffer::write_u64_le(std::uint64_t v) { append_le(data_, v); }

void ByteBuffer::write_f32_be(float v) {
  write_u32_be(std::bit_cast<std::uint32_t>(v));
}
void ByteBuffer::write_f64_be(double v) {
  write_u64_be(std::bit_cast<std::uint64_t>(v));
}
void ByteBuffer::write_f64s_be(std::span<const double> values) {
  const std::size_t at = data_.size();
  data_.resize(at + values.size() * sizeof(double));
  std::uint8_t* out = data_.data() + at;
  for (double v : values) {
    const std::uint64_t wire = big_endian(std::bit_cast<std::uint64_t>(v));
    std::memcpy(out, &wire, sizeof(wire));
    out += sizeof(wire);
  }
}
void ByteBuffer::write_f64_le(double v) {
  write_u64_le(std::bit_cast<std::uint64_t>(v));
}

Result<std::uint8_t> ByteBuffer::read_u8() {
  if (auto s = ensure(1); !s.ok()) return s.error();
  return data_[read_pos_++];
}

Result<std::uint16_t> ByteBuffer::read_u16_be() {
  if (auto s = ensure(2); !s.ok()) return s.error();
  auto v = load_be<std::uint16_t>(data_.data() + read_pos_);
  read_pos_ += 2;
  return v;
}

Result<std::uint32_t> ByteBuffer::read_u32_be() {
  if (auto s = ensure(4); !s.ok()) return s.error();
  auto v = load_be<std::uint32_t>(data_.data() + read_pos_);
  read_pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteBuffer::read_u64_be() {
  if (auto s = ensure(8); !s.ok()) return s.error();
  auto v = load_be<std::uint64_t>(data_.data() + read_pos_);
  read_pos_ += 8;
  return v;
}

Result<std::uint32_t> ByteBuffer::read_u32_le() {
  if (auto s = ensure(4); !s.ok()) return s.error();
  auto v = load_le<std::uint32_t>(data_.data() + read_pos_);
  read_pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteBuffer::read_u64_le() {
  if (auto s = ensure(8); !s.ok()) return s.error();
  auto v = load_le<std::uint64_t>(data_.data() + read_pos_);
  read_pos_ += 8;
  return v;
}

Result<float> ByteBuffer::read_f32_be() {
  auto v = read_u32_be();
  if (!v.ok()) return v.error();
  return std::bit_cast<float>(*v);
}

Result<double> ByteBuffer::read_f64_be() {
  auto v = read_u64_be();
  if (!v.ok()) return v.error();
  return std::bit_cast<double>(*v);
}

Result<double> ByteBuffer::read_f64_le() {
  auto v = read_u64_le();
  if (!v.ok()) return v.error();
  return std::bit_cast<double>(*v);
}

Result<std::vector<std::uint8_t>> ByteBuffer::read_bytes(std::size_t n) {
  if (auto s = ensure(n); !s.ok()) return s.error();
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(read_pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(read_pos_ + n));
  read_pos_ += n;
  return out;
}

Result<std::string> ByteBuffer::read_string(std::size_t n) {
  if (auto s = ensure(n); !s.ok()) return s.error();
  std::string out(reinterpret_cast<const char*>(data_.data() + read_pos_), n);
  read_pos_ += n;
  return out;
}

Status ByteBuffer::skip(std::size_t n) {
  if (auto s = ensure(n); !s.ok()) return s;
  read_pos_ += n;
  return Status::success();
}

}  // namespace h2

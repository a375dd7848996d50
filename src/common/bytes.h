// The byte layout of every real-mode format (DESIGN.md §16): wire frames,
// binlog record headers and replica-set WAL ops are all written with
// ByteWriter and read with ByteReader. A field's bytes follow from its
// type: integers take sizeof(T) bytes, little-endian (two's complement
// when signed); bool is one byte, 0 or 1; an enumeration is its
// underlying integer; a double is its IEEE-754 bit pattern as a u64.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>

#include "common/check.h"

namespace radar {

static_assert(std::numeric_limits<double>::is_iec559 && sizeof(double) == 8);

/// Bytes a field of type T occupies.
template <class T>
inline constexpr std::size_t kByteSize = [] {
  if constexpr (std::is_same_v<T, bool>) {
    return std::size_t{1};
  } else if constexpr (std::is_enum_v<T>) {
    return sizeof(std::underlying_type_t<T>);
  } else {
    static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
    return sizeof(T);
  }
}();

namespace internal {

/// `u` with its bytes in little-endian order: a no-op on little-endian
/// hosts, and a byte reversal (its own inverse) on big-endian ones.
template <class U>
constexpr U LittleEndian(U u) {
  if constexpr (std::endian::native == std::endian::little) {
    return u;
  } else {
    U r = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      r = static_cast<U>(r << 8 | ((u >> (8 * i)) & 0xff));
    }
    return r;
  }
}

}  // namespace internal

/// Writes fields into a span the format sized in advance; writing past its
/// end is a program bug and aborts.
class ByteWriter {
 public:
  explicit ByteWriter(std::span<std::uint8_t> out) : out_(out) {}

  template <class... Ts>
  void Put(const Ts&... values) {
    (PutOne(values), ...);
  }

 private:
  template <class T>
  void PutOne(T value) {
    if constexpr (std::is_same_v<T, bool>) {
      PutOne(static_cast<std::uint8_t>(value ? 1 : 0));
    } else if constexpr (std::is_enum_v<T>) {
      PutOne(static_cast<std::underlying_type_t<T>>(value));
    } else if constexpr (std::is_same_v<T, double>) {
      PutOne(std::bit_cast<std::uint64_t>(value));
    } else {
      const auto u = internal::LittleEndian(
          static_cast<std::make_unsigned_t<T>>(value));
      RADAR_CHECK_LE(sizeof(T), out_.size() - pos_);
      std::memcpy(out_.data() + pos_, &u, sizeof(T));
      pos_ += sizeof(T);
    }
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

/// Reads fields from untrusted bytes and never touches memory outside the
/// span. A read past the end, a bool byte above 1, or an enumeration value
/// that `InRange(E)` (found by argument-dependent lookup) rejects fails
/// the reader for good; the field then reads as zero.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> in) : in_(in) {}

  template <class... Ts>
  void Get(Ts&... values) {
    (GetOne(values), ...);
  }

  /// True when every read succeeded and consumed the span exactly.
  bool Exhausted() const { return ok_ && pos_ == in_.size(); }

 private:
  template <class T>
  void GetOne(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t byte = 0;
      GetOne(byte);
      ok_ = ok_ && byte <= 1;
      value = byte == 1;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw = 0;
      GetOne(raw);
      value = static_cast<T>(raw);
      ok_ = ok_ && InRange(value);
    } else if constexpr (std::is_same_v<T, double>) {
      std::uint64_t bits = 0;
      GetOne(bits);
      value = std::bit_cast<double>(bits);
    } else {
      std::make_unsigned_t<T> u = 0;
      ok_ = ok_ && in_.size() - pos_ >= sizeof(T);
      if (ok_) {
        std::memcpy(&u, in_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
      }
      value = static_cast<T>(internal::LittleEndian(u));
    }
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace radar

// Bounds-checked binary (de)serialization buffers.
//
// Everything that crosses a client<->server boundary in this codebase is
// serialized through these two classes — queries, region metadata,
// histograms, bitmap indexes, result selections.  That forces the same
// no-shared-memory discipline the real PDC system has over Mercury RPC, and
// gives a single place to audit wire-format safety.
//
// Format: little-endian, fixed-width integers, no alignment padding.
// Variable-length payloads are length-prefixed with a u64.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace pdc {

/// Append-only binary writer.
class SerialWriter {
 public:
  SerialWriter() = default;
  explicit SerialWriter(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  /// Write one trivially-copyable scalar.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  /// Append raw bytes with no length prefix (caller manages framing).
  void put_raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Write a length-prefixed byte blob.
  void put_bytes(std::span<const std::uint8_t> bytes) {
    put<std::uint64_t>(bytes.size());
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Write a length-prefixed string.
  void put_string(std::string_view s) {
    put_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Write a length-prefixed vector of trivially-copyable elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& v) {
    put<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return buf_;
  }

  /// Move the accumulated buffer out; the writer is empty afterwards.
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Scatter/gather binary writer: scalars and headers are copied eagerly
/// into an owned buffer, but bulk payloads can be appended as *borrowed*
/// spans that are not copied until take() assembles the final wire image.
/// A bulk byte therefore travels producer -> wire with exactly one copy,
/// and the assembled bytes are byte-identical to a SerialWriter fed the
/// same logical sequence (the _ref methods emit the same length prefixes).
///
/// Ownership contract: every borrowed span must stay valid until take()
/// (or until the writer is destroyed unassembled).  Response structs that
/// hold borrowed views across a call boundary pin the backing buffers
/// alongside them (see server::GetDataResponse::pins); violations are the
/// ASan-targeted span-lifetime tests' subject.
class GatherWriter {
 public:
  GatherWriter() = default;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    owned_.insert(owned_.end(), p, p + sizeof(T));
  }

  /// Eagerly-copied raw bytes (no length prefix).
  void put_raw(std::span<const std::uint8_t> bytes) {
    owned_.insert(owned_.end(), bytes.begin(), bytes.end());
  }

  /// Eagerly-copied length-prefixed blob.
  void put_bytes(std::span<const std::uint8_t> bytes) {
    put<std::uint64_t>(bytes.size());
    put_raw(bytes);
  }

  void put_string(std::string_view s) {
    put_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Eagerly-copied length-prefixed vector.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& v) {
    put<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    owned_.insert(owned_.end(), p, p + v.size() * sizeof(T));
  }

  /// Borrowed raw bytes (no length prefix, no copy until take()).
  void put_raw_ref(std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return;
    segments_.push_back({owned_.size(), bytes});
    borrowed_total_ += bytes.size();
  }

  /// Borrowed length-prefixed blob: the u64 prefix is owned, the payload
  /// is borrowed.  Wire bytes match put_bytes exactly.
  void put_bytes_ref(std::span<const std::uint8_t> bytes) {
    put<std::uint64_t>(bytes.size());
    put_raw_ref(bytes);
  }

  /// Borrowed length-prefixed vector; wire bytes match put_vector exactly.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector_ref(std::span<const T> v) {
    put<std::uint64_t>(v.size());
    put_raw_ref({reinterpret_cast<const std::uint8_t*>(v.data()),
                 v.size() * sizeof(T)});
  }

  /// Total assembled size (owned + borrowed).
  [[nodiscard]] std::size_t size() const noexcept {
    return owned_.size() + borrowed_total_;
  }

  [[nodiscard]] std::size_t borrowed_segments() const noexcept {
    return segments_.size();
  }

  /// Assemble owned and borrowed pieces, in order, into one buffer — the
  /// single copy of every borrowed payload.  The writer is empty after.
  [[nodiscard]] std::vector<std::uint8_t> take() {
    std::vector<std::uint8_t> out;
    out.reserve(size());
    std::size_t done = 0;
    for (const Segment& seg : segments_) {
      out.insert(out.end(), owned_.begin() + done,
                 owned_.begin() + seg.owned_end);
      done = seg.owned_end;
      out.insert(out.end(), seg.bytes.begin(), seg.bytes.end());
    }
    out.insert(out.end(), owned_.begin() + done, owned_.end());
    owned_.clear();
    segments_.clear();
    borrowed_total_ = 0;
    return out;
  }

 private:
  /// Borrowed bytes spliced in after the first `owned_end` owned bytes.
  struct Segment {
    std::size_t owned_end;
    std::span<const std::uint8_t> bytes;
  };

  std::vector<std::uint8_t> owned_;
  std::vector<Segment> segments_;
  std::size_t borrowed_total_ = 0;
};

/// Bounds-checked binary reader over a borrowed byte span.
/// The underlying bytes must outlive the reader.
class SerialReader {
 public:
  explicit SerialReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Read one scalar; fails with Corruption on underrun.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Status get(T& out) {
    if (pos_ + sizeof(T) > bytes_.size()) {
      return Status::Corruption("serial underrun reading scalar");
    }
    std::memcpy(&out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  /// Read a length-prefixed string.  The length is validated against the
  /// bytes actually remaining BEFORE any allocation, so a hostile prefix
  /// can never trigger a large allocation (and `pos_ + n` can never wrap).
  Status get_string(std::string& out) {
    std::uint64_t n = 0;
    PDC_RETURN_IF_ERROR(get(n));
    if (n > remaining()) {
      return Status::Corruption("serial underrun reading string");
    }
    out.assign(reinterpret_cast<const char*>(bytes_.data() + pos_),
               static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return Status::Ok();
  }

  /// Read a length-prefixed vector of trivially-copyable elements.  The
  /// element count is clamped to what the remaining bytes could possibly
  /// hold before resizing, so untrusted input cannot force an allocation
  /// larger than the input itself.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Status get_vector(std::vector<T>& out) {
    std::uint64_t n = 0;
    PDC_RETURN_IF_ERROR(get(n));
    if (n > remaining() / sizeof(T)) {
      return Status::Corruption("serial underrun reading vector");
    }
    const std::size_t nbytes = static_cast<std::size_t>(n) * sizeof(T);
    out.resize(static_cast<std::size_t>(n));
    // An empty `out` may have a null data(), which memcpy must not see.
    if (nbytes > 0) std::memcpy(out.data(), bytes_.data() + pos_, nbytes);
    pos_ += nbytes;
    return Status::Ok();
  }

  /// Read a length-prefixed blob as a borrowed view (no copy).
  Status get_bytes_view(std::span<const std::uint8_t>& out) {
    std::uint64_t n = 0;
    PDC_RETURN_IF_ERROR(get(n));
    if (n > remaining()) {
      return Status::Corruption("serial underrun reading bytes");
    }
    out = bytes_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return Status::Ok();
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace pdc

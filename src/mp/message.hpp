#pragma once

// Messages and POD serialization for the psanim message-passing runtime.
//
// A message is a tagged byte payload plus virtual-time stamps. Payloads
// are built with `Writer` and decoded with `Reader`; both operate on
// trivially-copyable types only, mirroring what an MPI derived datatype
// for the paper's particle records would carry.
//
// Payload buffers are pool-backed (see buffer_pool.hpp) and move
// end-to-end: a buffer filled by Writer travels through send, the mailbox
// and recv without being copied, and returns to the pool when the consumed
// Message dies. Copying a Payload is allowed (fault-injected duplicates
// and tests need it) but is an explicit deep copy through the pool.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "mp/buffer_pool.hpp"

namespace psanim::mp {

/// Wildcard rank/tag for receives, analogous to MPI_ANY_SOURCE/MPI_ANY_TAG.
inline constexpr int kAny = -1;

/// Fixed per-message envelope charged to the wire in addition to the
/// payload (source, tag, length — what an MPI header would carry).
inline constexpr std::size_t kEnvelopeBytes = 32;

/// A message body: a byte buffer whose storage is recycled through
/// BufferPool. Vector-like read/write access, implicit construction from a
/// raw byte vector (so `m.payload = writer.take()` keeps working), deep
/// copy on copy, and `detach()` to hand the bytes to code that wants a
/// plain vector.
class Payload {
 public:
  Payload() = default;
  Payload(std::vector<std::byte> bytes) : v_(std::move(bytes)) {}  // NOLINT

  Payload(Payload&& o) noexcept : v_(std::move(o.v_)) {}
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      reset();
      v_ = std::move(o.v_);
    }
    return *this;
  }

  Payload(const Payload& o) : v_(BufferPool::global().acquire(o.v_.size())) {
    v_.resize(o.v_.size());
    if (!o.v_.empty()) std::memcpy(v_.data(), o.v_.data(), o.v_.size());
  }
  Payload& operator=(const Payload& o) {
    if (this != &o) *this = Payload(o);
    return *this;
  }

  ~Payload() { reset(); }

  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  const std::byte* data() const { return v_.data(); }
  std::byte* data() { return v_.data(); }
  const std::byte& operator[](std::size_t i) const { return v_[i]; }
  std::byte& operator[](std::size_t i) { return v_[i]; }
  auto begin() const { return v_.begin(); }
  auto end() const { return v_.end(); }

  operator std::span<const std::byte>() const { return {v_}; }  // NOLINT

  /// Take the bytes out as a plain vector (storage leaves the pool cycle).
  std::vector<std::byte> detach() { return std::move(v_); }

  /// Drop the contents, recycling the storage.
  void reset() {
    if (v_.capacity() != 0) BufferPool::global().release(std::move(v_));
    v_ = {};
  }

 private:
  std::vector<std::byte> v_;
};

/// One in-flight message.
struct Message {
  int src = -1;               ///< sender rank
  int tag = 0;                ///< user tag
  std::uint64_t seq = 0;      ///< per-runtime sequence number (tiebreak)
  double depart_time = 0.0;   ///< sender virtual time at send
  double arrive_time = 0.0;   ///< receiver-side virtual availability time
  bool duplicate = false;     ///< fault-injected copy; receive path discards
  Payload payload;

  std::size_t wire_bytes() const { return payload.size() + kEnvelopeBytes; }
};

/// Thrown when a Reader runs past the end of a payload or a decoded size
/// is implausible — indicates a protocol bug, never silently truncates.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only payload builder. The backing buffer comes from BufferPool
/// and grows geometrically through it, so repeated encode cycles of
/// similar size reuse the same storage with no heap traffic.
class Writer {
 public:
  Writer() = default;
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  Writer(Writer&& o) noexcept : buf_(std::move(o.buf_)) {}
  Writer& operator=(Writer&& o) noexcept {
    if (this != &o) {
      if (buf_.capacity() != 0) BufferPool::global().release(std::move(buf_));
      buf_ = std::move(o.buf_);
    }
    return *this;
  }
  ~Writer() {
    if (buf_.capacity() != 0) BufferPool::global().release(std::move(buf_));
  }

  /// Pre-size the buffer (capacity, not size) for a known encoding.
  void reserve(std::size_t capacity) {
    BufferPool::global().grow(buf_, capacity);
  }

  /// Append `n` uninitialized bytes and return a pointer to them. The
  /// pointer is valid until the next mutating call.
  std::byte* alloc(std::size_t n) {
    BufferPool::global().grow(buf_, buf_.size() + n);
    const std::size_t off = buf_.size();
    buf_.resize(off + n);
    return buf_.data() + off;
  }

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "only trivially copyable types go on the wire");
    std::memcpy(alloc(sizeof(T)), &v, sizeof(T));
  }

  /// Length-prefixed span of PODs.
  template <typename T>
  void put_span(std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(items.size());
    if (!items.empty()) {
      std::memcpy(alloc(items.size_bytes()), items.data(),
                  items.size_bytes());
    }
  }

  template <typename T>
  void put_vector(const std::vector<T>& items) {
    put_span(std::span<const T>(items));
  }

  std::size_t size() const { return buf_.size(); }
  std::vector<std::byte> take() { return std::move(buf_); }
  const std::vector<std::byte>& bytes() const { return buf_; }

 private:
  std::vector<std::byte> buf_;
};

/// Sequential payload decoder with bounds checking.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}
  explicit Reader(const Message& m) : bytes_(m.payload) {}
  // A Reader is a non-owning view. Binding one to a temporary Message
  // (`Reader r(ep.recv(...))`) would release the pooled payload buffer at
  // the end of the declaration statement and leave the Reader dangling —
  // the pool hands the block to a concurrent writer and reads race with
  // its writes. Name the Message first.
  explicit Reader(const Message&&) = delete;

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get<std::uint64_t>();
    if (n > (bytes_.size() - pos_) / sizeof(T)) {
      throw DecodeError("psanim::mp::Reader: vector length exceeds payload");
    }
    std::vector<T> out(static_cast<std::size_t>(n));
    if (!out.empty()) {
      std::memcpy(out.data(), bytes_.data() + pos_, out.size() * sizeof(T));
      pos_ += out.size() * sizeof(T);
    }
    return out;
  }

  /// View of the next `n` raw bytes, consumed without copying. Lets codecs
  /// unpack length-prefixed POD arrays straight out of the payload.
  std::span<const std::byte> raw(std::size_t n) {
    require(n);
    const std::span<const std::byte> view = bytes_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) {
      throw DecodeError("psanim::mp::Reader: read past end of payload");
    }
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace psanim::mp

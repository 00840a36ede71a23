#pragma once

// In-memory span log for the traced run. A span records a layer name, its
// start and end on the steady clock (integer nanoseconds, so per-layer sums
// tile a wall time exactly), the span that encloses it, and the frame it
// belongs to. Spans are kept in memory and written as Chrome trace-event
// JSON when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace psbench {

using Ns = std::int64_t;

inline Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< layer label; always a string literal
  Ns start = 0;
  Ns end = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span; -1 at the root
  std::uint32_t frame = 0;   ///< shared by every span of one frame
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals (clipped to the span).
std::vector<Ns> self_times(const std::vector<Span>& spans);

class SpanLog {
 public:
  /// A span that opens as a child of the innermost open span and closes
  /// when the scope ends.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int32_t id_;
  };

  /// Frame id stamped on spans opened from now on.
  void set_frame(std::uint32_t frame) { frame_ = frame; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total self time per span name.
  std::map<std::string, Ns> self_by_name() const;

  /// Write every span as a Chrome trace-event "X" record. Throws
  /// std::runtime_error when the file cannot be written.
  void write_chrome_json(const std::string& path) const;

 private:
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint32_t frame_ = 0;
};

}  // namespace psbench

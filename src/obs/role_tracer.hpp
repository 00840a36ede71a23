#pragma once

// RoleTracer: the one observability handle a role carries through its run
// loop. It writes phase spans and protocol instants into the rank's
// recorder of the run's obs::Trace — the single record of Figure 2's
// per-frame protocol, which bench/fig2_protocol_trace and the tests read
// back through Trace::frame_timeline / sorted_records. Every method is
// null-safe, so a run with observability off costs a handful of pointer
// tests per frame.
//
// The metric helper structs below translate the per-frame stats each role
// already gathers into registry updates, keeping metric names and bucket
// layouts in one place.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "mp/virtual_clock.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "trace/frame_stats.hpp"

namespace psanim::obs {

class Trace;

class RoleTracer {
 public:
  /// RAII handle for one protocol-phase span. Construction opens the span
  /// at the clock's current virtual time; close() (or destruction) closes
  /// it at the then-current time. Move-only, close() is idempotent.
  class Phase {
   public:
    Phase(RankRecorder* rec, const mp::VirtualClock* clk,
          std::uint32_t label, std::uint32_t frame);
    ~Phase() { close(); }

    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

    void close();

   private:
    RankRecorder* rec_ = nullptr;
    const mp::VirtualClock* clk_ = nullptr;
  };

  RoleTracer() = default;
  RoleTracer(Trace* trace, int rank);

  bool tracing() const { return rec_ != nullptr; }

  /// Open a span named `span_name`.
  Phase phase(const mp::VirtualClock& clk, std::uint32_t frame,
              std::string_view span_name);

  /// Record an instant at the clock's current virtual time.
  void instant(const mp::VirtualClock& clk, std::uint32_t frame,
               std::string_view label);

 private:
  RankRecorder* rec_ = nullptr;
  LabelTable* labels_ = nullptr;
};

/// Calculator-side metric updates (null-safe on a disabled registry).
struct CalcMetrics {
  MetricsRegistry* reg = nullptr;

  void on_frame(const trace::CalcFrameStats& fs);
  void on_snapshot(double seconds, std::size_t bytes);
  void on_restore();
  /// `n` more particles dropped for non-finite positions (see
  /// psys::SlicedStore::nonfinite_dropped).
  void on_nonfinite(std::uint64_t n);
};

/// Manager-side metric updates.
struct ManagerMetrics {
  MetricsRegistry* reg = nullptr;

  void on_frame(const trace::ManagerFrameStats& ms);
  void on_snapshot(double seconds, std::size_t bytes);
  void on_restore();
};

/// Image-generator-side metric updates.
struct ImageGenMetrics {
  MetricsRegistry* reg = nullptr;

  void on_frame(const trace::ImageFrameStats& is);
  void on_snapshot(double seconds, std::size_t bytes);
  void on_restore();
};

/// Bucket layout shared by the per-phase virtual-duration histograms
/// (seconds; frame phases run milliseconds to seconds at paper scales).
std::vector<double> phase_seconds_buckets();

}  // namespace psanim::obs

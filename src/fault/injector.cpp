#include "fault/injector.hpp"

#include <algorithm>
#include <string>

#include "math/rng.hpp"
#include "obs/trace.hpp"

namespace psanim::fault {

namespace {

/// Uniform [0, 1) draw from a splitmix64 stream.
double roll(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::uint64_t pair_key(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst));
}

}  // namespace

Injector::Injector(FaultPlan plan, int world_size, obs::Trace* trace)
    : plan_(plan),
      world_(world_size),
      trace_(trace),
      pair_sends_(static_cast<std::size_t>(world_size) *
                  static_cast<std::size_t>(world_size)) {}

FaultStats Injector::stats() const {
  FaultStats s;
  s.sends_inspected = sends_inspected_.load();
  s.drops = drops_.load();
  s.duplicates = duplicates_.load();
  s.duplicates_discarded = duplicates_discarded_.load();
  s.delay_spikes = delay_spikes_.load();
  s.degraded_msgs = degraded_msgs_.load();
  s.injected_delay_s =
      static_cast<double>(injected_delay_ns_.load()) * 1e-9;
  return s;
}

void Injector::note(int rank, double vtime, std::uint32_t frame,
                    std::string_view label) {
  if (trace_ == nullptr) return;
  trace_->rank(rank).instant(trace_->labels().intern(label), frame, vtime);
}

mp::SendFaults Injector::on_send(int src, int dst, int tag,
                                 std::size_t wire_bytes, double depart_s,
                                 double base_wire_s, std::uint32_t frame) {
  mp::SendFaults out;
  if (!plan_.message_faults()) return out;
  sends_inspected_.fetch_add(1, std::memory_order_relaxed);

  const std::size_t row = static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(world_) +
                          static_cast<std::size_t>(dst);
  const std::uint64_t nth = pair_sends_[row]++;
  std::uint64_t state =
      mix_keys(plan_.seed, pair_key(src, dst), nth,
                     static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(tag)));

  auto note_send = [&](const char* what) {
    note(src, depart_s, frame,
         std::string("fault: ") + what + " -> rank " + std::to_string(dst));
  };

  if (plan_.drop_rate > 0.0) {
    // Geometric number of lost transmissions, capped so a hostile rate
    // cannot stall a message forever.
    int lost = 0;
    while (lost < 8 && roll(state) < plan_.drop_rate) ++lost;
    if (lost > 0) {
      out.retransmits = lost;
      out.extra_wire_s += static_cast<double>(lost) * plan_.retransmit_s;
      drops_.fetch_add(static_cast<std::uint64_t>(lost),
                       std::memory_order_relaxed);
      note_send(lost == 1 ? "dropped, retransmitting"
                          : "dropped repeatedly, retransmitting");
    }
  }
  if (plan_.duplicate_rate > 0.0 && roll(state) < plan_.duplicate_rate) {
    out.duplicate = true;
    out.duplicate_lag_s = plan_.duplicate_lag_s;
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    note_send("duplicated");
  }
  if (plan_.delay_rate > 0.0 && roll(state) < plan_.delay_rate) {
    out.extra_wire_s += plan_.delay_spike_s;
    delay_spikes_.fetch_add(1, std::memory_order_relaxed);
    note_send("delay spike");
  }
  if (plan_.degrade && depart_s >= plan_.degrade->after_s) {
    const double degraded_wire = plan_.degrade->link.cost_s(wire_bytes);
    if (degraded_wire > base_wire_s) {
      out.extra_wire_s += degraded_wire - base_wire_s;
      // Counted but not noted per message — after the degradation point
      // this fires on nearly every send and would swamp the trace.
      degraded_msgs_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (out.extra_wire_s > 0.0) {
    injected_delay_ns_.fetch_add(
        static_cast<std::uint64_t>(out.extra_wire_s * 1e9),
        std::memory_order_relaxed);
  }
  return out;
}

void Injector::on_duplicate_dropped(int rank, int src, double vtime,
                                    std::uint32_t frame) {
  duplicates_discarded_.fetch_add(1, std::memory_order_relaxed);
  note(rank, vtime, frame,
       "fault: duplicate from rank " + std::to_string(src) + " discarded");
}

double Injector::compute_factor(int rank, double vtime) const {
  return plan_.compute_factor(rank, vtime);
}

}  // namespace psanim::fault

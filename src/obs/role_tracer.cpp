#include "obs/role_tracer.hpp"

#include "obs/trace.hpp"

namespace psanim::obs {

RoleTracer::Phase::Phase(RankRecorder* rec, const mp::VirtualClock* clk,
                         std::uint32_t label, std::uint32_t frame)
    : rec_(rec), clk_(clk) {
  if (rec_) rec_->open_span(label, frame, clk_->now());
}

void RoleTracer::Phase::close() {
  if (!rec_) return;
  rec_->close_span(clk_->now());
  rec_ = nullptr;
}

RoleTracer::RoleTracer(Trace* trace, int rank) {
  if (trace) {
    rec_ = &trace->rank(rank);
    labels_ = &trace->labels();
  }
}

RoleTracer::Phase RoleTracer::phase(const mp::VirtualClock& clk,
                                    std::uint32_t frame,
                                    std::string_view span_name) {
  if (!rec_) return Phase(nullptr, nullptr, 0, 0);
  return Phase(rec_, &clk, labels_->intern(span_name), frame);
}

void RoleTracer::instant(const mp::VirtualClock& clk, std::uint32_t frame,
                         std::string_view label) {
  if (rec_) rec_->instant(labels_->intern(label), frame, clk.now());
}

std::vector<double> phase_seconds_buckets() {
  return {0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0};
}

namespace {

void observe_snapshot(MetricsRegistry* reg, double seconds,
                      std::size_t bytes) {
  if (!reg) return;
  reg->counter("psanim_ckpt_snapshots_total").inc();
  reg->counter("psanim_ckpt_capture_seconds_total").add(seconds);
  reg->counter("psanim_ckpt_bytes_total").add(static_cast<double>(bytes));
}

void observe_restore(MetricsRegistry* reg) {
  if (!reg) return;
  reg->counter("psanim_ckpt_restores_total").inc();
}

}  // namespace

void CalcMetrics::on_frame(const trace::CalcFrameStats& fs) {
  if (!reg) return;
  reg->counter("psanim_exchange_bytes_total")
      .add(static_cast<double>(fs.exchange_bytes));
  reg->counter("psanim_crossers_out_total")
      .add(static_cast<double>(fs.crossers_out));
  reg->counter("psanim_lb_particles_sent_total")
      .add(static_cast<double>(fs.balance_sent));
  reg->gauge("psanim_particles_held").set_max(
      static_cast<double>(fs.particles_held));
  const auto buckets = phase_seconds_buckets();
  reg->histogram("psanim_phase_simulate_seconds", buckets).observe(fs.calc_s);
  reg->histogram("psanim_phase_exchange_seconds", buckets)
      .observe(fs.exchange_s);
  reg->histogram("psanim_phase_balance_seconds", buckets)
      .observe(fs.balance_s);
  reg->histogram("psanim_phase_send_frame_seconds", buckets)
      .observe(fs.send_frame_s);
}

void CalcMetrics::on_snapshot(double seconds, std::size_t bytes) {
  observe_snapshot(reg, seconds, bytes);
}

void CalcMetrics::on_restore() { observe_restore(reg); }

void CalcMetrics::on_nonfinite(std::uint64_t n) {
  if (!reg || n == 0) return;
  reg->counter("psanim_psys_nonfinite_dropped_total")
      .add(static_cast<double>(n));
}

void ManagerMetrics::on_frame(const trace::ManagerFrameStats& ms) {
  if (!reg) return;
  // Order/particle totals come from lb::observe_balance (one source of
  // truth, per evaluation); here only the manager's own frame view.
  reg->counter("psanim_lb_pairs_evaluated_total")
      .add(static_cast<double>(ms.pairs_evaluated));
  reg->histogram("psanim_frame_imbalance", {1.0, 1.1, 1.25, 1.5, 2.0, 4.0})
      .observe(ms.imbalance);
}

void ManagerMetrics::on_snapshot(double seconds, std::size_t bytes) {
  observe_snapshot(reg, seconds, bytes);
}

void ManagerMetrics::on_restore() { observe_restore(reg); }

void ImageGenMetrics::on_frame(const trace::ImageFrameStats& is) {
  if (!reg) return;
  reg->counter("psanim_particles_rendered_total")
      .add(static_cast<double>(is.particles_rendered));
  reg->counter("psanim_gather_bytes_total")
      .add(static_cast<double>(is.gather_bytes));
  reg->histogram("psanim_phase_render_seconds", phase_seconds_buckets())
      .observe(is.render_s);
}

void ImageGenMetrics::on_snapshot(double seconds, std::size_t bytes) {
  observe_snapshot(reg, seconds, bytes);
}

void ImageGenMetrics::on_restore() { observe_restore(reg); }

}  // namespace psanim::obs

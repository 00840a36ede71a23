#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace psbench {

std::vector<Ns> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Ns, Ns>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans.at(static_cast<std::size_t>(s.parent));
    const Ns lo = std::max(s.start, p.start);
    const Ns hi = std::min(s.end, p.end);
    if (lo < hi) {
      covered[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<Ns> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    Ns union_ns = 0;
    Ns reach = spans[i].start;
    for (const auto& [lo, hi] : iv) {
      const Ns from = std::max(lo, reach);
      if (hi > from) {
        union_ns += hi - from;
        reach = hi;
      }
    }
    out[i] = spans[i].end - spans[i].start - union_ns;
  }
  return out;
}

std::map<std::string, Ns> SpanLog::self_by_name() const {
  const std::vector<Ns> self = self_times(spans_);
  std::map<std::string, Ns> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

std::int32_t SpanLog::open(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{.name = name,
                        .start = now_ns(),
                        .end = 0,
                        .parent = open_.empty() ? -1 : open_.back(),
                        .frame = frame_});
  open_.push_back(id);
  return id;
}

void SpanLog::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end = now_ns();
  open_.pop_back();
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const Ns t0 = spans_.empty() ? 0 : spans_.front().start;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"frame\": %u}}%s\n",
                 s.name, static_cast<double>(s.start - t0) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3, i, s.parent,
                 s.frame, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace psbench

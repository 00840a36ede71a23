// Unit tests for psbench's arithmetic: medians and span self time.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.hpp"
#include "spans.hpp"

namespace {

using namespace psbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void test_median() {
  using V = std::vector<double>;
  expect(median(V{3.0}) == 3.0, "median of one value");
  expect(median(V{5.0, 1.0, 3.0}) == 3.0, "median of an unsorted odd count");
  expect(median(V{4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
  // Traced times are integer nanoseconds over an odd number of passes: the
  // median is one of the samples, so sums of medians stay exact.
  expect(median(std::vector<Ns>{30, 10, 20}) == 20, "integer median");
  bool threw = false;
  try {
    median(V{});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of nothing throws");
}

Span span(Ns start, Ns end, std::int32_t parent) {
  return Span{.name = "x", .start = start, .end = end, .parent = parent};
}

void test_self_times() {
  // 0: [0, 100) root
  // 1: [10, 40) child of 0, with child 3: [20, 30)
  // 2: [30, 60) child of 0, overlapping 1: the union [10, 60) is covered
  // 4: [90, 130) child of 0 reaching past its parent: clipped to [90, 100)
  const std::vector<Span> spans{span(0, 100, -1), span(10, 40, 0),
                                span(30, 60, 0), span(20, 30, 1),
                                span(90, 130, 0)};
  const std::vector<Ns> self = self_times(spans);
  expect(self[0] == 100 - 50 - 10, "root self = duration - union of children");
  expect(self[1] == 30 - 10, "nested child self excludes its own child");
  expect(self[2] == 30, "leaf self = duration");
  expect(self[3] == 10, "innermost leaf");
  expect(self[4] == 40, "a leaf's self time is its whole duration");
}

void test_span_log() {
  SpanLog log;
  {
    const SpanLog::Scope outer(log, "outer");
    log.set_frame(7);
    const SpanLog::Scope inner(log, "inner");
  }
  const auto& spans = log.spans();
  expect(spans.size() == 2, "two spans recorded");
  expect(spans[1].parent == 0, "inner span's parent is the outer span");
  expect(spans[1].frame == 7 && spans[0].frame == 0, "frame ids stamped");
  const auto by_name = log.self_by_name();
  const Ns total = spans[0].end - spans[0].start;
  expect(by_name.at("outer") + by_name.at("inner") == total,
         "self times tile the outer span exactly");
}

}  // namespace

int main() {
  test_median();
  test_self_times();
  test_span_log();
  if (failures == 0) std::printf("psbench unit tests passed\n");
  return failures == 0 ? 0 : 1;
}

//===-- perfbench/src/Trace.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the traced run around its calls into the library:
/// each has an id, a name, a start, an end and the id of the span that
/// was open when it began (its parent). Spans stay in memory until the
/// run ends, then go out as Chrome trace-event JSON ("X" complete
/// events; load it in chrome://tracing or Perfetto).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int Id = 0;
  int Parent = -1; ///< -1 = a root span
  std::string Name;
  std::int64_t StartNs = 0;
  std::int64_t EndNs = 0;
  double durationNs() const { return double(EndNs - StartNs); }
};

class Tracer {
public:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}

  /// Opens a span named \p Name under the innermost open span.
  int begin(std::string Name);
  /// Closes span \p Id (the innermost open one).
  void end(int Id);
  /// Records an already-measured span [StartNs, EndNs) under \p Parent
  /// (intervals measured by the library itself, e.g. job latencies).
  int record(std::string Name, int Parent, std::int64_t StartNs,
             std::int64_t EndNs);

  std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Durations of every span named \p Name with id >= \p FromId, in
  /// recording order.
  std::vector<double> durations(const std::string &Name, int FromId = 0) const;

  /// Self time of span \p Id: its duration minus the part of its
  /// interval covered by its children.
  double selfNs(int Id) const;

  /// Self times of every span named \p Name with id >= \p FromId.
  std::vector<double> selfTimes(const std::string &Name, int FromId = 0) const;

  /// Distinct span names in first-seen order.
  std::vector<std::string> names() const;

  /// Writes the spans as Chrome trace-event JSON. \returns false on I/O
  /// failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Open; ///< stack of open span ids
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, std::string Name)
      : T(T), Id(T.begin(std::move(Name))) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int id() const { return Id; }

private:
  Tracer &T;
  int Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

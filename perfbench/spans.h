#ifndef CASCACHE_PERFBENCH_SPANS_H_
#define CASCACHE_PERFBENCH_SPANS_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// In-memory span log of the traced run. Spans are recorded by the
/// benchmark around its own calls into the simulator's layers (the
/// program itself is not instrumented); each span names its parent, so
/// a layer's self time is its duration minus the time its children
/// cover. Nothing is written until the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< Seconds since the log was created.
    double end = 0.0;
    int parent = -1;     ///< Index into spans(), -1 for a root span.
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int Open(const std::string& name);
  void Close(int index);
  /// Records a finished child of `parent` whose extent the benchmark
  /// knows only from a duration the program reported (the replay phases
  /// of RunResult); laid out back to back from `start`.
  int AddChild(int parent, const std::string& name, double start,
               double seconds);

  double Now() const { return SecondsBetween(origin_, Clock::now()); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, summed over every span of that name.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes every span as JSON; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing, so untraced runs pay one
/// branch per span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), index_(log != nullptr ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench

#endif  // CASCACHE_PERFBENCH_SPANS_H_

#include "spans.h"

#include <cstdio>

namespace perfbench {

int SpanLog::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.start = Now();
  span.end = span.start;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::Close(int index) {
  spans_[static_cast<size_t>(index)].end = Now();
  // Spans close innermost first (ScopedSpan is scoped), so the closing
  // span is the top of the open stack.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int SpanLog::AddChild(int parent, const std::string& name, double start,
                      double seconds) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = start + seconds;
  span.parent = parent;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_seconds[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] +=
        (spans_[i].end - spans_[i].start) - child_seconds[i];
  }
  return self;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.parent, s.start, s.end,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

// In-memory span log for the traced run.
//
// A span is (name, start, end, parent) on the monotonic clock. Spans nest
// through an explicit stack: the span open when another opens is its
// parent. They are kept in memory while the workload runs and written out
// once at the end (write_csv), so recording costs one vector append per
// span. A layer's self time is its duration minus the part its children
// cover; summarize() derives it per span name.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNoParent = 0xFFFFFFFFu;

  /// Interns `name`; the returned handle makes open() allocation-free.
  std::uint32_t intern(const std::string& name);

  Id open(std::uint32_t name);
  /// Ends `span` and any span still open inside it.
  void close(Id span);

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per-name count, total and self time.
  std::map<std::string, Totals> summarize() const;

  /// Writes one line per span: id,parent,name,start_ns,end_ns (start
  /// relative to the first span).
  void write_csv(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }
  /// Duration of a closed span.
  double duration_s(Id span) const {
    return static_cast<double>(spans_[span].end_ns - spans_[span].start_ns) *
           1e-9;
  }

 private:
  struct Span {
    std::uint32_t name;
    Id parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
  std::vector<Id> stack_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
};

/// Where spans go right now; null while tracing is off, so every
/// recording site costs one branch in an untraced phase.
extern SpanLog* g_spans;
/// The run's log when --trace 1 (else null). Workloads switch g_spans to it
/// only around their traced phases, through Tracing.
extern SpanLog* g_trace_log;

/// Records spans into g_trace_log for the lifetime of this object.
class Tracing {
 public:
  Tracing() { g_spans = g_trace_log; }
  ~Tracing() { g_spans = nullptr; }
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;
};

/// RAII span around a block; a no-op while g_spans is null.
class Scope {
 public:
  explicit Scope(std::uint32_t name)
      : log_(g_spans), span_(log_ != nullptr ? log_->open(name) : 0) {}
  explicit Scope(const std::string& name)
      : Scope(g_spans != nullptr ? g_spans->intern(name) : 0u) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  SpanLog::Id span_;
};

}  // namespace perfbench

#include "spans.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

SpanLog* g_spans = nullptr;
SpanLog* g_trace_log = nullptr;

namespace {

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint32_t SpanLog::intern(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

SpanLog::Id SpanLog::open(std::uint32_t name) {
  const auto id = static_cast<Id>(spans_.size());
  spans_.push_back(
      Span{name, stack_.empty() ? kNoParent : stack_.back(), monotonic_ns(), 0});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(Id span) {
  // Spans still open inside `span` (an exception unwound past their
  // owners) end with it.
  const std::int64_t now = monotonic_ns();
  while (!stack_.empty()) {
    const Id top = stack_.back();
    stack_.pop_back();
    spans_[top].end_ns = now;
    if (top == span) return;
  }
  throw std::logic_error("SpanLog: closing a span that is not open");
}

std::map<std::string, SpanLog::Totals> SpanLog::summarize() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    Totals& t = out[names_[s.name]];
    ++t.count;
    t.total_s += dur;
    t.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
  }
  return out;
}

void SpanLog::write_csv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("SpanLog: cannot write " + path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "id,parent,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << ',';
    if (s.parent == kNoParent) {
      os << "-";
    } else {
      os << s.parent;
    }
    os << ',' << names_[s.name] << ',' << s.start_ns - origin << ','
       << s.end_ns - origin << '\n';
  }
}

}  // namespace perfbench

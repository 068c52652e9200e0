#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {
namespace {

thread_local std::vector<std::int64_t> open_spans;

std::uint64_t ThreadNumber() {
  static std::atomic<std::uint64_t> next{0};
  thread_local const std::uint64_t number = next.fetch_add(1);
  return number;
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

std::int64_t Tracer::Open(std::string name, std::string label,
                          std::int64_t parent) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = std::move(name);
  span.label = std::move(label);
  span.parent = open_spans.empty() ? parent : open_spans.back();
  span.thread = ThreadNumber();
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(spans_.size());
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(index);
  return index;
}

void Tracer::Close(std::int64_t index) {
  if (index < 0) return;
  const std::int64_t end = NowNs();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

Tracer::Totals Tracer::Sum(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Totals totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    const double s = spans_[i].seconds();
    totals.seconds += s;
    ++totals.count;
    if (totals.max_index < 0 || s > totals.max_seconds) {
      totals.max_seconds = s;
      totals.max_index = static_cast<std::int64_t>(i);
    }
  }
  return totals;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out += i == 0 ? "" : ",\n";
    out += "{\"ph\":\"X\",\"pid\":1,\"name\":\"";
    AppendEscaped(&out, s.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%lld,\"label\":\"",
                  static_cast<unsigned long long>(s.thread),
                  (s.start_ns - origin) * 1e-3,
                  (s.end_ns - s.start_ns) * 1e-3, i,
                  static_cast<long long>(s.parent));
    out += buf;
    AppendEscaped(&out, s.label);
    out += "\"}}";
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::trunc);
  file << out;
  return static_cast<bool>(file);
}

std::string Tracer::SelfTimeTable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Child time is charged to the parent only for children on the parent's
  // own thread; callbacks from engine worker threads overlap each other.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].thread == s.thread) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    ++row.count;
    const std::int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    row.total_ns += d;
    row.self_ns += d - child_ns[i];
  }
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-26s %9s %12s %12s\n", "span", "count",
                "total_s", "self_s");
  os << buf;
  for (const auto& [name, row] : rows) {
    std::snprintf(buf, sizeof(buf), "%-26s %9llu %12.6f %12.6f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.total_ns * 1e-9, row.self_ns * 1e-9);
    os << buf;
  }
  return os.str();
}

}  // namespace perfbench

#include "perfbench/src/trace.h"

#include <fstream>

namespace perfbench {

size_t Tracer::Open(std::string name) {
  SpanRecord s;
  s.request = request_;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.name = std::move(name);
  s.start = Clock::now();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::Close(size_t index) {
  spans_[index].end = Clock::now();
  // Spans close in LIFO order; tolerate an early Close() of an inner span.
  for (size_t i = open_.size(); i-- > 0;) {
    if (open_[i] == index) {
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

void Tracer::Count(size_t index, std::string key, double value) {
  spans_[index].counts.emplace_back(std::move(key), value);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s.Ms());
  }
  return out;
}

std::vector<double> Tracer::Counts(const std::string& name,
                                   const std::string& key) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name != name) continue;
    for (const auto& [k, v] : s.counts) {
      if (k == key) out.push_back(v);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
  for (const SpanRecord& s : spans_) {
    os << "{\"request\":" << s.request << ",\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"name\":\"" << s.name << "\",\"start_us\":"
       << static_cast<int64_t>(MsBetween(origin, s.start) * 1e3)
       << ",\"end_us\":" << static_cast<int64_t>(MsBetween(origin, s.end) * 1e3);
    for (const auto& [k, v] : s.counts) os << ",\"" << k << "\":" << v;
    os << "}\n";
  }
  return static_cast<bool>(os);
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

}  // namespace perfbench

// Spans recorded by the traced replay. The benchmark calls each layer's
// public functions itself, in the order the service does, and wraps every
// call in a span: name, start, end, parent span and request id, plus the
// counts the call produced. Spans stay in memory; Tracer::Write dumps them
// as JSON lines when the run ends, and the per-layer metrics are computed
// from them.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/bench_util.h"

namespace perfbench {

struct SpanRecord {
  uint64_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  std::string name;
  Clock::time_point start, end;
  std::vector<std::pair<std::string, double>> counts;

  double Ms() const { return MsBetween(start, end); }
};

class Tracer {
 public:
  /// Starts a request; spans opened until the next call share its id.
  void BeginRequest() { ++request_; }

  /// Opens a span under the innermost open one; returns its index.
  size_t Open(std::string name);
  void Close(size_t index);
  /// Attaches a count to the span at `index`.
  void Count(size_t index, std::string key, double value);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations (ms) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Values of count `key` over spans called `name`.
  std::vector<double> Counts(const std::string& name, const std::string& key) const;

  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;
};

/// RAII span: opens on construction, closes on destruction or Close().
class Span {
 public:
  Span(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->Open(std::move(name));
  }
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Count(std::string key, double value) {
    if (tracer_ != nullptr) tracer_->Count(index_, std::move(key), value);
  }
  void Close() {
    if (tracer_ != nullptr && !closed_) tracer_->Close(index_);
    closed_ = true;
  }

 private:
  Tracer* tracer_;
  size_t index_ = 0;
  bool closed_ = false;
};

double Sum(const std::vector<double>& v);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

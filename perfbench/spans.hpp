// Tracing and statistics for the benchmark: spans recorded around the calls
// the benchmark makes into each layer, their self time, and the percentile
// rule every reported timing follows.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// One timed call into a layer. Times are seconds since the recorder's epoch;
// `parent` is the id of the enclosing span (-1 at the root), `job` the
// service job id the call belongs to (-1 outside service-mix).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int id = -1;
  int parent = -1;
  std::int64_t job = -1;
};

// A span's duration minus the part of its interval covered by the union of
// its children. Children may overlap each other (concurrent jobs under one
// client-loop span), so the union is taken, never the sum.
double self_time(const Span& span, const std::vector<Span>& all);

// Keeps spans in memory while the workload runs; write_json() puts them on
// disk once it ends. Disabled recorders (the untimed-overhead runs and every
// --trace 0 run) record nothing. Thread-safe: service-mix clients record
// concurrently.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  double now() const;

  // Opens a span and returns its id (-1 when disabled); close() stamps its
  // end time.
  int open(const std::string& name, int parent = -1, std::int64_t job = -1);
  void close(int id);
  // Records an already-timed span; returns its id (-1 when disabled).
  int add(const std::string& name, double start, double end, int parent = -1,
          std::int64_t job = -1);

  std::vector<Span> snapshot() const;
  // Durations of every closed span with this name, in recording order.
  std::vector<double> durations(const std::string& name) const;

  // {"env": <env_json>, "spans": [...]} with each span's self time.
  bool write_json(const std::string& path, const std::string& env_json) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex m_;
  std::vector<Span> spans_;  // guarded by m_
};

// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(SpanRecorder& rec, const std::string& name, int parent = -1, std::int64_t job = -1)
      : rec_(rec), id_(rec.open(name, parent, job)) {}
  ~Scope() { rec_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

// The percentile rule: a timing's p-th percentile is reported only when at
// least ten samples lie beyond it (n * (1 - p/100) >= 10, so p99 needs 1000
// samples); a median needs one sample. Returns nullopt when refused.
std::optional<double> percentile(std::vector<double> samples, double p);

// Median of a non-empty sample (0 for an empty one).
double median(std::vector<double> samples);

}  // namespace perfbench

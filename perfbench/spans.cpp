#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double self_time(const Span& span, const std::vector<Span>& all) {
  std::vector<std::pair<double, double>> children;
  for (const Span& s : all) {
    if (span.id < 0 || s.parent != span.id) continue;
    const double lo = std::max(s.start, span.start);
    const double hi = std::min(s.end, span.end);
    if (hi > lo) children.emplace_back(lo, hi);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double run_lo = 0.0, run_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : children) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return (span.end - span.start) - covered;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

int SpanRecorder::open(const std::string& name, int parent, std::int64_t job) {
  if (!enabled_) return -1;
  const double t = now();
  std::lock_guard<std::mutex> lock(m_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, t, t, id, parent, job});
  return id;
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(m_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

int SpanRecorder::add(const std::string& name, double start, double end, int parent,
                      std::int64_t job) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(m_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, start, end, id, parent, job});
  return id;
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(m_);
  return spans_;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

bool SpanRecorder::write_json(const std::string& path, const std::string& env_json) const {
  const std::vector<Span> spans = snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"env\": %s,\n \"spans\": [", env_json.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n  {\"id\": %d, \"name\": \"%s\", \"parent\": %d, \"job\": %lld, "
                 "\"start\": %.9f, \"end\": %.9f, \"self\": %.9f}",
                 i ? "," : "", s.id, s.name.c_str(), s.parent, static_cast<long long>(s.job),
                 s.start, s.end, self_time(s, spans));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::optional<double> percentile(std::vector<double> samples, double p) {
  const double n = static_cast<double>(samples.size());
  if (samples.empty()) return std::nullopt;
  if (p > 50.0 && n * (1.0 - p / 100.0) < 10.0 - 1e-9) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  // Linear interpolation between closest ranks (numpy's default method).
  const double rank = p / 100.0 * (n - 1.0);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return samples.empty() ? 0.0 : *percentile(std::move(samples), 50.0);
}

}  // namespace perfbench

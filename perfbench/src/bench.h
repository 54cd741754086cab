// Shared pieces of the E-TSN benchmark: run options, the outcome every
// workload fills in, timing helpers and the span tracer of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  /// When main() began: set-up time is measured from here.
  Clock::time_point start = Clock::now();
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Directory, relative to the working directory, for span files.
inline constexpr const char* kSpanDir = ".bench_out";

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports.  `errors` lists every failed correctness check;
/// a run with any error is not correct.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> endToEnd;  // reported with --trace 0
  std::vector<Metric> layers;    // reported with --trace 1
  /// The workload's own named figures (sweep_wall_s, admit_p99_ms, ...),
  /// printed on a line of their own for readers.
  std::vector<Metric> named;

  std::int64_t errorCount = 0;  // failed checks, including unlisted ones

  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++errorCount;
    if (errors.size() < 50) errors.push_back(what);
  }

  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
};

double median(std::vector<double> v);
/// Nearest-rank percentile (p in (0, 100]) of the samples.
double nearestRank(std::vector<double> v, double p);
/// The tail: the highest sample with at least ten samples above it (the
/// largest one when there are ten or fewer).
double tail(std::vector<double> v);
/// Peak resident set of this process in MB (VmHWM).
double peakRssMb();

/// Spans recorded around calls into the library's public functions.  A
/// span knows its parent (the span open on the same thread when it began),
/// so self time is its duration minus what its children cover.  Spans
/// stay in memory and are written out once, when the run ends.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    double start = 0;  // seconds since the tracer was created
    double end = 0;
    int parent = -1;
    double childSeconds = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int begin(const std::string& name);
  void end(int id);

  /// Total duration of every span with this name.
  double total(const std::string& name) const;
  /// Longest single span with this name.
  double longest(const std::string& name) const;
  std::vector<double> durations(const std::string& name) const;

  void count(const std::string& name, double delta) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    counters_[name] += delta;
  }
  double counter(const std::string& name) const;

  /// Writes spans, per-name totals and self times as JSON.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span; does nothing when the tracer is disabled.
class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Workloads.  Each fills `out`; the tracer is enabled only in a traced
/// run.
void runPaperSweep(const Options& opt, Tracer& tracer, Outcome& out);
void runPlantChurn(const Options& opt, Tracer& tracer, Outcome& out);
void runSimSoak(const Options& opt, Tracer& tracer, Outcome& out);
/// Self-tests of the independent checks; returns the number of failures.
int runSelfTests();

}  // namespace pb

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace pb {

namespace {
thread_local std::vector<int> openSpans;
}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double nearestRank(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

int Tracer::begin(const std::string& name) {
  if (!enabled_) return -1;
  const double now = secondsSince(t0_);
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord s;
  s.name = name;
  s.start = now;
  s.parent = openSpans.empty() ? -1 : openSpans.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  openSpans.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double now = secondsSince(t0_);
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  s.end = now;
  // Children of one parent run one after another on its thread, so the
  // time they cover is the sum of their durations.
  if (s.parent >= 0) {
    spans_[static_cast<std::size_t>(s.parent)].childSeconds += s.end - s.start;
  }
  if (!openSpans.empty() && openSpans.back() == id) openSpans.pop_back();
}

double Tracer::total(const std::string& name) const {
  double sum = 0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

double Tracer::longest(const std::string& name) const {
  double best = 0;
  for (const double d : durations(name)) best = std::max(best, d);
  return best;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  std::map<std::string, std::pair<double, double>> byName;  // total, self
  for (const SpanRecord& s : spans_) {
    auto& [total, self] = byName[s.name];
    total += s.end - s.start;
    self += s.end - s.start - s.childSeconds;
  }
  char buf[256];
  out << "{\"summary\":{";
  bool first = true;
  for (const auto& [name, ts] : byName) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"total_s\":%.9f,\"self_s\":%.9f}",
                  first ? "" : ",", name.c_str(), ts.first, ts.second);
    out << buf;
    first = false;
  }
  out << "},\"counters\":{";
  first = true;
  for (const auto& [name, v] : counters_) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", first ? "" : ",",
                  name.c_str(), v);
    out << buf;
    first = false;
  }
  out << "},\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d}",
                  i ? "," : "", i, s.name.c_str(), s.start, s.end, s.parent);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace pb

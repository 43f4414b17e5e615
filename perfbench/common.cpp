#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double tailQuantile(std::size_t samples) {
  for (const double q : {0.99, 0.9}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  metrics_.push_back(Entry{name, value, unit});
}

void Report::select(
    const std::vector<std::pair<std::string, std::string>>& names,
    bool missingIsZero) {
  std::vector<Entry> kept;
  for (const auto& [name, unit] : names) {
    const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                                 [&](const Entry& e) { return e.name == name; });
    if (it == metrics_.end()) {
      check(missingIsZero, "metric " + name + " was not measured");
      kept.push_back(Entry{name, 0.0, unit});
    } else {
      kept.push_back(Entry{name, it->value, unit});
    }
  }
  metrics_ = std::move(kept);
}

void Report::normalizeTimes(double factor) {
  for (Entry& e : metrics_) {
    if (e.unit == "s" || e.unit == "ms" || e.unit == "us") {
      e.value *= factor;
    } else if (e.unit == "1/s") {
      e.value /= factor;
    }
  }
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  failures_.push_back(what);
  std::cerr << "CHECK FAILED: " << what << "\n";
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out << (i > 0 ? ", " : "") << "\"" << e.name << "\": {\"value\": " << num
        << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string Report::table() const {
  std::ostringstream out;
  char line[160];
  for (const Entry& e : metrics_) {
    std::snprintf(line, sizeof(line), "  %-34s %16.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out << line;
  }
  return out.str();
}

// ---------------------------------------------------------------- tracing

namespace {

struct SpanRecord {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  Clock::time_point start;
  Clock::time_point end;
  double childSeconds;
};

std::atomic<bool> gEnabled{false};
std::atomic<std::uint64_t> gNextId{1};
std::mutex gMu;
std::vector<SpanRecord> gSpans;  // guarded by gMu
thread_local Span* tCurrent = nullptr;

}  // namespace

void Tracer::enable(bool on) { gEnabled.store(on); }
bool Tracer::enabled() { return gEnabled.load(std::memory_order_relaxed); }

SpanStats Tracer::stats(const std::string& name) {
  SpanStats s;
  const std::lock_guard<std::mutex> lock(gMu);
  for (const SpanRecord& r : gSpans) {
    if (name != r.name) continue;
    const double d = std::chrono::duration<double>(r.end - r.start).count();
    ++s.count;
    s.totalSeconds += d;
    s.selfSeconds += std::max(0.0, d - r.childSeconds);
    s.durations.push_back(d);
  }
  return s;
}

std::size_t Tracer::count() {
  const std::lock_guard<std::mutex> lock(gMu);
  return gSpans.size();
}

bool Tracer::write(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(gMu);
  Clock::time_point epoch = Clock::time_point::max();
  for (const SpanRecord& r : gSpans) epoch = std::min(epoch, r.start);
  out << "id,parent,request,name,start_us,end_us,self_us\n";
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  for (const SpanRecord& r : gSpans) {
    const double d = us(r.end) - us(r.start);
    out << r.id << "," << r.parent << "," << r.request << "," << r.name << ","
        << us(r.start) << "," << us(r.end) << ","
        << std::max(0.0, d - r.childSeconds * 1e6) << "\n";
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  if (!Tracer::enabled()) return;
  id_ = gNextId.fetch_add(1, std::memory_order_relaxed);
  parent_ = tCurrent;
  if (parent_ != nullptr) {
    parentId_ = parent_->id_;
    if (request_ == 0) request_ = parent_->request_;
  }
  tCurrent = this;
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  const Clock::time_point end = Clock::now();
  const double d = std::chrono::duration<double>(end - start_).count();
  tCurrent = parent_;
  if (parent_ != nullptr) parent_->childSeconds_ += d;
  const std::lock_guard<std::mutex> lock(gMu);
  gSpans.push_back(SpanRecord{name_, id_, parentId_, request_, start_, end,
                              childSeconds_});
}

// ------------------------------------------------------------ host probe

namespace {

std::vector<double> gProbeSeconds;
Clock::time_point gLastProbe;
volatile double gProbeSink;

/// One LU factorisation with partial pivoting of a fixed 200 x 200 matrix.
void probeKernel() {
  constexpr int n = 200;
  static std::vector<double> a(n * n);
  for (int i = 0; i < n * n; ++i) a[i] = std::sin(i * 0.37);
  for (int k = 0; k + 1 < n; ++k) {
    int pivot = k;
    double largest = std::fabs(a[k * n + k]);
    for (int i = k + 1; i < n; ++i) {
      const double v = std::fabs(a[i * n + k]);
      if (v > largest) {
        largest = v;
        pivot = i;
      }
    }
    if (pivot != k) {
      for (int j = 0; j < n; ++j) std::swap(a[k * n + j], a[pivot * n + j]);
    }
    const double d = a[k * n + k];
    if (d == 0) continue;
    for (int i = k + 1; i < n; ++i) {
      const double f = a[i * n + k] / d;
      if (f == 0) continue;
      double* row = &a[i * n];
      const double* top = &a[k * n];
      for (int j = k; j < n; ++j) row[j] -= f * top[j];
    }
  }
  gProbeSink = a[n * n - 1];
}

}  // namespace

void HostProbe::sample() {
  const Clock::time_point t = Clock::now();
  probeKernel();
  gLastProbe = Clock::now();
  gProbeSeconds.push_back(
      std::chrono::duration<double>(gLastProbe - t).count());
}

void HostProbe::tick() {
  if (gProbeSeconds.empty() || secondsSince(gLastProbe) >= kIntervalSeconds) {
    sample();
  }
}

std::size_t HostProbe::samples() { return gProbeSeconds.size(); }

double HostProbe::medianSeconds() { return median(gProbeSeconds); }

double HostProbe::factor() { return kReferenceSeconds / medianSeconds(); }

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace perfbench

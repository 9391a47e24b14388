#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/build_info.h"
#include "util/parallel.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

LatencySummary SummarizeLatencies(std::vector<double> ms) {
  LatencySummary s;
  std::sort(ms.begin(), ms.end());
  s.samples = ms.size();
  if (ms.empty()) {
    return s;
  }
  s.p25_ms = QuantileSorted(ms, 0.25);
  s.p50_ms = QuantileSorted(ms, 0.50);
  s.p75_ms = QuantileSorted(ms, 0.75);
  const std::size_t n = ms.size();
  const std::size_t beyond = n > 10 ? 10 : 0;
  const std::size_t idx = n - 1 - beyond;
  s.tail_ms = ms[idx];
  s.tail_beyond = beyond;
  s.tail_percentile =
      n > 1 ? 100.0 * static_cast<double>(idx) / static_cast<double>(n - 1)
            : 100.0;
  return s;
}

double PeakRssMB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------

LayerTrace& LayerTrace::Global() {
  static LayerTrace trace;
  return trace;
}

void LayerTrace::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.clear();
}

void LayerTrace::Add(const char* name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_[name] += value;
}

std::map<std::string, double> LayerTrace::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // One literal may have several addresses across translation units.
  std::map<std::string, double> merged;
  for (const auto& [name, value] : totals_) {
    merged[name] += value;
  }
  return merged;
}

namespace {

struct Frame {
  double start = 0.0;
  double child = 0.0;
};

thread_local std::vector<Frame> tls_frames;

}  // namespace

LayerSpan::LayerSpan(const char* name, const char* inclusive_name)
    : name_(name),
      inclusive_name_(inclusive_name),
      active_(LayerTrace::Global().enabled()) {
  if (active_) {
    tls_frames.push_back(Frame{NowSeconds(), 0.0});
  }
}

LayerSpan::~LayerSpan() {
  if (!active_) {
    return;
  }
  const Frame frame = tls_frames.back();
  tls_frames.pop_back();
  const double duration = NowSeconds() - frame.start;
  if (!tls_frames.empty()) {
    tls_frames.back().child += duration;
  }
  LayerTrace& trace = LayerTrace::Global();
  trace.Add(name_, (duration - frame.child) * 1e3);
  if (inclusive_name_ != nullptr) {
    trace.Add(inclusive_name_, duration * 1e3);
  }
}

void Count(const char* name, double n) {
  LayerTrace& trace = LayerTrace::Global();
  if (trace.enabled()) {
    trace.Add(name, n);
  }
}

// ---------------------------------------------------------------------------

void CountingEstimator::Note(const mgardp::RefactoredField& field,
                             const std::vector<int>& prefix) const {
  Count("progressive.estimate_calls", 1);
  if (!learned_) {
    return;
  }
  double passes = 0;
  for (int l = 0; l < field.num_levels(); ++l) {
    const auto& max_abs = field.level_errors[l].max_abs;
    const int b =
        std::clamp(prefix[l], 0, static_cast<int>(max_abs.size()) - 1);
    if (max_abs[b] > 0.0) {
      ++passes;
    }
  }
  Count("models.forward_passes", passes);
}

double CountingEstimator::Estimate(const mgardp::RefactoredField& field,
                                   const std::vector<int>& prefix) const {
  Note(field, prefix);
  if (span_name_ == nullptr) {
    return inner_->Estimate(field, prefix);
  }
  LayerSpan span(span_name_);
  return inner_->Estimate(field, prefix);
}

mgardp::Result<double> CountingEstimator::TryEstimate(
    const mgardp::RefactoredField& field,
    const std::vector<int>& prefix) const {
  Note(field, prefix);
  if (span_name_ == nullptr) {
    return inner_->TryEstimate(field, prefix);
  }
  LayerSpan span(span_name_);
  return inner_->TryEstimate(field, prefix);
}

mgardp::Result<std::string> CountingBackend::Get(int level, int plane) {
  LayerSpan span("storage.get");
  mgardp::Result<std::string> payload = inner_->Get(level, plane);
  if (payload.ok()) {
    Count("storage.segments_read", 1);
    Count("storage.bytes_read", static_cast<double>(payload.value().size()));
  }
  return payload;
}

// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) {
    body_ += ", ";
  }
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key);
  body_ += JsonNumber(v);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += JsonString(v);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

// ---------------------------------------------------------------------------

namespace {

std::string ReadLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// Size of the first unified/data cache at `level` seen by cpu0, bytes.
double CacheBytes(int level) {
  for (int index = 0; index < 16; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string lvl = ReadLine(dir + "/level");
    if (lvl.empty()) {
      break;
    }
    if (std::stoi(lvl) != level || ReadLine(dir + "/type") == "Instruction") {
      continue;
    }
    const std::string size = ReadLine(dir + "/size");
    double bytes = std::atof(size.c_str());
    if (!size.empty() && size.back() == 'K') {
      bytes *= 1024.0;
    } else if (!size.empty() && size.back() == 'M') {
      bytes *= 1024.0 * 1024.0;
    }
    return bytes;
  }
  return 0.0;
}

}  // namespace

std::string HeaderJson(std::uint64_t seed, double working_set_bytes) {
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  const double l2 = CacheBytes(2);
  const double l3 = CacheBytes(3);
  JsonObject h;
  h.Str("host", host)
      .Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Num("l2_bytes", l2)
      .Num("l3_bytes", l3)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", mgardp::obs::BuildCompiler())
      .Str("git_describe", mgardp::obs::BuildGitDescribe())
      .Num("pool_threads", mgardp::GlobalThreadCount())
      .Num("seed", static_cast<double>(seed))
      .Num("working_set_bytes", working_set_bytes)
      .Num("working_set_over_l2", l2 > 0 ? working_set_bytes / l2 : 0.0)
      .Num("working_set_over_l3", l3 > 0 ? working_set_bytes / l3 : 0.0);
  return h.str();
}

}  // namespace perfbench

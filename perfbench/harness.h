// Shared pieces of the benchmark of record: timing and statistics, the
// benchmark's own layer tracer, counting decorators around the library's
// estimator and storage interfaces, host facts, and a small JSON writer.
//
// The library's internal tracer stays off; every span here is opened by the
// benchmark around a public call into one module of src/.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "progressive/error_estimator.h"
#include "storage/storage_backend.h"

namespace perfbench {

double NowSeconds();

// Linear-interpolated quantile of an ascending sample, q in [0, 1].
double QuantileSorted(const std::vector<double>& sorted, double q);
double Median(std::vector<double> values);

// Latency of one run's operations. The tail is the highest percentile with
// at least ten samples beyond it: the 11th-largest sample.
struct LatencySummary {
  std::size_t samples = 0;
  double p25_ms = 0.0;
  double p50_ms = 0.0;
  double p75_ms = 0.0;
  double tail_ms = 0.0;
  double tail_percentile = 0.0;
  std::size_t tail_beyond = 0;
};
LatencySummary SummarizeLatencies(std::vector<double> ms);

// Peak resident set size of this process, MB.
double PeakRssMB();

// ---------------------------------------------------------------------------
// Layer tracer. Spans nest per thread; each span adds its exclusive time
// (duration minus the time its child spans cover) under its own name, so
// the exclusive times of one operation add up to its root span. Counters
// accumulate alongside. Disabled, a span costs one relaxed load.

class LayerTrace {
 public:
  static LayerTrace& Global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Reset();
  // `name` must be a string literal: totals are keyed by its address so the
  // hot path (thousands of estimator calls per operation) never allocates.
  void Add(const char* name, double value);
  std::map<std::string, double> Totals() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<const char*, double> totals_;  // guarded by mu_
};

class LayerSpan {
 public:
  // Adds exclusive milliseconds under `name`; when `inclusive_name` is set,
  // also the span's whole duration under that name. Both are literals.
  explicit LayerSpan(const char* name, const char* inclusive_name = nullptr);
  ~LayerSpan();

  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  const char* name_;
  const char* inclusive_name_;
  bool active_;
};

// Adds `n` to a counter while tracing is enabled.
void Count(const char* name, double n);

// ---------------------------------------------------------------------------
// Counting decorators: exact call counts measured from outside the library.

// Counts Estimate calls as progressive.estimate_calls. With `span_name`, each
// call runs inside a span of that name. With `learned`, also counts the
// E-MGARD encoder forward passes each call makes (one per level whose
// stored error is positive, as LearnedConstantsEstimator evaluates them) as
// models.forward_passes.
class CountingEstimator : public mgardp::ErrorEstimator {
 public:
  CountingEstimator(const mgardp::ErrorEstimator* inner,
                    const char* span_name, bool learned)
      : inner_(inner), span_name_(span_name), learned_(learned) {}

  double Estimate(const mgardp::RefactoredField& field,
                  const std::vector<int>& prefix) const override;
  mgardp::Result<double> TryEstimate(
      const mgardp::RefactoredField& field,
      const std::vector<int>& prefix) const override;
  std::string name() const override { return inner_->name(); }

 private:
  void Note(const mgardp::RefactoredField& field,
            const std::vector<int>& prefix) const;

  const mgardp::ErrorEstimator* inner_;
  const char* span_name_;
  bool learned_;
};

// Counts reads as storage.segments_read / storage.bytes_read, each inside a
// storage.get span. Writes pass through.
class CountingBackend : public mgardp::StorageBackend {
 public:
  explicit CountingBackend(mgardp::StorageBackend* inner) : inner_(inner) {}

  mgardp::Result<std::string> Get(int level, int plane) override;
  mgardp::Status Put(int level, int plane, std::string payload) override {
    return inner_->Put(level, plane, std::move(payload));
  }
  bool Contains(int level, int plane) const override {
    return inner_->Contains(level, plane);
  }
  std::vector<std::pair<int, int>> Keys() const override {
    return inner_->Keys();
  }
  std::string name() const override { return "count+" + inner_->name(); }

 private:
  mgardp::StorageBackend* inner_;
};

// ---------------------------------------------------------------------------
// JSON output.

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

// Builds one JSON object, members in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

// The result header: host, nproc, cache sizes, build, pool threads, seed,
// and each workload's working set against the caches.
std::string HeaderJson(std::uint64_t seed, double working_set_bytes);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

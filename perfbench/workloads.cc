#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>

#include "harness.h"
#include "models/dmgard.h"
#include "models/emgard.h"
#include "models/hybrid.h"
#include "models/training_data.h"
#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "replay.h"
#include "service/retrieval_session.h"
#include "service/scheduler.h"
#include "service/segment_cache.h"
#include "service/service_metrics.h"
#include "sim/dataset.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace perfbench {

using mgardp::Array3Dd;
using mgardp::Dims3;
using mgardp::RefactoredField;
using mgardp::Result;
using mgardp::RetrievalPlan;

namespace {

// Relative tolerances, loosest first. Every round of a workload visits each
// rung equally often, in a seeded order, so a run's mix of cheap and costly
// operations does not depend on how many rounds fit in its time.
constexpr double kRungs[] = {1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6};
constexpr int kNumRungs = 6;
// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr std::size_t kMaxFailureNotes = 8;

const Dims3 kLarge{129, 129, 129};  // per-element work dominates, > L2
const Dims3 kSmall{65, 65, 65};

double FieldBytes(const Dims3& dims) {
  return static_cast<double>(dims.size() * sizeof(double));
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

mgardp::FieldSeries GrayScottDuSeries(const Dims3& dims, int timesteps,
                                      std::uint64_t seed) {
  mgardp::GrayScottDatasetOptions options;
  options.dims = dims;
  options.num_timesteps = timesteps;
  options.params.seed = seed;
  return std::move(mgardp::GenerateGrayScott(options)[0]);
}

mgardp::FieldSeries WarpXEx(const Dims3& dims, int timesteps,
                            std::uint64_t seed) {
  mgardp::WarpXDatasetOptions options;
  options.dims = dims;
  options.num_timesteps = timesteps;
  options.params.seed = seed;
  return mgardp::GenerateWarpX(options, mgardp::WarpXField::kEx);
}

RefactoredField RefactorOrDie(const Array3Dd& data) {
  Result<RefactoredField> field = mgardp::Refactorer().Refactor(data);
  field.status().Abort("perfbench: refactor during set-up");
  return std::move(field).value();
}

double Ms(double seconds) { return seconds * 1e3; }

struct FailureLog {
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void Fail(const std::string& what) {
    ++failed;
    if (notes.size() < kMaxFailureNotes) {
      notes.push_back(what);
    }
  }
};

// One end-to-end operation as the caller saw it.
struct OpOutcome {
  double ms = 0.0;           // time inside the library call
  double bytes = 0.0;        // stored or fetched bytes (the paper's D)
  double field_bytes = 0.0;  // raw field bytes produced or consumed
  bool violated = false;     // actual max error above the requested bound
  int kind = 0;              // operation id, for per-kind medians
};

// Accumulates end-to-end outcomes and renders the end-to-end metrics.
struct EndToEnd {
  std::vector<double> latencies_ms;
  double bytes = 0.0;
  double field_bytes = 0.0;
  double busy_s = 0.0;
  std::uint64_t violations = 0;
  std::map<int, std::vector<double>> by_kind_ms;

  void Add(const OpOutcome& op) {
    latencies_ms.push_back(op.ms);
    by_kind_ms[op.kind].push_back(op.ms);
    bytes += op.bytes;
    field_bytes += op.field_bytes;
    busy_s += op.ms / 1e3;
    violations += op.violated ? 1 : 0;
  }

  // `wall_s` is the denominator of field_MBps: the caller's time inside
  // library calls for one caller, the loop's wall time for many.
  void Render(double setup_s, double wall_s, const FailureLog& log,
              Report* report, JsonObject* details) const {
    const LatencySummary lat = SummarizeLatencies(latencies_ms);
    const double n = static_cast<double>(std::max<std::size_t>(
        latencies_ms.size(), 1));
    report->attempted = latencies_ms.size();
    report->failed = log.failed;
    report->failures = log.notes;
    report->metrics = {
        {"setup_s", setup_s, "s"},
        {"latency_p50_ms", lat.p50_ms, "ms"},
        {"latency_tail_ms", lat.tail_ms, "ms"},
        {"field_MBps", field_bytes / 1e6 / wall_s, "MB/s"},
        {"bytes_per_op", bytes / n, "B"},
        {"within_bound_rate", 1.0 - static_cast<double>(violations) / n,
         "ratio"},
        {"success_rate", 1.0 - static_cast<double>(log.failed) / n, "ratio"},
        {"peak_rss_MB", PeakRssMB(), "MB"},
    };
    details->Num("samples", static_cast<double>(lat.samples))
        .Num("latency_p25_ms", lat.p25_ms)
        .Num("latency_p75_ms", lat.p75_ms)
        .Num("latency_tail_percentile", lat.tail_percentile)
        .Num("latency_tail_samples_beyond", static_cast<double>(lat.tail_beyond))
        .Num("violation_rate", static_cast<double>(violations) / n)
        .Num("error_rate", static_cast<double>(log.failed) / n)
        .Num("measured_wall_s", wall_s);
    JsonObject kinds;
    for (const auto& [kind, ms] : by_kind_ms) {
      kinds.Num(std::to_string(kind), Median(ms));
    }
    details->Raw("median_ms_by_op", kinds.str());
  }
};

// ---------------------------------------------------------------------------
// Per-layer report.

// Spans whose exclusive times, with progressive.unattributed, add up to
// trace.wall for every operation.
const char* const kSummedSpans[] = {
    "decompose.decompose", "decompose.extract",   "decompose.deposit",
    "decompose.recompose", "encode.encode",       "encode.decode",
    "lossless.compress",   "lossless.decompress", "storage.put",
    "storage.get",         "progressive.plan",    "progressive.pad_crop",
    "progressive.summarize", "progressive.sketch", "models.estimate",
    "models.dmgard_predict", "service.cache",     "obs.audit",
};

// Spans with a computed MB/s twin (bytes counted from array sizes).
const char* const kThroughputSpans[] = {
    "decompose.decompose", "decompose.extract", "decompose.deposit",
    "decompose.recompose", "encode.encode",     "encode.slice_only",
    "encode.decode",       "lossless.compress", "lossless.decompress",
    "storage.put",         "storage.get",
};

// Exact counters reported per operation, with their units.
const char* const kPerOpCounts[][2] = {
    {"encode.planes_decoded", "count"},
    {"storage.segments_read", "count"},
    {"storage.bytes_read", "B"},
    {"progressive.estimate_calls", "count"},
    {"models.forward_passes", "count"},
    {"service.reused_bytes", "B"},
};

const char* const kModules[] = {"decompose", "encode",   "lossless",
                                "storage",   "progressive", "models",
                                "service",   "obs"};

double Get(const std::map<std::string, double>& totals,
           const std::string& key) {
  auto it = totals.find(key);
  return it == totals.end() ? 0.0 : it->second;
}

double ModuleMs(const std::map<std::string, double>& totals,
                const std::string& module) {
  double ms = 0.0;
  for (const char* span : kSummedSpans) {
    const std::string name = span;
    if (name.compare(0, module.size() + 1, module + ".") == 0) {
      ms += Get(totals, name);
    }
  }
  return ms;
}

std::string CountsJson(const std::map<std::string, double>& totals) {
  JsonObject counts;
  for (const auto& [name, value] : totals) {
    counts.Num(name, value);
  }
  return counts.str();
}

// Inputs to the per-layer metrics of one traced run.
struct TracedRun {
  std::map<std::string, double> totals;     // default thread count
  std::map<std::string, double> totals_1t;  // one thread
  double ops = 0.0;
  double library_ms = 0.0;  // untraced library calls over the same ops
  double queue_wait_ms = 0.0;
  bool session = false;
};

void RenderLayers(const TracedRun& run, const FailureLog& log,
                  Report* report, JsonObject* details) {
  const auto& t = run.totals;
  const double n = std::max(run.ops, 1.0);
  std::vector<Metric>& m = report->metrics;
  for (const char* span : kSummedSpans) {
    m.push_back({std::string(span) + "_ms", Get(t, span) / n, "ms"});
  }
  m.push_back({"encode.slice_only_ms", Get(t, "encode.slice_only") / n, "ms"});
  for (const char* span : kThroughputSpans) {
    const double ms = Get(t, span);
    const double bytes = Get(t, std::string(span) + ".bytes");
    m.push_back({std::string(span) + "_MBps",
                 ms > 0.0 ? bytes / 1e6 / (ms / 1e3) : 0.0, "MB/s"});
  }
  for (const auto& [count, unit] : kPerOpCounts) {
    m.push_back({count, Get(t, count) / n, unit});
  }
  const double packed = Get(t, "lossless.compressed_bytes");
  m.push_back({"lossless.ratio",
               packed > 0.0 ? Get(t, "lossless.compress.bytes") / packed : 0.0,
               "ratio"});
  const double lookups = Get(t, "service.cache_lookups");
  m.push_back({"service.cache_hit_ratio",
               lookups > 0.0 ? Get(t, "service.cache_hits") / lookups : 0.0,
               "ratio"});
  const double wall = Get(t, "trace.wall");
  m.push_back({"service.refine_ms", run.session ? wall / n : 0.0, "ms"});
  m.push_back({"service.queue_wait_ms", run.queue_wait_ms, "ms"});
  m.push_back({"progressive.unattributed_ms",
               Get(t, "progressive.unattributed") / n, "ms"});
  m.push_back({"trace.wall_ms", wall / n, "ms"});
  m.push_back({"trace.overhead_pct",
               run.library_ms > 0.0 ? (wall / run.library_ms - 1.0) * 100.0
                                    : 0.0,
               "%"});
  for (const char* module : kModules) {
    const double ms = ModuleMs(t, module);
    m.push_back({std::string(module) + ".speedup_1t",
                 ms > 0.0 ? ModuleMs(run.totals_1t, module) / ms : 0.0,
                 "ratio"});
  }
  double summed = Get(t, "progressive.unattributed");
  for (const char* span : kSummedSpans) {
    summed += Get(t, span);
  }
  report->attempted = static_cast<std::uint64_t>(run.ops);
  report->failed = log.failed;
  report->failures = log.notes;
  details->Num("traced_ops", run.ops)
      .Num("accounting_wall_ms", wall)
      .Num("accounting_sum_ms", summed)
      .Num("library_wall_ms", run.library_ms)
      .Raw("totals", CountsJson(t))
      .Raw("totals_1t", CountsJson(run.totals_1t));
}

std::string SetupJson(const std::vector<double>& setup_s) {
  JsonObject setups;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setups.Num(std::to_string(i), setup_s[i]);
  }
  return setups.str();
}

// Runs `body` with tracing on and returns the snapshot of what it traced.
template <typename Body>
std::map<std::string, double> Traced(Body&& body) {
  LayerTrace& trace = LayerTrace::Global();
  trace.Reset();
  trace.set_enabled(true);
  body();
  trace.set_enabled(false);
  std::map<std::string, double> totals = trace.Totals();
  trace.Reset();
  return totals;
}

// ---------------------------------------------------------------------------
// Workloads with one caller in a closed loop.

class SerialWorkload {
 public:
  virtual ~SerialWorkload() = default;

  // Builds every input from `seed`; repeatable.
  virtual void Setup(std::uint64_t seed) = 0;
  virtual double WorkingSetBytes() const = 0;
  // Operation ids of one round; each round runs all of them, shuffled.
  virtual int RoundSize() const = 0;
  // Unrecorded operations run first, so lazy set-up (thread pool,
  // first-touch pages) is not charged to the first measured one.
  virtual std::vector<int> WarmupOps() const { return {0, RoundSize() - 1}; }
  // Rounds replayed in the traced run.
  virtual int TraceRounds() const = 0;
  // The library call for operation `op`, timed, then checked.
  virtual OpOutcome Run(int op, FailureLog* log) = 0;
  // The layer-by-layer replay of `op`, inside an operation's root span.
  // With `library_ms` set, also times the library call and checks the
  // replay is bit-identical to it; `replay_first` says which runs first.
  virtual void Replay(int op, bool replay_first, double* library_ms,
                      FailureLog* log) = 0;
};

std::vector<int> ShuffledRound(int size, std::mt19937_64* rng) {
  std::vector<int> ops(size);
  std::iota(ops.begin(), ops.end(), 0);
  std::shuffle(ops.begin(), ops.end(), *rng);
  return ops;
}

Report RunSerial(SerialWorkload* w, const Options& options) {
  std::vector<double> setup_s;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = NowSeconds();
    w->Setup(options.seed);
    setup_s.push_back(NowSeconds() - t0);
  }
  std::mt19937_64 rng(Mix(options.seed, 1));
  Report report;
  report.working_set_bytes = w->WorkingSetBytes();
  JsonObject details;
  details.Num("round_size", w->RoundSize());

  FailureLog log;
  for (int op : w->WarmupOps()) {
    w->Run(op, &log);
  }

  if (!options.trace) {
    EndToEnd e2e;
    int rounds = 0;
    const double start = NowSeconds();
    // Whole rounds only, so every run sees the same operation mix.
    while (rounds == 0 || NowSeconds() - start < options.seconds) {
      for (int op : ShuffledRound(w->RoundSize(), &rng)) {
        OpOutcome outcome = w->Run(op, &log);
        outcome.kind = op;
        e2e.Add(outcome);
      }
      ++rounds;
    }
    details.Num("rounds", rounds).Raw("setup_s_each", SetupJson(setup_s));
    e2e.Render(Median(setup_s), e2e.busy_s, log, &report, &details);
    report.details_json = details.str();
    return report;
  }

  std::vector<int> ops;
  for (int r = 0; r < w->TraceRounds(); ++r) {
    for (int op : ShuffledRound(w->RoundSize(), &rng)) {
      ops.push_back(op);
    }
  }
  TracedRun run;
  run.ops = static_cast<double>(ops.size());
  run.totals = Traced([&] {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      double library_ms = 0.0;
      w->Replay(ops[i], i % 2 == 0, &library_ms, &log);
      run.library_ms += library_ms;
    }
  });
  const int threads = mgardp::GlobalThreadCount();
  mgardp::SetGlobalThreadCount(1);
  run.totals_1t = Traced([&] {
    for (int op : ops) {
      w->Replay(op, true, nullptr, &log);
    }
  });
  mgardp::SetGlobalThreadCount(threads);
  RenderLayers(run, log, &report, &details);
  report.details_json = details.str();
  return report;
}

// Runs `body` with tracing off and returns its milliseconds: the library
// call a replay is checked against always runs untraced.
template <typename Body>
double UntracedMs(Body&& body) {
  LayerTrace& trace = LayerTrace::Global();
  const bool was = trace.enabled();
  trace.set_enabled(false);
  const double t0 = NowSeconds();
  body();
  const double ms = Ms(NowSeconds() - t0);
  trace.set_enabled(was);
  return ms;
}

// Runs `replay` under an operation root span and `library` untraced, in the
// requested order; returns the library call's milliseconds.
template <typename ReplayFn, typename LibraryFn>
double ReplayAndLibrary(bool replay_first, bool with_library,
                        ReplayFn&& replay, LibraryFn&& library) {
  auto traced = [&] {
    LayerSpan root("progressive.unattributed", "trace.wall");
    replay();
  };
  double library_ms = 0.0;
  if (!with_library) {
    traced();
  } else if (replay_first) {
    traced();
    library_ms = UntracedMs(library);
  } else {
    library_ms = UntracedMs(library);
    traced();
  }
  return library_ms;
}

// Two timesteps per app at 129^3: Gray-Scott D_u after 100 and 120 Euler
// steps, WarpX E_x at steps 5 and 6. The seed drives both simulations'
// random parts; two fields per app average out how much any one draw
// changes the cost.
std::vector<Array3Dd> LargeFields(std::uint64_t seed) {
  std::vector<Array3Dd> fields;
  for (Array3Dd& frame : GrayScottDuSeries(kLarge, 2, Mix(seed, 10)).frames) {
    fields.push_back(std::move(frame));
  }
  mgardp::WarpXParams params;
  params.seed = Mix(seed, 11);
  const mgardp::WarpXSimulator warpx(kLarge, params);
  for (int step : {5, 6}) {
    fields.push_back(warpx.Field(mgardp::WarpXField::kEx, step));
  }
  return fields;
}

// refactor: the write side. Decompose, error-matrix encode, lossless
// compress and store; nothing is planned, decoded or recomposed.
class RefactorWorkload : public SerialWorkload {
 public:
  void Setup(std::uint64_t seed) override {
    fields_ = LargeFields(seed);
    references_.assign(fields_.size(), std::nullopt);
  }
  double WorkingSetBytes() const override {
    return fields_.size() * FieldBytes(kLarge);
  }
  int RoundSize() const override { return static_cast<int>(fields_.size()); }
  // The warm-up round's outputs are the references later ones must match.
  std::vector<int> WarmupOps() const override {
    std::vector<int> all(fields_.size());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  int TraceRounds() const override { return 1; }

  OpOutcome Run(int op, FailureLog* log) override {
    Array3Dd input = fields_[op];
    const double t0 = NowSeconds();
    Result<RefactoredField> out = mgardp::Refactorer().Refactor(std::move(input));
    OpOutcome outcome;
    outcome.ms = Ms(NowSeconds() - t0);
    outcome.field_bytes = FieldBytes(kLarge);
    if (!out.ok()) {
      log->Fail("refactor: " + out.status().ToString());
      return outcome;
    }
    outcome.bytes = static_cast<double>(out.value().segments.TotalBytes());
    if (!references_[op].has_value()) {
      references_[op] = std::move(out).value();
      return outcome;
    }
    std::string why;
    if (!SameRefactoredField(out.value(), *references_[op], &why)) {
      log->Fail("refactor differs from its warm-up reference: " + why);
    }
    return outcome;
  }

  void Replay(int op, bool replay_first, double* library_ms,
              FailureLog* log) override {
    Result<RefactoredField> replayed = mgardp::Status::Internal("unset");
    Result<RefactoredField> library = mgardp::Status::Internal("unset");
    std::vector<std::vector<double>> levels;
    const mgardp::RefactorOptions options;
    Array3Dd replay_input = fields_[op];
    Array3Dd library_input = fields_[op];
    const double ms = ReplayAndLibrary(
        replay_first, library_ms != nullptr,
        [&] {
          replayed = ReplayRefactor(std::move(replay_input), options, &levels);
        },
        [&] {
          library = mgardp::Refactorer(options).Refactor(std::move(library_input));
        });
    ProbeSliceOnly(levels, options.num_planes);
    if (!replayed.ok()) {
      log->Fail("refactor replay: " + replayed.status().ToString());
      return;
    }
    std::string why;
    if (!SameRefactoredField(replayed.value(), *references_[op], &why)) {
      log->Fail("refactor replay differs from the library: " + why);
    }
    if (library_ms == nullptr) {
      return;
    }
    *library_ms = ms;
    if (!library.ok() ||
        !SameRefactoredField(library.value(), *references_[op], &why)) {
      log->Fail("library refactor differs from its warm-up reference");
    }
  }

 private:
  std::vector<Array3Dd> fields_;
  std::vector<std::optional<RefactoredField>> references_;
};

// Retrievals of `fields` checked against the kept originals.
struct Corpus {
  std::vector<Array3Dd> originals;
  std::vector<RefactoredField> fields;
  // Readers for the traced replays: counting decorators over borrowed
  // views of each field's segment store.
  std::vector<std::unique_ptr<mgardp::MemoryBackend>> memory;
  std::vector<std::unique_ptr<CountingBackend>> counting;

  void Add(Array3Dd original) {
    fields.push_back(RefactorOrDie(original));
    originals.push_back(std::move(original));
  }
  // Call once every field is added (the views point into `fields`).
  void OpenBackends() {
    memory.clear();
    counting.clear();
    for (const RefactoredField& f : fields) {
      memory.push_back(std::make_unique<mgardp::MemoryBackend>(&f.segments));
      counting.push_back(std::make_unique<CountingBackend>(memory.back().get()));
    }
  }
  double Bound(int field, int rung) const {
    return kRungs[rung] * fields[field].data_summary.range();
  }
  bool Violates(int field, const Array3Dd& data, double bound) const {
    return mgardp::MaxAbsError(originals[field].vector(), data.vector()) >
           bound;
  }
  double CompressedBytes() const {
    double bytes = 0.0;
    for (const RefactoredField& f : fields) {
      bytes += static_cast<double>(f.segments.TotalBytes());
    }
    return bytes;
  }
};

void CheckSame(const Result<Array3Dd>& replayed, const RetrievalPlan& rplan,
               const Result<Array3Dd>& library, const RetrievalPlan& lplan,
               const std::string& what, FailureLog* log) {
  std::string why;
  if (!replayed.ok() || !library.ok()) {
    log->Fail(what + ": " +
              (replayed.ok() ? library.status() : replayed.status()).ToString());
  } else if (rplan.prefix != lplan.prefix ||
             rplan.total_bytes != lplan.total_bytes) {
    log->Fail(what + " replay planned a different prefix than the library");
  } else if (!SameArray(replayed.value(), library.value(), &why)) {
    log->Fail(what + " replay differs from the library: " + why);
  }
}

// retrieve: the read side. One-shot theory-estimator retrievals of the
// 129^3 fields at every rung; planning costs under a millisecond, so this
// workload isolates fetch, decode and recompose.
class RetrieveWorkload : public SerialWorkload {
 public:
  void Setup(std::uint64_t seed) override {
    corpus_ = Corpus();
    for (Array3Dd& field : LargeFields(seed)) {
      corpus_.Add(std::move(field));
    }
    corpus_.OpenBackends();
  }
  double WorkingSetBytes() const override {
    return corpus_.fields.size() * FieldBytes(kLarge) +
           corpus_.CompressedBytes();
  }
  int RoundSize() const override {
    return static_cast<int>(corpus_.fields.size()) * kNumRungs;
  }
  int TraceRounds() const override { return 1; }

  OpOutcome Run(int op, FailureLog* log) override {
    const int f = op / kNumRungs;
    const double bound = corpus_.Bound(f, op % kNumRungs);
    mgardp::Reconstructor reconstructor(&theory_);
    RetrievalPlan plan;
    const double t0 = NowSeconds();
    Result<Array3Dd> out = reconstructor.Retrieve(corpus_.fields[f], bound, &plan);
    OpOutcome outcome;
    outcome.ms = Ms(NowSeconds() - t0);
    outcome.field_bytes = FieldBytes(kLarge);
    if (!out.ok()) {
      log->Fail("retrieve: " + out.status().ToString());
      return outcome;
    }
    outcome.bytes = static_cast<double>(plan.total_bytes);
    outcome.violated = corpus_.Violates(f, out.value(), bound);
    if (outcome.violated) {
      log->Fail("theory retrieval exceeded its bound");
    }
    return outcome;
  }

  void Replay(int op, bool replay_first, double* library_ms,
              FailureLog* log) override {
    const int f = op / kNumRungs;
    const double bound = corpus_.Bound(f, op % kNumRungs);
    CountingEstimator counting(&theory_, nullptr, false);
    RetrievalPlan rplan, lplan;
    Result<Array3Dd> replayed = mgardp::Status::Internal("unset");
    Result<Array3Dd> library = mgardp::Status::Internal("unset");
    const double ms = ReplayAndLibrary(
        replay_first, library_ms != nullptr,
        [&] {
          replayed = ReplayRetrieve(corpus_.fields[f], bound, counting,
                                    corpus_.counting[f].get(), &rplan);
        },
        [&] {
          library = mgardp::Reconstructor(&theory_).Retrieve(
              corpus_.fields[f], bound, &lplan);
        });
    if (library_ms == nullptr) {
      if (!replayed.ok()) {
        log->Fail("retrieve replay: " + replayed.status().ToString());
      }
      return;
    }
    *library_ms = ms;
    CheckSame(replayed, rplan, library, lplan, "retrieve", log);
    if (replayed.ok() && corpus_.Violates(f, replayed.value(), bound)) {
      log->Fail("theory retrieval exceeded its bound");
    }
  }

 private:
  mgardp::TheoryEstimator theory_;
  Corpus corpus_;
};

// learned: E-MGARD (greedy with learned constants) and hybrid
// (D-MGARD warm start) retrievals on WarpX E_x test-half timesteps.
// Planning dominates; this is the only workload that loads the models/dnn
// layer. Each round runs E-MGARD at every (field, rung) and hybrid at every
// rung once, 2:1: hybrid requests take a tenth of an E-MGARD one, and with
// equal counts the median would fall in the gap between the two clusters
// and swing with their extremes.
class LearnedWorkload : public SerialWorkload {
 public:
  // The data set is the simulator's default and does not vary with the
  // seed: the trained models' violation rate swings from 0 to 1 across
  // perturbation seeds, which would make the quality contract a property
  // of the seed. The seed orders the requests.
  void Setup(std::uint64_t /*seed*/) override {
    corpus_ = Corpus();
    mgardp::FieldSeries series =
        WarpXEx(kSmall, kTimesteps, mgardp::WarpXParams().seed);
    std::vector<int> train, test;
    mgardp::SplitTimesteps(series.num_timesteps(), &train, &test);
    mgardp::CollectOptions collect;
    collect.rel_bounds = mgardp::SubsampledRelativeErrorBounds(2);
    Result<std::vector<mgardp::RetrievalRecord>> records =
        mgardp::CollectRecords(series, train, collect);
    records.status().Abort("perfbench: collect training records");
    mgardp::DMgardConfig dconfig;
    dconfig.train.epochs = kEpochs;
    dconfig.train.learning_rate = 1e-3;
    Result<mgardp::DMgardModel> dmgard =
        mgardp::DMgardModel::TrainModel(records.value(), dconfig);
    dmgard.status().Abort("perfbench: train D-MGARD");
    dmgard_ = std::move(dmgard).value();
    mgardp::EMgardConfig econfig;
    econfig.train.epochs = kEpochs;
    econfig.train.learning_rate = 1e-3;
    Result<mgardp::EMgardModel> emgard =
        mgardp::EMgardModel::TrainModel(records.value(), econfig);
    emgard.status().Abort("perfbench: train E-MGARD");
    emgard_ = std::make_unique<mgardp::EMgardModel>(std::move(emgard).value());
    learned_ = std::make_unique<mgardp::LearnedConstantsEstimator>(emgard_.get());
    for (int i = 0; i < kTestFields; ++i) {
      corpus_.Add(std::move(series.frames[test[i]]));
    }
    corpus_.OpenBackends();
  }
  double WorkingSetBytes() const override {
    return corpus_.fields.size() * FieldBytes(kSmall) +
           corpus_.CompressedBytes();
  }
  int RoundSize() const override { return kTestFields * kNumRungs + kNumRungs; }
  int TraceRounds() const override { return 1; }

  OpOutcome Run(int op, FailureLog* log) override {
    const Op o = Decode(op);
    const RefactoredField& field = corpus_.fields[o.field];
    mgardp::Reconstructor reconstructor(learned_.get());
    Result<Array3Dd> out = mgardp::Status::Internal("unset");
    RetrievalPlan plan;
    const double t0 = NowSeconds();
    if (o.hybrid) {
      Result<RetrievalPlan> planned =
          mgardp::PlanHybrid(field, o.bound, dmgard_, *learned_);
      if (planned.ok()) {
        plan = std::move(planned).value();
        out = reconstructor.Reconstruct(field, plan);
        if (out.ok()) {
          mgardp::AuditRetrieval(field, "hybrid", o.bound, plan, nullptr,
                                 &out.value());
        }
      } else {
        out = planned.status();
      }
    } else {
      out = reconstructor.Retrieve(field, o.bound, &plan);
    }
    OpOutcome outcome;
    outcome.ms = Ms(NowSeconds() - t0);
    outcome.field_bytes = FieldBytes(kSmall);
    if (!out.ok()) {
      log->Fail("learned retrieve: " + out.status().ToString());
      return outcome;
    }
    outcome.bytes = static_cast<double>(plan.total_bytes);
    // Learned bounds are a quality contract, not a guarantee: counted in
    // within_bound_rate, not as failures.
    outcome.violated = corpus_.Violates(o.field, out.value(), o.bound);
    return outcome;
  }

  void Replay(int op, bool replay_first, double* library_ms,
              FailureLog* log) override {
    const Op o = Decode(op);
    const RefactoredField& field = corpus_.fields[o.field];
    CountingEstimator counting(learned_.get(), "models.estimate", true);
    RetrievalPlan rplan, lplan;
    Result<Array3Dd> replayed = mgardp::Status::Internal("unset");
    Result<Array3Dd> library = mgardp::Status::Internal("unset");
    CountingBackend* backend = corpus_.counting[o.field].get();
    const double ms = ReplayAndLibrary(
        replay_first, library_ms != nullptr,
        [&] {
          replayed = o.hybrid ? ReplayHybridRetrieve(field, o.bound, dmgard_,
                                                     counting, backend, &rplan)
                              : ReplayRetrieve(field, o.bound, counting,
                                               backend, &rplan);
        },
        [&] {
          mgardp::Reconstructor reconstructor(learned_.get());
          if (!o.hybrid) {
            library = reconstructor.Retrieve(field, o.bound, &lplan);
            return;
          }
          Result<RetrievalPlan> planned =
              mgardp::PlanHybrid(field, o.bound, dmgard_, *learned_);
          if (!planned.ok()) {
            library = planned.status();
            return;
          }
          lplan = std::move(planned).value();
          library = reconstructor.Reconstruct(field, lplan);
          if (library.ok()) {
            mgardp::AuditRetrieval(field, "hybrid", o.bound, lplan, nullptr,
                                   &library.value());
          }
        });
    if (library_ms == nullptr) {
      if (!replayed.ok()) {
        log->Fail("learned replay: " + replayed.status().ToString());
      }
      return;
    }
    *library_ms = ms;
    CheckSame(replayed, rplan, library, lplan,
              o.hybrid ? "hybrid" : "e-mgard", log);
  }

 private:
  static constexpr int kTimesteps = 8;  // train half 0-3, test half 4-7
  static constexpr int kTestFields = 2;
  static constexpr int kEpochs = 40;

  struct Op {
    int field = 0;
    double bound = 0.0;
    bool hybrid = false;
  };
  // Ops [0, fields x rungs) are E-MGARD cells; the rest are hybrid, one per
  // rung, on the fields in turn.
  Op Decode(int op) const {
    Op o;
    const int emgard_ops = kTestFields * kNumRungs;
    o.hybrid = op >= emgard_ops;
    const int rung = o.hybrid ? op - emgard_ops : op % kNumRungs;
    o.field = o.hybrid ? rung % kTestFields : op / kNumRungs;
    o.bound = corpus_.Bound(o.field, rung);
    return o;
  }

  Corpus corpus_;
  mgardp::DMgardModel dmgard_;
  std::unique_ptr<mgardp::EMgardModel> emgard_;
  std::unique_ptr<mgardp::LearnedConstantsEstimator> learned_;
};

// ---------------------------------------------------------------------------
// session: progressive refinement through the scheduler.
//
// nproc clients in a closed loop. Each runs six-step sessions down the
// ladder on a 65^3 field picked with Zipf popularity from a corpus whose
// compressed size exceeds the shared SegmentCache budget, so the cache both
// hits and evicts. A refinement's callback submits the client's next one.

constexpr int kSessionFieldsPerApp = 6;
constexpr std::size_t kCacheBudget = std::size_t{2} << 20;
constexpr double kZipfExponent = 1.1;
constexpr double kDeckSize = 48.0;
// Traced replay: this many sessions per client, interleaved client by
// client as the scheduler's waves run them.
constexpr int kTracedSessionsPerClient = 3;

class SessionWorkload {
 public:
  explicit SessionWorkload(const Options& options)
      : options_(options),
        clients_(std::max(1u, std::thread::hardware_concurrency())) {}

  Report Run() {
    std::vector<double> setup_s;
    const int repeats = options_.trace ? 1 : kSetupRepeats;
    for (int r = 0; r < repeats; ++r) {
      const double t0 = NowSeconds();
      Setup();
      setup_s.push_back(NowSeconds() - t0);
    }
    Report report;
    report.working_set_bytes =
        corpus_.fields.size() * FieldBytes(kSmall) + corpus_.CompressedBytes();
    JsonObject details;
    details.Num("clients", clients_)
        .Num("corpus_fields", static_cast<double>(corpus_.fields.size()))
        .Num("corpus_compressed_bytes", corpus_.CompressedBytes())
        .Num("cache_budget_bytes", static_cast<double>(kCacheBudget));
    FailureLog log;
    if (!options_.trace) {
      Loop loop = RunLoop(options_.seconds, &log);
      details.Num("sessions", loop.sessions)
          .Num("cache_hit_ratio", loop.cache_hit_ratio)
          .Num("queue_wait_ms", loop.queue_wait_ms)
          .Raw("setup_s_each", SetupJson(setup_s));
      loop.e2e.Render(Median(setup_s), loop.wall_s, log, &report, &details);
      report.details_json = details.str();
      return report;
    }
    // Queue wait exists only under the scheduler's concurrency, so it comes
    // from a shorter untraced loop; the layers come from a deterministic
    // replay of the same session mix.
    Loop loop = RunLoop(options_.seconds / 3.0, &log);
    details.Num("loop_cache_hit_ratio", loop.cache_hit_ratio);
    TracedRun run = Replay(&log);
    run.queue_wait_ms = loop.queue_wait_ms;
    RenderLayers(run, log, &report, &details);
    report.details_json = details.str();
    return report;
  }

 private:
  // A client's stream of Zipf-popular fields.
  struct FieldPicker {
    std::mt19937_64 rng;
    std::vector<int> deck;
    std::size_t next = 0;
  };

  struct Loop {
    EndToEnd e2e;
    double wall_s = 0.0;
    double sessions = 0.0;
    double cache_hit_ratio = 0.0;
    double queue_wait_ms = 0.0;
  };

  // One client's share of the closed loop. Only its own callbacks touch it:
  // a client has one request in flight at a time.
  struct Client {
    FieldPicker picker;
    std::unique_ptr<mgardp::RetrievalSession> session;
    int field = 0;
    int step = 0;
    double submitted = 0.0;
    EndToEnd e2e;
    double queue_wait_ms = 0.0;
    double sessions = 0.0;
    FailureLog log;
  };

  void Setup() {
    corpus_ = Corpus();
    mgardp::FieldSeries gs =
        GrayScottDuSeries(kSmall, kSessionFieldsPerApp, Mix(options_.seed, 30));
    mgardp::FieldSeries wx =
        WarpXEx(kSmall, kSessionFieldsPerApp, Mix(options_.seed, 31));
    for (int t = 0; t < kSessionFieldsPerApp; ++t) {
      corpus_.Add(std::move(gs.frames[t]));
      corpus_.Add(std::move(wx.frames[t]));
    }
    corpus_.OpenBackends();
    // The one-shot reference is a cold session refined once to the final
    // bound. (Reconstructor::Retrieve also trims its plan, which a session
    // cannot do to planes already in hand, so its prefix may be smaller.)
    one_shot_.clear();
    for (std::size_t f = 0; f < corpus_.fields.size(); ++f) {
      mgardp::RetrievalSession cold("one-shot", &corpus_.fields[f],
                                    corpus_.memory[f].get(), &theory_);
      Result<const Array3Dd*> ref =
          cold.Refine(corpus_.Bound(f, kNumRungs - 1));
      ref.status().Abort("perfbench: one-shot session reference");
      one_shot_.push_back(*ref.value());
    }
    // Zipf popularity by rank = field index, which alternates apps (fields
    // 2t and 2t+1 are Gray-Scott and WarpX step t). Sessions draw fields
    // from a deck holding each field in proportion to its weight, reshuffled
    // when spent: the mix is Zipf in every stretch of a run, not only on
    // average, so bytes per refinement do not swing with the draws.
    double total = 0.0;
    std::vector<double> weights(corpus_.fields.size());
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      total += weights[i];
    }
    deck_.clear();
    for (std::size_t i = 0; i < weights.size(); ++i) {
      const long copies = std::max(1L, std::lround(kDeckSize * weights[i] / total));
      deck_.insert(deck_.end(), copies, static_cast<int>(i));
    }
  }

  int PickField(FieldPicker* picker) const {
    if (picker->next == picker->deck.size()) {
      picker->deck = deck_;
      std::shuffle(picker->deck.begin(), picker->deck.end(), picker->rng);
      picker->next = 0;
    }
    return picker->deck[picker->next++];
  }

  FieldPicker NewPicker(int client) const {
    FieldPicker picker;
    picker.rng.seed(Mix(options_.seed, 100 + client));
    picker.next = 0;
    return picker;
  }

  // The final refinement of a session must equal a one-shot retrieval at
  // the same bound, bit for bit.
  void CheckFinal(int field, const Array3Dd& data, FailureLog* log) const {
    std::string why;
    if (!SameArray(data, one_shot_[field], &why)) {
      log->Fail("session final field differs from one-shot retrieval: " + why);
    }
  }

  Loop RunLoop(double seconds, FailureLog* log) {
    mgardp::ServiceMetrics metrics;
    mgardp::SegmentCache::Options cache_options;
    cache_options.byte_budget = kCacheBudget;
    mgardp::SegmentCache cache(cache_options, &metrics);
    mgardp::RetrievalScheduler scheduler(&metrics);
    std::vector<Client> clients(clients_);
    for (int c = 0; c < clients_; ++c) {
      clients[c].picker = NewPicker(c);
    }
    // The first half second warms the cache and is not recorded.
    const double warm_s = 0.5;
    const double start = NowSeconds();
    const double record_from = start + warm_s;
    const double stop_at = record_from + seconds;

    std::function<void(Client*)> submit;
    auto begin_session = [&](Client* c) {
      c->field = PickField(&c->picker);
      c->step = 0;
      c->session = std::make_unique<mgardp::RetrievalSession>(
          "f" + std::to_string(c->field), &corpus_.fields[c->field],
          corpus_.memory[c->field].get(), &theory_, &cache, &metrics);
    };
    submit = [&](Client* c) {
      mgardp::RetrievalScheduler::Request request;
      request.session = c->session.get();
      request.error_bound = corpus_.Bound(c->field, c->step);
      c->submitted = NowSeconds();
      mgardp::Status st = scheduler.Submit(
          request, [&, c](const mgardp::RetrievalScheduler::Response& r) {
            const double now = NowSeconds();
            const bool record = c->submitted >= record_from;
            const double bound = corpus_.Bound(c->field, c->step);
            if (record) {
              OpOutcome op;
              op.ms = r.latency_ms;
              op.kind = c->step;
              op.field_bytes = FieldBytes(kSmall);
              op.bytes = static_cast<double>(r.refinement.fetched_bytes +
                                             r.refinement.cached_bytes);
              if (!r.status.ok()) {
                c->log.Fail("refine: " + r.status.ToString());
              } else {
                op.violated = corpus_.Violates(c->field, *r.data, bound);
                if (op.violated) {
                  c->log.Fail("theory refinement exceeded its bound");
                }
                if (c->step == kNumRungs - 1) {
                  CheckFinal(c->field, *r.data, &c->log);
                }
              }
              c->e2e.Add(op);
              c->queue_wait_ms += Ms(now - c->submitted) - r.latency_ms;
            }
            if (++c->step == kNumRungs) {
              c->sessions += record ? 1 : 0;
              if (now >= stop_at) {
                c->session.reset();
                return;
              }
              begin_session(c);
            }
            submit(c);
          });
      if (!st.ok()) {
        c->log.Fail("submit: " + st.ToString());
      }
    };
    for (Client& c : clients) {
      begin_session(&c);
      submit(&c);
    }
    scheduler.Drain();
    const double end = NowSeconds();

    Loop loop;
    loop.wall_s = end - record_from;
    double refines = 0.0;
    for (Client& c : clients) {
      for (double ms : c.e2e.latencies_ms) {
        loop.e2e.latencies_ms.push_back(ms);
      }
      for (const auto& [kind, ms] : c.e2e.by_kind_ms) {
        std::vector<double>& all = loop.e2e.by_kind_ms[kind];
        all.insert(all.end(), ms.begin(), ms.end());
      }
      loop.e2e.bytes += c.e2e.bytes;
      loop.e2e.field_bytes += c.e2e.field_bytes;
      loop.e2e.violations += c.e2e.violations;
      loop.sessions += c.sessions;
      loop.queue_wait_ms += c.queue_wait_ms;
      refines += static_cast<double>(c.e2e.latencies_ms.size());
      log->failed += c.log.failed;
      for (const std::string& note : c.log.notes) {
        if (log->notes.size() < kMaxFailureNotes) {
          log->notes.push_back(note);
        }
      }
    }
    loop.queue_wait_ms /= std::max(refines, 1.0);
    const mgardp::ServiceMetrics::Snapshot snap = metrics.snapshot();
    const double lookups = static_cast<double>(
        snap.cache_hits + snap.cache_misses + snap.single_flight_shared);
    loop.cache_hit_ratio =
        lookups > 0.0
            ? static_cast<double>(snap.cache_hits + snap.single_flight_shared) /
                  lookups
            : 0.0;
    return loop;
  }

  // Deterministic replay: the same Zipf session mix, refinements taken
  // client by client in wave order, each inside a pool worker (so nested
  // parallel calls run inline, as under the scheduler).
  TracedRun Replay(FailureLog* log) {
    struct Step {
      int client = 0;
      int session = 0;  // index into `fields`
      int rung = 0;
    };
    std::vector<int> fields;
    std::vector<Step> steps;
    {
      std::vector<std::vector<int>> per_client(clients_);
      for (int c = 0; c < clients_; ++c) {
        FieldPicker picker = NewPicker(c);
        for (int s = 0; s < kTracedSessionsPerClient; ++s) {
          per_client[c].push_back(static_cast<int>(fields.size()));
          fields.push_back(PickField(&picker));
        }
      }
      for (int s = 0; s < kTracedSessionsPerClient; ++s) {
        for (int rung = 0; rung < kNumRungs; ++rung) {
          for (int c = 0; c < clients_; ++c) {
            steps.push_back(Step{c, per_client[c][s], rung});
          }
        }
      }
    }
    TracedRun run;
    run.session = true;
    run.ops = static_cast<double>(steps.size());
    auto replay_all = [&](bool with_library) {
      mgardp::SegmentCache::Options cache_options;
      cache_options.byte_budget = kCacheBudget;
      mgardp::SegmentCache replay_cache(cache_options);
      mgardp::SegmentCache library_cache(cache_options);
      CountingEstimator counting(&theory_, nullptr, false);
      std::vector<std::unique_ptr<ReplaySession>> replays(fields.size());
      std::vector<std::unique_ptr<mgardp::RetrievalSession>> libs(fields.size());
      for (std::size_t s = 0; s < fields.size(); ++s) {
        const int f = fields[s];
        const std::string id = "f" + std::to_string(f);
        replays[s] = std::make_unique<ReplaySession>(
            id, &corpus_.fields[f], corpus_.counting[f].get(), &counting,
            &replay_cache);
        libs[s] = std::make_unique<mgardp::RetrievalSession>(
            id, &corpus_.fields[f], corpus_.memory[f].get(), &theory_,
            &library_cache);
      }
      for (std::size_t i = 0; i < steps.size(); ++i) {
        const Step& step = steps[i];
        const int f = fields[step.session];
        const double bound = corpus_.Bound(f, step.rung);
        Result<const Array3Dd*> replayed = mgardp::Status::Internal("unset");
        Result<const Array3Dd*> library = mgardp::Status::Internal("unset");
        mgardp::GlobalThreadPool().Run(1, [&](std::size_t) {
          run.library_ms += ReplayAndLibrary(
              i % 2 == 0, with_library,
              [&] { replayed = replays[step.session]->Refine(bound); },
              [&] { library = libs[step.session]->Refine(bound); });
        });
        if (!replayed.ok()) {
          log->Fail("session replay: " + replayed.status().ToString());
          continue;
        }
        if (corpus_.Violates(f, *replayed.value(), bound)) {
          log->Fail("theory refinement exceeded its bound");
        }
        if (step.rung == kNumRungs - 1) {
          CheckFinal(f, *replayed.value(), log);
        }
        if (!with_library) {
          continue;
        }
        std::string why;
        if (!library.ok()) {
          log->Fail("session refine: " + library.status().ToString());
        } else if (libs[step.session]->prefix() !=
                   replays[step.session]->prefix()) {
          log->Fail("session replay holds a different prefix than the library");
        } else if (!SameArray(*replayed.value(), *library.value(), &why)) {
          log->Fail("session replay differs from the library: " + why);
        }
      }
    };
    run.totals = Traced([&] { replay_all(true); });
    const int threads = mgardp::GlobalThreadCount();
    mgardp::SetGlobalThreadCount(1);
    const double library_ms = run.library_ms;
    run.totals_1t = Traced([&] { replay_all(false); });
    run.library_ms = library_ms;
    mgardp::SetGlobalThreadCount(threads);
    return run;
  }

  const Options options_;
  const int clients_;
  mgardp::TheoryEstimator theory_;
  Corpus corpus_;
  std::vector<Array3Dd> one_shot_;
  std::vector<int> deck_;  // field ids, each repeated by Zipf weight
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"refactor", "retrieve",
                                                 "session", "learned"};
  return names;
}

Report RunWorkload(const Options& options) {
  if (options.workload == "session") {
    return SessionWorkload(options).Run();
  }
  std::unique_ptr<SerialWorkload> w;
  if (options.workload == "refactor") {
    w = std::make_unique<RefactorWorkload>();
  } else if (options.workload == "retrieve") {
    w = std::make_unique<RetrieveWorkload>();
  } else {
    w = std::make_unique<LearnedWorkload>();
  }
  return RunSerial(w.get(), options);
}

}  // namespace perfbench

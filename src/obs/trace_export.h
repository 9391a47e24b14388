// Chrome trace ("trace event format") export of a Tracer's timeline and
// of tail-sampled per-request flight records.
//
// The output is the JSON-array form of the format: one complete ("ph":
// "X") event per span with microsecond ts/dur, which chrome://tracing
// and Perfetto load directly. Nesting needs no explicit encoding — the
// viewers stack events on the same tid by ts/dur containment, which the
// RAII Span discipline guarantees.
//
// Request lanes: ToChromeRequestLanesJson gives every retained request its
// own pid, named by a process_name metadata event carrying the trace id,
// tenant, retention reason, final status, and latency as args — so one
// file shows each sampled request as its own lane, and `mgardp
// trace-report` re-reads the same args (the writer emits exactly one event
// per line to keep that parse trivial).
//
// PeriodicTraceFlusher mirrors PeriodicPromFlusher: long-running runs get
// their timeline rewritten atomically (temp + rename) on an interval AND
// whenever enough new events accumulated, instead of only at exit — a
// crash mid-bench loses at most one flush window of spans.

#ifndef MGARDP_OBS_TRACE_EXPORT_H_
#define MGARDP_OBS_TRACE_EXPORT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/request_trace.h"
#include "util/status.h"

namespace mgardp {
namespace obs {

class Tracer;
struct TraceEvent;

// Renders events as a Chrome trace JSON array ("[]" when empty).
std::string ToChromeTraceJson(const std::vector<TraceEvent>& events);

// Snapshots `tracer`'s timeline and writes it to `path` (atomically, so a
// flush racing a reader never exposes a torn file).
Status WriteChromeTrace(const Tracer& tracer, const std::string& path);

// Renders retained flight-recorder records as per-request Chrome lanes,
// one event object per line (see the header comment).
std::string ToChromeRequestLanesJson(
    const std::vector<RequestTraceRecorder::Retained>& retained);

// Snapshots `recorder`'s retained records and writes the lanes to `path`.
Status WriteRequestTraces(const RequestTraceRecorder& recorder,
                          const std::string& path);

// Background flush for the Chrome-trace export: rewrites `path` every
// `interval`, or as soon as `flush_event_delta` new timeline events have
// accumulated since the last flush (checked every `poll`), whichever
// comes first. Stop() (and the destructor) performs one final flush.
class PeriodicTraceFlusher {
 public:
  struct Options {
    std::chrono::milliseconds interval{1000};
    std::uint64_t flush_event_delta = 4096;
    std::chrono::milliseconds poll{50};
  };

  PeriodicTraceFlusher(const Tracer* tracer, std::string path);
  PeriodicTraceFlusher(const Tracer* tracer, std::string path,
                       Options options);
  ~PeriodicTraceFlusher();

  PeriodicTraceFlusher(const PeriodicTraceFlusher&) = delete;
  PeriodicTraceFlusher& operator=(const PeriodicTraceFlusher&) = delete;

  // Idempotent: joins the thread and flushes one final time. Returns the
  // first error observed (OK if none).
  Status Stop();

  std::uint64_t flushes() const;
  Status last_error() const;

 private:
  void Loop();
  Status FlushOnce();

  const Tracer* tracer_;
  const std::string path_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool stopped_ = false;
  std::uint64_t flushes_ = 0;
  Status last_error_;
  std::thread thread_;
};

}  // namespace obs
}  // namespace mgardp

#endif  // MGARDP_OBS_TRACE_EXPORT_H_

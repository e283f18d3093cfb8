#ifndef TELEPORT_SIM_TRACER_H_
#define TELEPORT_SIM_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "sim/clock.h"

namespace teleport::sim {

/// Trace tracks ("tid" in the Chrome trace model). One virtual process, one
/// lane per simulated resource, so Perfetto renders the pushdown lifecycle,
/// fabric traffic, and coherence protocol as parallel swimlanes.
inline constexpr int kTrackCompute = 0;     ///< compute-pool contexts
inline constexpr int kTrackMemoryPool = 1;  ///< memory-pool instances
inline constexpr int kTrackFabric = 2;      ///< per-MessageKind sends
inline constexpr int kTrackCoherence = 3;   ///< §4.1 protocol transitions
inline constexpr int kNumTracks = 4;

std::string_view TrackName(int tid);

/// One structured event on the virtual timeline. Names and categories are
/// interned; `args` is a preformatted JSON object body (no braces), e.g.
/// `"page":12,"bytes":4096`, or empty.
struct TraceEvent {
  enum class Phase : char {
    kComplete = 'X',  ///< span: [ts, ts + dur]
    kInstant = 'i',   ///< point event at ts
  };
  Phase phase;
  uint32_t cat;   ///< interned category index
  uint32_t name;  ///< interned name index
  int tid;
  Nanos ts;
  Nanos dur;  ///< complete events only; 0 for instants
  std::string args;
};

/// Deterministic structured-event recorder on virtual time.
///
/// The tracer is a pure observer: recording an event never advances any
/// virtual clock, so an attached tracer is invisible to the simulation —
/// metrics, answers, and completion times are bit-identical with and
/// without one (`tracer_test` asserts this). Call sites hold a nullable
/// `Tracer*`; a null pointer costs one branch (the "disabled build").
///
/// Every completed span also feeds a per-`cat/name` latency Histogram, the
/// per-phase rollup behind the Fig 19/20-style attribution tables.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records a completed span of `dur` virtual nanos starting at `begin`.
  void Span(std::string_view cat, std::string_view name, Nanos begin,
            Nanos dur, int tid, std::string args = {});

  /// Records a point event at virtual time `at`.
  void Instant(std::string_view cat, std::string_view name, Nanos at, int tid,
               std::string args = {});

  /// Caps the stored event list (rollups keep accumulating past the cap so
  /// the per-phase statistics stay complete); default 4M events.
  void set_max_events(uint64_t n) { max_events_ = n; }
  uint64_t dropped_events() const { return dropped_; }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::string_view CatOf(const TraceEvent& ev) const {
    return strings_[ev.cat];
  }
  std::string_view NameOf(const TraceEvent& ev) const {
    return strings_[ev.name];
  }

  /// Latency histogram of spans named `cat/name`; nullptr if none recorded.
  const Histogram* SpanLatency(std::string_view cat,
                               std::string_view name) const;

  /// Per-phase rollup: one line per `cat/name` key (sorted), each the
  /// histogram's count/mean/p50/p99/max summary. Format is golden-locked.
  std::string RollupToString() const;

  /// Serializes every event as Chrome `trace_event` JSON, loadable in
  /// chrome://tracing or https://ui.perfetto.dev. Timestamps are virtual
  /// nanoseconds rendered as microseconds with exact integer math, so the
  /// output is byte-identical across same-seed runs.
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`; returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

  void Reset();

 private:
  uint32_t Intern(std::string_view s);
  void Record(TraceEvent::Phase phase, std::string_view cat,
              std::string_view name, Nanos ts, Nanos dur, int tid,
              std::string args);

  std::vector<std::string> strings_;
  std::map<std::string, uint32_t, std::less<>> intern_;
  std::vector<TraceEvent> events_;
  uint64_t max_events_ = uint64_t{1} << 22;
  uint64_t dropped_ = 0;
  std::map<std::string, Histogram, std::less<>> rollup_;
};

/// RAII span guard: opens a span on construction and completes it when the
/// enclosing scope exits, reading begin/end from `clock`. A null tracer
/// makes both ends a single branch — the zero-cost-when-disabled path.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const VirtualClock& clock, std::string_view cat,
            std::string_view name, int tid)
      : tracer_(tracer),
        clock_(&clock),
        cat_(cat),
        name_(name),
        tid_(tid),
        begin_(tracer == nullptr ? 0 : clock.now()) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->Span(cat_, name_, begin_, clock_->now() - begin_, tid_);
    }
  }

 private:
  Tracer* tracer_;
  const VirtualClock* clock_;
  std::string_view cat_;
  std::string_view name_;
  int tid_;
  Nanos begin_;
};

#define TELEPORT_TRACE_CONCAT_INNER(a, b) a##b
#define TELEPORT_TRACE_CONCAT(a, b) TELEPORT_TRACE_CONCAT_INNER(a, b)

/// Scope guard: spans the rest of the enclosing scope on `tracer` (nullable
/// Tracer*), timed on `clock` (a VirtualClock). Zero virtual-time cost
/// always; one branch of host cost when `tracer` is null.
#define TELEPORT_TRACE(tracer, clock, cat, name, tid)             \
  ::teleport::sim::TraceSpan TELEPORT_TRACE_CONCAT(trace_span_,   \
                                                   __LINE__)(     \
      (tracer), (clock), (cat), (name), (tid))

}  // namespace teleport::sim

#endif  // TELEPORT_SIM_TRACER_H_

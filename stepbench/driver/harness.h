// Step-benchmark harness: per-rank span logs, the closed-loop stop gate,
// and the interface every workload implements.
//
// Spans are recorded by the driver around each public call it makes into
// the middleware (open, begin_step, write, end_step, perform_reads, ...)
// and around its own application work. Nothing inside the library is
// instrumented here; the library's own counters come from the metrics
// registry (see main.cpp).
#pragma once

#include <chrono>
#include <climits>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/status.h"

namespace stepbench {

/// Span names. The numeric order is the name table written next to the
/// span file, so append only.
enum class Span : std::uint16_t {
  kStep = 0,          // one loop iteration of a rank (writer: ledger wall)
  kOpenWriter,        // Runtime::open_writer
  kOpenReader,        // Runtime::open_reader
  kWriterClose,       // StreamWriter::close
  kAdvance,           // simulation compute between outputs
  kAnalytics,         // reader-side analysis of delivered data
  kWriterBeginStep,   // StreamWriter::begin_step
  kWriterWrite,       // StreamWriter::write
  kWriterEndStep,     // StreamWriter::end_step
  kReaderBeginStep,   // StreamReader::begin_step (waits for the step)
  kReaderSchedule,    // StreamReader::schedule_read / schedule_read_pg
  kReaderPerformReads,  // StreamReader::perform_reads
  kReaderEndStep,     // StreamReader::end_step
  kCount
};

const char* span_name(Span s);

/// One finished span. Spans of one step share (stream, step); a rank's
/// call spans are children of its kStep span for the same step.
struct SpanRecord {
  std::int64_t t0_ns = 0;  // since the session epoch
  std::int64_t t1_ns = 0;
  std::int32_t step = 0;
  std::uint16_t stream = 0;
  std::uint16_t name = 0;
  std::uint8_t role = 0;  // 0 writer, 1 reader
  std::uint8_t rank = 0;
};
static_assert(sizeof(SpanRecord) == 32, "on-disk layout (run.py reads it)");

/// Spans of one rank, kept in memory for the whole session. Untraced
/// sessions keep only the spans the end-to-end metrics need.
class SpanLog {
 public:
  SpanLog(bool traced, std::uint8_t role, std::uint8_t rank,
          std::chrono::steady_clock::time_point epoch)
      : traced_(traced), role_(role), rank_(rank), epoch_(epoch) {
    spans_.reserve(1 << 16);
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool records(Span s) const { return traced_ || essential(s); }

  void add(Span s, int stream, int step, std::int64_t t0, std::int64_t t1) {
    spans_.push_back(SpanRecord{t0, t1, step,
                                static_cast<std::uint16_t>(stream),
                                static_cast<std::uint16_t>(s), role_, rank_});
  }

  /// Run `fn` inside span `s` and return its result.
  template <typename Fn>
  auto time(Span s, int stream, int step, Fn&& fn) {
    if (!records(s)) return fn();
    const std::int64_t t0 = now_ns();
    auto result = fn();
    add(s, stream, step, t0, now_ns());
    return result;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  // Spans the end-to-end metrics are computed from: set-up time, step
  // wall, simulation-visible end_step time and delivery latency.
  static bool essential(Span s) {
    return s == Span::kStep || s == Span::kOpenWriter ||
           s == Span::kOpenReader || s == Span::kWriterEndStep ||
           s == Span::kReaderPerformReads;
  }

  bool traced_;
  std::uint8_t role_;
  std::uint8_t rank_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
};

/// Decides the last step of a closed-loop run without coupling the writer
/// ranks: every writer registers the step it is about to start, and a stop
/// request ends the run after the furthest registered step, so all ranks
/// run the same number of steps. The rank that requests the stop must do
/// so after registering its current step: the steps left to run then all
/// carry data it sends after the decision.
class StepGate {
 public:
  explicit StepGate(int writers, int stop_at = INT_MAX)
      : current_(static_cast<std::size_t>(writers), -1), stop_at_(stop_at) {}

  /// False when `step` lies beyond the agreed end of the run.
  bool enter(int writer, int step) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (step >= stop_at_) return false;
    current_[static_cast<std::size_t>(writer)] = step;
    return true;
  }

  void request_stop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_at_ != INT_MAX) return;
    int furthest = -1;
    for (int s : current_) furthest = s > furthest ? s : furthest;
    stop_at_ = furthest + 1;
  }

  /// Number of steps the run will have (INT_MAX while undecided).
  int stop_at() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stop_at_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<int> current_;
  int stop_at_;
};

/// Driver-side totals a workload reports over the timed steps (step >= 1).
struct Delivered {
  std::uint64_t payload_bytes = 0;  // bytes landed in reader buffers
  std::uint64_t rows_written = 0;   // rows offered to a row filter
  std::uint64_t rows_delivered = 0; // rows that reached the readers
};

/// One workload: 2 writer ranks and 2 reader ranks, each driven by one
/// thread. Every method is called from the rank's own thread, except
/// verify(), which runs after all rank threads have joined.
class Workload {
 public:
  static constexpr int kWriters = 2;
  static constexpr int kReaders = 2;

  virtual ~Workload() = default;

  /// Generate the inputs from the seed. Called before the rank threads
  /// start, and only when the set-up runs steps.
  virtual void make_inputs() = 0;

  virtual flexio::Status open_writer(int rank, SpanLog& log) = 0;
  virtual flexio::Status open_reader(int rank, SpanLog& log) = 0;
  /// One output step of the rank over all its streams (compute included).
  virtual flexio::Status writer_step(int rank, int step, SpanLog& log) = 0;
  virtual flexio::Status reader_step(int rank, int step, SpanLog& log) = 0;
  /// Writer: close every stream. Reader: wait for end-of-stream on every
  /// stream, then close.
  virtual flexio::Status close_writer(int rank, SpanLog& log) = 0;
  virtual flexio::Status close_reader(int rank) = 0;

  /// Compare everything the readers received in steps [0, steps) against
  /// a serial replay of the writers. Returns the number of steps with any
  /// wrong or missing byte or analysis result.
  virtual std::uint64_t verify(int steps) = 0;

  virtual Delivered delivered() const = 0;

  /// Streams per rank, numbered [0, streams()).
  virtual int streams() const { return 1; }

  /// Streams whose delivery latency counts as step latency.
  virtual bool latency_stream(int stream) const = 0;
};

}  // namespace stepbench

// stepbench: closed-loop step benchmark of the FlexIO data plane.
//
//   stepbench --workload NAME --seed N --seconds S --trace 0|1 --out PREFIX
//   stepbench --workload NAME --seed N --setups K --out PREFIX
//
// Runs one workload (workloads.cpp) as 2 writer + 2 reader rank threads
// and writes PREFIX.json (run facts, per-session totals, registry deltas)
// plus PREFIX.<session>.spans (the raw span records of each timed
// session). All metric arithmetic -- percentiles, per-step normalisation,
// latency pairing, the closure ledger -- lives in stepbench/ledger.py.
//
// Every session is one set-up of the workload: a fresh Runtime. The first
// form runs kTimedSessions sessions for S / kTimedSessions seconds each
// with the metrics registry off, recording only the spans the end-to-end
// metrics need; --trace 1 adds one S-second session with the registry on
// and every span recorded. The second form makes K set-ups that only open
// and close the streams. run.py runs the two forms as separate processes:
// tearing down a shared-links Runtime leaves memory behind, which would
// raise the peak resident set of the timed sessions, and set-ups made after
// the timed sessions ran about 25% slower than in a fresh process.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "driver/workloads.h"
#include "util/metrics.h"

#ifndef STEPBENCH_BUILD_TYPE
#define STEPBENCH_BUILD_TYPE "unknown"
#endif
#ifndef STEPBENCH_COMPILER
#define STEPBENCH_COMPILER "unknown"
#endif

namespace stepbench {

const char* span_name(Span s) {
  static const char* kNames[] = {
      "step",
      "core.runtime.open_writer",
      "core.runtime.open_reader",
      "core.writer.close",
      "apps.advance",
      "apps.analytics",
      "core.writer.begin_step",
      "core.writer.write",
      "core.writer.end_step",
      "core.reader.begin_step_wait",
      "core.reader.schedule",
      "core.reader.perform_reads",
      "core.reader.end_step",
  };
  static_assert(std::size(kNames) == static_cast<std::size_t>(Span::kCount));
  return kNames[static_cast<std::size_t>(s)];
}

namespace {

// The untraced measurement is split over this many set-ups, so one slow
// set-up (or a short disturbance of the machine) moves no median.
constexpr int kTimedSessions = 10;
constexpr int kRanks = Workload::kWriters + Workload::kReaders;

using MetricMap = std::map<std::string, flexio::metrics::MetricSnapshot>;

struct Mark {
  std::int64_t t_ns = 0;
  double cpu_s = 0;
  MetricMap registry;
};

struct Session {
  std::string label;
  bool traced = false;
  bool timed = false;
  int steps = 0;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  long peak_rss_kb = 0;
  std::uint64_t failed_steps = 0;
  Delivered delivered;
  std::vector<int> latency_streams;
  std::map<std::string, double> registry;
  std::vector<SpanRecord> spans;
};

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Resets the process's peak resident set (VmHWM) to its current size.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set in KiB since the last reset_peak_rss(), or over the
/// process's lifetime (ru_maxrss) where /proc/self/status has no VmHWM.
long peak_rss_kb() {
  long kb = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (kb < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
    }
    std::fclose(f);
  }
  if (kb >= 0) return kb;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// A failed call leaves the peers of this rank blocked inside collective
/// calls, so the run cannot finish: report and exit non-zero at once.
void must(const flexio::Status& s, const char* what, int role, int rank,
          int step) {
  if (s.is_ok()) return;
  std::fprintf(stderr, "stepbench: %s (%s rank %d, step %d) failed: %s\n",
               what, role == 0 ? "writer" : "reader", rank, step,
               s.to_string().c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

/// Counter deltas and histogram count/sum deltas between two snapshots.
std::map<std::string, double> registry_delta(const MetricMap& before,
                                             const MetricMap& after) {
  using Kind = flexio::metrics::MetricSnapshot::Kind;
  std::map<std::string, double> out;
  for (const auto& [name, a] : after) {
    const auto it = before.find(name);
    const flexio::metrics::MetricSnapshot* b =
        it == before.end() ? nullptr : &it->second;
    if (a.kind == Kind::kCounter) {
      out[name] = static_cast<double>(a.counter - (b ? b->counter : 0));
    } else if (a.kind == Kind::kHistogram) {
      out[name + ".count"] =
          static_cast<double>(a.hist.count - (b ? b->hist.count : 0));
      out[name + ".sum"] =
          static_cast<double>(a.hist.sum - (b ? b->hist.sum : 0));
    }
  }
  return out;
}

/// One set-up of the workload, run for `seconds` after the cold step 0
/// (timed) or opened and closed without a step (set-up only).
Session run_session(const std::string& workload, std::uint64_t seed,
                    bool traced, double seconds, bool timed,
                    std::string label) {
  flexio::metrics::set_enabled(traced);
  reset_peak_rss();
  auto wl = make_workload(workload, seed);
  if (timed) wl->make_inputs();
  const auto epoch = std::chrono::steady_clock::now();
  std::vector<SpanLog> logs;
  for (int i = 0; i < kRanks; ++i) {
    const bool reader = i >= Workload::kWriters;
    logs.emplace_back(traced, reader ? 1 : 0,
                      reader ? i - Workload::kWriters : i, epoch);
  }
  StepGate gate(Workload::kWriters, timed ? INT_MAX : 0);
  const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);

  // The timed window runs from the moment every rank finished step 0 to
  // the moment every rank finished the last step (before any close).
  Mark begin, end;
  std::atomic<std::int64_t> window_start{INT64_MAX};
  auto mark = [&](Mark* m) {
    m->t_ns = logs[0].now_ns();
    m->cpu_s = process_cpu_s();
    if (traced) m->registry = flexio::metrics::snapshot_all();
  };
  // Ranks open together, so set-up time does not include thread start. The
  // ranks spin rather than sleep here: waking a sleeping thread takes tens
  // of microseconds, about as long as a whole GTS set-up.
  std::atomic<int> at_open_line{0};
  auto open_together = [&] {
    at_open_line.fetch_add(1, std::memory_order_acq_rel);
    while (at_open_line.load(std::memory_order_acquire) < kRanks) {
      std::this_thread::yield();
    }
  };
  std::barrier start_line(kRanks, [&]() noexcept {
    mark(&begin);
    window_start.store(begin.t_ns, std::memory_order_release);
  });
  std::barrier finish_line(kRanks, [&]() noexcept { mark(&end); });

  std::vector<std::thread> threads;
  for (int w = 0; w < Workload::kWriters; ++w) {
    threads.emplace_back([&, w] {
      SpanLog& log = logs[static_cast<std::size_t>(w)];
      open_together();
      must(wl->open_writer(w, log), "open_writer", 0, w, -1);
      for (int step = 0;; ++step) {
        if (!gate.enter(w, step)) break;
        // Rank 0 asks to stop only after registering its step, so it sends
        // data of the last step after the stop is decided (see the reader).
        if (timed && w == 0 && step >= 1 &&
            log.now_ns() - window_start.load(std::memory_order_acquire) >=
                budget_ns) {
          gate.request_stop();
        }
        const std::int64_t t0 = log.now_ns();
        must(wl->writer_step(w, step, log), "writer step", 0, w, step);
        log.add(Span::kStep, 0, step, t0, log.now_ns());
        if (step == 0) start_line.arrive_and_wait();
      }
      finish_line.arrive_and_wait();
      must(wl->close_writer(w, log), "writer close", 0, w, -1);
    });
  }
  for (int r = 0; r < Workload::kReaders; ++r) {
    threads.emplace_back([&, r] {
      SpanLog& log = logs[static_cast<std::size_t>(Workload::kWriters + r)];
      open_together();
      must(wl->open_reader(r, log), "open_reader", 1, r, -1);
      // Writer rank 0 decides the stop before sending its data of the last
      // step, and a reader cannot finish that step without that data, so a
      // reader that finished it sees the final count.
      for (int step = 0; step < gate.stop_at(); ++step) {
        const std::int64_t t0 = log.now_ns();
        must(wl->reader_step(r, step, log), "reader step", 1, r, step);
        log.add(Span::kStep, 0, step, t0, log.now_ns());
        if (step == 0) start_line.arrive_and_wait();
      }
      finish_line.arrive_and_wait();
      must(wl->close_reader(r), "reader close", 1, r, -1);
    });
  }
  for (auto& t : threads) t.join();

  Session s;
  s.label = std::move(label);
  s.traced = traced;
  s.timed = timed;
  s.steps = gate.stop_at();
  s.peak_rss_kb = peak_rss_kb();
  s.wall_s = static_cast<double>(end.t_ns - begin.t_ns) * 1e-9;
  s.cpu_s = end.cpu_s - begin.cpu_s;
  s.delivered = wl->delivered();
  if (traced) s.registry = registry_delta(begin.registry, end.registry);

  // Set-up: first open call entered to last open call returned.
  std::int64_t first = INT64_MAX, last = INT64_MIN;
  for (const SpanLog& log : logs) {
    for (const SpanRecord& rec : log.spans()) {
      const auto name = static_cast<Span>(rec.name);
      if (name != Span::kOpenWriter && name != Span::kOpenReader) continue;
      first = std::min(first, rec.t0_ns);
      last = std::max(last, rec.t1_ns);
    }
    if (timed) {
      s.spans.insert(s.spans.end(), log.spans().begin(), log.spans().end());
    }
  }
  s.setup_s = static_cast<double>(last - first) * 1e-9;
  for (int k = 0; k < wl->streams(); ++k) {
    if (wl->latency_stream(k)) s.latency_streams.push_back(k);
  }
  if (timed) s.failed_steps = wl->verify(s.steps);
  return s;
}

void write_json(const std::string& path, const std::string& workload,
                std::uint64_t seed, double seconds, int trace,
                const std::vector<Session>& sessions,
                const std::string& prefix) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(2);
  }
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::fprintf(f,
               "{\n \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g,"
               " \"trace\": %d,\n \"build_type\": \"%s\", \"compiler\": "
               "\"%s %s\", \"ndebug\": %s, \"hw_threads\": %u,\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               seconds, trace, STEPBENCH_BUILD_TYPE, STEPBENCH_COMPILER,
               __VERSION__, ndebug ? "true" : "false",
               std::thread::hardware_concurrency());
  std::fprintf(f, " \"span_names\": [");
  for (int i = 0; i < static_cast<int>(Span::kCount); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", span_name(static_cast<Span>(i)));
  }
  std::fprintf(f, "],\n \"sessions\": [\n");
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const Session& s = sessions[i];
    std::string spans_file;
    if (s.timed) spans_file = prefix + "." + s.label + ".spans";
    std::fprintf(
        f,
        "  {\"label\": \"%s\", \"traced\": %s, \"timed\": %s, \"steps\": %d,"
        " \"setup_s\": %.9f, \"wall_s\": %.9f, \"cpu_s\": %.9f,"
        " \"peak_rss_kb\": %ld, \"failed_steps\": %llu,"
        " \"payload_bytes\": %llu, \"rows_written\": %llu,"
        " \"rows_delivered\": %llu, \"spans_file\": \"%s\","
        " \"latency_streams\": [",
        s.label.c_str(), s.traced ? "true" : "false",
        s.timed ? "true" : "false", s.steps, s.setup_s, s.wall_s, s.cpu_s,
        s.peak_rss_kb, static_cast<unsigned long long>(s.failed_steps),
        static_cast<unsigned long long>(s.delivered.payload_bytes),
        static_cast<unsigned long long>(s.delivered.rows_written),
        static_cast<unsigned long long>(s.delivered.rows_delivered),
        spans_file.c_str());
    for (std::size_t k = 0; k < s.latency_streams.size(); ++k) {
      std::fprintf(f, "%s%d", k ? ", " : "", s.latency_streams[k]);
    }
    std::fprintf(f, "], \"registry\": {");
    bool first = true;
    for (const auto& [name, v] : s.registry) {
      std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
      first = false;
    }
    std::fprintf(f, "}}%s\n", i + 1 < sessions.size() ? "," : "");
    if (s.timed) {
      std::ofstream out(spans_file, std::ios::binary);
      out.write(reinterpret_cast<const char*>(s.spans.data()),
                static_cast<std::streamsize>(s.spans.size() *
                                             sizeof(SpanRecord)));
      if (!out) {
        std::fprintf(stderr, "stepbench: cannot write %s\n",
                     spans_file.c_str());
        std::exit(2);
      }
    }
  }
  std::fprintf(f, " ]\n}\n");
  if (std::fclose(f) != 0) {
    std::perror(path.c_str());
    std::exit(2);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: stepbench --workload NAME --seed N --out PREFIX "
               "(--seconds S --trace 0|1 | --setups K)\nworkloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace stepbench

int main(int argc, char** argv) {
  using namespace stepbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  const bool timed = args.count("seconds") && args.count("trace");
  if (argc % 2 != 1 || args.size() != (timed ? 5u : 4u) ||
      !args.count("workload") || !args.count("seed") || !args.count("out") ||
      (!timed && !args.count("setups"))) {
    return usage();
  }
  const std::string workload = args["workload"];
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return usage();
  }
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return usage();
  const std::string prefix = args["out"];

  std::vector<Session> sessions;
  if (!timed) {
    const long setups = std::strtol(args["setups"].c_str(), &end, 10);
    if (*end != '\0' || setups < 1) return usage();
    for (long i = 0; i < setups; ++i) {
      sessions.push_back(run_session(workload, seed, false, 0, false,
                                     "setup" + std::to_string(i)));
    }
    write_json(prefix + ".json", workload, seed, 0, 0, sessions, prefix);
    return 0;
  }
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0)) return usage();
  const std::string trace_arg = args["trace"];
  if (trace_arg != "0" && trace_arg != "1") return usage();
  const int trace = trace_arg == "1" ? 1 : 0;
  for (int i = 0; i < kTimedSessions; ++i) {
    sessions.push_back(run_session(workload, seed, false,
                                   seconds / kTimedSessions, true,
                                   "untraced" + std::to_string(i)));
  }
  if (trace == 1) {
    sessions.push_back(run_session(workload, seed, true, seconds, true,
                                   "traced"));
  }
  write_json(prefix + ".json", workload, seed, seconds, trace, sessions,
             prefix);
  return 0;
}

// The three step-benchmark workloads (see stepbench/README.md for why each
// was chosen). Every workload owns a fresh Runtime, so one instance is one
// set-up: the rank threads open, step and close the streams. make_inputs()
// builds the inputs from the seed before any timed span; a set-up that
// runs no step skips it.
#include "driver/workloads.h"

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include "apps/gts.h"
#include "apps/gts_analytics.h"
#include "apps/s3d.h"
#include "apps/volume_renderer.h"
#include "cod/plugin.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "util/rng.h"

namespace stepbench {

using flexio::ErrorCode;
using flexio::Program;
using flexio::Runtime;
using flexio::Status;
using flexio::StreamReader;
using flexio::StreamSpec;
using flexio::StreamWriter;
using flexio::adios::Box;
using flexio::adios::Dims;

namespace {

flexio::xml::MethodConfig method(const char* params) {
  flexio::xml::MethodConfig m;
  m.method = "FLEXIO";
  m.timeout_ms = 30000;
  FLEXIO_CHECK(flexio::xml::apply_method_params(params, &m).is_ok());
  return m;
}

/// Writer ranks sit in core slots [0, kWriters), reader ranks after them,
/// so no two ranks share a location (which would select inproc links).
StreamSpec spec(const std::string& stream, Program* program, int rank,
                bool reader, int node, const flexio::xml::MethodConfig& m) {
  StreamSpec s;
  s.stream = stream;
  const int slot = reader ? Workload::kWriters + rank : rank;
  s.endpoint =
      flexio::EndpointSpec{program, rank, flexio::evpath::Location{node, slot}};
  s.method = m;
  return s;
}

/// Order-sensitive 64-bit hash over the bit patterns of doubles.
std::uint64_t hash_doubles(std::span<const double> v,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

/// Additive checksum term of one grid value at global linear index `idx`.
/// Terms sum modulo 2^64, so disjoint parts of a field can be checked
/// independently and in any order; the index makes misplacement visible.
std::uint64_t cell_term(double v, std::uint64_t idx) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return (bits ^ (idx * 0x9e3779b97f4a7c15ULL)) * 0xbf58476d1ce4e5b9ULL;
}

std::uint64_t hash_u64(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0x100000001b3ULL;
  return h ^ (h >> 29);
}

std::span<const double> as_doubles(const std::vector<std::byte>& bytes) {
  return {reinterpret_cast<const double*>(bytes.data()),
          bytes.size() / sizeof(double)};
}

Status wrong_step(flexio::StepId got, int want) {
  return flexio::make_error(
      ErrorCode::kInternal,
      "reader got step " + std::to_string(got) + ", expected " +
          std::to_string(want));
}

/// Reader side of close: the next begin_step must report end-of-stream.
Status drain_and_close(StreamReader& r) {
  auto step = r.begin_step();
  if (step.is_ok()) {
    return flexio::make_error(ErrorCode::kInternal,
                              "data after the last step");
  }
  if (step.status().code() != ErrorCode::kEndOfStream) return step.status();
  return r.close();
}

// ---------------------------------------------------------------------------
// s3d_staging: 2 S3D_Box ranks on node 0 stage 22 species (~1.7 MB per rank
// per step) to 2 volume-rendering ranks on node 1 (RDMA). Writers split the
// grid along x, readers take z slabs, so every piece is strided.

class S3dStaging final : public Workload {
 public:
  static constexpr int kSlabZ = 10;
  explicit S3dStaging(std::uint64_t seed)
      : seed_(seed),
        global_{22, 44, 2 * kSlabZ},
        params_(method("caching=all; batching=no; async=no; "
                       "pack_threads=2; read_threads=2")) {
    for (int r = 0; r < kReaders; ++r) {
      readers_[static_cast<std::size_t>(r)].slab = slab(r);
    }
  }

  void make_inputs() override {
    for (int w = 0; w < kWriters; ++w) {
      writers_[static_cast<std::size_t>(w)].sim =
          std::make_unique<flexio::apps::S3dRank>(global_, kDecomp, w, seed_);
    }
    for (ReaderState& rs : readers_) {
      rs.species.assign(flexio::apps::kS3dSpecies,
                        std::vector<double>(rs.slab.elements()));
    }
  }

  Status open_writer(int rank, SpanLog& log) override {
    auto w = log.time(Span::kOpenWriter, 0, -1, [&] {
      return rt_.open_writer(spec("s3d", &sim_, rank, false, 0, params_));
    });
    if (!w.is_ok()) return w.status();
    writers_[static_cast<std::size_t>(rank)].stream = std::move(w).value();
    return Status::ok();
  }

  Status open_reader(int rank, SpanLog& log) override {
    auto r = log.time(Span::kOpenReader, 0, -1, [&] {
      return rt_.open_reader(spec("s3d", &viz_, rank, true, 1, params_));
    });
    if (!r.is_ok()) return r.status();
    readers_[static_cast<std::size_t>(rank)].stream = std::move(r).value();
    return Status::ok();
  }

  Status writer_step(int rank, int step, SpanLog& log) override {
    WriterState& ws = writers_[static_cast<std::size_t>(rank)];
    StreamWriter& w = *ws.stream;
    log.time(Span::kAdvance, 0, step, [&] {
      ws.sim->advance();
      return 0;
    });
    FLEXIO_RETURN_IF_ERROR(log.time(Span::kWriterBeginStep, 0, step,
                                    [&] { return w.begin_step(step); }));
    for (int s = 0; s < flexio::apps::kS3dSpecies; ++s) {
      FLEXIO_RETURN_IF_ERROR(log.time(Span::kWriterWrite, 0, step, [&] {
        return w.write(ws.sim->species_meta(s),
                       flexio::as_bytes_view(
                           std::span<const double>(ws.sim->species(s))));
      }));
    }
    return log.time(Span::kWriterEndStep, 0, step,
                    [&] { return w.end_step(); });
  }

  Status reader_step(int rank, int step, SpanLog& log) override {
    ReaderState& rs = readers_[static_cast<std::size_t>(rank)];
    StreamReader& r = *rs.stream;
    auto got = log.time(Span::kReaderBeginStep, 0, step,
                        [&] { return r.begin_step(); });
    if (!got.is_ok()) return got.status();
    if (got.value() != step) return wrong_step(got.value(), step);
    for (int s = 0; s < flexio::apps::kS3dSpecies; ++s) {
      auto& dst = rs.species[static_cast<std::size_t>(s)];
      FLEXIO_RETURN_IF_ERROR(log.time(Span::kReaderSchedule, 0, step, [&] {
        return r.schedule_read(
            flexio::apps::S3dRank::species_name(s), rs.slab,
            flexio::MutableByteView(
                std::as_writable_bytes(std::span<double>(dst))));
      }));
    }
    FLEXIO_RETURN_IF_ERROR(log.time(Span::kReaderPerformReads, 0, step,
                                    [&] { return r.perform_reads(); }));
    log.time(Span::kAnalytics, 0, step, [&] {
      const auto frag = flexio::apps::render_slab(
          rs.slab, rs.species[static_cast<std::size_t>(
                       step % flexio::apps::kS3dSpecies)]);
      if (!frag.rgb.empty()) rs.image_sink += frag.rgb[frag.rgb.size() / 2];
      return 0;
    });
    std::uint64_t sum = 0;
    for (int sp = 0; sp < flexio::apps::kS3dSpecies; ++sp) {
      sum += block_checksum(sp, rs.slab,
                            rs.species[static_cast<std::size_t>(sp)], rs.slab);
    }
    rs.checksums.push_back(sum);
    if (step >= 1) {
      rs.bytes += flexio::apps::kS3dSpecies * rs.slab.elements() *
                  sizeof(double);
    }
    return log.time(Span::kReaderEndStep, 0, step,
                    [&] { return r.end_step(); });
  }

  Status close_writer(int rank, SpanLog& log) override {
    StreamWriter& w = *writers_[static_cast<std::size_t>(rank)].stream;
    return log.time(Span::kWriterClose, 0, -1, [&] { return w.close(); });
  }

  Status close_reader(int rank) override {
    return drain_and_close(*readers_[static_cast<std::size_t>(rank)].stream);
  }

  std::uint64_t verify(int steps) override {
    // Replay each writer rank on its own thread and sum the checksum terms
    // of its block inside each reader's slab; a reader's checksum must be
    // the sum over the writers.
    const auto n = static_cast<std::size_t>(steps);
    std::array<std::vector<std::array<std::uint64_t, kReaders>>, kWriters>
        expect;
    std::vector<std::thread> replay;
    for (int w = 0; w < kWriters; ++w) {
      expect[static_cast<std::size_t>(w)].resize(n);
      replay.emplace_back([&, w] {
        flexio::apps::S3dRank sim(global_, kDecomp, w, seed_);
        for (std::size_t step = 0; step < n; ++step) {
          sim.advance();
          for (int r = 0; r < kReaders; ++r) {
            Box part;
            const Box& slab = readers_[static_cast<std::size_t>(r)].slab;
            FLEXIO_CHECK(flexio::adios::intersect(sim.block(), slab, &part));
            std::uint64_t sum = 0;
            for (int sp = 0; sp < flexio::apps::kS3dSpecies; ++sp) {
              sum += block_checksum(sp, sim.block(), sim.species(sp), part);
            }
            expect[static_cast<std::size_t>(w)][step]
                  [static_cast<std::size_t>(r)] = sum;
          }
        }
      });
    }
    for (auto& t : replay) t.join();
    std::uint64_t failed = 0;
    for (std::size_t step = 0; step < n; ++step) {
      bool ok = true;
      for (std::size_t r = 0; r < kReaders; ++r) {
        std::uint64_t want = 0;
        for (const auto& part : expect) want += part[step][r];
        const auto& got = readers_[r].checksums;
        ok = ok && step < got.size() && got[step] == want;
      }
      if (!ok) ++failed;
    }
    return failed;
  }

  Delivered delivered() const override {
    Delivered d;
    for (const auto& rs : readers_) d.payload_bytes += rs.bytes;
    return d;
  }

  bool latency_stream(int) const override { return true; }

 private:
  static constexpr std::array<int, 3> kDecomp{kWriters, 1, 1};

  /// Checksum of the part `part` of species `sp`, held densely over `block`.
  std::uint64_t block_checksum(int sp, const Box& block,
                               std::span<const double> field,
                               const Box& part) const {
    std::uint64_t sum = 0;
    for (std::uint64_t x = part.offset[0]; x < part.offset[0] + part.count[0];
         ++x) {
      for (std::uint64_t y = part.offset[1];
           y < part.offset[1] + part.count[1]; ++y) {
        const std::uint64_t row =
            ((x - block.offset[0]) * block.count[1] + (y - block.offset[1])) *
                block.count[2] -
            block.offset[2];
        const std::uint64_t gidx =
            ((static_cast<std::uint64_t>(sp) * global_[0] + x) * global_[1] +
             y) *
            global_[2];
        for (std::uint64_t z = part.offset[2];
             z < part.offset[2] + part.count[2]; ++z) {
          sum += cell_term(field[row + z], gidx + z);
        }
      }
    }
    return sum;
  }

  Box slab(int reader) const {
    return Box{{0, 0, static_cast<std::uint64_t>(reader) * kSlabZ},
               {global_[0], global_[1], kSlabZ}};
  }

  struct WriterState {
    std::unique_ptr<flexio::apps::S3dRank> sim;
    std::unique_ptr<StreamWriter> stream;
  };
  struct ReaderState {
    Box slab;
    std::vector<std::vector<double>> species;
    std::vector<std::uint64_t> checksums;  // per step, over all 22 slabs
    std::uint64_t bytes = 0;
    float image_sink = 0;  // keeps the render from being optimised away
    std::unique_ptr<StreamReader> stream;
  };

  const std::uint64_t seed_;
  const Dims global_;
  const flexio::xml::MethodConfig params_;
  Runtime rt_;
  Program sim_{"s3d", kWriters};
  Program viz_{"viz", kReaders};
  std::array<WriterState, kWriters> writers_;
  std::array<ReaderState, kReaders> readers_;
};

// ---------------------------------------------------------------------------
// gts_helper: 2 GTS ranks hand zion/electron tables (~20k particles per
// species, counts drifting every step) to 2 analytics ranks on the same
// node (shm, the helper-core placement). A CoD zion filter runs inside the
// writers; readers take whole process groups round-robin and run the
// analysis chain.

constexpr const char* kZionFilter = R"(
  void transform() {
    int r;
    for (r = 0; r < rows; r = r + 1) {
      double vpar = input[r * cols + 3];
      double vperp = input[r * cols + 4];
      if (sqrt(vpar*vpar + vperp*vperp) > 0.4)
        keep_row(r);
    }
  })";

/// The plug-in's row filter, evaluated serially for the reference.
std::vector<double> filter_zions(std::span<const double> table) {
  std::vector<double> kept;
  const std::uint64_t cols = flexio::apps::kGtsAttrs;
  for (std::size_t r = 0; r + cols <= table.size(); r += cols) {
    const double vpar = table[r + 3];
    const double vperp = table[r + 4];
    if (std::sqrt(vpar * vpar + vperp * vperp) > 0.4) {
      kept.insert(kept.end(), table.begin() + static_cast<std::ptrdiff_t>(r),
                  table.begin() + static_cast<std::ptrdiff_t>(r + cols));
    }
  }
  return kept;
}

std::uint64_t hash_analysis(const flexio::apps::GtsAnalysisResult& a) {
  std::uint64_t h = hash_u64(0xcbf29ce484222325ULL, a.input_particles);
  h = hash_u64(h, a.selected_particles);
  for (auto* hist : {&a.distribution, &a.vpar_hist}) {
    for (std::uint64_t b : hist->bins) h = hash_u64(h, b);
  }
  for (std::uint64_t b : a.vspace_hist.bins) h = hash_u64(h, b);
  return h;
}

class GtsHelper final : public Workload {
 public:
  static constexpr std::uint64_t kParticles = 20000;
  // The skeleton's migration is a multiplicative random walk of the
  // particle count (and its velocities diffuse), so a long run would drift
  // away from the ~20k-particle profile by a seed- and speed-dependent
  // amount. Each writer restarts its tables every kEpochSteps outputs.
  static constexpr int kEpochSteps = 64;

  explicit GtsHelper(std::uint64_t seed)
      : seed_(seed),
        params_(method("caching=none; batching=yes; async=yes; "
                       "pack_threads=1; read_threads=1")) {
    rt_.set_plugin_compiler(flexio::cod::make_plugin_compiler());
  }

  void make_inputs() override {
    for (int w = 0; w < kWriters; ++w) {
      writers_[static_cast<std::size_t>(w)].sim =
          std::make_unique<flexio::apps::GtsRank>(w, kParticles, epoch_seed(0));
    }
  }

  Status open_writer(int rank, SpanLog& log) override {
    auto w = log.time(Span::kOpenWriter, 0, -1, [&] {
      return rt_.open_writer(spec("gts", &sim_, rank, false, 0, params_));
    });
    if (!w.is_ok()) return w.status();
    writers_[static_cast<std::size_t>(rank)].stream = std::move(w).value();
    return Status::ok();
  }

  Status open_reader(int rank, SpanLog& log) override {
    auto r = log.time(Span::kOpenReader, 0, -1, [&] {
      return rt_.open_reader(spec("gts", &viz_, rank, true, 0, params_));
    });
    if (!r.is_ok()) return r.status();
    ReaderState& rs = readers_[static_cast<std::size_t>(rank)];
    rs.stream = std::move(r).value();
    if (rank == 0) {
      return rs.stream->install_plugin("zion", kZionFilter,
                                       /*run_at_writer=*/true);
    }
    return Status::ok();
  }

  Status writer_step(int rank, int step, SpanLog& log) override {
    WriterState& ws = writers_[static_cast<std::size_t>(rank)];
    StreamWriter& w = *ws.stream;
    log.time(Span::kAdvance, 0, step, [&] {
      advance(rank, step, &ws.sim);
      return 0;
    });
    flexio::apps::GtsRank& gts = *ws.sim;
    if (step >= 1) ws.rows_written += gts.zion_count();
    FLEXIO_RETURN_IF_ERROR(log.time(Span::kWriterBeginStep, 0, step,
                                    [&] { return w.begin_step(step); }));
    FLEXIO_RETURN_IF_ERROR(log.time(Span::kWriterWrite, 0, step, [&] {
      return w.write(gts.zion_meta(), flexio::as_bytes_view(
                                          std::span<const double>(gts.zion())));
    }));
    FLEXIO_RETURN_IF_ERROR(log.time(Span::kWriterWrite, 0, step, [&] {
      return w.write(gts.electron_meta(),
                     flexio::as_bytes_view(
                         std::span<const double>(gts.electron())));
    }));
    return log.time(Span::kWriterEndStep, 0, step,
                    [&] { return w.end_step(); });
  }

  Status reader_step(int rank, int step, SpanLog& log) override {
    ReaderState& rs = readers_[static_cast<std::size_t>(rank)];
    StreamReader& r = *rs.stream;
    auto got = log.time(Span::kReaderBeginStep, 0, step,
                        [&] { return r.begin_step(); });
    if (!got.is_ok()) return got.status();
    if (got.value() != step) return wrong_step(got.value(), step);
    for (int w = rank; w < kWriters; w += kReaders) {
      FLEXIO_RETURN_IF_ERROR(log.time(Span::kReaderSchedule, 0, step,
                                      [&] { return r.schedule_read_pg(w); }));
    }
    FLEXIO_RETURN_IF_ERROR(log.time(Span::kReaderPerformReads, 0, step,
                                    [&] { return r.perform_reads(); }));
    for (const flexio::PgBlock& block : r.pg_blocks()) {
      Observation& obs = rs.seen[{step, block.writer_rank}];
      const auto table = as_doubles(block.payload);
      if (step >= 1) rs.bytes += block.payload.size();
      if (block.meta.name == "zion") {
        obs.zion_rows = table.size() / flexio::apps::kGtsAttrs;
        obs.zion_hash = hash_doubles(table);
        if (step >= 1) rs.rows_delivered += obs.zion_rows;
        log.time(Span::kAnalytics, 0, step, [&] {
          obs.analysis_hash =
              hash_analysis(flexio::apps::analyze_particles(table));
          return 0;
        });
      } else {
        obs.electron_hash = hash_doubles(table);
      }
    }
    return log.time(Span::kReaderEndStep, 0, step,
                    [&] { return r.end_step(); });
  }

  Status close_writer(int rank, SpanLog& log) override {
    StreamWriter& w = *writers_[static_cast<std::size_t>(rank)].stream;
    return log.time(Span::kWriterClose, 0, -1, [&] { return w.close(); });
  }

  Status close_reader(int rank) override {
    return drain_and_close(*readers_[static_cast<std::size_t>(rank)].stream);
  }

  std::uint64_t verify(int steps) override {
    // One replay thread per writer rank: advance the skeleton, apply the
    // filter serially, and rerun the analysis chain on the kept rows.
    std::vector<std::vector<char>> bad(kWriters,
                                       std::vector<char>(
                                           static_cast<std::size_t>(steps), 0));
    std::vector<std::thread> replay;
    for (int w = 0; w < kWriters; ++w) {
      replay.emplace_back([&, w] {
        auto sim = std::make_unique<flexio::apps::GtsRank>(w, kParticles,
                                                            epoch_seed(0));
        const ReaderState& rs =
            readers_[static_cast<std::size_t>(w % kReaders)];
        for (int step = 0; step < steps; ++step) {
          advance(w, step, &sim);
          const flexio::apps::GtsRank& gts = *sim;
          const auto it = rs.seen.find({step, w});
          const std::vector<double> kept = filter_zions(gts.zion());
          const bool ok =
              it != rs.seen.end() &&
              it->second.zion_rows == kept.size() / flexio::apps::kGtsAttrs &&
              it->second.zion_hash == hash_doubles(kept) &&
              it->second.electron_hash == hash_doubles(gts.electron()) &&
              it->second.analysis_hash ==
                  hash_analysis(flexio::apps::analyze_particles(kept));
          bad[static_cast<std::size_t>(w)][static_cast<std::size_t>(step)] =
              !ok;
        }
      });
    }
    for (auto& t : replay) t.join();
    std::uint64_t failed = 0;
    for (int step = 0; step < steps; ++step) {
      const auto s = static_cast<std::size_t>(step);
      if (bad[0][s] || bad[1][s]) ++failed;
    }
    return failed;
  }

  Delivered delivered() const override {
    Delivered d;
    for (const auto& ws : writers_) d.rows_written += ws.rows_written;
    for (const auto& rs : readers_) {
      d.payload_bytes += rs.bytes;
      d.rows_delivered += rs.rows_delivered;
    }
    return d;
  }

  bool latency_stream(int) const override { return true; }

 private:
  std::uint64_t epoch_seed(int step) const {
    return seed_ * 4096 + static_cast<std::uint64_t>(step / kEpochSteps);
  }

  /// The output of `step`: restart at an epoch boundary, then one cycle.
  void advance(int rank, int step,
               std::unique_ptr<flexio::apps::GtsRank>* sim) const {
    if (step > 0 && step % kEpochSteps == 0) {
      *sim = std::make_unique<flexio::apps::GtsRank>(rank, kParticles,
                                                     epoch_seed(step));
    }
    (*sim)->advance();
  }

  struct WriterState {
    std::unique_ptr<flexio::apps::GtsRank> sim;
    std::unique_ptr<StreamWriter> stream;
    std::uint64_t rows_written = 0;
  };
  struct Observation {
    std::uint64_t zion_rows = 0;
    std::uint64_t zion_hash = 0;
    std::uint64_t electron_hash = 0;
    std::uint64_t analysis_hash = 0;
  };
  struct ReaderState {
    std::map<std::pair<int, int>, Observation> seen;  // (step, writer)
    std::uint64_t bytes = 0;
    std::uint64_t rows_delivered = 0;
    std::unique_ptr<StreamReader> stream;
  };

  const std::uint64_t seed_;
  const flexio::xml::MethodConfig params_;
  Runtime rt_;
  Program sim_{"gts", kWriters};
  Program viz_{"analysis", kReaders};
  std::array<WriterState, kWriters> writers_;
  std::array<ReaderState, kReaders> readers_;
};

// ---------------------------------------------------------------------------
// mux_mice_elephants: every rank steps 32 streams in a fixed order over
// shared links (shm): 28 mice of 2 KiB per writer rank per step and 4
// elephants of 1 MiB, all sync. (Async elephants next to sync mice on
// shared links deadlock in the current middleware; see stepbench/README.md.)
// Payloads are a per-(stream, writer) random pattern with the step stamped
// every kStampStride elements, so a reader checks each delivery against the
// pattern it derives from the seed. The stride is a quarter of a mouse row,
// so every reader's half of every row carries the current step's stamps.

class MuxMiceElephants final : public Workload {
 public:
  static constexpr int kStreams = 32;
  static constexpr std::uint64_t kMouseCols = 256;      // 2 KiB per rank
  static constexpr std::uint64_t kElephantCols = 131072;  // 1 MiB per rank
  static constexpr std::uint64_t kStampStride = 64;

  static bool elephant(int stream) { return stream % 8 == 7; }

  explicit MuxMiceElephants(std::uint64_t seed)
      : seed_(seed),
        params_(method("caching=all; async=no; shared_links=yes")) {
    for (int k = 0; k < kStreams; ++k) {
      sims_.push_back(std::make_unique<Program>("sim", kWriters));
      vizs_.push_back(std::make_unique<Program>("viz", kReaders));
    }
  }

  void make_inputs() override {
    for (int k = 0; k < kStreams; ++k) {
      std::array<std::vector<double>, kWriters> rows;
      for (int w = 0; w < kWriters; ++w) {
        flexio::Rng rng(seed_ * 1000003ULL +
                        static_cast<std::uint64_t>(k) * 31 +
                        static_cast<std::uint64_t>(w));
        auto& row = rows[static_cast<std::size_t>(w)];
        row.resize(cols(k));
        for (double& v : row) v = rng.next_double();
        writers_[static_cast<std::size_t>(w)].data.push_back(row);
      }
      for (int r = 0; r < kReaders; ++r) {
        // Reader r takes columns [r*c/2, (r+1)*c/2) of both writer rows.
        const Box sel = selection(k, r);
        std::vector<double> expect;
        for (const auto& row : rows) {
          const auto first = static_cast<std::ptrdiff_t>(sel.offset[1]);
          const auto last =
              static_cast<std::ptrdiff_t>(sel.offset[1] + sel.count[1]);
          expect.insert(expect.end(), row.begin() + first, row.begin() + last);
        }
        ReaderState& rs = readers_[static_cast<std::size_t>(r)];
        rs.expect.push_back(std::move(expect));
        rs.buffer.emplace_back(sel.elements());
      }
    }
  }

  Status open_writer(int rank, SpanLog& log) override {
    WriterState& ws = writers_[static_cast<std::size_t>(rank)];
    for (int k = 0; k < kStreams; ++k) {
      auto w = log.time(Span::kOpenWriter, k, -1, [&] {
        Program* sim = sims_[static_cast<std::size_t>(k)].get();
        return rt_.open_writer(spec(name(k), sim, rank, false, 0, params_));
      });
      if (!w.is_ok()) return w.status();
      ws.streams.push_back(std::move(w).value());
    }
    return Status::ok();
  }

  Status open_reader(int rank, SpanLog& log) override {
    ReaderState& rs = readers_[static_cast<std::size_t>(rank)];
    for (int k = 0; k < kStreams; ++k) {
      auto r = log.time(Span::kOpenReader, k, -1, [&] {
        Program* viz = vizs_[static_cast<std::size_t>(k)].get();
        return rt_.open_reader(spec(name(k), viz, rank, true, 0, params_));
      });
      if (!r.is_ok()) return r.status();
      rs.streams.push_back(std::move(r).value());
    }
    return Status::ok();
  }

  Status writer_step(int rank, int step, SpanLog& log) override {
    WriterState& ws = writers_[static_cast<std::size_t>(rank)];
    log.time(Span::kAdvance, 0, step, [&] {
      for (int k = 0; k < kStreams; ++k) {
        auto& row = ws.data[static_cast<std::size_t>(k)];
        for (std::uint64_t i = 0; i < row.size(); i += kStampStride) {
          row[i] = stamp(step, k, rank);
        }
      }
      return 0;
    });
    for (int k = 0; k < kStreams; ++k) {
      StreamWriter& w = *ws.streams[static_cast<std::size_t>(k)];
      const auto& row = ws.data[static_cast<std::size_t>(k)];
      FLEXIO_RETURN_IF_ERROR(log.time(Span::kWriterBeginStep, k, step,
                                      [&] { return w.begin_step(step); }));
      FLEXIO_RETURN_IF_ERROR(log.time(Span::kWriterWrite, k, step, [&] {
        const Box block{{static_cast<std::uint64_t>(rank), 0}, {1, cols(k)}};
        return w.write(flexio::adios::global_array_var(
                           "v", flexio::serial::DataType::kDouble,
                           {kWriters, cols(k)}, block),
                       flexio::as_bytes_view(std::span<const double>(row)));
      }));
      FLEXIO_RETURN_IF_ERROR(log.time(Span::kWriterEndStep, k, step,
                                      [&] { return w.end_step(); }));
    }
    return Status::ok();
  }

  Status reader_step(int rank, int step, SpanLog& log) override {
    ReaderState& rs = readers_[static_cast<std::size_t>(rank)];
    bool ok = true;
    for (int k = 0; k < kStreams; ++k) {
      StreamReader& r = *rs.streams[static_cast<std::size_t>(k)];
      auto& buf = rs.buffer[static_cast<std::size_t>(k)];
      auto got = log.time(Span::kReaderBeginStep, k, step,
                          [&] { return r.begin_step(); });
      if (!got.is_ok()) return got.status();
      if (got.value() != step) return wrong_step(got.value(), step);
      FLEXIO_RETURN_IF_ERROR(log.time(Span::kReaderSchedule, k, step, [&] {
        return r.schedule_read(
            "v", selection(k, rank),
            flexio::MutableByteView(
                std::as_writable_bytes(std::span<double>(buf))));
      }));
      FLEXIO_RETURN_IF_ERROR(log.time(Span::kReaderPerformReads, k, step,
                                      [&] { return r.perform_reads(); }));
      ok = ok && matches(k, rank, step, buf);
      if (step >= 1) rs.bytes += buf.size() * sizeof(double);
      FLEXIO_RETURN_IF_ERROR(log.time(Span::kReaderEndStep, k, step,
                                      [&] { return r.end_step(); }));
    }
    if (!ok) ++rs.bad_steps;
    rs.steps = step + 1;
    return Status::ok();
  }

  Status close_writer(int rank, SpanLog& log) override {
    for (auto& w : writers_[static_cast<std::size_t>(rank)].streams) {
      FLEXIO_RETURN_IF_ERROR(
          log.time(Span::kWriterClose, 0, -1, [&] { return w->close(); }));
    }
    return Status::ok();
  }

  Status close_reader(int rank) override {
    for (auto& r : readers_[static_cast<std::size_t>(rank)].streams) {
      FLEXIO_RETURN_IF_ERROR(drain_and_close(*r));
    }
    return Status::ok();
  }

  std::uint64_t verify(int steps) override {
    // Readers compared every delivery in place; a step counts as failed
    // when either reader saw a mismatch or missed it.
    std::uint64_t failed = 0;
    for (const auto& rs : readers_) {
      failed += rs.bad_steps;
      if (rs.steps < steps) {
        failed += static_cast<std::uint64_t>(steps - rs.steps);
      }
    }
    return std::min<std::uint64_t>(failed, static_cast<std::uint64_t>(steps));
  }

  Delivered delivered() const override {
    Delivered d;
    for (const auto& rs : readers_) d.payload_bytes += rs.bytes;
    return d;
  }

  int streams() const override { return kStreams; }
  bool latency_stream(int stream) const override { return !elephant(stream); }

 private:
  static std::uint64_t cols(int stream) {
    return elephant(stream) ? kElephantCols : kMouseCols;
  }
  static std::string name(int stream) {
    return (elephant(stream) ? "elephant" : "mouse") + std::to_string(stream);
  }
  static Box selection(int stream, int reader) {
    const std::uint64_t half = cols(stream) / kReaders;
    return Box{{0, static_cast<std::uint64_t>(reader) * half},
               {kWriters, half}};
  }
  static double stamp(int step, int stream, int writer) {
    return static_cast<double>(step) * 1000.0 + stream * 10.0 + writer;
  }

  /// Delivered selection == both writers' pattern rows with this step's
  /// stamps at every kStampStride-th column of the writer row.
  bool matches(int stream, int reader, int step,
               const std::vector<double>& got) const {
    const ReaderState& rs = readers_[static_cast<std::size_t>(reader)];
    const auto& expect = rs.expect[static_cast<std::size_t>(stream)];
    const Box sel = selection(stream, reader);
    const std::uint64_t n = sel.count[1];
    for (int w = 0; w < kWriters; ++w) {
      const double* g = got.data() + static_cast<std::size_t>(w) * n;
      const double* e = expect.data() + static_cast<std::size_t>(w) * n;
      const double want = stamp(step, stream, w);
      std::uint64_t begin = 0;
      for (std::uint64_t c = 0; c < n; ++c) {
        if ((sel.offset[1] + c) % kStampStride != 0) continue;
        const std::size_t bytes = (c - begin) * sizeof(double);
        if (std::memcmp(g + begin, e + begin, bytes) != 0 || g[c] != want) {
          return false;
        }
        begin = c + 1;
      }
      const std::size_t bytes = (n - begin) * sizeof(double);
      if (std::memcmp(g + begin, e + begin, bytes) != 0) {
        return false;
      }
    }
    return true;
  }

  struct WriterState {
    std::vector<std::vector<double>> data;  // per stream, this rank's row
    std::vector<std::unique_ptr<StreamWriter>> streams;
  };
  struct ReaderState {
    std::vector<std::vector<double>> expect;  // per stream, unstamped
    std::vector<std::vector<double>> buffer;  // per stream
    std::uint64_t bytes = 0;
    std::uint64_t bad_steps = 0;
    int steps = 0;
    std::vector<std::unique_ptr<StreamReader>> streams;
  };

  const std::uint64_t seed_;
  const flexio::xml::MethodConfig params_;
  Runtime rt_;
  std::vector<std::unique_ptr<Program>> sims_;
  std::vector<std::unique_ptr<Program>> vizs_;
  std::array<WriterState, kWriters> writers_;
  std::array<ReaderState, kReaders> readers_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "s3d_staging_sync", "gts_helper_async", "mux_mice_elephants"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "s3d_staging_sync") return std::make_unique<S3dStaging>(seed);
  if (name == "gts_helper_async") return std::make_unique<GtsHelper>(seed);
  if (name == "mux_mice_elephants") {
    return std::make_unique<MuxMiceElephants>(seed);
  }
  return nullptr;
}

}  // namespace stepbench

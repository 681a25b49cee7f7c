// Micro-benchmark of the strided pack kernel (adios::copy_region) against
// the seed's recursive implementation, kept here verbatim as the baseline.
//
// The interior-region workload is the one that matters for MxN
// redistribution: a reader selection cutting through a writer block yields
// short contiguous runs, so per-run overhead (the seed paid two O(ndim)
// flat_index walks plus a recursion frame per run) dominates the memcpys.
// The dense case shows the trailing-dimension coalescing collapsing a full
// block copy into a single memcpy. CI's perf-smoke gate asserts the
// interior-region speedup stays >= 2x (tools/check_bench_overhead.py).
//
// BM_CodZionFilter times the other per-piece cost of the writer's pack
// task: a DC plug-in (the GTS zion range query) over one borrowed 20k x 7
// particle block, as StreamWriter::send_to_reader runs it. The gate holds
// it under a per-piece budget.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "adios/array.h"
#include "bench/gbench_main.h"
#include "cod/plugin.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace {

using namespace flexio;
using adios::Box;
using adios::Dims;

// ------------------------------------------------------ seed kernel (ref) --
// The pre-optimization copy_region: recursive row-major walk calling
// flat_index (O(ndim) with bounds checks) twice per contiguous run.

std::uint64_t seed_flat_index(const Box& box, const Dims& coord) {
  FLEXIO_CHECK(coord.size() == box.ndim());
  std::uint64_t idx = 0;
  for (std::size_t i = 0; i < box.ndim(); ++i) {
    FLEXIO_CHECK(coord[i] >= box.offset[i]);
    FLEXIO_CHECK(coord[i] < box.offset[i] + box.count[i]);
    idx = idx * box.count[i] + (coord[i] - box.offset[i]);
  }
  return idx;
}

void seed_copy_recursive(const Box& src_box, const std::byte* src,
                         const Box& dst_box, std::byte* dst, const Box& region,
                         std::size_t elem_size, Dims& coord, std::size_t dim) {
  const std::size_t n = region.ndim();
  if (dim + 1 == n || n == 0) {
    const std::uint64_t run = n == 0 ? 1 : region.count[n - 1];
    if (n > 0) coord[n - 1] = region.offset[n - 1];
    const std::uint64_t s = n == 0 ? 0 : seed_flat_index(src_box, coord);
    const std::uint64_t d = n == 0 ? 0 : seed_flat_index(dst_box, coord);
    std::memcpy(dst + d * elem_size, src + s * elem_size, run * elem_size);
    return;
  }
  for (std::uint64_t i = 0; i < region.count[dim]; ++i) {
    coord[dim] = region.offset[dim] + i;
    seed_copy_recursive(src_box, src, dst_box, dst, region, elem_size, coord,
                        dim + 1);
  }
}

void seed_copy_region(const Box& src_box, const std::byte* src,
                      const Box& dst_box, std::byte* dst, const Box& region,
                      std::size_t elem_size) {
  FLEXIO_CHECK(contains(src_box, region));
  FLEXIO_CHECK(contains(dst_box, region));
  if (region.elements() == 0) return;
  Dims coord(region.ndim(), 0);
  seed_copy_recursive(src_box, src, dst_box, dst, region, elem_size, coord, 0);
}

// -------------------------------------------------------------- workloads --

/// 3-D interior region: a 62x62x6 selection strictly inside a 64x64x8
/// block, so every one of the 3844 runs is a short (48-byte) memcpy.
struct Interior3D {
  Box src{{0, 0, 0}, {64, 64, 8}};
  Box dst{{1, 1, 1}, {62, 62, 6}};
  Box region{{1, 1, 1}, {62, 62, 6}};
  std::vector<double> a = std::vector<double>(src.elements(), 1.0);
  std::vector<double> b = std::vector<double>(dst.elements());
};

/// Dense case: region == src == dst, coalescible into one memcpy.
struct Dense3D {
  Box box{{0, 0, 0}, {64, 64, 16}};
  std::vector<double> a = std::vector<double>(box.elements(), 1.0);
  std::vector<double> b = std::vector<double>(box.elements());
};

template <typename W>
void set_bytes(benchmark::State& state, const W& w, const Box& region) {
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(region.elements() * sizeof(double)));
  (void)w;
}

void BM_PackSeedInterior3D(benchmark::State& state) {
  Interior3D w;
  for (auto _ : state) {
    seed_copy_region(w.src, reinterpret_cast<const std::byte*>(w.a.data()),
                     w.dst, reinterpret_cast<std::byte*>(w.b.data()), w.region,
                     sizeof(double));
    benchmark::DoNotOptimize(w.b.data());
  }
  set_bytes(state, w, w.region);
}
BENCHMARK(BM_PackSeedInterior3D);

void BM_PackStridedInterior3D(benchmark::State& state) {
  Interior3D w;
  for (auto _ : state) {
    adios::copy_region(w.src, reinterpret_cast<const std::byte*>(w.a.data()),
                       w.dst, reinterpret_cast<std::byte*>(w.b.data()),
                       w.region, sizeof(double));
    benchmark::DoNotOptimize(w.b.data());
  }
  set_bytes(state, w, w.region);
}
BENCHMARK(BM_PackStridedInterior3D);

void BM_PackSeedDense3D(benchmark::State& state) {
  Dense3D w;
  for (auto _ : state) {
    seed_copy_region(w.box, reinterpret_cast<const std::byte*>(w.a.data()),
                     w.box, reinterpret_cast<std::byte*>(w.b.data()), w.box,
                     sizeof(double));
    benchmark::DoNotOptimize(w.b.data());
  }
  set_bytes(state, w, w.box);
}
BENCHMARK(BM_PackSeedDense3D);

void BM_PackStridedDense3D(benchmark::State& state) {
  Dense3D w;
  for (auto _ : state) {
    adios::copy_region(w.box, reinterpret_cast<const std::byte*>(w.a.data()),
                       w.box, reinterpret_cast<std::byte*>(w.b.data()), w.box,
                       sizeof(double));
    benchmark::DoNotOptimize(w.b.data());
  }
  set_bytes(state, w, w.box);
}
BENCHMARK(BM_PackStridedDense3D);

// The zion filter of the GTS helper-core pipeline (stepbench gts_helper
// workload, examples/gts_pipeline): keep particles whose velocity
// magnitude exceeds 0.4.
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

void BM_CodZionFilter(benchmark::State& state) {
  constexpr std::uint64_t kRows = 20000;
  constexpr std::uint64_t kCols = 7;
  // Velocities uniform in [-1, 1): about 87% of the rows pass the filter.
  std::vector<double> table(kRows * kCols);
  Rng rng(7);
  for (double& v : table) v = 2.0 * rng.next_double() - 1.0;
  auto plugin = cod::compile_plugin(kZionFilter);
  if (!plugin.is_ok()) {
    state.SkipWithError(plugin.status().to_string().c_str());
    return;
  }
  wire::DataPiece piece;
  piece.meta =
      adios::local_array_var("zion", serial::DataType::kDouble, {kRows, kCols});
  piece.region = piece.meta.block;
  piece.borrowed = as_bytes_view(std::span<const double>(table));
  std::uint64_t kept = 0;
  for (auto _ : state) {
    auto out = plugin.value()(piece);
    if (!out.is_ok()) {
      state.SkipWithError(out.status().to_string().c_str());
      return;
    }
    kept = out.value().meta.block.count[0];
    benchmark::DoNotOptimize(out.value().payload.data());
    benchmark::ClobberMemory();
  }
  state.counters["kept_rows"] = static_cast<double>(kept);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.size() *
                                                    sizeof(double)));
}
BENCHMARK(BM_CodZionFilter)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Enabled counters let the report record flexio.pack.{bytes,memcpy_runs}
  // deltas alongside the timings.
  flexio::metrics::set_enabled(true);
  return flexio::bench::run_benchmarks_with_report(argc, argv, "micro_pack");
}

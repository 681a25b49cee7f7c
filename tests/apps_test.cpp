// Tests for the application workloads, analytics kernels, the volume
// renderer, and the coupled performance model (including the paper-shape
// assertions that anchor Figures 6-9).
#include <gtest/gtest.h>

#include <filesystem>
#include <cmath>
#include <fstream>
#include <set>

#include "apps/coupled_model.h"
#include "apps/gts.h"
#include "apps/gts_analytics.h"
#include "apps/s3d.h"
#include "apps/scenarios.h"
#include "apps/volume_renderer.h"

namespace flexio::apps {
namespace {

TEST(GtsRankTest, DeterministicInit) {
  GtsRank a(3, 100), b(3, 100), c(4, 100);
  EXPECT_EQ(a.zion(), b.zion());
  EXPECT_NE(a.zion(), c.zion());
  EXPECT_EQ(a.zion_count(), 100u);
  EXPECT_EQ(a.electron_count(), 100u);
}

TEST(GtsRankTest, ParticleCountChangesAcrossSteps) {
  GtsRank rank(0, 1000);
  std::set<std::uint64_t> counts;
  for (int s = 0; s < 10; ++s) {
    rank.advance();
    counts.insert(rank.zion_count());
  }
  // Migration must actually change the output size (the Figure 4 property).
  EXPECT_GT(counts.size(), 1u);
  // But stay in a sane band.
  for (std::uint64_t n : counts) {
    EXPECT_GT(n, 800u);
    EXPECT_LT(n, 1200u);
  }
}

TEST(GtsRankTest, MetadataTracksCounts) {
  GtsRank rank(0, 50);
  const auto meta = rank.zion_meta();
  EXPECT_EQ(meta.name, "zion");
  EXPECT_EQ(meta.block.count[0], rank.zion_count());
  EXPECT_EQ(meta.block.count[1], kGtsAttrs);
  EXPECT_TRUE(meta.validate().is_ok());
  EXPECT_EQ(meta.payload_bytes(), rank.zion().size() * sizeof(double));
}

TEST(GtsRankTest, ParticleIdsUnique) {
  GtsRank a(0, 200);
  GtsRank b(1, 200);
  std::set<double> ids;
  for (std::uint64_t p = 0; p < a.zion_count(); ++p) {
    ids.insert(a.zion()[p * kGtsAttrs + kId]);
  }
  for (std::uint64_t p = 0; p < b.zion_count(); ++p) {
    ids.insert(b.zion()[p * kGtsAttrs + kId]);
  }
  EXPECT_EQ(ids.size(), a.zion_count() + b.zion_count());
}

TEST(GtsAnalyticsTest, QueryKeepsConfiguredFraction) {
  GtsRank rank(0, 5000);
  const auto result = analyze_particles(
      std::span<const double>(rank.zion()));
  EXPECT_EQ(result.input_particles, 5000u);
  // Paper: "the query result is ~20% of the original output particles".
  EXPECT_NEAR(static_cast<double>(result.selected_particles) / 5000.0, 0.2,
              0.02);
  EXPECT_EQ(result.distribution.total(), 5000u);
  EXPECT_EQ(result.vpar_hist.total(), result.selected_particles);
  EXPECT_EQ(result.vspace_hist.total(), result.selected_particles);
}

TEST(GtsAnalyticsTest, QuerySelectsFastestParticles) {
  GtsRank rank(1, 2000);
  const auto result = analyze_particles(std::span<const double>(rank.zion()));
  const double threshold =
      query_threshold(std::span<const double>(rank.zion()), 0.2);
  for (std::size_t p = 0; p < result.selected_particles; ++p) {
    const double* row = result.query.data() + p * kGtsAttrs;
    const double v =
        std::sqrt(row[kVPar] * row[kVPar] + row[kVPerp] * row[kVPerp]);
    EXPECT_GE(v, threshold - 1e-12);
  }
}

TEST(GtsAnalyticsTest, HistogramMerge) {
  Histogram1D a{0, 1, {1, 2, 3}};
  Histogram1D b{0, 1, {10, 20, 30}};
  ASSERT_TRUE(a.merge(b).is_ok());
  EXPECT_EQ(a.bins, (std::vector<std::uint64_t>{11, 22, 33}));
  Histogram1D wrong{0, 2, {1, 2, 3}};
  EXPECT_FALSE(a.merge(wrong).is_ok());
  Histogram2D h2{0, 1, 0, 1, 2, 2, {1, 2, 3, 4}};
  Histogram2D g2{0, 1, 0, 1, 2, 2, {1, 1, 1, 1}};
  ASSERT_TRUE(h2.merge(g2).is_ok());
  EXPECT_EQ(h2.total(), 14u);
}

TEST(GtsAnalyticsTest, WritesHistogramFiles) {
  GtsRank rank(0, 500);
  const auto result = analyze_particles(std::span<const double>(rank.zion()));
  const std::string prefix = ::testing::TempDir() + "/gts_hist";
  ASSERT_TRUE(write_histograms(result, prefix).is_ok());
  for (const char* suffix : {".dist.csv", ".v1d.csv", ".v2d.csv"}) {
    std::ifstream in(prefix + suffix);
    EXPECT_TRUE(in.good()) << suffix;
    std::string header;
    std::getline(in, header);
    EXPECT_FALSE(header.empty());
  }
}

TEST(S3dRankTest, DecompositionCoversGlobal) {
  const adios::Dims global{12, 10, 8};
  const auto dims = s3d_decompose(8);
  EXPECT_EQ(dims[0] * dims[1] * dims[2], 8);
  std::uint64_t covered = 0;
  for (int r = 0; r < 8; ++r) {
    S3dRank rank(global, dims, r);
    covered += rank.block().elements();
    EXPECT_TRUE(rank.species_meta(0).validate().is_ok());
  }
  EXPECT_EQ(covered, adios::volume(global));
}

TEST(S3dRankTest, OutputsMatchPaperProfile) {
  // 22 species, ~1.7 MB per process: with a 28^3/rank grid the paper's
  // size falls out of 22 x 28^3... choose block so bytes ~ 1.7 MB.
  const adios::Dims global{22, 22, 20};  // one rank: 9680 points
  S3dRank rank(global, {1, 1, 1}, 0);
  std::uint64_t bytes = 0;
  for (int s = 0; s < kS3dSpecies; ++s) {
    bytes += rank.species_meta(s).payload_bytes();
  }
  EXPECT_NEAR(static_cast<double>(bytes), 1.7e6, 0.1e6);
}

TEST(S3dRankTest, AdvanceKeepsFieldsBounded) {
  S3dRank rank({8, 8, 8}, {1, 1, 1}, 0);
  for (int i = 0; i < 5; ++i) rank.advance();
  for (double v : rank.species(3)) {
    EXPECT_GT(v, -1.0);
    EXPECT_LT(v, 3.0);
  }
  EXPECT_EQ(S3dRank::species_name(0), "H2");
  EXPECT_EQ(S3dRank::species_name(kS3dSpecies - 1), "N2");
}

TEST(VolumeRendererTest, SlabCompositingMatchesSingleRender) {
  // Rendering the whole volume must equal rendering two z-slabs and
  // compositing them (the parallel-rendering invariant).
  const adios::Dims global{6, 5, 8};
  S3dRank whole(global, {1, 1, 1}, 0);
  const adios::Box full{{0, 0, 0}, global};
  const auto reference =
      composite({render_slab(full, std::span<const double>(whole.species(0)))});
  ASSERT_TRUE(reference.is_ok());

  // Split along z at 3.
  std::vector<ImageFragment> fragments;
  for (int part = 0; part < 2; ++part) {
    const adios::Box slab = part == 0 ? adios::Box{{0, 0, 0}, {6, 5, 3}}
                                      : adios::Box{{0, 0, 3}, {6, 5, 5}};
    std::vector<double> data(slab.elements());
    adios::copy_region(full,
                       reinterpret_cast<const std::byte*>(whole.species(0).data()),
                       slab, reinterpret_cast<std::byte*>(data.data()), slab,
                       sizeof(double));
    fragments.push_back(render_slab(slab, std::span<const double>(data)));
  }
  // Composite in scrambled order: z sorting must fix it.
  std::swap(fragments[0], fragments[1]);
  const auto combined = composite(std::move(fragments));
  ASSERT_TRUE(combined.is_ok());
  ASSERT_EQ(combined.value().size(), reference.value().size());
  for (std::size_t i = 0; i < combined.value().size(); ++i) {
    EXPECT_NEAR(static_cast<int>(combined.value()[i]),
                static_cast<int>(reference.value()[i]), 1)
        << "pixel byte " << i;
  }
}

TEST(VolumeRendererTest, MismatchedFragmentsRejected) {
  ImageFragment a;
  a.width = 2; a.height = 2;
  a.rgb.assign(12, 0); a.transmittance.assign(4, 1);
  ImageFragment b;
  b.width = 3; b.height = 2;
  b.rgb.assign(18, 0); b.transmittance.assign(6, 1);
  EXPECT_FALSE(composite({std::move(a), std::move(b)}).is_ok());
  EXPECT_FALSE(composite({}).is_ok());
}

TEST(VolumeRendererTest, WritesValidPpm) {
  const std::string path = ::testing::TempDir() + "/render.ppm";
  std::vector<std::uint8_t> rgb(4 * 3 * 3, 128);
  ASSERT_TRUE(write_ppm(path, 4, 3, rgb).is_ok());
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  int w = 0, h = 0, maxv = 0;
  in >> w >> h >> maxv;
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 3);
  EXPECT_EQ(maxv, 255);
  EXPECT_FALSE(write_ppm(path, 5, 3, rgb).is_ok());  // size mismatch
}

// ------------------------------------------------- model shape assertions --

struct MachineCase {
  const char* name;
  sim::MachineDesc (*machine)();
  int gts_cores;
  int s3d_cores;
  double gts_bound_ratio;  // paper: best within 8.4% (Smoky) / 7.9% (Titan)
  double s3d_improvement;  // staging-vs-inline: ~19% (Smoky) / ~30% (Titan)
};

// Without this, gtest prints the raw bytes of the two pointers above into
// each discovered ctest name, so the names change with every ASLR layout.
void PrintTo(const MachineCase& mc, std::ostream* os) {
  *os << mc.name << " gts_cores=" << mc.gts_cores
      << " s3d_cores=" << mc.s3d_cores;
}

class ModelShapeTest : public ::testing::TestWithParam<MachineCase> {};

double total(const CoupledConfig& config) {
  auto result = simulate_coupled(config);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.value().total_seconds;
}

TEST_P(ModelShapeTest, Figure6GtsOrdering) {
  const MachineCase& mc = GetParam();
  const sim::MachineDesc m = mc.machine();
  const double inline_t = total(gts_scenario(m, mc.gts_cores, GtsVariant::kInline));
  const double data_aware =
      total(gts_scenario(m, mc.gts_cores, GtsVariant::kHelperDataAware));
  const double holistic =
      total(gts_scenario(m, mc.gts_cores, GtsVariant::kHelperHolistic));
  const double topo =
      total(gts_scenario(m, mc.gts_cores, GtsVariant::kHelperTopoAware));
  const double staging = total(gts_scenario(m, mc.gts_cores, GtsVariant::kStaging));
  const double solo = total(gts_scenario(m, mc.gts_cores, GtsVariant::kSolo));

  // Paper Figure 6: helper-core placements win; topology-aware leads;
  // staging burns interconnect without beating helper cores; inline worst.
  EXPECT_LT(topo, holistic);
  EXPECT_LT(holistic, data_aware);
  EXPECT_LT(data_aware, inline_t);
  EXPECT_GT(staging, topo * 1.01);
  EXPECT_LT(staging, inline_t);
  // Within the published distance of the solo lower bound.
  EXPECT_GT(topo, solo);
  EXPECT_LT(topo, solo * mc.gts_bound_ratio);
}

TEST_P(ModelShapeTest, Figure6InlinePenaltyGrowsWithScale) {
  const MachineCase& mc = GetParam();
  const sim::MachineDesc m = mc.machine();
  double prev_gap = 0;
  for (int cores = 128; cores <= mc.gts_cores; cores *= 2) {
    const double inline_t = total(gts_scenario(m, cores, GtsVariant::kInline));
    const double topo =
        total(gts_scenario(m, cores, GtsVariant::kHelperTopoAware));
    const double gap = inline_t - topo;
    EXPECT_GT(gap, prev_gap);  // "benefit more evident at larger scales"
    prev_gap = gap;
  }
}

TEST_P(ModelShapeTest, Figure9S3dOrdering) {
  const MachineCase& mc = GetParam();
  const sim::MachineDesc m = mc.machine();
  const double inline_t = total(s3d_scenario(m, mc.s3d_cores, S3dVariant::kInline));
  const double hybrid =
      total(s3d_scenario(m, mc.s3d_cores, S3dVariant::kHybridDataAware));
  const double holistic =
      total(s3d_scenario(m, mc.s3d_cores, S3dVariant::kStagingHolistic));
  const double topo =
      total(s3d_scenario(m, mc.s3d_cores, S3dVariant::kStagingTopoAware));
  const double solo = total(s3d_scenario(m, mc.s3d_cores, S3dVariant::kSolo));

  // Paper Figure 9: staging wins (topology-aware slightly ahead), hybrid
  // pays for stretched MPI, inline pays the non-scaling I/O path.
  EXPECT_LT(topo, holistic);
  EXPECT_LT(holistic, hybrid);
  EXPECT_LT(hybrid, inline_t);
  const double improvement = (inline_t - topo) / inline_t;
  EXPECT_NEAR(improvement, mc.s3d_improvement, 0.06);
  // Paper: staging within 3.6% (Titan) / 5.1% (Smoky) of the lower bound
  // -- a loose band here because our interval count differs.
  EXPECT_LT(topo, solo * 1.18);
}

TEST_P(ModelShapeTest, CpuHoursFavorHelperOverStaging) {
  const MachineCase& mc = GetParam();
  const sim::MachineDesc m = mc.machine();
  auto helper =
      simulate_coupled(gts_scenario(m, mc.gts_cores, GtsVariant::kHelperTopoAware));
  auto staging =
      simulate_coupled(gts_scenario(m, mc.gts_cores, GtsVariant::kStaging));
  auto inline_r =
      simulate_coupled(gts_scenario(m, mc.gts_cores, GtsVariant::kInline));
  ASSERT_TRUE(helper.is_ok());
  ASSERT_TRUE(staging.is_ok());
  ASSERT_TRUE(inline_r.is_ok());
  // Paper Section IV.A: inline costs the most CPU hours; staging allocates
  // extra nodes without finishing faster; helper wins both metrics.
  EXPECT_LT(helper.value().node_hours, staging.value().node_hours);
  EXPECT_LT(helper.value().node_hours, inline_r.value().node_hours);
  // Helper-core placement avoids the interconnect entirely (the "~90%
  // reduction" claim compares query-reduced traffic; raw movement is 0).
  EXPECT_DOUBLE_EQ(helper.value().inter_node_bytes, 0);
  EXPECT_GT(staging.value().inter_node_bytes, 0);
  EXPECT_GT(staging.value().analytics_nodes, 0);
  EXPECT_EQ(helper.value().analytics_nodes, 0);
}

TEST_P(ModelShapeTest, Figure7PhaseShape) {
  const MachineCase& mc = GetParam();
  const sim::MachineDesc m = mc.machine();
  auto helper = simulate_coupled(
      gts_scenario(m, mc.gts_cores, GtsVariant::kHelperTopoAware));
  auto inline_r =
      simulate_coupled(gts_scenario(m, mc.gts_cores, GtsVariant::kInline));
  ASSERT_TRUE(helper.is_ok());
  ASSERT_TRUE(inline_r.is_ok());
  const PhaseBreakdown& ph = helper.value().interval;
  // "Analytics processes are idle for 67% of time" (Smoky case).
  const double idle_frac = ph.analytics_idle / (ph.analytics + ph.analytics_idle);
  EXPECT_GT(idle_frac, 0.5);
  EXPECT_LT(idle_frac, 0.8);
  // "Nearly invisible I/O overhead thanks to the shared memory transport."
  EXPECT_LT(ph.sim_io, 0.05 * ph.sim_compute);
  // Inline analytics weigh ~23.6% of GTS runtime.
  const PhaseBreakdown& pi = inline_r.value().interval;
  const double frac = pi.analytics / (pi.sim_compute + pi.sim_mpi + pi.analytics);
  EXPECT_NEAR(frac, 0.236, 0.04);
}

TEST_P(ModelShapeTest, Figure8CacheInterference) {
  const MachineCase& mc = GetParam();
  auto helper = simulate_coupled(
      gts_scenario(mc.machine(), mc.gts_cores, GtsVariant::kHelperTopoAware));
  ASSERT_TRUE(helper.is_ok());
  const double increase =
      helper.value().l3_mpki_corun / helper.value().l3_mpki_solo - 1.0;
  if (std::string(mc.name) == "smoky") {
    // Paper: 47% more L3 misses, simulation time +4.1%.
    EXPECT_NEAR(increase, 0.47, 0.08);
    EXPECT_NEAR(helper.value().cache_slowdown, 1.041, 0.01);
  } else {
    // Titan's 8 MB L3 takes a smaller hit.
    EXPECT_GT(increase, 0.1);
    EXPECT_LT(increase, 0.47);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, ModelShapeTest,
    ::testing::Values(MachineCase{"smoky", &sim::smoky, 1024, 1024, 1.10,
                                  0.19},
                      MachineCase{"titan", &sim::titan, 1024, 4096, 1.09,
                                  0.26}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

TEST(ModelTest, S3dTuningTableShape) {
  // Section IV.B.1: CACHING_ALL + batching + async cut the simulation-
  // visible movement time by ~20x. The model's handshake knob reproduces
  // the visible-cost collapse.
  CoupledConfig tuned = s3d_scenario(sim::titan(), 1024,
                                     S3dVariant::kStagingTopoAware);
  CoupledConfig untuned = tuned;
  untuned.handshake_cached = false;
  untuned.async_movement = false;
  auto tuned_r = simulate_coupled(tuned);
  auto untuned_r = simulate_coupled(untuned);
  ASSERT_TRUE(tuned_r.is_ok());
  ASSERT_TRUE(untuned_r.is_ok());
  EXPECT_GT(untuned_r.value().interval.sim_io,
            10 * tuned_r.value().interval.sim_io);
}

TEST(ModelTest, InvalidConfigsRejected) {
  CoupledConfig c;
  c.sim_ranks = 0;
  EXPECT_FALSE(simulate_coupled(c).is_ok());
  CoupledConfig big = gts_scenario(sim::smoky(), 1024, GtsVariant::kInline);
  big.sim_ranks = 100000;
  EXPECT_FALSE(simulate_coupled(big).is_ok());
}

TEST(ModelTest, Deterministic) {
  const CoupledConfig c =
      gts_scenario(sim::smoky(), 512, GtsVariant::kStaging);
  const auto a = simulate_coupled(c);
  const auto b = simulate_coupled(c);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_DOUBLE_EQ(a.value().total_seconds, b.value().total_seconds);
}

}  // namespace
}  // namespace flexio::apps

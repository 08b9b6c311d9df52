// Job-system lifecycle and parity suite (exec::KernelJob / JobGraph /
// KernelRegistry).
//
// Pins the contracts the migration to schedulable jobs introduced:
//  * queued job dispatch is bit-identical to the synchronous driver calls
//    (every kernel family, every volume backend incl. out-of-core);
//  * pool and OpenMP backends produce identical per-job records;
//  * cancellation (pre-start and mid-run), the REJECTED double-submit
//    policy, zero-tile jobs, priority lanes, deadline accounting;
//  * queued back-to-back macrocell renders share one StructureCache entry
//    (the second job's record attributes a hit);
//  * the serial macrocell build the traced replay uses matches the
//    context-parallel build the native render caches (satellite audit of
//    traced-vs-untraced drift).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/memsim/hierarchy.hpp"
#include "sfcvis/memsim/platforms.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/exec/kernel_registry.hpp"
#include "sfcvis/filters/bilateral.hpp"
#include "sfcvis/filters/gaussian.hpp"
#include "sfcvis/filters/gradient.hpp"
#include "sfcvis/filters/median.hpp"
#include "sfcvis/render/macrocell.hpp"
#include "sfcvis/render/raycast.hpp"
#include "sfcvis/threads/omp_executor.hpp"
#include "sfcvis/verify/diff.hpp"

// Uninstrumented libgomp barriers are invisible to TSan, so OpenMP-backend
// runs report false races (same pre-existing situation as the BackendParity
// suite); the OpenMP leg of this suite skips under TSan.
#if defined(__SANITIZE_THREAD__)
#define SFCVIS_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SFCVIS_TEST_TSAN 1
#endif
#endif

namespace {

using namespace sfcvis;
using core::AnyVolume;
using core::ArrayVolume;
using core::Extents3D;
using core::LayoutKind;
using exec::ExecutionContext;
using exec::JobDispatch;
using exec::JobState;
using exec::KernelJob;

float field(std::uint32_t i, std::uint32_t j, std::uint32_t k) {
  return 0.5f + 0.2f * static_cast<float>((i + 2 * j + 3 * k) % 7) / 7.0f +
         0.01f * static_cast<float>(i) - 0.005f * static_cast<float>(j) +
         0.002f * static_cast<float>(k);
}

ExecutionContext make_ctx(unsigned threads, exec::Backend backend = exec::Backend::kPool) {
  exec::ExecOptions opts;
  opts.threads = threads;
  opts.backend = backend;
  opts.layout_registry.clear();
  return ExecutionContext(opts);
}

/// A no-op test kernel in the registry (registered once per process;
/// repeat registration attempts are the duplicate-rejection test).
void ensure_test_kernel() {
  if (exec::KernelRegistry::instance().find("test.noop") == nullptr) {
    exec::KernelRegistry::instance().register_kernel(
        {"test.noop", "items", JobDispatch::kSerial, false, ""});
  }
}

KernelJob noop_job(JobDispatch dispatch, std::size_t tiles, const void* output = nullptr) {
  ensure_test_kernel();
  KernelJob job;
  job.kernel = "test.noop";
  job.dispatch = dispatch;
  job.tiles = tiles;
  job.output = output;
  job.tile = [](void*, std::size_t, unsigned) {};
  return job;
}

// -----------------------------------------------------------------------------
// Registry

TEST(KernelRegistry, BuiltinKernelsAreSeeded) {
  auto& reg = exec::KernelRegistry::instance();
  for (const char* name : {"bilateral", "bilateral.zsweep", "bilateral.traced",
                           "bilateral.zsweep.traced", "bilateral2d", "gaussian", "median",
                           "gradient", "raycast", "raycast.traced"}) {
    const exec::KernelInfo* info = reg.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->decomposer.empty()) << name;
  }
  EXPECT_EQ(reg.find("raycast")->dispatch, JobDispatch::kDynamic);
  EXPECT_TRUE(reg.find("raycast")->uses_structure_cache);
  EXPECT_EQ(reg.find("raycast")->structures, "macrocell");
  EXPECT_EQ(reg.find("bilateral.traced")->dispatch, JobDispatch::kSerial);
  EXPECT_EQ(reg.find("no.such.kernel"), nullptr);
}

TEST(KernelRegistry, DuplicateAndEmptyRegistrationThrow) {
  ensure_test_kernel();
  EXPECT_THROW(exec::KernelRegistry::instance().register_kernel(
                   {"test.noop", "items", JobDispatch::kSerial, false, ""}),
               std::invalid_argument);
  EXPECT_THROW(exec::KernelRegistry::instance().register_kernel(
                   {"", "items", JobDispatch::kSerial, false, ""}),
               std::invalid_argument);
}

TEST(KernelRegistry, NamesEnumeratesEveryEntry) {
  ensure_test_kernel();
  const auto names = exec::KernelRegistry::instance().names();
  EXPECT_GE(names.size(), 11u);  // 10 builtins + test.noop
  std::size_t found = 0;
  for (const auto& n : names) {
    if (n == "gradient" || n == "test.noop") {
      ++found;
    }
  }
  EXPECT_EQ(found, 2u);
}

// -----------------------------------------------------------------------------
// Lifecycle edges

TEST(JobGraph, UnregisteredKernelRejectedAtSubmit) {
  auto ctx = make_ctx(2);
  KernelJob job;
  job.kernel = "definitely.not.registered";
  job.tiles = 0;
  EXPECT_THROW((void)ctx.jobs().submit(std::move(job)), std::invalid_argument);
}

TEST(JobGraph, TilesWithoutBodyRejectedAtSubmit) {
  auto ctx = make_ctx(2);
  ensure_test_kernel();
  KernelJob job;
  job.kernel = "test.noop";
  job.tiles = 4;  // no tile body
  EXPECT_THROW((void)ctx.jobs().submit(std::move(job)), std::invalid_argument);
}

TEST(JobGraph, ZeroTileJobCompletesAsDone) {
  auto ctx = make_ctx(2);
  const auto id = ctx.jobs().submit(noop_job(JobDispatch::kStatic, 0));
  ctx.jobs().run_all();
  const auto record = ctx.jobs().find_record(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kDone);
  EXPECT_EQ(record->tiles, 0u);
  EXPECT_EQ(record->tiles_run, 0u);
}

TEST(JobGraph, ZeroTileRegionNeverInvokesTheBody) {
  // Zero-extent volumes are rejected by Extents3D itself, so the job-level
  // shape of an empty region is a decomposer that produced zero tiles: the
  // job must run as a recorded no-op without touching its tile body or
  // per-worker state factory.
  auto ctx = make_ctx(2);
  ensure_test_kernel();
  KernelJob job;
  job.kernel = "test.noop";
  job.dispatch = JobDispatch::kStatic;
  job.tiles = 0;
  int state_makes = 0;
  int runs = 0;
  job.make_state = [&](unsigned) -> std::shared_ptr<void> {
    ++state_makes;
    return nullptr;
  };
  job.tile = [&](void*, std::size_t, unsigned) { ++runs; };
  const auto id = ctx.jobs().submit(std::move(job));
  ctx.jobs().run_all();
  const auto record = ctx.jobs().find_record(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kDone);
  EXPECT_EQ(record->tiles_run, 0u);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(state_makes, 0);
}

TEST(JobGraph, CancelBeforeStartRunsNothing) {
  auto ctx = make_ctx(2);
  ensure_test_kernel();
  int runs = 0;
  KernelJob job;
  job.kernel = "test.noop";
  job.dispatch = JobDispatch::kSerial;
  job.tiles = 8;
  job.tile = [&](void*, std::size_t, unsigned) { ++runs; };
  const auto cancel = job.cancel;
  const auto id = ctx.jobs().submit(std::move(job));
  cancel.request_cancel();
  ctx.jobs().run_all();
  const auto record = ctx.jobs().find_record(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kCancelled);
  EXPECT_EQ(record->tiles_run, 0u);
  EXPECT_EQ(runs, 0);
}

TEST(JobGraph, CancelMidRunStopsBetweenTiles) {
  auto ctx = make_ctx(1);
  ensure_test_kernel();
  KernelJob job;
  job.kernel = "test.noop";
  job.dispatch = JobDispatch::kSerial;
  job.tiles = 8;
  const auto cancel = job.cancel;
  int runs = 0;
  job.tile = [&](void*, std::size_t t, unsigned) {
    ++runs;
    if (t == 2) {
      cancel.request_cancel();
    }
  };
  const auto id = ctx.jobs().submit(std::move(job));
  ctx.jobs().run_all();
  const auto record = ctx.jobs().find_record(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kCancelled);
  EXPECT_EQ(record->tiles_run, 3u);  // tiles 0..2 ran; the cancel is sticky
  EXPECT_EQ(runs, 3);
}

TEST(JobGraph, DoubleSubmitOfSameOutputIsRejected) {
  // Pinned policy: rejected, not serialized (see job_graph.hpp).
  auto ctx = make_ctx(2);
  ArrayVolume dst(Extents3D::cube(4));
  const auto id = ctx.jobs().submit(noop_job(JobDispatch::kStatic, 1, dst.data()));
  EXPECT_THROW((void)ctx.jobs().submit(noop_job(JobDispatch::kStatic, 1, dst.data())),
               std::invalid_argument);
  // A different output queues fine alongside.
  ArrayVolume other(Extents3D::cube(4));
  (void)ctx.jobs().submit(noop_job(JobDispatch::kStatic, 1, other.data()));
  ctx.jobs().run_all();
  // Once drained, the same output is accepted again.
  (void)ctx.jobs().submit(noop_job(JobDispatch::kStatic, 1, dst.data()));
  ctx.jobs().run_all();
  EXPECT_EQ(ctx.jobs().pending(), 0u);
  (void)id;
}

TEST(JobGraph, HighPriorityLaneDrainsFirst) {
  auto ctx = make_ctx(1);
  ensure_test_kernel();
  std::vector<int> order;
  auto make = [&](int tag, exec::JobPriority priority) {
    KernelJob job = noop_job(JobDispatch::kSerial, 1);
    job.priority = priority;
    job.tile = [&order, tag](void*, std::size_t, unsigned) { order.push_back(tag); };
    return job;
  };
  (void)ctx.jobs().submit(make(0, exec::JobPriority::kNormal));
  (void)ctx.jobs().submit(make(1, exec::JobPriority::kNormal));
  (void)ctx.jobs().submit(make(2, exec::JobPriority::kHigh));
  (void)ctx.jobs().submit(make(3, exec::JobPriority::kHigh));
  ctx.jobs().run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 0, 1}));  // high FIFO, then normal FIFO
}

TEST(JobGraph, RunDrainsScheduledOrderUpToRequestedJob) {
  auto ctx = make_ctx(1);
  ensure_test_kernel();
  std::vector<int> order;
  auto make = [&](int tag) {
    KernelJob job = noop_job(JobDispatch::kSerial, 1);
    job.tile = [&order, tag](void*, std::size_t, unsigned) { order.push_back(tag); };
    return job;
  };
  (void)ctx.jobs().submit(make(0));
  const auto second = ctx.jobs().submit(make(1));
  (void)ctx.jobs().submit(make(2));
  ctx.jobs().run(second);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(ctx.jobs().pending(), 1u);
  ctx.jobs().run(second);  // already ran: no-op
  EXPECT_EQ(ctx.jobs().pending(), 1u);
  ctx.jobs().run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(JobGraph, DeadlineAccountingFlagsMissesOnly) {
  auto ctx = make_ctx(1);
  ensure_test_kernel();
  KernelJob slow = noop_job(JobDispatch::kSerial, 1);
  slow.deadline_ns = 1;  // 1 ns: certain miss
  slow.tile = [](void*, std::size_t, unsigned) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  const auto slow_id = ctx.jobs().submit(std::move(slow));
  KernelJob fine = noop_job(JobDispatch::kSerial, 1);
  fine.deadline_ns = std::uint64_t{60} * 1000 * 1000 * 1000;  // one minute
  const auto fine_id = ctx.jobs().submit(std::move(fine));
  const auto free_id = ctx.jobs().submit(noop_job(JobDispatch::kSerial, 1));  // no deadline
  ctx.jobs().run_all();
  EXPECT_TRUE(ctx.jobs().find_record(slow_id)->deadline_missed);
  EXPECT_FALSE(ctx.jobs().find_record(fine_id)->deadline_missed);
  EXPECT_FALSE(ctx.jobs().find_record(free_id)->deadline_missed);
  // Deadlines are accounting only: the job still ran to completion.
  EXPECT_EQ(ctx.jobs().find_record(slow_id)->state, JobState::kDone);
}

// -----------------------------------------------------------------------------
// Queued-vs-immediate bit-identity, all volume backends

TEST(JobParity, QueuedJobsBitIdenticalToDriverCallsAllLayouts) {
  const Extents3D e = Extents3D::cube(12);
  filters::BilateralParams params;
  params.radius = 1;
  for (const LayoutKind kind : core::kAllLayoutKinds) {
    AnyVolume src = core::make_volume(kind, e);
    src.fill_from(field);
    auto ctx_direct = make_ctx(3);
    auto ctx_queued = make_ctx(3);
    // Direct: the synchronous driver wrappers (submit + run, one at a time).
    ArrayVolume direct_grad(e), direct_med(e), direct_gauss(e), direct_bilat(e),
        direct_sweep(e);
    filters::gradient_magnitude(src, direct_grad, ctx_direct);
    filters::median_filter(src, direct_med, 1, ctx_direct);
    filters::gaussian_convolve(src, direct_gauss, 1, 1.0f, ctx_direct);
    filters::bilateral_parallel(src, direct_bilat, params, ctx_direct);
    filters::bilateral_zsweep(src, direct_sweep, params, ctx_direct);
    // Queued: all five jobs enqueued up front, then drained in one pass.
    ArrayVolume q_grad(e), q_med(e), q_gauss(e), q_bilat(e), q_sweep(e);
    auto& graph = ctx_queued.jobs();
    (void)graph.submit(filters::gradient_job(src, q_grad));
    (void)graph.submit(filters::median_job(src, q_med, 1));
    (void)graph.submit(filters::gaussian_job(src, q_gauss, 1, 1.0f));
    (void)graph.submit(filters::bilateral_job(src, q_bilat, params));
    (void)graph.submit(filters::bilateral_zsweep_job(src, q_sweep, params, ctx_queued));
    graph.run_all();
    const std::string tag = std::string(core::to_string(kind));
    const std::vector<std::tuple<const ArrayVolume*, const ArrayVolume*, const char*>>
        pairs = {{&direct_grad, &q_grad, "gradient"},
                 {&direct_med, &q_med, "median"},
                 {&direct_gauss, &q_gauss, "gaussian"},
                 {&direct_bilat, &q_bilat, "bilateral"},
                 {&direct_sweep, &q_sweep, "bilateral.zsweep"}};
    for (const auto& [expected, actual, name] : pairs) {
      const auto report =
          verify::compare_grids(*expected, *actual, verify::Tolerance::bit_identical(),
                                name + (" [" + tag + "]"));
      EXPECT_TRUE(report.ok) << report.to_string();
    }
    const auto records = graph.records();
    ASSERT_EQ(records.size(), 5u) << tag;
    for (const auto& r : records) {
      EXPECT_EQ(r.state, JobState::kDone) << tag << " " << r.kernel;
      EXPECT_EQ(r.tiles_run, r.tiles) << tag << " " << r.kernel;
    }
  }
}

TEST(JobParity, QueuedRaycastBitIdenticalToDriverCall) {
  const Extents3D e = Extents3D::cube(16);
  AnyVolume vol = core::make_volume(LayoutKind::kZOrder, e);
  vol.fill_from(field);
  const render::Camera cam({24, 20, 28}, {8, 8, 8}, {0, 1, 0}, 40.0f,
                           render::Projection::kPerspective);
  const auto tf = render::TransferFunction::flame();
  render::RenderConfig config;
  config.image_width = 48;
  config.image_height = 48;
  config.tile_size = 16;
  for (const bool macrocells : {false, true}) {
    config.use_macrocells = macrocells;
    auto ctx_direct = make_ctx(3);
    auto ctx_queued = make_ctx(3);
    const render::Image direct =
        render::raycast_parallel(vol, cam, tf, config, ctx_direct);
    render::Image queued(config.image_width, config.image_height);
    auto& graph = ctx_queued.jobs();
    (void)graph.submit(render::raycast_job(vol, cam, tf, config, queued));
    graph.run_all();
    const auto report = verify::compare_images(
        direct, queued, verify::Tolerance::bit_identical(),
        macrocells ? "raycast queued [macrocell]" : "raycast queued [dense]");
    EXPECT_TRUE(report.ok) << report.to_string();
  }
}

TEST(JobParity, OutOfCoreBrickedBackendMatchesInMemory) {
  const Extents3D e{16, 12, 8};
  AnyVolume packed_src = core::make_volume(LayoutKind::kZOrder, e);
  packed_src.fill_from(field);
  const auto path = (std::filesystem::temp_directory_path() / "sfcvis_jobs_bricked.sfcbrk")
                        .string();
  core::BrickPackOptions popts;
  popts.brick_edge = 8;
  (void)core::pack_brick_file(path, packed_src, popts);
  auto ctx = make_ctx(2);
  const AnyVolume bricked = ctx.open_bricked(path, 0);
  ArrayVolume from_bricked(e);
  filters::gradient_magnitude(bricked, from_bricked, ctx);
  ArrayVolume reference(e);
  filters::gradient_magnitude(packed_src, reference, ctx);
  const auto report =
      verify::compare_grids(reference, from_bricked, verify::Tolerance::bit_identical(),
                            "gradient [bricked vs in-memory]");
  EXPECT_TRUE(report.ok) << report.to_string();
  std::filesystem::remove(path);
}

// -----------------------------------------------------------------------------
// Pool-vs-OpenMP per-job attribution parity

TEST(JobParity, PoolAndOpenMpRecordsAgree) {
  if (!threads::openmp_available()) {
    GTEST_SKIP() << "no OpenMP runtime in this build";
  }
#ifdef SFCVIS_TEST_TSAN
  GTEST_SKIP() << "libgomp is uninstrumented under TSan (known false positives)";
#endif
  const Extents3D e = Extents3D::cube(12);
  AnyVolume src = core::make_volume(LayoutKind::kHilbert, e);
  src.fill_from(field);
  filters::BilateralParams params;
  params.radius = 1;
  std::vector<exec::JobRecord> per_backend[2];
  ArrayVolume outputs[2] = {ArrayVolume(e), ArrayVolume(e)};
  const exec::Backend backends[2] = {exec::Backend::kPool, exec::Backend::kOpenMP};
  for (int b = 0; b < 2; ++b) {
    auto ctx = make_ctx(3, backends[b]);
    ArrayVolume grad(e);
    filters::gradient_magnitude(src, grad, ctx);
    filters::bilateral_parallel(src, outputs[b], params, ctx);
    per_backend[b] = ctx.jobs().records();
  }
  ASSERT_EQ(per_backend[0].size(), per_backend[1].size());
  for (std::size_t n = 0; n < per_backend[0].size(); ++n) {
    const auto& pool_r = per_backend[0][n];
    const auto& omp_r = per_backend[1][n];
    EXPECT_EQ(pool_r.kernel, omp_r.kernel);
    EXPECT_EQ(pool_r.tiles, omp_r.tiles);
    EXPECT_EQ(pool_r.tiles_run, omp_r.tiles_run);
    EXPECT_EQ(pool_r.state, omp_r.state);
    EXPECT_EQ(pool_r.structure_cache_hits, omp_r.structure_cache_hits);
    EXPECT_EQ(pool_r.structure_cache_misses, omp_r.structure_cache_misses);
  }
  const auto report = verify::compare_grids(outputs[0], outputs[1],
                                            verify::Tolerance::bit_identical(),
                                            "bilateral [pool vs openmp job records]");
  EXPECT_TRUE(report.ok) << report.to_string();
}

// -----------------------------------------------------------------------------
// StructureCache sharing across queued jobs

TEST(JobCache, QueuedRaycastsShareOneMacrocellGrid) {
  const Extents3D e = Extents3D::cube(16);
  AnyVolume vol = core::make_volume(LayoutKind::kZOrder, e);
  vol.fill_from(field);
  const render::Camera cam({24, 20, 28}, {8, 8, 8}, {0, 1, 0}, 40.0f,
                           render::Projection::kPerspective);
  const auto tf = render::TransferFunction::flame();
  render::RenderConfig config;
  config.image_width = 32;
  config.image_height = 32;
  config.use_macrocells = true;
  auto ctx = make_ctx(2);
  render::Image first(config.image_width, config.image_height);
  render::Image second(config.image_width, config.image_height);
  auto& graph = ctx.jobs();
  const auto first_id = graph.submit(render::raycast_job(vol, cam, tf, config, first));
  const auto second_id = graph.submit(render::raycast_job(vol, cam, tf, config, second));
  graph.run_all();
  const auto r1 = graph.find_record(first_id);
  const auto r2 = graph.find_record(second_id);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  // The first job's prep misses and builds; the second job's prep hits the
  // cached grid — per-job attribution makes the reuse visible.
  EXPECT_EQ(r1->structure_cache_misses, 1u);
  EXPECT_EQ(r1->structure_cache_hits, 0u);
  EXPECT_EQ(r2->structure_cache_misses, 0u);
  EXPECT_GE(r2->structure_cache_hits, 1u);
  const auto report = verify::compare_images(first, second,
                                             verify::Tolerance::bit_identical(),
                                             "back-to-back queued raycasts");
  EXPECT_TRUE(report.ok) << report.to_string();
}

// -----------------------------------------------------------------------------
// Traced-driver drift audit pins (satellite 6)

TEST(TracedDrift, SerialMacrocellBuildMatchesContextParallelBuild) {
  // raycast_traced builds its grid serially (no context in replay scope);
  // raycast_parallel caches a context-parallel build. Both paths must
  // produce identical grids or traced and native skipping diverge.
  const Extents3D e{20, 13, 9};
  AnyVolume vol = core::make_volume(LayoutKind::kZOrder, e);
  vol.fill_from(field);
  auto ctx = make_ctx(3);
  const auto serial = render::MacrocellGrid::build(vol, 8);
  const auto parallel = render::MacrocellGrid::build(vol, 8, &ctx);
  ASSERT_EQ(serial.cell_extents().size(), parallel.cell_extents().size());
  const auto ce = serial.cell_extents();
  for (std::uint32_t ck = 0; ck < ce.nz; ++ck) {
    for (std::uint32_t cj = 0; cj < ce.ny; ++cj) {
      for (std::uint32_t ci = 0; ci < ce.nx; ++ci) {
        const auto a = serial.range(ci, cj, ck);
        const auto b = parallel.range(ci, cj, ck);
        ASSERT_EQ(a.min, b.min) << ci << "," << cj << "," << ck;
        ASSERT_EQ(a.max, b.max) << ci << "," << cj << "," << ck;
      }
    }
  }
}

TEST(TracedDrift, ZsweepTracedChunkingMatchesUntwistedFormula) {
  // The traced sweep derives its chunk count from (threads,
  // chunks_per_thread) exactly like ExecutionContext::curve_chunks — this
  // pins the constants so the replayed decomposition cannot drift from
  // the native one.
  const Extents3D e{24, 17, 11};
  const std::size_t cap = core::padded_pow2(e).size();
  for (const unsigned threads : {1u, 3u, 8u}) {
    for (const std::size_t cpt : {std::size_t{1}, std::size_t{8}}) {
      exec::ExecOptions opts;
      opts.threads = threads;
      opts.chunks_per_thread = cpt;
      opts.layout_registry.clear();
      ExecutionContext ctx(opts);
      const std::size_t native = ctx.curve_chunks(e.size(), cap);
      const std::size_t traced = std::max<std::size_t>(
          1, threads * cpt * cap / std::max<std::size_t>(1, e.size()));
      EXPECT_EQ(native, traced) << threads << "x" << cpt;
    }
  }
}

TEST(TracedDrift, TracedReplayMatchesNativeOutputs) {
  // bilateral_traced ignores use_gather / LUT modes by design (it measures
  // the per-voxel access stream), but its *output* must still match the
  // native driver in exact mode.
  const Extents3D e = Extents3D::cube(10);
  AnyVolume src = core::make_volume(LayoutKind::kZOrder, e);
  src.fill_from(field);
  filters::BilateralParams params;
  params.radius = 1;
  params.use_gather = false;
  params.fast_exp = false;
  params.use_range_lut = false;
  auto ctx = make_ctx(3);
  ArrayVolume native(e);
  filters::bilateral_parallel(src, native, params, ctx);
  memsim::Hierarchy hierarchy(memsim::tiny_test_platform(), 2);
  ArrayVolume traced(e);
  filters::bilateral_traced(src, traced, params, hierarchy);
  const auto report = verify::compare_grids(native, traced,
                                            verify::Tolerance::bit_identical(),
                                            "bilateral traced vs native [exact mode]");
  EXPECT_TRUE(report.ok) << report.to_string();
}

}  // namespace

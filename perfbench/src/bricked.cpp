// Workload bricked-*: the out-of-core path. MRI phantom packed to SFCBRK01
// (16^3 bricks, Z-order inner); the bilateral-* filter runs on an mmap open
// (every brick resident) and on a streamed open with a quarter-volume
// brick budget and prefetch depth 2. An in-core Z-order pass is the
// reference.
#include "probes.hpp"
#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/exec/trace_session.hpp"

namespace sfcbench {

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace filters = sfcvis::filters;

namespace {

constexpr std::uint32_t kBrickEdge = 16;
constexpr std::uint32_t kPrefetchDepth = 2;

/// A brick cache that hit a read error or degraded its policy is a failed
/// check; the reason is printed with it.
void check_cache(Checks& checks, const core::BrickedVolume& volume, const char* which) {
  const core::BrickCacheReport report = volume.cache_report();
  checks.expect(report.io_error.empty(),
                std::string(which) + " brick cache io_error: " + report.io_error);
  checks.expect(report.degrade.empty(),
                std::string(which) + " brick cache degraded: " + report.degrade);
}

}  // namespace

void run_bricked(const RunConfig& cfg, exec::ExecutionContext& ctx, SpanLog& spans,
                 Checks& checks, Result& result) {
  const std::uint32_t edge = cfg.size;
  const filters::BilateralParams params = bilateral_params();
  const std::filesystem::path input = cached_input(cfg, ctx, Dataset::kPhantom, edge);
  const std::string brick_path = (cfg.work_dir / "volume.sfcbrk").string();

  // Set-up: load, in-core Z-order reference, pack, open both ways.
  std::vector<double> setup_s, load_s, convert_s, pack_s;
  core::AnyVolume array, zorder, mapped, streamed;
  for (unsigned rep = 0; rep < kSetups; ++rep) {
    array = zorder = mapped = streamed = core::AnyVolume{};
    SpanLog::Scope span(spans, "bench.setup");
    array = load_array(ctx, spans, input, load_s);
    zorder = to_zorder(ctx, spans, array, convert_s);
    {
      SpanLog::Scope call(spans, "core.pack_brick_file");
      core::BrickPackOptions pack;
      pack.brick_edge = kBrickEdge;
      pack.inner_kind = core::LayoutKind::kZOrder;
      (void)core::pack_brick_file(brick_path, array, pack);
      pack_s.push_back(call.close());
    }
    {
      SpanLog::Scope call(spans, "core.open");
      mapped = core::BrickedVolume::open(brick_path);
    }
    SpanLog::Scope call(spans, "core.open");
    core::BrickOpenOptions stream;
    stream.cache_bytes = array.size() * sizeof(float) / 4;
    stream.prefetch_depth = kPrefetchDepth;
    streamed = core::BrickedVolume::open(brick_path, stream);
    call.close();
    setup_s.push_back(span.close());
  }
  const double voxels = static_cast<double>(array.size());
  result.volume_bytes = array.size() * sizeof(float);
  checks.expect(mapped.as_bricked().mmapped(), "the mmap open fell back to streaming");

  // The array-order output every other open must reproduce bit for bit.
  core::ArrayVolume want{core::ArrayOrderLayout(array.extents())};
  filters::bilateral_parallel(array, want, params, ctx);
  std::string why;
  checks.expect(spot_check_bilateral(array.as<core::ArrayOrderLayout>(), want, params,
                                     cfg.seed, 64, why),
                "bilateral spot check: " + why);

  core::ArrayVolume out{core::ArrayOrderLayout(array.extents())};
  const auto pass = [&](const core::AnyVolume& src, const char* what) {
    {
      SpanLog::Scope span(spans, "bench.pass");
      SpanLog::Scope call(spans, "filters.bilateral_parallel");
      filters::bilateral_parallel(src, out, params, ctx);
    }
    checks.expect(same_bits(out, want),
                  std::string(what) + " bilateral output differs from array order");
  };
  const auto times = measure_rounds(
      cfg.window_s(), 3, [&] { pass(mapped, "bricked mmap"); },
      [&] { pass(streamed, "bricked stream"); }, [&] { pass(zorder, "in-core Z-order"); });
  check_cache(checks, mapped.as_bricked(), "mmap");
  check_cache(checks, streamed.as_bricked(), "stream");

  const double tm = median(times[0]);
  const double ts = median(times[1]);
  const double tz = median(times[2]);
  print_times("bricked mmap pass", times[0], voxels / 1e6);
  print_times("bricked stream pass", times[1], voxels / 1e6);
  print_times("in-core Z-order pass", times[2], voxels / 1e6);
  auto& m = result.metrics;
  m["setup_s"] = median(setup_s);
  m["base.ms"] = tm * 1e3;
  m["alt.ms"] = ts * 1e3;
  m["bricked_mmap.mvox_s"] = voxels / 1e6 / tm;
  m["bricked_stream.mvox_s"] = voxels / 1e6 / ts;
  m["incore_zorder.mvox_s"] = voxels / 1e6 / tz;
  m["paper.ds"] = paper_ds(tm, ts);
  result.notes["base"] = "bricked mmap pass";
  result.notes["alt"] = "bricked stream pass";
  if (!cfg.trace) {
    return;
  }

  m["data.load_s"] = median(load_s);
  m["core.convert_s"] = median(convert_s);
  m["core.pack_s"] = median(pack_s);
  std::vector<double> fetch_s;
  for (int rep = 0; rep < 3; ++rep) {
    SpanLog::Scope call(spans, "core.gather_row");
    fetch_s.push_back(gather_replay(ctx, mapped, params, false).seconds);
  }
  m["core.brick_fetch_s"] = median(fetch_s);
  m["core.brick_overhead"] = tm / tz;
  m["filters.computed_gbs"] = 2.0 * voxels * sizeof(float) / tz / 1e9;
  m["exec.dispatch_us_per_tile"] = dispatch_us_per_tile(
      ctx, filters::pencil_count(array.extents(), params.pencil), exec::JobDispatch::kStatic);

  // Brick-cache counters of exactly one streamed pass.
  const core::BrickedVolume& sv = streamed.as_bricked();
  (void)sv.drain_cache_deltas();
  pass(streamed, "bricked stream");
  const core::BrickCacheReport d = sv.drain_cache_deltas();
  m["core.brick_misses"] = static_cast<double>(d.misses);
  m["core.brick_evictions"] = static_cast<double>(d.evictions);
  m["core.brick_hit_rate"] =
      static_cast<double>(d.hits) / static_cast<double>(d.hits + d.misses);
  m["core.prefetch_useful"] =
      d.prefetch_issued == 0
          ? 0.0
          : static_cast<double>(d.prefetch_hits) / static_cast<double>(d.prefetch_issued);

  // Traced section: one pass per open under the library's TraceSession.
  double traced = 0.0;
  {
    exec::TraceSession session("", cfg.report_path, true);
    for (auto* src : {&mapped, &streamed}) {
      const double t0 = now_s();
      pass(*src, src == &mapped ? "traced bricked mmap" : "traced bricked stream");
      traced += now_s() - t0;
    }
    session.finish();
  }
  m["trace.overhead"] = traced / (tm + ts) - 1.0;
  check_cache(checks, sv, "stream");
}

}  // namespace sfcbench

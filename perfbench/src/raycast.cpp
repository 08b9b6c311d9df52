// Workload raycast-orbit-*: scattered trilinear reads, compositing and
// dynamically dispatched image tiles. Combustion field, flame transfer
// function, 8-viewpoint orbit, shaded, macrocells on, 8-ray packets; each
// orbit runs on array order, then on Z-order.
#include "probes.hpp"
#include "sfcvis/exec/trace_session.hpp"
#include "sfcvis/render/macrocell.hpp"
#include "sfcvis/render/raycast.hpp"

namespace sfcbench {

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace render = sfcvis::render;
namespace trace = sfcvis::trace;

namespace {

constexpr unsigned kViews = 8;
constexpr std::uint32_t kImage = 512;

bool images_equal(const render::Image& a, const render::Image& b) {
  return a.pixels() == b.pixels();
}

/// True when any pixel of `image` has opacity; a blank frame fails its check.
bool has_content(const render::Image& image) {
  for (const auto& p : image.pixels()) {
    if (p.a > 0.0f) {
      return true;
    }
  }
  return false;
}

}  // namespace

void run_raycast(const RunConfig& cfg, exec::ExecutionContext& ctx, SpanLog& spans,
                 Checks& checks, Result& result) {
  const std::uint32_t edge = cfg.size;
  const std::filesystem::path input = cached_input(cfg, ctx, Dataset::kCombustion, edge);
  const auto tf = render::TransferFunction::flame();
  render::RenderConfig config;
  config.image_width = kImage;
  config.image_height = kImage;
  config.tile_size = 32;
  config.shade = true;
  config.use_macrocells = true;
  config.packet_size = 8;
  const auto f = static_cast<float>(edge);
  std::vector<render::Camera> cameras;
  for (unsigned v = 0; v < kViews; ++v) {
    cameras.push_back(render::orbit_camera(v, kViews, f, f, f));
  }

  // Set-up: load, convert, and one warm-up render per layout, which builds
  // (and caches) each volume's macrocell grid. Cache entries are keyed on
  // the volume's storage, so they are dropped with the volume.
  std::vector<double> setup_s, load_s, convert_s;
  core::AnyVolume array, zorder;
  const auto release = [&] {
    for (auto* v : {&array, &zorder}) {
      ctx.structures().invalidate(v->data());
      *v = core::AnyVolume{};
    }
  };
  for (unsigned rep = 0; rep < kSetups; ++rep) {
    release();
    SpanLog::Scope span(spans, "bench.setup");
    array = load_array(ctx, spans, input, load_s);
    zorder = to_zorder(ctx, spans, array, convert_s);
    for (auto* v : {&array, &zorder}) {
      SpanLog::Scope call(spans, "render.raycast_parallel");
      (void)render::raycast_parallel(*v, cameras[0], tf, config, ctx);
    }
    setup_s.push_back(span.close());
  }
  result.volume_bytes = array.size() * sizeof(float);

  // Measurement: whole orbits, alternating layouts; per-frame times.
  std::vector<render::Image> reference;
  std::vector<std::vector<double>> frame_s(2);
  std::vector<std::vector<std::vector<double>>> per_view(
      2, std::vector<std::vector<double>>(kViews));
  const auto orbit = [&](int layout) {
    const core::AnyVolume& vol = layout == 0 ? array : zorder;
    SpanLog::Scope span(spans, "bench.orbit");
    for (unsigned v = 0; v < kViews; ++v) {
      SpanLog::Scope call(spans, "render.raycast_parallel");
      const double t0 = now_s();
      render::Image img = render::raycast_parallel(vol, cameras[v], tf, config, ctx);
      const double dt = now_s() - t0;
      call.close();
      frame_s[layout].push_back(dt);
      per_view[layout][v].push_back(dt);
      if (reference.size() < kViews) {
        checks.expect(has_content(img), "raycast frame " + std::to_string(v) + " is blank");
        reference.push_back(std::move(img));
      } else {
        checks.expect(images_equal(img, reference[v]),
                      std::string(layout == 0 ? "array-order" : "Z-order") + " frame " +
                          std::to_string(v) + " differs from the array-order reference");
      }
    }
  };
  (void)measure_rounds(cfg.window_s(), 2, [&] { orbit(0); }, [&] { orbit(1); });

  // Viewpoints differ several-fold in cost, so a median over pooled frames
  // jumps between viewpoint clusters. A frame time here is the mean over
  // the given viewpoints of each viewpoint's median frame time.
  const auto frame_ms = [&](int layout, std::vector<unsigned> views) {
    double total = 0.0;
    for (const unsigned v : views) {
      total += median(per_view[layout][v]) * 1e3;
    }
    return total / static_cast<double>(views.size());
  };
  const std::vector<unsigned> all_views{0, 1, 2, 3, 4, 5, 6, 7};
  const double ta = frame_ms(0, all_views);
  const double tz = frame_ms(1, all_views);
  print_times("array-order frame", frame_s[0], 0.0);
  print_times("Z-order frame", frame_s[1], 0.0);
  auto& m = result.metrics;
  m["setup_s"] = median(setup_s);
  m["base.ms"] = ta;
  m["alt.ms"] = tz;
  m["array.frame_ms"] = ta;
  m["zorder.frame_ms"] = tz;
  m["array.against_grain_ms"] = frame_ms(0, {2, 6});
  m["zorder.against_grain_ms"] = frame_ms(1, {2, 6});
  m["paper.ds"] = paper_ds(ta, tz);
  result.notes["base"] = "array-order frame";
  result.notes["alt"] = "Z-order frame";
  if (!cfg.trace) {
    return;
  }

  m["data.load_s"] = median(load_s);
  m["core.convert_s"] = median(convert_s);
  std::vector<double> build_s;
  for (int rep = 0; rep < 2; ++rep) {
    for (auto* v : {&array, &zorder}) {
      SpanLog::Scope call(spans, "render.macrocell_build");
      (void)render::MacrocellGrid::build(*v, config.macrocell_size, &ctx);
      build_s.push_back(call.close());
    }
  }
  m["render.macrocell_build_s"] = median(build_s);

  // Exact sample counts: one collect_stats orbit per layout.
  std::uint64_t samples[2] = {0, 0};
  std::uint64_t skipped = 0;
  auto& tracer = trace::Tracer::instance();
  for (int layout = 0; layout < 2; ++layout) {
    tracer.reset_metrics();
    for (unsigned v = 0; v < kViews; ++v) {
      (void)render::raycast_parallel(layout == 0 ? array : zorder, cameras[v], tf, config, ctx,
                                     nullptr, true);
    }
    const trace::MetricsSnapshot snap = tracer.metrics_snapshot();
    samples[layout] = snap.total("raycast.samples_taken");
    skipped = snap.total("raycast.samples_skipped");
  }
  checks.expect(samples[0] == samples[1] && samples[0] > 0,
                "raycast sample counts differ across layouts or are zero");
  m["render.samples"] = static_cast<double>(samples[0]);
  m["render.skip_rate"] =
      static_cast<double>(skipped) / static_cast<double>(samples[1] + skipped);
  m["render.ns_per_sample.array"] = ta * kViews * 1e6 / static_cast<double>(samples[0]);
  m["render.ns_per_sample.zorder"] = tz * kViews * 1e6 / static_cast<double>(samples[1]);

  // Parallel efficiency: the same frame as one serial job vs the 4-worker
  // dynamic job, at viewpoints 0 and 2 (array order).
  double t1 = 0.0, t4 = 0.0;
  for (const unsigned v : {0u, 2u}) {
    render::Image img(config.image_width, config.image_height);
    exec::KernelJob job = render::raycast_job(array, cameras[v], tf, config, img);
    job.dispatch = exec::JobDispatch::kSerial;
    double t0 = now_s();
    exec::run_job(ctx, std::move(job));
    t1 += now_s() - t0;
    checks.expect(images_equal(img, reference[v]),
                  "serial-dispatch frame " + std::to_string(v) + " differs");
    t0 = now_s();
    (void)render::raycast_parallel(array, cameras[v], tf, config, ctx);
    t4 += now_s() - t0;
  }
  m["threads.parallel_eff"] = t1 / (static_cast<double>(ctx.size()) * t4);

  // Gather-only replays of the bilateral pass over this volume: a control
  // that should read flat when only the gather path changes.
  const auto params = bilateral_params();
  m["core.gather_s.array"] = gather_replay(ctx, array, params, false).seconds;
  m["core.gather_s.zorder"] = gather_replay(ctx, zorder, params, false).seconds;
  const GatherReplay counted = gather_replay(ctx, zorder, params, true);
  m["core.gather_run_len.zorder"] =
      static_cast<double>(counted.runs.elements) / static_cast<double>(counted.runs.runs);
  const std::size_t tiles = static_cast<std::size_t>(kImage / 32) * (kImage / 32);
  m["exec.dispatch_us_per_tile"] =
      dispatch_us_per_tile(ctx, tiles, exec::JobDispatch::kDynamic);

  // Traced section: one orbit per layout under the library's TraceSession.
  double traced = 0.0;
  {
    exec::TraceSession session("", cfg.report_path, true);
    for (int layout = 0; layout < 2; ++layout) {
      for (unsigned v = 0; v < kViews; ++v) {
        const double t0 = now_s();
        render::Image img =
            render::raycast_parallel(layout == 0 ? array : zorder, cameras[v], tf, config, ctx);
        traced += now_s() - t0;
        checks.expect(images_equal(img, reference[v]),
                      "traced frame " + std::to_string(v) + " differs");
      }
    }
    session.finish();
  }
  m["trace.overhead"] = traced / ((ta + tz) * kViews / 1e3) - 1.0;
  release();
}

}  // namespace sfcbench

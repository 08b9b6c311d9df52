// Workload bilateral-*: the stencil path. MRI phantom, bilateral r = 2
// z-pencil gather pass, alternately on array order and Z-order.
#include "probes.hpp"
#include "sfcvis/exec/trace_session.hpp"

namespace sfcbench {

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace filters = sfcvis::filters;

void run_bilateral(const RunConfig& cfg, exec::ExecutionContext& ctx, SpanLog& spans,
                   Checks& checks, Result& result) {
  const std::uint32_t edge = cfg.size;
  const filters::BilateralParams params = bilateral_params();
  const std::filesystem::path input = cached_input(cfg, ctx, Dataset::kPhantom, edge);

  // Set-up: load the cached input, convert it to Z-order.
  std::vector<double> setup_s, load_s, convert_s;
  core::AnyVolume array, zorder;
  for (unsigned rep = 0; rep < kSetups; ++rep) {
    array = core::AnyVolume{};
    zorder = core::AnyVolume{};
    SpanLog::Scope span(spans, "bench.setup");
    array = load_array(ctx, spans, input, load_s);
    zorder = to_zorder(ctx, spans, array, convert_s);
    setup_s.push_back(span.close());
  }
  const double voxels = static_cast<double>(array.size());
  result.volume_bytes = array.size() * sizeof(float);

  core::ArrayVolume out_a{core::ArrayOrderLayout(array.extents())};
  core::ArrayVolume out_z{core::ArrayOrderLayout(array.extents())};
  core::ArrayVolume first{core::ArrayOrderLayout(array.extents())};
  bool have_first = false;
  const auto pass = [&](const core::AnyVolume& src, core::ArrayVolume& dst) {
    SpanLog::Scope span(spans, "bench.pass");
    SpanLog::Scope call(spans, "filters.bilateral_parallel");
    filters::bilateral_parallel(src, dst, params, ctx);
  };
  const auto times = measure_rounds(
      cfg.window_s(), 3,
      [&] {
        pass(array, out_a);
        if (!have_first) {
          first.copy_from(out_a);
          have_first = true;
        } else {
          checks.expect(same_bits(out_a, first), "array-order pass is not deterministic");
        }
      },
      [&] {
        pass(zorder, out_z);
        // Round 0 runs the array pass first, so `first` is always set here.
        checks.expect(same_bits(out_z, first),
                      "Z-order bilateral output differs from array order");
      });
  std::string why;
  checks.expect(spot_check_bilateral(array.as<core::ArrayOrderLayout>(), first, params,
                                     cfg.seed, 64, why),
                "bilateral spot check: " + why);

  const double ta = median(times[0]);
  const double tz = median(times[1]);
  print_times("array-order pass", times[0], voxels / 1e6);
  print_times("Z-order pass", times[1], voxels / 1e6);
  auto& m = result.metrics;
  m["setup_s"] = median(setup_s);
  m["base.ms"] = ta * 1e3;
  m["alt.ms"] = tz * 1e3;
  m["array.mvox_s"] = voxels / 1e6 / ta;
  m["zorder.mvox_s"] = voxels / 1e6 / tz;
  m["paper.ds"] = paper_ds(ta, tz);
  result.notes["base"] = "array-order bilateral pass";
  result.notes["alt"] = "Z-order bilateral pass";
  if (!cfg.trace) {
    return;
  }

  // Per-layer probes (untraced): gather-only replays, run lengths,
  // dispatch cost.
  m["data.load_s"] = median(load_s);
  m["core.convert_s"] = median(convert_s);
  std::vector<double> gather_a, gather_z;
  for (int rep = 0; rep < 3; ++rep) {
    SpanLog::Scope span(spans, "bench.gather_only");
    {
      SpanLog::Scope call(spans, "core.gather_row");
      gather_a.push_back(gather_replay(ctx, array, params, false).seconds);
    }
    SpanLog::Scope call(spans, "core.gather_row");
    gather_z.push_back(gather_replay(ctx, zorder, params, false).seconds);
  }
  const GatherReplay counted = gather_replay(ctx, zorder, params, true);
  m["core.gather_s.array"] = median(gather_a);
  m["core.gather_s.zorder"] = median(gather_z);
  m["core.gather_run_len.zorder"] =
      static_cast<double>(counted.runs.elements) / static_cast<double>(counted.runs.runs);
  m["filters.taps_s.array"] = ta - median(gather_a);
  m["filters.taps_s.zorder"] = tz - median(gather_z);
  std::vector<double> all = times[0];
  all.insert(all.end(), times[1].begin(), times[1].end());
  m["filters.computed_gbs"] = 2.0 * voxels * sizeof(float) / median(all) / 1e9;
  m["exec.dispatch_us_per_tile"] = dispatch_us_per_tile(
      ctx, filters::pencil_count(array.extents(), params.pencil), exec::JobDispatch::kStatic);

  // Traced section: one pass per layout under the library's TraceSession,
  // whose run report run.py reads for the job split and thread imbalance.
  double traced = 0.0;
  {
    exec::TraceSession session("", cfg.report_path, true);
    for (auto* src : {&array, &zorder}) {
      const double t0 = now_s();
      pass(*src, src == &array ? out_a : out_z);
      traced += now_s() - t0;
    }
    session.finish();
  }
  checks.expect(same_bits(out_a, first) && same_bits(out_z, first),
                "traced bilateral output differs from the untraced one");
  m["trace.overhead"] = traced / (ta + tz) - 1.0;
}

}  // namespace sfcbench

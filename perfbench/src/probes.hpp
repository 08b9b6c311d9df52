// Pieces the workloads share: the filter configuration, the alternating
// measurement loop, input loading and layout conversion, output checks,
// and the layer probes (gather-only replay, no-op dispatch job).
#pragma once

#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/data/volume_io.hpp"
#include "sfcvis/exec/kernel_registry.hpp"
#include "sfcvis/filters/bilateral.hpp"

namespace sfcbench {

/// The workloads' shared filter configuration: bilateral r = 2, sigma_s 1.5,
/// sigma_r 0.1, z-pencils, zyx order, gather fast path with the shipped
/// defaults (fast_exp, SIMD taps).
[[nodiscard]] inline sfcvis::filters::BilateralParams bilateral_params() {
  sfcvis::filters::BilateralParams params;
  params.radius = 2;
  params.sigma_spatial = 1.5f;
  params.sigma_range = 0.1f;
  params.pencil = sfcvis::filters::PencilAxis::kZ;
  params.order = sfcvis::filters::LoopOrder::kZYX;
  params.use_gather = true;
  return params;
}

/// Runs `units` (callables returning nothing) round-robin, rotating which
/// goes first each round, until `seconds` have passed and every unit ran
/// at least `min_rounds` times. times[u] collects unit u's durations (s).
template <class... Units>
std::vector<std::vector<double>> measure_rounds(double seconds, unsigned min_rounds,
                                                Units&&... units) {
  std::vector<std::function<void()>> fns{std::function<void()>(units)...};
  std::vector<std::vector<double>> times(fns.size());
  const double t_begin = now_s();
  for (unsigned round = 0; round < min_rounds || now_s() - t_begin < seconds; ++round) {
    for (std::size_t n = 0; n < fns.size(); ++n) {
      const std::size_t u = (round + n) % fns.size();
      const double t0 = now_s();
      fns[u]();
      times[u].push_back(now_s() - t0);
    }
  }
  return times;
}

/// Registers the benchmark's own job kinds (idempotent).
void register_probe_kernels();

/// Receives a value computed from every replayed gather, so the gathers
/// stay observable to the optimizer.
extern float g_gather_sink;

/// What one gather-only replay measured.
struct GatherReplay {
  double seconds = 0.0;
  sfcvis::core::GatherRunStats runs;  ///< filled only when counting
};

/// Replays a bilateral gather pass's exact core::gather_row calls (same
/// pencils, same planes, same rows, same static dispatch) into per-worker
/// scratch with no tap math. Border pencils, which the filter runs through
/// the per-voxel kernel instead of gathers, are skipped as in the filter.
/// With `count_runs` each gather also feeds a GatherRunStats (slower; use
/// a separate replay for timing).
template <class VolT>
GatherReplay gather_replay(sfcvis::exec::ExecutionContext& ctx, const VolT& src,
                           const sfcvis::filters::BilateralParams& params, bool count_runs) {
  namespace core = sfcvis::core;
  namespace filters = sfcvis::filters;
  struct State {
    std::vector<float> ring;
    core::GatherRunStats runs;
    float sink = 0.0f;
  };
  const auto& e = src.extents();
  const std::uint32_t r = params.radius;
  const std::uint32_t W = 2 * r + 1;
  const std::uint32_t len = filters::pencil_length(e, params.pencil);
  std::uint32_t na = 0, nb = 0;
  switch (params.pencil) {
    case filters::PencilAxis::kX: na = e.ny; nb = e.nz; break;
    case filters::PencilAxis::kY: na = e.nx; nb = e.nz; break;
    case filters::PencilAxis::kZ: na = e.nx; nb = e.ny; break;
  }
  auto states = std::make_shared<std::vector<std::shared_ptr<State>>>(ctx.size());
  sfcvis::exec::KernelJob job;
  job.kernel = "perfbench.gather_replay";
  job.dispatch = sfcvis::exec::JobDispatch::kStatic;
  job.tiles = filters::pencil_count(e, params.pencil);
  job.make_state = [states, W](unsigned tid) {
    auto state = std::make_shared<State>();
    state->ring.assign(static_cast<std::size_t>(W) * W * W, 0.0f);
    (*states)[tid] = state;
    return std::static_pointer_cast<void>(state);
  };
  job.tile = [&src, &params, &e, r, W, len, na, nb, count_runs](void* raw, std::size_t pencil,
                                                               unsigned) {
    auto& state = *static_cast<State*>(raw);
    const filters::PencilCoords pc = filters::pencil_coords(e, params.pencil, pencil);
    if (!(pc.a >= r && pc.a + r < na && pc.b >= r && pc.b + r < nb) || len <= 2 * r) {
      return;
    }
    const std::uint32_t a0 = pc.a - r;
    const std::uint32_t b0 = pc.b - r;
    const std::uint32_t plane_sz = W * W;
    core::GatherRunStats* rs = count_runs ? &state.runs : nullptr;
    const auto gather_plane = [&](std::uint32_t s) {
      float* plane = state.ring.data() + (s % W) * plane_sz;
      for (std::uint32_t du = 0; du < W; ++du) {
        switch (params.pencil) {
          case filters::PencilAxis::kX:
            core::gather_row(src, core::Axis3::kZ, s, a0 + du, b0, W, plane + du * W, rs);
            break;
          case filters::PencilAxis::kY:
            core::gather_row(src, core::Axis3::kX, a0, s, b0 + du, W, plane + du * W, rs);
            break;
          case filters::PencilAxis::kZ:
            core::gather_row(src, core::Axis3::kX, a0, b0 + du, s, W, plane + du * W, rs);
            break;
        }
      }
      state.sink += plane[plane_sz / 2];  // keeps the gathers observable
    };
    for (std::uint32_t s = 0; s <= 2 * r; ++s) {
      gather_plane(s);
    }
    for (std::uint32_t t = r + 1; t < len - r; ++t) {
      gather_plane(t + r);
    }
  };
  const double t0 = now_s();
  sfcvis::exec::run_job(ctx, std::move(job));
  GatherReplay out;
  out.seconds = now_s() - t0;
  float sink = 0.0f;
  for (const auto& state : *states) {
    if (state == nullptr) {
      continue;
    }
    sink += state->sink;
    const auto& rs = state->runs;
    if (rs.runs > 0) {
      out.runs.runs += rs.runs;
      out.runs.elements += rs.elements;
    }
  }
  g_gather_sink = sink;
  return out;
}

/// Facade overload: dispatches on the volume's runtime layout.
inline GatherReplay gather_replay(sfcvis::exec::ExecutionContext& ctx,
                                  const sfcvis::core::AnyVolume& src,
                                  const sfcvis::filters::BilateralParams& params,
                                  bool count_runs) {
  return src.visit(
      [&](const auto& grid) { return gather_replay(ctx, grid, params, count_runs); });
}

/// Median microseconds per tile of a JobGraph job whose `tiles` tiles do
/// nothing, under `dispatch`: the scheduler's own cost per tile.
[[nodiscard]] double dispatch_us_per_tile(sfcvis::exec::ExecutionContext& ctx,
                                          std::size_t tiles,
                                          sfcvis::exec::JobDispatch dispatch);

/// Loads a cached BOV input into a fresh array-order volume on ctx
/// (data::load_bov, then data::from_raw); adds the load time to `load_s`.
[[nodiscard]] inline sfcvis::core::AnyVolume load_array(sfcvis::exec::ExecutionContext& ctx,
                                                        SpanLog& spans,
                                                        const std::filesystem::path& input,
                                                        std::vector<double>& load_s) {
  sfcvis::data::RawVolume raw;
  {
    SpanLog::Scope span(spans, "data.load_bov");
    raw = sfcvis::data::load_bov(input);
    load_s.push_back(span.close());
  }
  SpanLog::Scope span(spans, "data.from_raw");
  sfcvis::core::AnyVolume volume = ctx.make_volume(sfcvis::core::LayoutKind::kArray, raw.extents);
  sfcvis::data::from_raw(raw, volume.as<sfcvis::core::ArrayOrderLayout>());
  return volume;
}

/// A Z-order copy of `src` (AnyVolume::copy_from); adds the time to `convert_s`.
[[nodiscard]] inline sfcvis::core::AnyVolume to_zorder(sfcvis::exec::ExecutionContext& ctx,
                                                       SpanLog& spans,
                                                       const sfcvis::core::AnyVolume& src,
                                                       std::vector<double>& convert_s) {
  SpanLog::Scope span(spans, "core.copy_from");
  sfcvis::core::AnyVolume z = ctx.make_volume(sfcvis::core::LayoutKind::kZOrder, src.extents());
  z.copy_from(src);
  convert_s.push_back(span.close());
  return z;
}

/// True when two array-order volumes hold bit-identical samples.
[[nodiscard]] inline bool same_bits(const sfcvis::core::ArrayVolume& a,
                                    const sfcvis::core::ArrayVolume& b) {
  return a.extents() == b.extents() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Spot check of a filter output against the exact per-voxel kernel
/// (filters::bilateral_voxel on the array-order source) at `count` seeded
/// voxels. The gather fast path differs from the exact kernel only by
/// fast_exp and tap-sum reassociation, pinned by the test suite at 1e-5;
/// this allows 1e-4.
[[nodiscard]] bool spot_check_bilateral(const sfcvis::core::ArrayVolume& src,
                                        const sfcvis::core::ArrayVolume& out,
                                        const sfcvis::filters::BilateralParams& params,
                                        std::uint32_t seed, unsigned count, std::string& why);

/// Human-readable line for one measured unit: median and quartile spread.
void print_times(const char* label, const std::vector<double>& seconds, double mvox);

}  // namespace sfcbench

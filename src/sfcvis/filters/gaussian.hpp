// Plain Gaussian smoothing — the non-edge-preserving baseline the bilateral
// filter is contrasted with (paper Sec. III-A calls the bilateral filter
// "more computationally intensive than a simple convolution kernel"; the
// examples and the ablation benches quantify that).
//
// Two forms:
//  * gaussian_convolve: direct (2r+1)^3 stencil — the same access pattern
//    as the bilateral filter minus the data-dependent term, usable with
//    any layout / pencil / loop-order configuration.
//  * gaussian_separable: the classic three-pass separable implementation —
//    the algorithmic optimization that data-dependent filters cannot use.
#pragma once

#include <cstdint>
#include <vector>

#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/simd.hpp"
#include "sfcvis/core/traced_view.hpp"
#include "sfcvis/core/volume.hpp"
#include "sfcvis/exec/execution_context.hpp"
#include "sfcvis/filters/kernels_common.hpp"

namespace sfcvis::filters {

/// Normalized 1D Gaussian taps for offsets [-radius, radius].
[[nodiscard]] std::vector<float> gaussian_kernel_1d(unsigned radius, float sigma);

/// Direct dense 3D Gaussian convolution of one voxel (clamp borders).
template <core::ReadView3D View>
[[nodiscard]] float gaussian_voxel(const View& src, std::uint32_t i, std::uint32_t j,
                                   std::uint32_t k, const std::vector<float>& taps) {
  const int r = static_cast<int>(taps.size() / 2);
  float sum = 0.0f;
  for (int dz = -r; dz <= r; ++dz) {
    for (int dy = -r; dy <= r; ++dy) {
      for (int dx = -r; dx <= r; ++dx) {
        const float w = taps[static_cast<std::size_t>(dx + r)] *
                        taps[static_cast<std::size_t>(dy + r)] *
                        taps[static_cast<std::size_t>(dz + r)];
        sum += w * src.at_clamped(static_cast<std::int64_t>(i) + dx,
                                  static_cast<std::int64_t>(j) + dy,
                                  static_cast<std::int64_t>(k) + dz);
      }
    }
  }
  return sum;
}

/// Per-worker scratch of the Gaussian gather fast path — same ring idea as
/// BilateralGatherScratch: the footprint of an advancing x-pencil changes
/// by one (2r+1)^2 plane per voxel, so W = 2r+1 dense scratch planes plus a
/// pre-multiplied weight cube turn the W^3 layout lookups per voxel into
/// one W^2 plane gather and a dense multiply-accumulate.
struct GaussianGatherScratch {
  void prepare(const std::vector<float>& taps) {
    width = static_cast<std::uint32_t>(taps.size());
    plane_size = width * width;
    ring.assign(static_cast<std::size_t>(width) * plane_size, 0.0f);
    wperm.resize(static_cast<std::size_t>(width) * plane_size);
    // [dp][du][dv] = taps[dp] * taps[du] * taps[dv], matching the ring's
    // plane-major sample order (dp = dx plane, du = dy row, dv = dz column).
    std::size_t q = 0;
    for (std::uint32_t dp = 0; dp < width; ++dp) {
      for (std::uint32_t du = 0; du < width; ++du) {
        for (std::uint32_t dv = 0; dv < width; ++dv) {
          wperm[q++] = taps[dp] * taps[du] * taps[dv];
        }
      }
    }
  }
  std::uint32_t width = 0;       ///< W = 2r + 1
  std::uint32_t plane_size = 0;  ///< W * W
  std::vector<float> ring;       ///< W planes of W*W samples, slot = (s + r) % W
  std::vector<float> wperm;      ///< pre-multiplied 3D tap weights
  core::PlaneWindow window;      ///< the pencil's W^2 plane offsets
};

/// Gather-based convolution of one x-pencil: every voxel runs an
/// explicit-SIMD multiply-accumulate over the ring planes (core/simd.hpp,
/// masked tails contribute exactly +0 because the weight slice reads 0);
/// plane windows clamp to the edge as gaussian_voxel does, so border voxels
/// take the same path. Differs from the direct path only by float
/// reassociation of the tap sum and of the precomputed weight products
/// (well inside the kernels' 1e-5 test tolerance); the per-pencil result
/// does not depend on the source layout.
template <core::VolumeBackend VolT>
void gaussian_pencil_gather(const VolT& src, core::ArrayVolume& dst,
                            const std::vector<float>& taps, std::size_t p,
                            GaussianGatherScratch& scratch) {
  const auto& e = src.extents();
  const auto j = static_cast<std::uint32_t>(p % e.ny);
  const auto k = static_cast<std::uint32_t>(p / e.ny);
  const auto view = core::make_read_view(src);
  const auto r = static_cast<std::int64_t>(taps.size() / 2);
  const std::uint32_t W = scratch.width;
  const std::uint32_t plane_sz = scratch.plane_size;
  float* const ring = scratch.ring.data();
  scratch.window.bind(view, core::Axis3::kX, {0, j - r, k - r}, W);
  for (std::int64_t s = -r; s < r; ++s) {
    core::gather_plane(view, scratch.window, s, ring + (s + r) % W * plane_sz);
  }
  constexpr int N = simd::kNativeLanes;
  using VF = simd::vfloat<N>;
  const float* wperm = scratch.wperm.data();
  for (std::uint32_t t = 0; t < e.nx; ++t) {
    core::gather_plane(view, scratch.window, t + r, ring + (t + 2 * r) % W * plane_sz);
    VF v_sum = VF::zero();
    for (std::uint32_t dpi = 0; dpi < W; ++dpi) {
      const float* plane = ring + (t + dpi) % W * plane_sz;
      const float* wplane = wperm + dpi * plane_sz;
      std::uint32_t q = 0;
      for (; q + N <= plane_sz; q += N) {
        v_sum = v_sum + VF::loadu(wplane + q) * VF::loadu(plane + q);
      }
      if (q < plane_sz) {
        const int tail = static_cast<int>(plane_sz - q);
        v_sum = v_sum + VF::loadu_masked(wplane + q, tail) *
                            VF::loadu_masked(plane + q, tail);
      }
    }
    dst.at(t, j, k) = simd::reduce_add(v_sum);
  }
}

/// Builds the Gaussian-convolution job (x-pencil decomposition). The
/// job's closures reference `src`/`dst`, which must outlive its run.
template <core::VolumeBackend VolT>
[[nodiscard]] exec::KernelJob gaussian_job(const VolT& src, core::ArrayVolume& dst,
                                           unsigned radius, float sigma,
                                           bool use_gather = false) {
  auto taps = std::make_shared<const std::vector<float>>(gaussian_kernel_1d(radius, sigma));
  const core::Extents3D e = src.extents();
  const std::size_t pencils = static_cast<std::size_t>(e.ny) * e.nz;
  const VolT* src_p = &src;
  core::ArrayVolume* dst_p = &dst;
  if (use_gather) {
    return detail::make_state_job(
        "gaussian", pencils, dst.data(),
        [taps](unsigned) {
          GaussianGatherScratch scratch;
          scratch.prepare(*taps);
          return scratch;
        },
        [src_p, dst_p, taps](GaussianGatherScratch& scratch, std::size_t p, unsigned) {
          gaussian_pencil_gather(*src_p, *dst_p, *taps, p, scratch);
        },
        "gaussian.parallel", "gather");
  }
  // One read view per worker: out-of-core views carry per-worker brick
  // pins and must not be shared across threads (a PlainView is free).
  return detail::make_state_job(
      "gaussian", pencils, dst.data(),
      [src_p](unsigned) { return core::make_read_view(*src_p); },
      [dst_p, taps, e](const auto& view, std::size_t p, unsigned) {
        const auto j = static_cast<std::uint32_t>(p % e.ny);
        const auto k = static_cast<std::uint32_t>(p / e.ny);
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          dst_p->at(i, j, k) = gaussian_voxel(view, i, j, k, *taps);
        }
      },
      "gaussian.parallel", "direct");
}

/// Parallel dense Gaussian convolution over x-pencils. With use_gather the
/// pencils run the sliding-window gather + explicit-SIMD fast path on
/// per-worker scratch (bench/abl_simd quantifies the speedup); off keeps
/// the per-voxel access stream the layout study measures.
template <core::VolumeBackend VolT>
void gaussian_convolve(const VolT& src, core::ArrayVolume& dst, unsigned radius,
                       float sigma, exec::ExecutionContext& ctx, bool use_gather = false) {
  detail::run_job(ctx, gaussian_job(src, dst, radius, sigma, use_gather));
}

/// Facade driver: dispatches on the source volume's runtime layout.
inline void gaussian_convolve(const core::AnyVolume& src, core::ArrayVolume& dst,
                              unsigned radius, float sigma, exec::ExecutionContext& ctx,
                              bool use_gather = false) {
  src.visit([&](const auto& grid) {
    gaussian_convolve(grid, dst, radius, sigma, ctx, use_gather);
  });
}

/// Facade job builder.
[[nodiscard]] inline exec::KernelJob gaussian_job(const core::AnyVolume& src,
                                                  core::ArrayVolume& dst, unsigned radius,
                                                  float sigma, bool use_gather = false) {
  return src.visit(
      [&](const auto& grid) { return gaussian_job(grid, dst, radius, sigma, use_gather); });
}

/// Serial three-pass separable Gaussian (array-order only); numerically
/// equivalent to gaussian_convolve up to float rounding, ~ (2r+1)^2 / 3 x
/// cheaper in taps.
void gaussian_separable(const core::ArrayVolume& src, core::ArrayVolume& dst,
                        unsigned radius, float sigma);

}  // namespace sfcvis::filters

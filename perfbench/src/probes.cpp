// Out-of-line parts of the shared workload pieces (probes.hpp).
#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sfcbench {

namespace core = sfcvis::core;
namespace exec = sfcvis::exec;
namespace filters = sfcvis::filters;

float g_gather_sink = 0.0f;

void register_probe_kernels() {
  auto& registry = exec::KernelRegistry::instance();
  if (registry.find("perfbench.gather_replay") == nullptr) {
    registry.register_kernel({"perfbench.gather_replay", "pencils",
                              exec::JobDispatch::kStatic, false, ""});
  }
  if (registry.find("perfbench.noop") == nullptr) {
    registry.register_kernel({"perfbench.noop", "tiles", exec::JobDispatch::kStatic, false, ""});
  }
}

double dispatch_us_per_tile(exec::ExecutionContext& ctx, std::size_t tiles,
                            exec::JobDispatch dispatch) {
  std::vector<double> per_tile;
  for (int rep = 0; rep < 15; ++rep) {
    exec::KernelJob job;
    job.kernel = "perfbench.noop";
    job.dispatch = dispatch;
    job.tiles = tiles;
    job.tile = [](void*, std::size_t, unsigned) {};
    const double t0 = now_s();
    exec::run_job(ctx, std::move(job));
    per_tile.push_back((now_s() - t0) * 1e6 / static_cast<double>(tiles));
  }
  return median(per_tile);
}

bool spot_check_bilateral(const core::ArrayVolume& src, const core::ArrayVolume& out,
                          const filters::BilateralParams& params, std::uint32_t seed,
                          unsigned count, std::string& why) {
  const filters::BilateralWeights weights(params);
  const auto view = core::make_read_view(src);
  const auto& e = src.extents();
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ seed;
  const auto next = [&state](std::uint32_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>((state >> 33) % n);
  };
  for (unsigned s = 0; s < count; ++s) {
    const std::uint32_t i = next(e.nx), j = next(e.ny), k = next(e.nz);
    const float want =
        filters::bilateral_voxel(view, i, j, k, weights, params.sigma_range, params.order);
    const float got = out.at(i, j, k);
    if (!(std::fabs(got - want) <= 1e-4f)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "voxel (%u,%u,%u) is %.7g, exact kernel gives %.7g", i,
                    j, k, static_cast<double>(got), static_cast<double>(want));
      why = buf;
      return false;
    }
  }
  return true;
}

void print_times(const char* label, const std::vector<double>& seconds, double mvox) {
  std::vector<double> sorted = seconds;
  std::sort(sorted.begin(), sorted.end());
  const double med = median(sorted);
  std::printf("  %-28s n=%-3zu median %9.3f ms  min %9.3f  max %9.3f", label, sorted.size(),
              med * 1e3, sorted.front() * 1e3, sorted.back() * 1e3);
  if (mvox > 0.0) {
    std::printf("  (%.2f Mvoxel/s)", mvox / med);
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace sfcbench

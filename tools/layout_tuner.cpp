// layout_tuner: search the generalized-Morton family for the cheapest
// interleave pattern per (kernel, shape, machine) and record winners in a
// JSON registry ExecutionContext::resolve_layout() consults.
//
//   layout_tuner --kernel=bilateral --size=64 --generations=8 --seed=1
//                --registry-out=tuned_layouts.json
//
// Fitness is a deterministic traced replay, so a given flag set reproduces
// the identical search everywhere: --fitness=memsim (default) models the
// full cache hierarchy (same platform model and counters as the ablation
// benches); --fitness=sampled-mrc ranks candidates by the SHARDS-sampled
// miss-ratio curve instead — the same ordering signal at a fraction of the
// cost. --validate re-times the winner against canonical Z-order on real
// hardware before the entry is written.
#include <cstdio>
#include <string>

#include "sfcvis/bench_util/options.hpp"
#include "sfcvis/exec/layout_registry.hpp"
#include "sfcvis/tuner/tuner.hpp"

namespace {

using namespace sfcvis;

void print_candidate(const char* label, const tuner::Candidate& c, double baseline) {
  std::printf("  %-14s %-24s fitness %12.0f  escapes %8llu  vs canonical %.3fx\n", label,
              ("\"" + c.pattern + "\"").c_str(), c.fitness,
              static_cast<unsigned long long>(c.escapes),
              c.fitness > 0 ? baseline / c.fitness : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bench_util::Options opts(argc, argv);

  tuner::TunerConfig config;
  config.kernel = opts.get_string("kernel", "bilateral");
  const std::uint32_t size = opts.get_u32("size", 64);
  config.extents = core::Extents3D{opts.get_u32("nx", size), opts.get_u32("ny", size),
                                   opts.get_u32("nz", size)};
  config.platform_name = opts.get_string("platform", "ivybridge");
  config.cache_scale = opts.get_u32("cache-scale", 16);
  config.threads = opts.get_u32("threads", 4);
  config.trace_items = opts.get_u32("trace-items", 64);
  config.trace_image = opts.get_u32("trace-image", 32);
  config.population = opts.get_u32("population", 12);
  config.survivors = opts.get_u32("survivors", 4);
  config.generations = opts.get_u32("generations", 8);
  config.seed = opts.get_u32("seed", 1);
  config.fitness = opts.get_string("fitness", "memsim");
  const std::string registry_out = opts.get_string("registry-out", "");
  const bool validate = opts.get_flag("validate");
  const unsigned validate_reps = opts.get_u32("validate-reps", 3);
  const unsigned validate_threads = opts.get_u32("validate-threads", config.threads);

  std::printf("layout_tuner: kernel=%s shape=%s platform=%s/%ux threads=%u fitness=%s\n",
              config.kernel.c_str(), exec::shape_key(config.extents).c_str(),
              config.platform_name.c_str(), config.cache_scale, config.threads,
              config.fitness.c_str());
  std::printf("  search: population=%u survivors=%u generations=%u seed=%llu "
              "trace-items=%zu\n",
              config.population, config.survivors, config.generations,
              static_cast<unsigned long long>(config.seed), config.trace_items);

  tuner::TunerResult result;
  try {
    result = tuner::search(config, [](const std::string& line) {
      std::printf("  %s\n", line.c_str());
    });
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "layout_tuner: %s\n", ex.what());
    return 1;
  }

  std::printf("search done after %zu evaluations:\n", result.evaluations);
  print_candidate("canonical z", result.canonical_z, result.canonical_z.fitness);
  print_candidate("best canonical", result.best_canonical, result.canonical_z.fitness);
  print_candidate("winner", result.best, result.canonical_z.fitness);

  if (result.best.fitness > result.best_canonical.fitness) {
    std::fprintf(stderr,
                 "layout_tuner: search regressed below the canonical seeds — this "
                 "cannot happen with elitist selection; refusing to write a registry\n");
    return 1;
  }

  if (validate) {
    const double tuned_s = tuner::measure_wallclock(
        config, core::LayoutKind::kGMorton, result.best.pattern, validate_threads,
        validate_reps);
    const double canon_s = tuner::measure_wallclock(config, core::LayoutKind::kZOrder, "",
                                                    validate_threads, validate_reps);
    std::printf("hardware validation (%u threads, min of %u): tuned %.4fs canonical "
                "%.4fs -> %.3fx\n",
                validate_threads, validate_reps, tuned_s, canon_s, canon_s / tuned_s);
  }

  if (!registry_out.empty()) {
    exec::LayoutRegistry registry;
    try {
      registry = exec::LayoutRegistry::load(registry_out);
      std::printf("merging into existing registry %s (%zu entries)\n",
                  registry_out.c_str(), registry.size());
    } catch (const std::exception&) {
      // Start a fresh registry when the file does not exist yet.
    }
    registry.add(tuner::to_registry_entry(config, result));
    try {
      registry.save(registry_out);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "layout_tuner: %s\n", ex.what());
      return 1;
    }
    std::printf("wrote %s (%zu entries)\n", registry_out.c_str(), registry.size());
  }
  return 0;
}

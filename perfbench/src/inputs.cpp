// Seeded, cached inputs.
//
// Each (dataset, edge, seed) input is generated once, written as a BOV
// volume, and stored beside an FNV-1a checksum of its payload. Reuse
// verifies the checksum first; a mismatch or a missing file regenerates.
// The library's generators are serial per-voxel functions of (i, j, k), so
// generation here fills z-slabs of the volume on the context's workers —
// the same values as a serial fill, in a fraction of the time. Generation
// runs before set-up and is never timed: it is a cost no user of the
// library pays per run.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "bench.hpp"
#include "sfcvis/data/combustion.hpp"
#include "sfcvis/data/phantom.hpp"
#include "sfcvis/data/volume_io.hpp"

namespace sfcbench {

namespace fs = std::filesystem;
namespace core = sfcvis::core;
namespace data = sfcvis::data;

namespace {

/// Inputs kept in the cache; the least recently used beyond this are
/// deleted so a long series of seeds cannot fill the disk.
constexpr std::size_t kKeepInputs = 6;

/// Write target covering z-slab [k0, k1) of an array-order buffer. Exposes
/// the whole volume's extents, so a generator's (u, v, w) mapping is the
/// same as for a full fill.
struct SlabTarget {
  core::Extents3D extents_;
  float* samples = nullptr;
  std::uint32_t k0 = 0, k1 = 0;

  [[nodiscard]] const core::Extents3D& extents() const noexcept { return extents_; }

  template <class Fn>
  void fill_from(Fn&& fn) {
    const std::size_t plane = static_cast<std::size_t>(extents_.nx) * extents_.ny;
    for (std::uint32_t k = k0; k < k1; ++k) {
      float* out = samples + k * plane;
      for (std::uint32_t j = 0; j < extents_.ny; ++j) {
        for (std::uint32_t i = 0; i < extents_.nx; ++i) {
          *out++ = fn(i, j, k);
        }
      }
    }
  }
};

std::uint64_t fnv1a(const char* bytes, std::size_t n, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a checksum of a file's bytes; false when the file is unreadable.
bool file_checksum(const fs::path& path, std::uint64_t& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::vector<char> buf(1 << 20);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    h = fnv1a(buf.data(), static_cast<std::size_t>(in.gcount()), h);
  }
  out = h;
  return true;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Deletes the least recently used inputs beyond kKeepInputs.
void evict_old_inputs(const fs::path& dir) {
  std::vector<std::pair<fs::file_time_type, fs::path>> sums;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".sum") {
      sums.emplace_back(entry.last_write_time(ec), entry.path());
    }
  }
  if (sums.size() <= kKeepInputs) {
    return;
  }
  std::sort(sums.begin(), sums.end());
  for (std::size_t i = 0; i + kKeepInputs < sums.size(); ++i) {
    fs::path stem = sums[i].second;
    for (const char* ext : {".bov", ".raw", ".sum"}) {
      fs::remove(stem.replace_extension(ext), ec);
    }
  }
}

}  // namespace

fs::path cached_input(const RunConfig& cfg, sfcvis::exec::ExecutionContext& ctx,
                      Dataset dataset, std::uint32_t edge) {
  const char* name = dataset == Dataset::kPhantom ? "phantom" : "combustion";
  fs::create_directories(cfg.cache_dir);
  const std::string stem =
      std::string(name) + "-" + std::to_string(edge) + "-s" + std::to_string(cfg.seed);
  const fs::path header = cfg.cache_dir / (stem + ".bov");
  const fs::path payload = cfg.cache_dir / (stem + ".raw");
  const fs::path sum_file = cfg.cache_dir / (stem + ".sum");

  std::uint64_t have = 0;
  std::string want;
  std::getline(std::ifstream(sum_file) >> std::ws, want);
  if (fs::exists(header) && file_checksum(payload, have) && hex(have) == want) {
    fs::last_write_time(sum_file, fs::file_time_type::clock::now());
    return header;
  }
  if (!want.empty()) {
    std::printf("input %s: checksum mismatch, regenerating\n", stem.c_str());
  }

  const double t0 = now_s();
  data::RawVolume raw;
  raw.extents = core::Extents3D::cube(edge);
  raw.samples.assign(raw.extents.size(), 0.0f);
  const std::uint32_t slabs = std::min<std::uint32_t>(edge, ctx.size() * 8);
  ctx.parallel_dynamic(slabs, [&](std::size_t s, unsigned) {
    SlabTarget slab{raw.extents, raw.samples.data(),
                    static_cast<std::uint32_t>(s * edge / slabs),
                    static_cast<std::uint32_t>((s + 1) * edge / slabs)};
    if (dataset == Dataset::kPhantom) {
      data::PhantomParams params;
      params.seed = cfg.seed;
      data::fill_mri_phantom(slab, params);
    } else {
      data::CombustionParams params;
      params.seed = cfg.seed;
      data::fill_combustion(slab, params);
    }
  });
  data::save_bov(header, raw);
  std::uint64_t sum = 0;
  if (!file_checksum(payload, sum)) {
    throw std::runtime_error("cannot read back " + payload.string());
  }
  std::ofstream(sum_file) << hex(sum) << "\n";
  std::printf("input %s: generated in %.2f s\n", stem.c_str(), now_s() - t0);
  evict_old_inputs(cfg.cache_dir);
  return header;
}

}  // namespace sfcbench

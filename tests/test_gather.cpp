// Tests for the dense gathers (src/sfcvis/core/gather.hpp):
//  * the separability trait: every separable layout's index is the sum of
//    its per-axis terms, exhaustively on pow2, anisotropic and odd shapes;
//  * every layout's gather_row agrees with element-wise at() for every
//    axis, start position and length, and reports its real contiguous runs;
//  * gather_plane agrees with an at_clamped() walk for all three pencil
//    axes on every layout kind, including the out-of-core bricked views
//    (the streamed one with a 2-slot budget, so clamped rows go through
//    pin-ring eviction), on windows flush against, inside and overhanging
//    every face and at plane positions past either end of the pencil.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "sfcvis/core/brick_file.hpp"
#include "sfcvis/core/bricked.hpp"
#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/grid.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/volume.hpp"

namespace core = sfcvis::core;

namespace {

/// The tiled generalized-Morton member with b^3 tiles (kTiled's layout).
core::GeneralizedMortonLayout tiled_layout(const core::Extents3D& e, std::uint32_t b) {
  return core::GeneralizedMortonLayout(e, core::InterleavePattern::tiled(e, b, b, b));
}

/// Fills with a value that uniquely identifies the coordinate.
template <class Grid>
void fill_coded(Grid& g) {
  g.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return static_cast<float>(i) + 1000.0f * static_cast<float>(j) +
           1000000.0f * static_cast<float>(k);
  });
}

template <class Grid>
void expect_all_rows_match(const Grid& g) {
  const auto& e = g.extents();
  std::vector<float> out;
  for (const core::Axis3 axis : {core::Axis3::kX, core::Axis3::kY, core::Axis3::kZ}) {
    const std::uint32_t extent =
        axis == core::Axis3::kX ? e.nx : axis == core::Axis3::kY ? e.ny : e.nz;
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          const std::uint32_t along =
              axis == core::Axis3::kX ? i : axis == core::Axis3::kY ? j : k;
          // Every valid length from this start, including 1 and max.
          for (std::uint32_t n = 1; along + n <= extent; n += (n < 3 ? 1 : 3)) {
            out.assign(n, -1.0f);
            core::gather_row(g, axis, i, j, k, n, out.data());
            for (std::uint32_t l = 0; l < n; ++l) {
              const std::uint32_t gi = axis == core::Axis3::kX ? i + l : i;
              const std::uint32_t gj = axis == core::Axis3::kY ? j + l : j;
              const std::uint32_t gk = axis == core::Axis3::kZ ? k + l : k;
              ASSERT_EQ(out[l], g.at(gi, gj, gk))
                  << "axis=" << static_cast<int>(axis) << " start=(" << i << "," << j
                  << "," << k << ") n=" << n << " l=" << l;
            }
          }
        }
      }
    }
  }
}

/// Targeted coverage for larger shapes where the exhaustive sweep above is
/// too slow: checks gather_row only at starts on and adjacent to block
/// boundaries (multiples of `block` and their +/-1 neighbours), with
/// lengths chosen to stop short of, land on, and cross a boundary. This is
/// where the generic fallback and the run walkers switch between intra- and
/// inter-block address math.
template <class Grid>
void expect_rows_match_at_block_boundaries(const Grid& g, std::uint32_t block) {
  const auto& e = g.extents();
  const auto starts_for = [block](std::uint32_t extent) {
    std::vector<std::uint32_t> s{0, 1, extent - 1};
    for (std::uint32_t b = block; b < extent; b += block) {
      for (const std::uint32_t c : {b - 1, b, b + 1}) {
        if (c < extent) {
          s.push_back(c);
        }
      }
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    return s;
  };
  const auto si = starts_for(e.nx);
  const auto sj = starts_for(e.ny);
  const auto sk = starts_for(e.nz);
  std::vector<float> out;
  for (const core::Axis3 axis : {core::Axis3::kX, core::Axis3::kY, core::Axis3::kZ}) {
    const std::uint32_t extent =
        axis == core::Axis3::kX ? e.nx : axis == core::Axis3::kY ? e.ny : e.nz;
    for (const std::uint32_t k : sk) {
      for (const std::uint32_t j : sj) {
        for (const std::uint32_t i : si) {
          const std::uint32_t along =
              axis == core::Axis3::kX ? i : axis == core::Axis3::kY ? j : k;
          const std::uint32_t room = extent - along;
          for (std::uint32_t n : {1u, 2u, block - 1, block, block + 1, room}) {
            n = std::min(n, room);
            out.assign(n, -1.0f);
            core::gather_row(g, axis, i, j, k, n, out.data());
            for (std::uint32_t l = 0; l < n; ++l) {
              const std::uint32_t gi = axis == core::Axis3::kX ? i + l : i;
              const std::uint32_t gj = axis == core::Axis3::kY ? j + l : j;
              const std::uint32_t gk = axis == core::Axis3::kZ ? k + l : k;
              ASSERT_EQ(out[l], g.at(gi, gj, gk))
                  << "axis=" << static_cast<int>(axis) << " start=(" << i << "," << j
                  << "," << k << ") n=" << n << " l=" << l;
            }
          }
        }
      }
    }
  }
}

}  // namespace

TEST(GatherRow, ArrayOrderCube) {
  core::Grid3D<float, core::ArrayOrderLayout> g(core::Extents3D::cube(8));
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, ArrayOrderAnisotropic) {
  core::Grid3D<float, core::ArrayOrderLayout> g(core::Extents3D{11, 6, 9});
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, ZOrderCubePow2) {
  // Padded curve is cubic: exercises the incremental-Morton run walker.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D::cube(8));
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, ZOrderNonPow2Cube) {
  // 9^3 pads to 16^3 — still cubic, but rows cross padding holes.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D::cube(9));
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, ZOrderAnisotropic) {
  // Padded axes differ: exercises the per-axis deposit-table walker.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D{11, 6, 9});
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, TiledPattern) {
  core::Grid3D<float, core::GeneralizedMortonLayout> g(
      tiled_layout(core::Extents3D{11, 6, 9}, 4));
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, HilbertLayout) {
  core::Grid3D<float, core::HilbertLayout> g(core::Extents3D{11, 6, 9});
  fill_coded(g);
  expect_all_rows_match(g);
}

TEST(GatherRow, HilbertPow2CubeBlockBoundaries) {
  // 48^3 stores in a 64^3 enclosing Hilbert cube; pencils repeatedly cross
  // the curve's octant boundaries (every 8 voxels and at 16/32 splits).
  core::Grid3D<float, core::HilbertLayout> g(core::Extents3D::cube(48));
  fill_coded(g);
  expect_rows_match_at_block_boundaries(g, 8);
}

TEST(GatherRow, HilbertNonPow2Anisotropic) {
  // 37x21x13 pads to a 64^3 Hilbert cube: most of the curve is padding, so
  // valid-row runs are short and irregular.
  core::Grid3D<float, core::HilbertLayout> g(core::Extents3D{37, 21, 13});
  fill_coded(g);
  expect_rows_match_at_block_boundaries(g, 8);
}

TEST(GatherRow, TiledCubeBlockBoundaries) {
  // Extent is an exact multiple of the tile: every boundary start sits on a
  // tile seam, hitting the inter-tile stride path in the fallback.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(
      tiled_layout(core::Extents3D::cube(48), 8));
  fill_coded(g);
  expect_rows_match_at_block_boundaries(g, 8);
}

TEST(GatherRow, TiledNonPow2AnisotropicBlockBoundaries) {
  // 37x21x13 with 4^3 tiles leaves partial tiles on every axis; rows cross
  // both full and clipped tiles.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(
      tiled_layout(core::Extents3D{37, 21, 13}, 4));
  fill_coded(g);
  expect_rows_match_at_block_boundaries(g, 4);
}

TEST(GatherRow, ZOrderNonPow2AnisotropicBlockBoundaries) {
  // Same shape on the anisotropic Z-order tables: padded axis widths differ
  // (64/32/16), so boundary crossings differ per axis.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D{37, 21, 13});
  fill_coded(g);
  expect_rows_match_at_block_boundaries(g, 8);
}

TEST(GatherRow, SingleVoxelGrid) {
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D{1, 1, 1});
  g.at(0, 0, 0) = 42.0f;
  float out = 0.0f;
  core::gather_row(g, core::Axis3::kX, 0, 0, 0, 1, &out);
  EXPECT_EQ(out, 42.0f);
}

// ---------------------------------------------------------------------------
// Separability
// ---------------------------------------------------------------------------

static_assert(!core::SeparableLayout<core::HilbertLayout>,
              "a Hilbert index is not a sum of per-axis terms");

namespace {

/// index(i,j,k) == index(i,0,0) + index(0,j,0) + index(0,0,k) == the sum
/// of axis_term over every voxel of the grid, and every axis' terms
/// strictly increase (the separable gather_row's one-run test needs it).
template <class L>
void expect_separable(const L& layout) {
  const auto& e = layout.extents();
  const std::uint32_t dims[3] = {e.nx, e.ny, e.nz};
  for (const core::Axis3 axis : {core::Axis3::kX, core::Axis3::kY, core::Axis3::kZ}) {
    ASSERT_EQ(core::axis_term(layout, axis, 0), 0u) << L::name();
    for (std::uint32_t c = 1; c < dims[static_cast<unsigned>(axis)]; ++c) {
      ASSERT_GT(core::axis_term(layout, axis, c), core::axis_term(layout, axis, c - 1))
          << L::name() << " axis " << static_cast<int>(axis) << " c " << c;
    }
  }
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        const std::size_t sum = layout.index(i, 0, 0) + layout.index(0, j, 0) +
                                layout.index(0, 0, k);
        ASSERT_EQ(layout.index(i, j, k), sum)
            << L::name() << " (" << i << "," << j << "," << k << ")";
        ASSERT_EQ(sum, core::axis_term(layout, core::Axis3::kX, i) +
                           core::axis_term(layout, core::Axis3::kY, j) +
                           core::axis_term(layout, core::Axis3::kZ, k))
            << L::name() << " (" << i << "," << j << "," << k << ")";
      }
    }
  }
}

}  // namespace

TEST(Separability, IdentityHoldsExhaustivelyOnEverySeparableLayout) {
  for (const core::Extents3D e : {core::Extents3D::cube(16), core::Extents3D{37, 21, 13},
                                  core::Extents3D::cube(48), core::Extents3D{16, 4, 64}}) {
    SCOPED_TRACE(::testing::Message() << e.nx << "x" << e.ny << "x" << e.nz);
    expect_separable(core::ArrayOrderLayout(e));
    expect_separable(tiled_layout(e, 8));
    expect_separable(
        core::GeneralizedMortonLayout(e, core::InterleavePattern::tiled(e, 4, 2, 8)));
    expect_separable(core::GeneralizedMortonLayout(e));
    expect_separable(
        core::GeneralizedMortonLayout(e, core::InterleavePattern::tiled(e, 4, 4, 2)));
  }
}

// ---------------------------------------------------------------------------
// Contiguous runs of the separable gather_row
// ---------------------------------------------------------------------------

TEST(GatherRowRuns, ZOrderXRowsCopyMortonPairs) {
  // Along x, Morton indices pair up (x and x+1 share all but bit 0 when x
  // is even), so a 7-voxel row splits into four runs from either parity,
  // and the walker still reproduces the exact element sequence.
  core::Grid3D<float, core::GeneralizedMortonLayout> g(core::Extents3D::cube(16));
  fill_coded(g);
  for (std::uint32_t x0 : {0u, 1u, 2u, 3u}) {
    std::vector<float> out(7, -1.0f);
    core::GatherRunStats rs;
    core::gather_row(g, core::Axis3::kX, x0, 3, 5, 7, out.data(), &rs);
    EXPECT_EQ(rs.elements, 7u);
    EXPECT_EQ(rs.runs, 4u) << "x0=" << x0;
    EXPECT_EQ(rs.max_run, 2u);
    EXPECT_EQ(rs.min_run, 1u);
    for (std::uint32_t l = 0; l < 7; ++l) {
      EXPECT_EQ(out[l], g.at(x0 + l, 3, 5));
    }
  }
}

TEST(GatherRowRuns, ArrayAndTiledRowsReportTheirRealRuns) {
  // Array order: an x row is one run, a y or z row n runs of 1. Tiled with
  // 4-wide tiles: an x row splits at every tile seam, and a y row inside
  // one tile column is n runs of 1.
  const core::Extents3D e{16, 8, 8};
  core::Grid3D<float, core::ArrayOrderLayout> a(e);
  core::Grid3D<float, core::GeneralizedMortonLayout> t(tiled_layout(e, 4));
  fill_coded(a);
  fill_coded(t);
  std::vector<float> out(16);
  core::GatherRunStats rs;
  core::gather_row(a, core::Axis3::kX, 1, 2, 3, 12, out.data(), &rs);
  EXPECT_EQ(rs.runs, 1u);
  EXPECT_EQ(rs.max_run, 12u);
  rs = {};
  core::gather_row(a, core::Axis3::kY, 1, 0, 3, 8, out.data(), &rs);
  EXPECT_EQ(rs.runs, 8u);
  EXPECT_EQ(rs.max_run, 1u);
  rs = {};
  core::gather_row(t, core::Axis3::kX, 1, 2, 3, 12, out.data(), &rs);  // x 1..12
  EXPECT_EQ(rs.runs, 4u);  // [1,4) [4,8) [8,12) [12,13)
  EXPECT_EQ(rs.elements, 12u);
  EXPECT_EQ(rs.max_run, 4u);
  EXPECT_EQ(rs.min_run, 1u);
  for (std::uint32_t l = 0; l < 12; ++l) {
    EXPECT_EQ(out[l], t.at(1 + l, 2, 3));
  }
  rs = {};
  core::gather_row(t, core::Axis3::kY, 1, 0, 3, 8, out.data(), &rs);
  EXPECT_EQ(rs.runs, 8u);
}

// ---------------------------------------------------------------------------
// Plane gathers on every backend
// ---------------------------------------------------------------------------

namespace {

float coded(std::uint32_t i, std::uint32_t j, std::uint32_t k) {
  return static_cast<float>(i) + 1000.0f * static_cast<float>(j) +
         1000000.0f * static_cast<float>(k);
}

/// Checks gather_plane through one reused read view against
/// view.at_clamped() for every pencil axis and W in {3, 5}: each off-pencil
/// origin is flush against a face (0, extent - W), in the middle, or
/// overhangs one (-W + 1, -1, extent - W + 1, extent - 1), and planes are
/// drawn at the first, a middle and the last pencil position and past
/// either end (-2, extent + 1), so every tap outside the grid is clamped.
template <class VolT>
void expect_planes_match(const VolT& vol, const std::string& label) {
  const auto view = core::make_read_view(vol);
  const core::Extents3D& e = vol.extents();
  const std::int64_t dims[3] = {e.nx, e.ny, e.nz};
  core::PlaneWindow win;
  std::vector<float> out(25);
  for (const core::Axis3 pencil : {core::Axis3::kX, core::Axis3::kY, core::Axis3::kZ}) {
    const auto p = static_cast<unsigned>(pencil);
    for (const std::int64_t W : {3, 5}) {
      const auto origins = [&](unsigned axis) {
        const std::int64_t n = dims[axis];
        return std::vector<std::int64_t>{-W + 1, -1, 0, (n - W) / 2, n - W, n - W + 1, n - 1};
      };
      const unsigned u = (p + 1) % 3;
      const unsigned w = (p + 2) % 3;
      for (const std::int64_t ou : origins(u)) {
        for (const std::int64_t ow : origins(w)) {
          core::SignedCoord3D o{0, 0, 0};
          o[u] = ou;
          o[w] = ow;
          win.bind(view, pencil, o, static_cast<std::uint32_t>(W));
          for (const std::int64_t s : {std::int64_t{-2}, std::int64_t{0}, dims[p] / 2,
                                       dims[p] - 1, dims[p] + 1}) {
            std::fill(out.begin(), out.end(), -1.0f);
            core::gather_plane(view, win, s, out.data());
            for (std::uint32_t du = 0; du < W; ++du) {
              for (std::uint32_t dv = 0; dv < W; ++dv) {
                const core::SignedCoord3D c = win.voxel(s, du, dv);
                const core::Coord3D cc = core::clamp_to_edge(c, e);
                ASSERT_EQ(out[du * W + dv], view.at_clamped(c[0], c[1], c[2]))
                    << label << " pencil=" << p << " W=" << W << " s=" << s << " ("
                    << c[0] << "," << c[1] << "," << c[2] << ")";
                ASSERT_EQ(out[du * W + dv], coded(cc.i, cc.j, cc.k)) << label;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

TEST(GatherPlane, MatchesAtWalkOnAllSixBackends) {
  // 37x21x13: odd, anisotropic, non-pow2 — Z-order and gmorton take their
  // anisotropic tables, tiled its clipped tiles, Hilbert its padded cube.
  const core::Extents3D e{37, 21, 13};
  for (const core::LayoutKind kind : core::kAllLayoutKinds) {
    core::AnyVolume v = core::make_volume(kind, e);
    v.fill_from(coded);
    v.visit([&](const auto& grid) { expect_planes_match(grid, core::to_string(kind)); });
  }

  // Bricked: edge 8 puts brick seams inside most windows; one mmap open and
  // one streamed open whose 2-slot budget makes the view's pins evict.
  core::AnyVolume src = core::make_volume(core::LayoutKind::kArray, e);
  src.fill_from(coded);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("sfcvis_test_gather_" + std::to_string(::getpid()) + ".sfcbrk");
  core::BrickPackOptions popts;
  popts.brick_edge = 8;
  const core::BrickFileInfo info = core::pack_brick_file(path.string(), src, popts);
  for (const bool stream : {false, true}) {
    core::BrickOpenOptions oopts;
    if (stream) {
      oopts.force_stream = true;
      oopts.cache_bytes = 2 * info.brick_bytes();
    }
    const core::BrickedVolume vol = core::BrickedVolume::open(path.string(), oopts);
    expect_planes_match(vol, stream ? "bricked stream" : "bricked mmap");
    EXPECT_TRUE(vol.cache_report().io_error.empty());
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(GatherPlane, RunStatsEqualTheRowGathersOfThePlane) {
  // The per-pencil plane stats are the runs of the W row gathers the
  // plane replaces, on every separable layout.
  const core::Extents3D e{37, 21, 13};
  for (const core::LayoutKind kind : {core::LayoutKind::kArray, core::LayoutKind::kZOrder,
                                      core::LayoutKind::kTiled, core::LayoutKind::kGMorton}) {
    core::AnyVolume v = core::make_volume(kind, e);
    v.fill_from(coded);
    v.visit([&](const auto& grid) {
      const auto view = core::make_read_view(grid);
      core::PlaneWindow win;
      std::vector<float> out(25), row(5);
      for (const core::Axis3 pencil : {core::Axis3::kX, core::Axis3::kY, core::Axis3::kZ}) {
        win.bind(view, pencil, {3, 5, 7}, 5);
        core::GatherRunStats plane_rs, row_rs;
        for (const std::uint32_t s : {1u, 2u, 6u}) {
          core::gather_plane(view, win, s, out.data(), &plane_rs);
          for (std::uint32_t du = 0; du < 5; ++du) {
            const core::Coord3D c = core::clamp_to_edge(win.voxel(s, du, 0), e);
            core::gather_row(grid, win.row, c.i, c.j, c.k, 5, row.data(), &row_rs);
          }
        }
        EXPECT_EQ(plane_rs.runs, row_rs.runs) << core::to_string(kind);
        EXPECT_EQ(plane_rs.elements, row_rs.elements);
        EXPECT_EQ(plane_rs.min_run, row_rs.min_run);
        EXPECT_EQ(plane_rs.max_run, row_rs.max_run);
        EXPECT_EQ(plane_rs.len_log2, row_rs.len_log2);
      }
    });
  }
}

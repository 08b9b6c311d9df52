// Tests for the generalized-Morton layout family (core/gmorton.hpp):
// pattern parsing/validation, the degeneracy pins against independent
// oracles (canonical == Morton codes on cubes and the Pascucci-Frank bit
// assignment elsewhere, "zz..yy..xx" == row-major, tiled == the blocked
// closed form on pow2 shapes), codec round-trips, gather_row equivalence,
// the facade's kind-to-grid mapping, and cache-key salting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/morton.hpp"
#include "sfcvis/core/volume.hpp"

namespace core = sfcvis::core;

using core::ArrayOrderLayout;
using core::Extents3D;
using core::GeneralizedMortonLayout;
using core::GMortonTables;
using core::InterleavePattern;

namespace {

const Extents3D kShapes[] = {
    Extents3D::cube(8),    // pow2 cube
    Extents3D::cube(16),   // pow2 cube
    Extents3D{32, 16, 8},  // pow2 anisotropic
    Extents3D{20, 7, 5},   // non-pow2 anisotropic
    Extents3D{9, 17, 33},  // just past pow2 boundaries
    Extents3D{1, 1, 1},    // degenerate
    Extents3D{100, 1, 1},  // 1D-like
};

/// A deterministic scrambled (but valid) pattern for `e`: canonical
/// characters shuffled with a fixed-seed Fisher-Yates.
std::string scrambled_pattern(const Extents3D& e, std::uint64_t seed) {
  std::string s = InterleavePattern::canonical(e).str();
  std::mt19937_64 rng(seed);
  for (std::size_t i = s.size(); i > 1; --i) {
    std::swap(s[i - 1], s[rng() % i]);
  }
  return s;
}

/// Oracle for the canonical pattern, independent of InterleavePattern: the
/// per-axis Z-order bit assignment of Pascucci & Frank (2001) over the
/// pow2-padded extents. Walking bit-planes from the least significant
/// upward, the axes that still have bits left at a plane claim consecutive
/// output bits in x, y, z order.
std::size_t pascucci_frank_index(const Extents3D& e, std::uint32_t i, std::uint32_t j,
                                 std::uint32_t k) {
  const Extents3D p = core::padded_pow2(e);
  const unsigned bits[3] = {core::log2_pow2(p.nx), core::log2_pow2(p.ny),
                            core::log2_pow2(p.nz)};
  const std::uint32_t c[3] = {i, j, k};
  std::size_t index = 0;
  unsigned out = 0;
  for (unsigned plane = 0; plane < 21; ++plane) {
    for (unsigned axis = 0; axis < 3; ++axis) {
      if (plane < bits[axis]) {
        index |= static_cast<std::size_t>((c[axis] >> plane) & 1u) << out++;
      }
    }
  }
  return index;
}

/// Oracle for the tiled pattern: the blocked closed form — b^3 tiles
/// stored contiguously, row-major over the ceil-divided tile grid, voxels
/// row-major within a tile.
std::size_t tiled_closed_form(const Extents3D& e, std::uint32_t b, std::uint32_t i,
                              std::uint32_t j, std::uint32_t k) {
  const unsigned lb = core::log2_pow2(b);
  const std::size_t tiles_x = (e.nx + b - 1) / b;
  const std::size_t tiles_y = (e.ny + b - 1) / b;
  const std::size_t tile = (i >> lb) + tiles_x * ((j >> lb) + tiles_y * (k >> lb));
  const std::size_t within =
      (i & (b - 1)) + (std::size_t{j & (b - 1)} << lb) + (std::size_t{k & (b - 1)} << (2 * lb));
  return (tile << (3 * lb)) + within;
}

}  // namespace

// ---------------------------------------------------------------------------
// InterleavePattern parsing and validation
// ---------------------------------------------------------------------------

TEST(InterleavePattern, ParsesValidString) {
  const Extents3D e = Extents3D::cube(4);  // 2 bits per axis
  const InterleavePattern p("zyxzyx", e);
  EXPECT_EQ(p.str(), "zyxzyx");
  EXPECT_EQ(p.axis_bits(0), 2u);
  EXPECT_EQ(p.axis_bits(1), 2u);
  EXPECT_EQ(p.axis_bits(2), 2u);
  EXPECT_EQ(p.total_bits(), 6u);
  // MSB-first string: rightmost 'x' is plane 0 at output bit 0; the
  // leftmost 'z' is plane 1 of z at output bit 5.
  EXPECT_EQ(p.bit_position(0, 0), 0u);
  EXPECT_EQ(p.bit_position(1, 0), 1u);
  EXPECT_EQ(p.bit_position(2, 0), 2u);
  EXPECT_EQ(p.bit_position(0, 1), 3u);
  EXPECT_EQ(p.bit_position(1, 1), 4u);
  EXPECT_EQ(p.bit_position(2, 1), 5u);
}

TEST(InterleavePattern, RejectsBadCharacter) {
  EXPECT_THROW(InterleavePattern("zyxzyw", Extents3D::cube(4)), std::invalid_argument);
  EXPECT_THROW(InterleavePattern("zyx zy", Extents3D::cube(4)), std::invalid_argument);
}

TEST(InterleavePattern, RejectsWrongAxisCounts) {
  const Extents3D e = Extents3D::cube(4);
  EXPECT_THROW(InterleavePattern("zyxzy", e), std::invalid_argument);    // too short
  EXPECT_THROW(InterleavePattern("zyxzyxx", e), std::invalid_argument);  // too long
  EXPECT_THROW(InterleavePattern("zyxzyz", e), std::invalid_argument);   // 1x/2y/3z
  // Error message names the expected counts and the offending string.
  try {
    InterleavePattern("zyxzyz", e);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string msg = ex.what();
    EXPECT_NE(msg.find("zyxzyz"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2x"), std::string::npos) << msg;
  }
}

TEST(InterleavePattern, ValidatesAgainstPaddedExtents) {
  // 20x7x5 pads to 32x8x8: 5 x-bits, 3 y-bits, 3 z-bits.
  const Extents3D e{20, 7, 5};
  const InterleavePattern p("zzzyyyxxxxx", e);
  EXPECT_EQ(p.padded(), (Extents3D{32, 8, 8}));
  EXPECT_EQ(p.axis_bits(0), 5u);
  EXPECT_THROW(InterleavePattern("zyxzyxzyx", e), std::invalid_argument);
}

TEST(InterleavePattern, GeneratorsRoundTripThroughStrings) {
  for (const Extents3D& e : kShapes) {
    for (const InterleavePattern& gen :
         {InterleavePattern::canonical(e), InterleavePattern::array_order(e),
          InterleavePattern::tiled(e, 8, 8, 8)}) {
      const InterleavePattern reparsed(gen.str(), e);
      EXPECT_EQ(reparsed, gen) << gen.str();
    }
  }
}

TEST(InterleavePattern, CanonicalCubeIsRoundRobin) {
  EXPECT_EQ(InterleavePattern::canonical(Extents3D::cube(8)).str(), "zyxzyxzyx");
  EXPECT_EQ(InterleavePattern::array_order(Extents3D::cube(8)).str(), "zzzyyyxxx");
}

TEST(InterleaveHash, DistinguishesPatterns) {
  EXPECT_NE(core::interleave_hash("zyxzyx"), core::interleave_hash("zyxzxy"));
  EXPECT_NE(core::interleave_hash("zyx"), core::interleave_hash("zyxzyx"));
  EXPECT_EQ(core::interleave_hash("zyxzyx"), core::interleave_hash("zyxzyx"));
}

// ---------------------------------------------------------------------------
// Degeneracy pins: the classic layouts are members of the family
// ---------------------------------------------------------------------------

TEST(GMortonDegeneracy, CanonicalPatternMatchesZOrderEverywhere) {
  // Cubes: plain Morton codes. Every shape (anisotropic and non-pow2
  // included): the Pascucci-Frank bit assignment over the padded extents.
  for (const Extents3D& e : kShapes) {
    const GeneralizedMortonLayout g(e);  // default = canonical
    const Extents3D p = core::padded_pow2(e);
    const bool cube = p.nx == p.ny && p.ny == p.nz;
    ASSERT_EQ(g.required_capacity(), p.size());
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          ASSERT_EQ(g.index(i, j, k), pascucci_frank_index(e, i, j, k))
              << "(" << i << "," << j << "," << k << ") in " << e.nx << "x" << e.ny << "x"
              << e.nz;
          if (cube) {
            ASSERT_EQ(g.index(i, j, k), core::morton_encode_3d(i, j, k));
          }
        }
      }
    }
  }
}

TEST(GMortonDegeneracy, ArrayPatternMatchesRowMajorOverPaddedExtents) {
  // The pure "zz..yy..xx" member is row-major over the PADDED extents, so
  // it agrees with ArrayOrderLayout (row-major over logical extents)
  // exactly when no axis pads — any pow2 shape. On non-pow2 shapes the
  // row stride differs (padded nx vs logical nx) by design.
  for (const Extents3D& e :
       {Extents3D::cube(8), Extents3D::cube(16), Extents3D{32, 16, 8}, Extents3D{1, 1, 1}}) {
    const ArrayOrderLayout a(e);
    const GeneralizedMortonLayout g(e, InterleavePattern::array_order(e));
    for (std::uint32_t k = 0; k < e.nz; ++k) {
      for (std::uint32_t j = 0; j < e.ny; ++j) {
        for (std::uint32_t i = 0; i < e.nx; ++i) {
          ASSERT_EQ(g.index(i, j, k), a.index(i, j, k));
        }
      }
    }
  }
  // Non-pow2: still row-major in the padded box (x-runs contiguous, stride
  // = padded nx), even though the linear index differs from kArray.
  const Extents3D e{20, 7, 5};
  const GeneralizedMortonLayout g(e, InterleavePattern::array_order(e));
  EXPECT_EQ(g.index(1, 0, 0), g.index(0, 0, 0) + 1);
  EXPECT_EQ(g.index(0, 1, 0), g.index(0, 0, 0) + 32);      // padded nx
  EXPECT_EQ(g.index(0, 0, 1), g.index(0, 0, 0) + 32 * 8);  // padded nx*ny
}

TEST(GMortonDegeneracy, TiledPatternMatchesTiledLayoutOnPow2Shapes) {
  // The closed form uses ceil-div tile counts, so bit-exact agreement
  // needs pow2 extents (where padding is the identity).
  for (const Extents3D& e : {Extents3D::cube(16), Extents3D{32, 16, 8}}) {
    for (const std::uint32_t b : {4u, 8u}) {
      const GeneralizedMortonLayout g(e, InterleavePattern::tiled(e, b, b, b));
      for (std::uint32_t k = 0; k < e.nz; ++k) {
        for (std::uint32_t j = 0; j < e.ny; ++j) {
          for (std::uint32_t i = 0; i < e.nx; ++i) {
            ASSERT_EQ(g.index(i, j, k), tiled_closed_form(e, b, i, j, k)) << "tile " << b;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Codec: decode inverts index, stepping matches re-encode
// ---------------------------------------------------------------------------

TEST(GMortonCodec, DecodeInvertsIndex) {
  for (const Extents3D& e : kShapes) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const GeneralizedMortonLayout g(e, scrambled_pattern(e, seed));
      for (std::uint32_t k = 0; k < e.nz; ++k) {
        for (std::uint32_t j = 0; j < e.ny; ++j) {
          for (std::uint32_t i = 0; i < e.nx; ++i) {
            const core::Coord3D c = g.decode(g.index(i, j, k));
            ASSERT_EQ(c.i, i);
            ASSERT_EQ(c.j, j);
            ASSERT_EQ(c.k, k);
          }
        }
      }
    }
  }
}

TEST(GMortonCodec, GatherRowMatchesDirectReads) {
  const Extents3D e{24, 12, 10};
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    core::GMortonVolume vol{GeneralizedMortonLayout(e, scrambled_pattern(e, seed))};
    vol.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
      return static_cast<float>(i * 1000 + j * 100 + k);
    });
    std::vector<float> fast(32);
    core::GatherRunStats rs;
    std::uint64_t gathered = 0;
    for (const core::Axis3 axis : {core::Axis3::kX, core::Axis3::kY, core::Axis3::kZ}) {
      for (std::uint32_t j = 0; j < 4; ++j) {
        // Rows start at (0, j, 1) and run to the end of the logical extent.
        const std::uint32_t n =
            axis == core::Axis3::kX ? e.nx : axis == core::Axis3::kY ? e.ny - j : e.nz - 1;
        gathered += n;
        gather_row(vol, axis, 0, j, 1, n, fast.data(), &rs);
        for (std::uint32_t l = 0; l < n; ++l) {
          const std::uint32_t ii = axis == core::Axis3::kX ? l : 0;
          const std::uint32_t jj = axis == core::Axis3::kY ? j + l : j;
          const std::uint32_t kk = axis == core::Axis3::kZ ? 1 + l : 1;
          ASSERT_EQ(fast[l], vol.at(ii, jj, kk))
              << "axis " << static_cast<int>(axis) << " l " << l << " seed " << seed;
        }
      }
    }
    EXPECT_GT(rs.runs, 0u);
    EXPECT_EQ(rs.elements, gathered);
  }
}

// ---------------------------------------------------------------------------
// Curve-order sweeps (for_each_curve_voxel)
// ---------------------------------------------------------------------------

namespace {

/// Visits every logical voxel of `tables` in curve order, as three chunks.
template <class Fn>
void sweep_in_chunks(const GMortonTables& tables, const Extents3D& e, Fn&& fn) {
  const std::size_t cap = tables.capacity();
  const std::size_t chunk = (cap + 2) / 3;
  for (std::size_t begin = 0; begin < cap; begin += chunk) {
    core::for_each_curve_voxel(tables, e, begin, std::min(cap, begin + chunk), fn);
  }
}

}  // namespace

TEST(ForEachZOrder, CoversLogicalExtentsExactlyOnce) {
  for (const Extents3D e : {Extents3D{8, 8, 8}, Extents3D{5, 5, 5}, Extents3D{6, 3, 2},
                            Extents3D{16, 4, 1}}) {
    for (const InterleavePattern& pattern :
         {InterleavePattern::canonical(e), InterleavePattern(scrambled_pattern(e, 5), e)}) {
      const GMortonTables tables(e, pattern);
      std::vector<int> cover(e.size(), 0);
      sweep_in_chunks(tables, e, [&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
        ASSERT_TRUE(e.contains(i, j, k));
        cover[i + static_cast<std::size_t>(e.nx) * (j + static_cast<std::size_t>(e.ny) * k)] += 1;
      });
      for (std::size_t n = 0; n < cover.size(); ++n) {
        ASSERT_EQ(cover[n], 1) << e.nx << "x" << e.ny << "x" << e.nz << " " << pattern.str();
      }
    }
  }
}

TEST(ForEachZOrder, VisitsInMonotoneStorageOrder) {
  // On a Z-order grid the traversal must touch strictly increasing storage
  // offsets — the property that makes it the cache-optimal sweep. A
  // canonical cube sweeps through the magic-bits Morton decode.
  const Extents3D e{8, 8, 8};
  const GeneralizedMortonLayout layout(e);
  std::int64_t prev = -1;
  sweep_in_chunks(layout.tables(), e, [&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    const auto idx = static_cast<std::int64_t>(layout.index(i, j, k));
    ASSERT_GT(idx, prev);
    prev = idx;
  });
}

TEST(ForEachZOrder, AnisotropicAlsoMonotone) {
  // Anisotropic padding sweeps through the table decode.
  const Extents3D e{16, 4, 2};
  const GeneralizedMortonLayout layout(e);
  std::int64_t prev = -1;
  std::size_t count = 0;
  sweep_in_chunks(layout.tables(), e, [&](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    const auto idx = static_cast<std::int64_t>(layout.index(i, j, k));
    ASSERT_GT(idx, prev);
    prev = idx;
    ++count;
  });
  EXPECT_EQ(count, e.size());
}

// ---------------------------------------------------------------------------
// Facade integration
// ---------------------------------------------------------------------------

TEST(GMortonVolumeFacade, VariantIndexMatchesKindEnum) {
  // The volume keeps the kind it was made as; z-order, tiled and gmorton
  // all hold a generalized-Morton grid with their own pattern.
  const Extents3D e = Extents3D::cube(16);
  for (const core::LayoutKind kind : core::kAllLayoutKinds) {
    const core::AnyVolume v = core::make_volume(kind, e);
    EXPECT_EQ(v.kind(), kind);
    EXPECT_STREQ(v.layout_name(), core::to_string(kind));
  }
  const auto pattern_of = [&](core::LayoutKind kind) {
    return core::make_volume(kind, e).as<GeneralizedMortonLayout>().layout().pattern();
  };
  EXPECT_EQ(pattern_of(core::LayoutKind::kZOrder), InterleavePattern::canonical(e));
  EXPECT_EQ(pattern_of(core::LayoutKind::kTiled), InterleavePattern::tiled(e, 8, 8, 8));
  EXPECT_EQ(pattern_of(core::LayoutKind::kGMorton), InterleavePattern::canonical(e));
  // A wrapped grid reports the kind of its type.
  const core::AnyVolume wrapped{core::GMortonVolume{GeneralizedMortonLayout(e)}};
  EXPECT_EQ(wrapped.kind(), core::LayoutKind::kGMorton);
}

TEST(GMortonVolumeFacade, MakeVolumeHonorsInterleave) {
  core::VolumeOpts opts;
  opts.interleave = "xxyyzz";  // x slowest — deliberately non-canonical
  const Extents3D e = Extents3D::cube(4);
  core::AnyVolume v = core::make_volume(core::LayoutKind::kGMorton, e, opts);
  const auto& g = v.as<GeneralizedMortonLayout>();
  EXPECT_EQ(g.layout().pattern().str(), "xxyyzz");
  // Invalid pattern surfaces as invalid_argument at construction.
  opts.interleave = "xyz";
  EXPECT_THROW(core::make_volume(core::LayoutKind::kGMorton, e, opts),
               std::invalid_argument);
}

TEST(GMortonVolumeFacade, ConvertToRoundTripsContents) {
  const Extents3D e{9, 6, 5};
  core::AnyVolume src = core::make_volume(core::LayoutKind::kArray, e);
  src.fill_from([](std::uint32_t i, std::uint32_t j, std::uint32_t k) {
    return static_cast<float>(7 * i + 5 * j + 3 * k);
  });
  core::VolumeOpts opts;
  opts.interleave = scrambled_pattern(e, 21);
  const core::AnyVolume gm = src.convert_to(core::LayoutKind::kGMorton, opts);
  const core::AnyVolume back = gm.convert_to(core::LayoutKind::kArray);
  for (std::uint32_t k = 0; k < e.nz; ++k) {
    for (std::uint32_t j = 0; j < e.ny; ++j) {
      for (std::uint32_t i = 0; i < e.nx; ++i) {
        ASSERT_EQ(back.at(i, j, k), src.at(i, j, k));
      }
    }
  }
}

TEST(GMortonCacheSalt, ZeroForFixedLayoutsPatternHashForGMorton) {
  EXPECT_EQ(core::layout_cache_salt(ArrayOrderLayout(Extents3D::cube(4))), 0u);
  EXPECT_EQ(core::layout_cache_salt(core::HilbertLayout(Extents3D::cube(4))), 0u);
  // Z-order is the canonical pattern, so it is salted like any other.
  EXPECT_EQ(core::layout_cache_salt(GeneralizedMortonLayout(Extents3D::cube(4))),
            core::interleave_hash("zyxzyx"));
  const Extents3D e = Extents3D::cube(4);
  const GeneralizedMortonLayout a(e, "zyxzyx");
  const GeneralizedMortonLayout b(e, "xyzxyz");
  EXPECT_NE(core::layout_cache_salt(a), core::layout_cache_salt(b));
  EXPECT_EQ(core::layout_cache_salt(a), core::interleave_hash("zyxzyx"));
}

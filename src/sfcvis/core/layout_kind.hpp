// LayoutKind: the runtime tag naming every AnyVolume backend.
//
// Kinds are names, not grid types: kZOrder, kTiled and kGMorton all hold a
// generalized-Morton grid (core/gmorton.hpp) with the canonical, tiled or
// given interleave pattern, so the five in-core kinds map onto three grid
// types. The numeric values are stored in brick-file headers and never
// change.
//
// Split out of volume.hpp so leaf headers (the brick-file codec, the
// bricked backend) can name layout kinds without pulling in the variant
// facade — volume.hpp includes bricked.hpp, so the include arrow must
// point this way.
#pragma once

#include <cstdint>

namespace sfcvis::core {

/// The storage layouts under study, as a runtime tag.
enum class LayoutKind : std::uint8_t {
  kArray = 0,  ///< row-major array order (the baseline)
  kZOrder,     ///< Morton / Z-order curve (the paper's layout): canonical gmorton
  kTiled,      ///< pow2-block tiling (the classic bricking alternative): tiled gmorton
  kHilbert,    ///< Hilbert curve (related-work SFC variant)
  kGMorton,    ///< generalized Morton: arbitrary interleave pattern (tuner family)
  kBricked,    ///< out-of-core Morton-ordered brick file (core/bricked.hpp)
};

/// The five *in-core* layout kinds — the cross-product the fuzz matrix and
/// the ablation benches sweep, and the set make_volume can allocate. kBricked
/// is deliberately absent: a bricked volume is opened from a packed file
/// (BrickedVolume::open), never allocated blank.
inline constexpr LayoutKind kAllLayoutKinds[] = {LayoutKind::kArray, LayoutKind::kZOrder,
                                                 LayoutKind::kTiled, LayoutKind::kHilbert,
                                                 LayoutKind::kGMorton};

/// Stable lowercase name ("array-order", "z-order", "tiled", "hilbert",
/// "gmorton", "bricked") — matches the static Layout3D::name() strings.
[[nodiscard]] const char* to_string(LayoutKind kind) noexcept;

}  // namespace sfcvis::core

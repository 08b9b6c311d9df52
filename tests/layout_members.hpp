// Per-member layout factories for the typed layout suites. A Layout3D type
// stands for its extents-only member (for GeneralizedMortonLayout that is
// the canonical pattern); ZOrder stands for the layout make_volume allocates
// for the "z-order" kind; Tiled8 stands for the generalized-Morton member the
// "tiled" kind allocates with 8^3 tiles.
#pragma once

#include <utility>

#include "sfcvis/core/layout.hpp"
#include "sfcvis/core/volume.hpp"

namespace sfcvis::test {

struct ZOrder {
  static core::GeneralizedMortonLayout make(const core::Extents3D& e) {
    return core::make_volume(core::LayoutKind::kZOrder, e)
        .as<core::GeneralizedMortonLayout>()
        .layout();
  }
};

struct Tiled8 {
  static core::GeneralizedMortonLayout make(const core::Extents3D& e) {
    return core::GeneralizedMortonLayout(e, core::InterleavePattern::tiled(e, 8, 8, 8));
  }
};

/// The layout of member M over extents e.
template <class M>
auto make_layout(const core::Extents3D& e) {
  if constexpr (core::Layout3D<M>) {
    return M(e);
  } else {
    return M::make(e);
  }
}

/// The Layout3D type member M builds.
template <class M>
using LayoutOf = decltype(make_layout<M>(std::declval<const core::Extents3D&>()));

}  // namespace sfcvis::test

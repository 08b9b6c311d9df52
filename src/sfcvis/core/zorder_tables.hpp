// Per-axis Z-order index tables after Pascucci & Frank (2001), the scheme
// the paper adopts in Sec. III-C: one table per axis whose i-th entry holds
// the bits of coordinate i already deposited at their interleaved positions,
// so a full 3D index is three loads combined with two ORs (or, because the
// deposited bit sets are disjoint, two ADDs).
//
// For anisotropic extents the generator interleaves bit-planes only while
// every axis still has bits left at that level and then concatenates the
// surplus high bits, so the index space is exactly the padded volume
// px*py*pz rather than the cube of the largest axis.
#pragma once

#include <cstdint>
#include <vector>

#include "sfcvis/core/extents.hpp"

namespace sfcvis::core {

/// Integer coordinate triple recovered from a Z-order index.
struct Coord3D {
  std::uint32_t i = 0, j = 0, k = 0;
  friend constexpr bool operator==(const Coord3D&, const Coord3D&) = default;
};

/// Precomputed per-axis deposit tables for one padded extent.
class ZOrderTables {
 public:
  ZOrderTables() = default;

  /// Builds tables for `logical` extents; the addressable space is the
  /// power-of-two padding of each axis. Throws on invalid extents.
  explicit ZOrderTables(const Extents3D& logical);

  /// Combined Z-order index of (i, j, k). Precondition: coordinates are
  /// inside the padded extents. The three per-axis patterns are disjoint,
  /// so addition and bitwise OR are interchangeable here.
  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j,
                                  std::uint32_t k) const noexcept {
    return static_cast<std::size_t>(xtab_[i] + ytab_[j] + ztab_[k]);
  }

  /// Padded (power-of-two per axis) extents.
  [[nodiscard]] const Extents3D& padded() const noexcept { return padded_; }

  /// Total addressable index-space size: padded().size().
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Inverse mapping: recovers (i, j, k) from a Z-order index.
  [[nodiscard]] Coord3D decode(std::size_t index) const noexcept;

  /// Deposited bit pattern of coordinate `c` on `axis` (0 = x): the
  /// per-axis summand of index() (core/gather.hpp's axis_term).
  [[nodiscard]] std::uint64_t axis_entry(unsigned axis, std::uint32_t c) const noexcept {
    const std::vector<std::uint64_t>& tab = axis == 0 ? xtab_ : axis == 1 ? ytab_ : ztab_;
    return tab[c];
  }

  /// Bit position assigned to bit-plane `bit` of axis `axis` (0 = x).
  /// Exposed for tests and the layout-visualization tools.
  [[nodiscard]] unsigned bit_position(unsigned axis, unsigned bit) const noexcept {
    return bitpos_[axis][bit];
  }

  /// Number of index bits consumed by `axis`.
  [[nodiscard]] unsigned axis_bits(unsigned axis) const noexcept { return bits_[axis]; }

 private:
  Extents3D padded_{};
  std::size_t capacity_ = 0;
  std::vector<std::uint64_t> xtab_, ytab_, ztab_;
  unsigned bits_[3] = {0, 0, 0};
  unsigned bitpos_[3][22] = {};
};

}  // namespace sfcvis::core

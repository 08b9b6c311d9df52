// Memory-layout policies mapping logical (i, j, k) coordinates to linear
// storage offsets.
//
// The study design (paper Sec. III-C) requires that swapping the layout is
// transparent to the kernels: all three policies satisfy the Layout3D
// concept below, and kernels are templated on the policy (or use the
// runtime Indexer facade in indexer.hpp).
//
//  * ArrayOrderLayout        — classic row-major: the control.
//  * GeneralizedMortonLayout — table-driven bit-interleave curve
//                              (gmorton.hpp). Its canonical pattern is the
//                              paper's Z-order; its tiled pattern is the
//                              blocking baseline (Pascucci & Frank's "3D
//                              blocking" comparator); any other pattern is
//                              a tuned member of the family.
//  * HilbertLayout           — Hilbert space-filling curve: SFC baseline
//                              with better locality but costlier indexing
//                              (Reissmann et al. 2014).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <string_view>

#include "sfcvis/core/extents.hpp"
#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/hilbert.hpp"

namespace sfcvis::core {

/// A 3D layout maps in-bounds (i, j, k) to a unique offset inside
/// [0, required_capacity()).
template <class L>
concept Layout3D = requires(const L layout, std::uint32_t c) {
  { layout.index(c, c, c) } -> std::same_as<std::size_t>;
  { layout.extents() } -> std::convertible_to<Extents3D>;
  { layout.required_capacity() } -> std::same_as<std::size_t>;
  { L::name() } -> std::convertible_to<std::string_view>;
};

// ---------------------------------------------------------------------------
// Array order (row-major)
// ---------------------------------------------------------------------------

/// Row-major layout: index = i + nx*(j + ny*k). X is fastest-varying.
class ArrayOrderLayout {
 public:
  ArrayOrderLayout() = default;
  explicit ArrayOrderLayout(const Extents3D& e) : extents_(e) { validate_extents(e); }

  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j,
                                  std::uint32_t k) const noexcept {
    return i + static_cast<std::size_t>(extents_.nx) *
                   (j + static_cast<std::size_t>(extents_.ny) * k);
  }

  [[nodiscard]] const Extents3D& extents() const noexcept { return extents_; }
  [[nodiscard]] std::size_t required_capacity() const noexcept { return extents_.size(); }
  [[nodiscard]] static constexpr std::string_view name() noexcept { return "array-order"; }

 private:
  Extents3D extents_{};
};

// ---------------------------------------------------------------------------
// Hilbert order
// ---------------------------------------------------------------------------

/// Hilbert-curve layout over the enclosing power-of-two cube. Indexing is
/// computed per access (the curve is not separable into per-axis tables),
/// which is exactly the cost asymmetry Reissmann et al. observed; see
/// bench/abl_layout_compare.
class HilbertLayout {
 public:
  HilbertLayout() = default;
  explicit HilbertLayout(const Extents3D& e) : extents_(e) {
    validate_extents(e);
    const Extents3D p = padded_pow2(e);
    bits_ = log2_pow2(std::max(p.nx, std::max(p.ny, p.nz)));
  }

  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j,
                                  std::uint32_t k) const noexcept {
    return static_cast<std::size_t>(hilbert_encode_3d(i, j, k, bits_));
  }

  [[nodiscard]] const Extents3D& extents() const noexcept { return extents_; }
  [[nodiscard]] std::size_t required_capacity() const noexcept {
    return std::size_t{1} << (3 * bits_);
  }
  [[nodiscard]] static constexpr std::string_view name() noexcept { return "hilbert"; }

  [[nodiscard]] unsigned bits() const noexcept { return bits_; }

 private:
  Extents3D extents_{};
  unsigned bits_ = 0;
};

static_assert(Layout3D<ArrayOrderLayout>);
static_assert(Layout3D<HilbertLayout>);
static_assert(Layout3D<GeneralizedMortonLayout>);

}  // namespace sfcvis::core

// 2D memory-layout policies — the image-processing counterpart of
// layout.hpp. The bilateral filter was introduced for 2D images (Tomasi &
// Manduchi 1998) and the paper's Fig. 1 makes its alignment argument in
// 2D; this module lets the same study be run on images.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "sfcvis/core/extents.hpp"
#include "sfcvis/core/morton.hpp"

namespace sfcvis::core {

/// Logical size of a 2D image; x varies fastest in the array-order sense.
struct Extents2D {
  std::uint32_t nx = 0;
  std::uint32_t ny = 0;

  friend constexpr bool operator==(const Extents2D&, const Extents2D&) = default;

  [[nodiscard]] constexpr std::size_t size() const noexcept {
    return static_cast<std::size_t>(nx) * ny;
  }
  [[nodiscard]] constexpr bool contains(std::uint32_t i, std::uint32_t j) const noexcept {
    return i < nx && j < ny;
  }
  [[nodiscard]] static constexpr Extents2D square(std::uint32_t n) noexcept {
    return Extents2D{n, n};
  }
};

/// Throws std::invalid_argument on zero or over-large extents.
inline void validate_extents(const Extents2D& e) {
  if (e.nx == 0 || e.ny == 0) {
    throw std::invalid_argument("Extents2D: extents must be nonzero");
  }
  constexpr std::uint32_t kMax = 1u << 16;  // 2x16 bits fit one 32-bit code half
  if (e.nx > kMax || e.ny > kMax) {
    throw std::invalid_argument("Extents2D: extents above 2^16 are not supported");
  }
}

/// A 2D layout maps in-bounds (i, j) to a unique offset in
/// [0, required_capacity()).
template <class L>
concept Layout2D = requires(const L layout, std::uint32_t c) {
  { layout.index(c, c) } -> std::same_as<std::size_t>;
  { layout.extents() } -> std::convertible_to<Extents2D>;
  { layout.required_capacity() } -> std::same_as<std::size_t>;
  { L::name() } -> std::convertible_to<std::string_view>;
};

/// Row-major image layout: index = i + nx * j.
class ArrayOrderLayout2D {
 public:
  ArrayOrderLayout2D() = default;
  explicit ArrayOrderLayout2D(const Extents2D& e) : extents_(e) { validate_extents(e); }

  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j) const noexcept {
    return i + static_cast<std::size_t>(extents_.nx) * j;
  }
  [[nodiscard]] const Extents2D& extents() const noexcept { return extents_; }
  [[nodiscard]] std::size_t required_capacity() const noexcept { return extents_.size(); }
  [[nodiscard]] static constexpr std::string_view name() noexcept { return "array-order"; }

 private:
  Extents2D extents_{};
};

/// Z-order image layout via per-axis tables (anisotropic-compact, exactly
/// as the 3D canonical InterleavePattern: interleave bit-planes while both
/// axes still have them, then concatenate the surplus).
class ZOrderLayout2D {
 public:
  ZOrderLayout2D() = default;
  explicit ZOrderLayout2D(const Extents2D& e) : extents_(e) {
    validate_extents(e);
    const std::uint32_t px = next_pow2(e.nx);
    const std::uint32_t py = next_pow2(e.ny);
    capacity_ = static_cast<std::size_t>(px) * py;
    const unsigned bx = log2_pow2(px), by = log2_pow2(py);
    unsigned pos[2][17] = {};
    unsigned out = 0;
    for (unsigned plane = 0; plane < std::max(bx, by); ++plane) {
      if (plane < bx) {
        pos[0][plane] = out++;
      }
      if (plane < by) {
        pos[1][plane] = out++;
      }
    }
    auto tables = std::make_shared<Tables>();
    tables->x.resize(px);
    tables->y.resize(py);
    for (std::uint32_t v = 0; v < px; ++v) {
      std::uint64_t d = 0;
      for (unsigned plane = 0; plane < bx; ++plane) {
        if ((v >> plane) & 1u) {
          d |= std::uint64_t{1} << pos[0][plane];
        }
      }
      tables->x[v] = d;
    }
    for (std::uint32_t v = 0; v < py; ++v) {
      std::uint64_t d = 0;
      for (unsigned plane = 0; plane < by; ++plane) {
        if ((v >> plane) & 1u) {
          d |= std::uint64_t{1} << pos[1][plane];
        }
      }
      tables->y[v] = d;
    }
    tables_ = std::move(tables);
  }

  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j) const noexcept {
    return static_cast<std::size_t>(tables_->x[i] + tables_->y[j]);
  }
  [[nodiscard]] const Extents2D& extents() const noexcept { return extents_; }
  [[nodiscard]] std::size_t required_capacity() const noexcept { return capacity_; }
  [[nodiscard]] static constexpr std::string_view name() noexcept { return "z-order"; }

 private:
  struct Tables {
    std::vector<std::uint64_t> x, y;
  };
  Extents2D extents_{};
  std::size_t capacity_ = 0;
  std::shared_ptr<const Tables> tables_;
};

/// Blocked image layout (bx * by power-of-two tiles, row-major tiles and
/// intra-tile order).
class TiledLayout2D {
 public:
  TiledLayout2D() = default;
  explicit TiledLayout2D(const Extents2D& e, std::uint32_t b = 8) : TiledLayout2D(e, b, b) {}
  TiledLayout2D(const Extents2D& e, std::uint32_t bx, std::uint32_t by)
      : extents_(e), bx_(bx), by_(by) {
    validate_extents(e);
    if (!std::has_single_bit(bx) || !std::has_single_bit(by)) {
      throw std::invalid_argument("TiledLayout2D: tile dims must be powers of two");
    }
    lbx_ = log2_pow2(bx);
    lby_ = log2_pow2(by);
    tiles_x_ = (e.nx + bx - 1) >> lbx_;
    tiles_y_ = (e.ny + by - 1) >> lby_;
  }

  [[nodiscard]] std::size_t index(std::uint32_t i, std::uint32_t j) const noexcept {
    const std::uint32_t ti = i >> lbx_, tj = j >> lby_;
    const std::uint32_t li = i & (bx_ - 1), lj = j & (by_ - 1);
    const std::size_t tile = ti + static_cast<std::size_t>(tiles_x_) * tj;
    return (tile << (lbx_ + lby_)) + li + (static_cast<std::size_t>(lj) << lbx_);
  }
  [[nodiscard]] const Extents2D& extents() const noexcept { return extents_; }
  [[nodiscard]] std::size_t required_capacity() const noexcept {
    return (static_cast<std::size_t>(tiles_x_) * tiles_y_) << (lbx_ + lby_);
  }
  [[nodiscard]] static constexpr std::string_view name() noexcept { return "tiled"; }

 private:
  Extents2D extents_{};
  std::uint32_t bx_ = 1, by_ = 1;
  unsigned lbx_ = 0, lby_ = 0;
  std::uint32_t tiles_x_ = 0, tiles_y_ = 0;
};

static_assert(Layout2D<ArrayOrderLayout2D>);
static_assert(Layout2D<ZOrderLayout2D>);
static_assert(Layout2D<TiledLayout2D>);

}  // namespace sfcvis::core

// Dense stencil-plane and row gathers into contiguous scratch storage.
//
// The sliding-window kernels (filters/bilateral.hpp, filters/gaussian.hpp)
// gather each W×W stencil plane once and run their tap loops over dense
// scratch, so the gather is the only step that pays layout cost. The paper
// (Sec. III-C) compares layouts on equal index cost — array order and
// Z-order both index through static per-axis terms — and the gathers keep
// that footing. On a separable layout (array order or generalized Morton,
// whose patterns include Z-order and tiled: index(i,j,k) == index(i,0,0) +
// index(0,j,0) + index(0,0,k)) the
// off-pencil coordinates of a plane never change along a pencil, so
// gather_plane fills W² offsets once per pencil and loads every plane as
// data[term(s) + off[q]], one load per tap on every such layout alike.
// Hilbert (not a sum of axis terms) and the out-of-core BrickedView gather
// a plane as W gather_row calls through the same view. The separable
// gather_row walks base + term(c0 + l), one load per voxel.
//
// Preconditions: a row lies inside the grid's logical extents; a plane
// window may overhang any face, its taps clamped to the edge per axis (on
// a separable layout still term_x(clamp i) + term_y(clamp j) + term_z(clamp k)).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/grid.hpp"

namespace sfcvis::core {

/// Axis selector for row-oriented operations on 3D grids.
enum class Axis3 : std::uint8_t { kX, kY, kZ };

/// Contiguous-run statistics of gathers: how long the memcpy-able index
/// runs actually are per layout — the micro-level contiguity signal behind
/// the paper's data-movement argument. Plain accumulator (no trace
/// dependency; core stays leaf): callers merge it into the trace metrics
/// registry (filters do, under "bilateral.gather_run_len").
struct GatherRunStats {
  static constexpr unsigned kBuckets = 16;
  std::uint64_t runs = 0;
  std::uint64_t elements = 0;
  std::uint64_t min_run = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_run = 0;
  std::array<std::uint64_t, kBuckets> len_log2{};  ///< [i]: runs in [2^i, 2^(i+1))

  void note(std::uint64_t run) noexcept { note_runs(1, run); }

  /// Records `count` runs of identical length `len` at once.
  void note_runs(std::uint64_t count, std::uint64_t len) noexcept {
    runs += count;
    elements += count * len;
    min_run = len < min_run ? len : min_run;
    max_run = len > max_run ? len : max_run;
    const unsigned b = len == 0 ? 0 : static_cast<unsigned>(std::bit_width(len)) - 1;
    len_log2[b < kBuckets ? b : kBuckets - 1] += count;
  }

  /// Adds every run `other` recorded, as if each had been noted here.
  void merge(const GatherRunStats& other) noexcept {
    runs += other.runs;
    elements += other.elements;
    min_run = other.min_run < min_run ? other.min_run : min_run;
    max_run = other.max_run > max_run ? other.max_run : max_run;
    for (unsigned b = 0; b < kBuckets; ++b) {
      len_log2[b] += other.len_log2[b];
    }
  }

  /// Records the maximal runs of consecutive values in index(0 .. n-1).
  template <class IndexFn>
  void note_index_runs(std::uint32_t n, IndexFn index) {
    std::uint32_t run = 1;
    for (std::uint32_t l = 1; l < n; ++l, ++run) {
      if (index(l) != index(l - 1) + 1) {
        note(run);
        run = 0;
      }
    }
    note(run);
  }
};

// ---------------------------------------------------------------------------
// Separability
// ---------------------------------------------------------------------------

/// Per-axis summand of a separable layout's index: index(i, j, k) ==
/// axis_term(l, kX, i) + axis_term(l, kY, j) + axis_term(l, kZ, k). Every
/// term is 0 at coordinate 0 and strictly increases with the coordinate.
[[nodiscard]] inline std::size_t axis_term(const ArrayOrderLayout& l, Axis3 axis,
                                           std::uint32_t c) noexcept {
  return axis == Axis3::kX   ? l.index(c, 0, 0)
         : axis == Axis3::kY ? l.index(0, c, 0)
                             : l.index(0, 0, c);
}
[[nodiscard]] inline std::size_t axis_term(const GeneralizedMortonLayout& l, Axis3 axis,
                                           std::uint32_t c) noexcept {
  return static_cast<std::size_t>(l.tables().axis_entry(static_cast<unsigned>(axis), c));
}

/// The separability trait: layouts whose index is a sum of per-axis terms
/// (array order and every generalized-Morton pattern — z-order and tiled
/// included). Hilbert is not.
template <class L>
concept SeparableLayout = Layout3D<L> && requires(const L& l, Axis3 a, std::uint32_t c) {
  { axis_term(l, a, c) } -> std::same_as<std::size_t>;
};

/// Read views that expose an in-core grid of a separable layout (PlainView,
/// core/traced_view.hpp): the views gather_plane serves by offset table.
template <class V>
concept SeparableGridView =
    requires(const V& v) { v.grid().layout(); } &&
    SeparableLayout<std::remove_cvref_t<decltype(std::declval<const V&>().grid().layout())>>;

namespace detail {

/// Copies a contiguous run into `out`. Morton runs are usually short (the
/// x-axis pairs elements two by two), where a variable-size memcpy is all
/// call overhead — copy short runs element-wise, long runs in bulk.
template <class T>
inline void copy_run(const T* src, T* out, std::uint32_t run) {
  if (run <= 8) {
    for (std::uint32_t c = 0; c < run; ++c) {
      out[c] = src[c];
    }
    return;
  }
  std::memcpy(out, src, run * sizeof(T));
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Row gathers
// ---------------------------------------------------------------------------

/// Generic gather: one layout.index() per element (Hilbert). Run stats
/// (optional trailing `rs` on every overload) account what is memcpy-able:
/// this path exploits no contiguity, so n runs of 1.
template <class T, Layout3D L>
void gather_row(const Grid3D<T, L>& g, Axis3 axis, std::uint32_t i, std::uint32_t j,
                std::uint32_t k, std::uint32_t n, T* out, GatherRunStats* rs = nullptr) {
  std::uint32_t c[3] = {i, j, k};
  std::uint32_t& along = c[static_cast<unsigned>(axis)];
  for (std::uint32_t l = 0; l < n; ++l, ++along) {
    out[l] = g.data()[g.layout().index(c[0], c[1], c[2])];
  }
  if (rs != nullptr && n > 0) {
    rs->note_runs(n, 1);
  }
}

/// Separable-layout gather: the off-axis terms are one fixed base. Terms
/// strictly increase, so a row whose end terms lie n - 1 apart is one
/// contiguous run and takes a single copy (array x rows).
template <class T, SeparableLayout L>
void gather_row(const Grid3D<T, L>& g, Axis3 axis, std::uint32_t i, std::uint32_t j,
                std::uint32_t k, std::uint32_t n, T* out, GatherRunStats* rs = nullptr) {
  const L& layout = g.layout();
  const std::uint32_t c0 = axis == Axis3::kX ? i : axis == Axis3::kY ? j : k;
  const auto term = [&](std::uint32_t l) { return axis_term(layout, axis, c0 + l); };
  const T* base = g.data() + (layout.index(i, j, k) - term(0));
  if (rs != nullptr && n > 0) {
    rs->note_index_runs(n, term);
  }
  if (n > 0 && term(n - 1) == term(0) + (n - 1)) {
    std::memcpy(out, base + term(0), n * sizeof(T));
    return;
  }
  for (std::uint32_t l = 0; l < n; ++l) {
    out[l] = base[term(l)];
  }
}

// ---------------------------------------------------------------------------
// Stencil-plane gathers
// ---------------------------------------------------------------------------

/// Signed voxel coordinate (i, j, k): a window tap may lie outside the grid.
using SignedCoord3D = std::array<std::int64_t, 3>;

/// Clamp-to-edge on one axis of extent n: the coordinate in [0, n - 1].
[[nodiscard]] inline std::uint32_t clamp_to_edge(std::int64_t c, std::uint32_t n) noexcept {
  return static_cast<std::uint32_t>(std::clamp<std::int64_t>(c, 0, std::int64_t{n} - 1));
}

/// Clamp-to-edge on every axis: the grid voxel nearest to `c`.
[[nodiscard]] inline Coord3D clamp_to_edge(const SignedCoord3D& c, const Extents3D& e) noexcept {
  return {clamp_to_edge(c[0], e.nx), clamp_to_edge(c[1], e.ny), clamp_to_edge(c[2], e.nz)};
}

/// A W×W stencil plane sliding along one pencil: the per-worker state of
/// gather_plane. Tap [du * W + dv] of the plane at pencil position s is
/// the voxel at pencil coordinate s, origin + du on the outer axis and
/// origin + dv on the row axis, each clamped to the grid — the kernels'
/// orientation: x-pencils take rows along z (outer y), y-pencils along x
/// (outer z), z-pencils along x (outer y).
struct PlaneWindow {
  /// Aims the window at a pencil of `view` (`origin`'s pencil coordinate is
  /// ignored). On a separable in-core view this fills offsets[q] = index of
  /// clamped tap q at pencil position 0, in reused storage, and the runs of
  /// one plane; every plane adds the same term(s) to all offsets.
  template <class View>
  void bind(const View& view, Axis3 pencil_axis, const SignedCoord3D& origin_voxel,
            std::uint32_t w) {
    pencil = pencil_axis;
    row = pencil_axis == Axis3::kX ? Axis3::kZ : Axis3::kX;
    origin = origin_voxel;
    width = w;
    if constexpr (SeparableGridView<View>) {
      offsets.resize(static_cast<std::size_t>(w) * w);
      plane_runs = GatherRunStats{};
      for (std::uint32_t du = 0; du < w; ++du) {
        std::size_t* row_off = offsets.data() + static_cast<std::size_t>(du) * w;
        for (std::uint32_t dv = 0; dv < w; ++dv) {
          const Coord3D c = clamp_to_edge(voxel(0, du, dv), view.extents());
          row_off[dv] = view.grid().layout().index(c.i, c.j, c.k);
        }
        plane_runs.note_index_runs(w, [row_off](std::uint32_t l) { return row_off[l]; });
      }
    }
  }

  /// Unclamped coordinates of tap (du, dv) of the plane at pencil position
  /// s; the outer axis is the one neither the pencil nor the rows run along.
  [[nodiscard]] SignedCoord3D voxel(std::int64_t s, std::uint32_t du,
                                    std::uint32_t dv) const noexcept {
    const auto p = static_cast<unsigned>(pencil);
    const auto r = static_cast<unsigned>(row);
    SignedCoord3D c = origin;
    c[p] = s;
    c[3 - p - r] += du;
    c[r] += dv;
    return c;
  }

  Axis3 pencil = Axis3::kX;
  Axis3 row = Axis3::kZ;
  SignedCoord3D origin{};
  std::uint32_t width = 0;
  std::vector<std::size_t> offsets;  ///< W² clamped tap offsets at pencil position 0
  GatherRunStats plane_runs;         ///< run stats of one plane
};

/// Gathers the window's plane at pencil position `s` (clamped like every
/// tap) into `out` (W² values) through the view the window was bound with:
/// one load per tap from the offset table on a separable in-core view,
/// otherwise (Hilbert; BrickedView, keeping its per-worker pins) one
/// gather_row per row over its in-grid span plus edge copies into the
/// overhang. `rs` receives the plane's runs; an overhanging tap is a run of 1.
template <class View, class T>
void gather_plane(const View& view, PlaneWindow& win, std::int64_t s, T* out,
                  GatherRunStats* rs = nullptr) {
  const std::uint32_t W = win.width;
  const Extents3D& e = view.extents();
  const std::uint32_t dims[3] = {e.nx, e.ny, e.nz};
  if constexpr (SeparableGridView<View>) {
    const auto& grid = view.grid();
    const std::uint32_t ps = clamp_to_edge(s, dims[static_cast<unsigned>(win.pencil)]);
    const T* base = grid.data() + axis_term(grid.layout(), win.pencil, ps);
    const std::size_t* off = win.offsets.data();
    for (std::uint32_t q = 0; q < W * W; ++q) {
      out[q] = base[off[q]];
    }
    if (rs != nullptr) {
      rs->merge(win.plane_runs);
    }
  } else {
    // Every row reads its span inside the grid, [lo, lo + span), into
    // out + at; a window wholly past one face reads the edge voxel alone.
    const auto r = static_cast<unsigned>(win.row);
    const std::uint32_t lo = clamp_to_edge(win.origin[r], dims[r]);
    const std::uint32_t span = clamp_to_edge(win.origin[r] + W - 1, dims[r]) - lo + 1;
    const auto at =
        static_cast<std::uint32_t>(std::clamp<std::int64_t>(lo - win.origin[r], 0, W - 1));
    for (std::uint32_t du = 0; du < W; ++du) {
      const Coord3D c = clamp_to_edge(win.voxel(s, du, at), e);
      T* row_out = out + du * W;
      gather_row(view, win.row, c.i, c.j, c.k, span, row_out + at, rs);
      std::fill(row_out, row_out + at, row_out[at]);
      std::fill(row_out + at + span, row_out + W, row_out[at + span - 1]);
    }
    if (rs != nullptr && span < W) {
      rs->note_runs(static_cast<std::uint64_t>(W) * (W - span), 1);
    }
  }
}

}  // namespace sfcvis::core

// Read views over a Grid3D.
//
// Kernels (bilateral filter, raycaster) are templated on a *view* type so a
// single kernel implementation serves both production runs and
// counter-collection runs:
//
//  * PlainView      — zero-overhead forwarding; what benchmarks time.
//  * TracedView     — additionally reports every element read, as a byte
//                     address, to a memory-model sink (memsim::* or any
//                     type with `void access(std::uint64_t addr,
//                     std::uint32_t bytes)`). This is how the library
//                     stands in for PAPI hardware counters.
//
// Views are read-only: layout effects the paper measures come from reads of
// the source volume; kernel outputs are written once, streaming, to an
// array-order buffer in both configurations.
#pragma once

#include <concepts>
#include <cstdint>
#include <utility>

#include "sfcvis/core/gather.hpp"
#include "sfcvis/core/gmorton.hpp"
#include "sfcvis/core/grid.hpp"

namespace sfcvis::core {

/// Any type usable as a volume backend by the kernels: opts in via the
/// member tag (Grid3D for in-core storage, BrickedVolume for out-of-core
/// brick files). Kernels templated on a VolumeBackend obtain their read
/// view through make_read_view / make_traced_view below instead of naming
/// PlainView/TracedView directly — the factories are overloaded per
/// backend, so one kernel body serves both worlds. The tag (rather than a
/// structural requires-clause) keeps AnyVolume itself, which forwards much
/// of the same surface, from ever matching.
template <class V>
concept VolumeBackend = requires { typename V::is_volume_backend_tag; };

/// A sink consuming the byte-level read trace of a kernel.
template <class S>
concept AccessSink = requires(S sink, std::uint64_t addr, std::uint32_t bytes) {
  sink.access(addr, bytes);
};

/// Provides one AccessSink per simulated thread of a traced replay. The
/// traced kernel drivers (bilateral_traced, raycast_traced, ...) are
/// templated on this instead of naming a concrete consumer, so the same
/// deterministic replay feeds either the modeled cache hierarchy
/// (memsim::Hierarchy) or the reuse-distance profiler
/// (locality::LocalityProfiler). Sinks returned by sink() are cheap value
/// types bound to the provider; the replay itself stays single-threaded,
/// so providers need no internal synchronization.
template <class P>
concept SinkProvider = requires(P provider, unsigned tid) {
  { provider.num_threads() } -> std::convertible_to<unsigned>;
  { provider.sink(tid) };
} && AccessSink<decltype(std::declval<P&>().sink(0u))>;

/// Zero-overhead read view; simply forwards to the grid.
template <class T, Layout3D LayoutT>
class PlainView {
 public:
  explicit PlainView(const Grid3D<T, LayoutT>& grid) : grid_(&grid) {}

  [[nodiscard]] const T& at(std::uint32_t i, std::uint32_t j, std::uint32_t k) const noexcept {
    return grid_->at(i, j, k);
  }
  [[nodiscard]] const T& at_clamped(std::int64_t i, std::int64_t j,
                                    std::int64_t k) const noexcept {
    return grid_->at_clamped(i, j, k);
  }
  [[nodiscard]] const Extents3D& extents() const noexcept { return grid_->extents(); }
  [[nodiscard]] const Grid3D<T, LayoutT>& grid() const noexcept { return *grid_; }

 private:
  const Grid3D<T, LayoutT>* grid_;
};

/// Row gather through a plain view: forwards to the grid's overload
/// (core/gather.hpp; core/bricked.hpp has the BrickedView one).
template <class T, Layout3D LayoutT>
void gather_row(const PlainView<T, LayoutT>& view, Axis3 axis, std::uint32_t i,
                std::uint32_t j, std::uint32_t k, std::uint32_t n, T* out,
                GatherRunStats* rs = nullptr) {
  gather_row(view.grid(), axis, i, j, k, n, out, rs);
}

/// Read view that reports every element access to an AccessSink, as a byte
/// address rebased to a fixed synthetic origin: the reported address is
/// kTracedBase plus the element's byte offset inside the grid's storage.
/// Offsets carry the layout's entire byte-level locality (that is what the
/// paper measures); discarding the allocation's real base makes the modeled
/// counters a pure function of (layout, kernel, platform) — bit-identical
/// across runs, machines, and heap states, which the perf gate and the
/// layout auto-tuner's fitness both rely on. Each traced kernel traces
/// exactly one grid per sink, so rebasing cannot alias two arrays.
template <class T, Layout3D LayoutT, AccessSink SinkT>
class TracedView {
 public:
  /// The synthetic base every trace starts at — aligned far beyond any page
  /// or cache-set stride, so the model sees a clean placement.
  static constexpr std::uint64_t kTracedBase = 1ull << 30;

  TracedView(const Grid3D<T, LayoutT>& grid, SinkT& sink)
      : grid_(&grid), sink_(&sink),
        base_(reinterpret_cast<std::uint64_t>(grid.data())) {}

  [[nodiscard]] const T& at(std::uint32_t i, std::uint32_t j, std::uint32_t k) const {
    const T& ref = grid_->at(i, j, k);
    sink_->access(kTracedBase + (reinterpret_cast<std::uint64_t>(&ref) - base_), sizeof(T));
    return ref;
  }
  [[nodiscard]] const T& at_clamped(std::int64_t i, std::int64_t j, std::int64_t k) const {
    const T& ref = grid_->at_clamped(i, j, k);
    sink_->access(kTracedBase + (reinterpret_cast<std::uint64_t>(&ref) - base_), sizeof(T));
    return ref;
  }
  [[nodiscard]] const Extents3D& extents() const noexcept { return grid_->extents(); }

  [[nodiscard]] SinkT& sink() const noexcept { return *sink_; }

 private:
  const Grid3D<T, LayoutT>* grid_;
  SinkT* sink_;
  std::uint64_t base_;
};

/// A read view usable by the kernels.
template <class V>
concept ReadView3D = requires(const V view, std::uint32_t c, std::int64_t s) {
  { view.at(c, c, c) };
  { view.at_clamped(s, s, s) };
  { view.extents() } -> std::convertible_to<Extents3D>;
};

// ---------------------------------------------------------------------------
// Backend view factories (customization points)
// ---------------------------------------------------------------------------
// Kernels write `const auto view = make_read_view(src);` against any
// VolumeBackend; core/bricked.hpp adds the BrickedVolume overloads.

/// Zero-overhead read view over an in-core grid.
template <class T, Layout3D LayoutT>
[[nodiscard]] inline PlainView<T, LayoutT> make_read_view(const Grid3D<T, LayoutT>& grid) {
  return PlainView<T, LayoutT>(grid);
}

/// Memsim-reporting read view over an in-core grid.
template <class T, Layout3D LayoutT, AccessSink SinkT>
[[nodiscard]] inline TracedView<T, LayoutT, SinkT> make_traced_view(
    const Grid3D<T, LayoutT>& grid, SinkT& sink) {
  return TracedView<T, LayoutT, SinkT>(grid, sink);
}

/// Structure-cache salt of a backend: cached derived structures (macrocell
/// grids) must not be reused across backends that place the same logical
/// data differently. Grids delegate to their layout's salt; BrickedVolume
/// (core/bricked.hpp) hashes its brick geometry.
template <class T, Layout3D LayoutT>
[[nodiscard]] inline std::uint64_t volume_cache_salt(const Grid3D<T, LayoutT>& grid) {
  return layout_cache_salt(grid.layout());
}

}  // namespace sfcvis::core

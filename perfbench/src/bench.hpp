// Shared pieces of the sfcbench end-to-end benchmark: the run
// configuration, the in-memory span recorder, output checks, and the
// result every workload fills in.
//
// The benchmark drives only the public sfcvis entry points (data::load_bov,
// AnyVolume::copy_from, core::pack_brick_file, core::BrickedVolume::open,
// filters::bilateral_parallel, render::raycast_parallel, exec::JobGraph).
// Timing happens here, around those calls; nothing inside src/ is
// instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "sfcvis/exec/execution_context.hpp"

namespace sfcbench {

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint32_t size = 0;        ///< volume edge
  std::filesystem::path cache_dir;   ///< seeded input cache
  std::filesystem::path work_dir;    ///< brick files, run report
  std::string report_path;           ///< TraceSession run report (trace runs)

  /// Length of the untraced measurement loop: all of `seconds`, or half of
  /// it in a traced run, which spends the rest on probes and the traced
  /// section.
  [[nodiscard]] double window_s() const noexcept { return trace ? seconds / 2 : seconds; }
};

[[nodiscard]] inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Spans recorded by the benchmark around its calls into the library,
/// named <layer>.<call>. Every span of one run shares the run id and points
/// at its parent (the pass or set-up step it belongs to). Kept in memory
/// and written with the result when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = top level
    double start_s = 0.0;
    double end_s = 0.0;
  };

  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span now and returns its duration in seconds.
    double close();

   private:
    SpanLog& log_;
    std::size_t index_;
    bool open_ = true;
  };

  [[nodiscard]] const std::string& run_id() const noexcept { return run_id_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Total self time (span minus the part its direct children cover) per
  /// span name.
  [[nodiscard]] std::map<std::string, double> self_times() const;

 private:
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  ///< indices of open spans
};

/// Output checks; every failed check is counted and its reason kept.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// What a workload run produced.
struct Result {
  /// Every metric by name (the contract's end-to-end or per-layer set plus
  /// the workload's own named throughputs and the paper's ds).
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> notes;  ///< free-form context by key
  std::uint64_t volume_bytes = 0;            ///< logical bytes of the workload volume
};

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned kSetups = 3;

/// Median of `v` (mean of the middle pair for even sizes); 0 for empty.
[[nodiscard]] double median(std::vector<double> v);

/// The paper's scaled relative difference ds = (a - z) / z.
[[nodiscard]] inline double paper_ds(double a, double z) { return (a - z) / z; }

/// Workload entry points. Each runs set-up kSetups times, measures for
/// cfg.window_s() seconds with tracing off and, when cfg.trace is set, runs
/// the traced per-layer pass afterwards.
void run_bilateral(const RunConfig& cfg, sfcvis::exec::ExecutionContext& ctx, SpanLog& spans,
                   Checks& checks, Result& result);
void run_raycast(const RunConfig& cfg, sfcvis::exec::ExecutionContext& ctx, SpanLog& spans,
                 Checks& checks, Result& result);
void run_bricked(const RunConfig& cfg, sfcvis::exec::ExecutionContext& ctx, SpanLog& spans,
                 Checks& checks, Result& result);

// host.cpp ------------------------------------------------------------------

/// Static facts about the machine and the build.
struct HostInfo {
  std::string cpu_model;
  unsigned nproc = 0;
  std::uint64_t l3_bytes = 0;   ///< 0 when sysfs does not say
  std::uint64_t ram_bytes = 0;
  std::string compiler;
  std::string build_type;
  std::string march;
};

[[nodiscard]] HostInfo host_info();

/// Peak resident set of this process so far, in MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();

/// memcpy bandwidth in GB/s (bytes read plus bytes written per second) over
/// a buffer of `buffer_bytes`, copying one half onto the other on ctx's
/// workers.
[[nodiscard]] double copy_bandwidth_gbs(sfcvis::exec::ExecutionContext& ctx,
                                        std::uint64_t buffer_bytes);

// inputs.cpp ----------------------------------------------------------------

enum class Dataset { kPhantom, kCombustion };

/// Path of the BOV header of the seeded input (dataset, edge, seed),
/// generating and checksumming it on first use and verifying the checksum
/// on reuse (a mismatch regenerates). Generation runs on ctx's workers and
/// happens before set-up, so it is never timed.
[[nodiscard]] std::filesystem::path cached_input(const RunConfig& cfg,
                                                 sfcvis::exec::ExecutionContext& ctx,
                                                 Dataset dataset, std::uint32_t edge);

}  // namespace sfcbench

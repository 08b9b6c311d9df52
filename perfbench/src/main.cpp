// sfcbench: one process, one 4-worker ExecutionContext, one workload.
//
// Usage: sfcbench --workload NAME --kind bilateral|raycast|bricked
//                 --size EDGE --seed N --seconds S --trace 0|1
//                 --out RESULT.json --cache-dir DIR --work-dir DIR
//                 [--prepare 1]
//
// --prepare 1 only generates (or verifies) the seeded input in the cache
// and exits, so the measured process starts from the same state whether
// or not the input was cached.
//
// Prints a human-readable log and writes every measured number, the
// output checks, the host fingerprint and the benchmark's own spans to
// RESULT.json. perfbench/run.py turns that (plus the run report of a
// traced run) into the contract's one-line result.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "probes.hpp"
#include "sfcvis/trace/json.hpp"

namespace sfcbench {

namespace exec = sfcvis::exec;

// --- SpanLog / Checks / median ---------------------------------------------

SpanLog::Scope::Scope(SpanLog& log, std::string name) : log_(log), index_(log.spans_.size()) {
  Span span;
  span.name = std::move(name);
  span.id = static_cast<std::uint32_t>(index_ + 1);
  span.parent = log.stack_.empty() ? 0 : log.spans_[log.stack_.back()].id;
  span.start_s = now_s();
  log.spans_.push_back(std::move(span));
  log.stack_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (open_) {
    close();
  }
}

double SpanLog::Scope::close() {
  Span& span = log_.spans_[index_];
  span.end_s = now_s();
  open_ = false;
  log_.stack_.pop_back();
  return span.end_s - span.start_s;
}

std::map<std::string, double> SpanLog::self_times() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent != 0) {
      child[s.parent - 1] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child[i];
  }
  return self;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace sfcbench

namespace {

using namespace sfcbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sfcbench: %s\nusage: sfcbench --workload NAME --kind bilateral|raycast|"
               "bricked --size EDGE --seed N --seconds S --trace 0|1 --out FILE "
               "--cache-dir DIR --work-dir DIR [--prepare 1]\n",
               why);
  std::exit(2);
}

std::uint32_t parse_u32(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long v = std::stoul(text, &used);
    if (used != text.size() || v > 0xffffffffUL) {
      throw std::invalid_argument(text);
    }
    return static_cast<std::uint32_t>(v);
  } catch (const std::exception&) {
    usage(("bad value for " + flag + ": " + text).c_str());
  }
}

void write_result(const std::string& path, const RunConfig& cfg, const SpanLog& spans,
                  const Checks& checks, const Result& result, const HostInfo& host) {
  sfcvis::trace::JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value(cfg.workload);
  w.key("seed");
  w.value(std::uint64_t{cfg.seed});
  w.key("trace");
  w.value(cfg.trace);
  w.key("run_id");
  w.value(spans.run_id());
  w.key("volume_bytes");
  w.value(result.volume_bytes);
  w.key("host");
  w.begin_object();
  w.key("cpu_model");
  w.value(host.cpu_model);
  w.key("nproc");
  w.value(std::uint64_t{host.nproc});
  w.key("l3_bytes");
  w.value(host.l3_bytes);
  w.key("ram_bytes");
  w.value(host.ram_bytes);
  w.key("compiler");
  w.value(host.compiler);
  w.key("build_type");
  w.value(host.build_type);
  w.key("march");
  w.value(host.march);
  w.end_object();
  w.key("checks");
  w.begin_object();
  w.key("attempted");
  w.value(checks.attempted());
  w.key("failed");
  w.value(checks.failed());
  w.key("failures");
  w.begin_array();
  for (const auto& f : checks.failures()) {
    w.value(f);
  }
  w.end_array();
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, value] : result.metrics) {
    w.key(name);
    w.value(value, 9);
  }
  w.end_object();
  w.key("notes");
  w.begin_object();
  for (const auto& [key, text] : result.notes) {
    w.key(key);
    w.value(text);
  }
  w.end_object();
  w.key("spans");
  w.begin_array();
  const double origin = spans.spans().empty() ? 0.0 : spans.spans().front().start_s;
  for (const auto& s : spans.spans()) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("id");
    w.value(std::uint64_t{s.id});
    w.key("parent");
    w.value(std::uint64_t{s.parent});
    w.key("run_id");
    w.value(spans.run_id());
    w.key("start_s");
    w.value(s.start_s - origin, 9);
    w.key("dur_s");
    w.value(s.end_s - s.start_s, 9);
    w.end_object();
  }
  w.end_array();
  w.key("self_time_s");
  w.begin_object();
  for (const auto& [name, secs] : spans.self_times()) {
    w.key(name);
    w.value(secs, 9);
  }
  w.end_object();
  w.end_object();
  if (!sfcvis::trace::write_text_file(path, w.take())) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string out, kind;
  bool have_trace = false;
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--kind") {
      kind = value;
    } else if (flag == "--seed") {
      cfg.seed = parse_u32(flag, value);
    } else if (flag == "--seconds") {
      cfg.seconds = parse_u32(flag, value);
    } else if (flag == "--trace") {
      cfg.trace = parse_u32(flag, value) != 0;
      have_trace = true;
    } else if (flag == "--out") {
      out = value;
    } else if (flag == "--cache-dir") {
      cfg.cache_dir = value;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--size") {
      cfg.size = parse_u32(flag, value);
    } else if (flag == "--prepare") {
      prepare = parse_u32(flag, value) != 0;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (cfg.workload.empty() || out.empty() || cfg.cache_dir.empty() || cfg.work_dir.empty() ||
      !have_trace || cfg.size == 0) {
    usage("--workload, --kind, --size, --trace, --out, --cache-dir and --work-dir are required");
  }
  std::filesystem::create_directories(cfg.work_dir);
  cfg.report_path = (cfg.work_dir / "run_report.json").string();

  using Runner = void (*)(const RunConfig&, exec::ExecutionContext&, SpanLog&, Checks&,
                          Result&);
  Runner runner = nullptr;
  Dataset dataset = Dataset::kPhantom;
  if (kind == "bilateral") {
    runner = run_bilateral;
  } else if (kind == "raycast") {
    runner = run_raycast;
    dataset = Dataset::kCombustion;
  } else if (kind == "bricked") {
    runner = run_bricked;
  } else {
    usage(("unknown --kind " + kind).c_str());
  }

  try {
    register_probe_kernels();
    exec::ExecOptions xopts;
    xopts.threads = 4;
    xopts.layout_registry.clear();
    exec::ExecutionContext ctx(xopts);
    if (prepare) {
      (void)cached_input(cfg, ctx, dataset, cfg.size);
      return 0;
    }
    const HostInfo host = host_info();
    SpanLog spans(cfg.workload + "-s" + std::to_string(cfg.seed) + "-t" +
                  std::to_string(cfg.trace ? 1 : 0) + "-p" + std::to_string(::getpid()));
    Checks checks;
    Result result;
    std::printf("sfcbench %s seed=%u seconds=%.0f trace=%d threads=%u backend=%s\n",
                cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.trace ? 1 : 0, ctx.size(),
                exec::to_string(ctx.active_backend()));
    std::fflush(stdout);
    runner(cfg, ctx, spans, checks, result);
    // Peak RSS is read before the bandwidth probe, whose buffer is not
    // part of the workload.
    result.metrics["peak_rss_mib"] = peak_rss_mib();
    const std::uint64_t l3 = host.l3_bytes != 0 ? host.l3_bytes : (32ULL << 20);
    {
      SpanLog::Scope span(spans, "host.memcpy");
      result.metrics["host.copy_gbs"] =
          copy_bandwidth_gbs(ctx, std::min<std::uint64_t>(4 * l3, 512ULL << 20));
    }
    write_result(out, cfg, spans, checks, result, host);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "sfcbench: %s\n", ex.what());
    return 1;
  }
  return 0;
}

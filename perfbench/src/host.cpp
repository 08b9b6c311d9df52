// Host fingerprint, peak RSS and memcpy bandwidth.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace sfcbench {

namespace {

/// First line of `path`, or "" when unreadable.
std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Value of the first "<key>: <value>" line of a /proc-style file.
std::string proc_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) {
        return {};
      }
      const auto begin = line.find_first_not_of(" \t", colon + 1);
      return begin == std::string::npos ? std::string{} : line.substr(begin);
    }
  }
  return {};
}

/// "105M" / "2048K" / "1G" style sysfs size -> bytes (0 when unparsable).
std::uint64_t parse_size(const std::string& text) {
  std::uint64_t value = 0;
  std::size_t pos = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(text[pos] - '0');
    ++pos;
  }
  if (pos < text.size()) {
    switch (text[pos]) {
      case 'K': value <<= 10; break;
      case 'M': value <<= 20; break;
      case 'G': value <<= 30; break;
      default: break;
    }
  }
  return value;
}

/// Largest level-3 cache of cpu0 according to sysfs.
std::uint64_t l3_bytes() {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    if (read_line(dir + "level") == "3") {
      return parse_size(read_line(dir + "size"));
    }
  }
  return 0;
}

}  // namespace

HostInfo host_info() {
  HostInfo info;
  info.cpu_model = proc_field("/proc/cpuinfo", "model name");
  info.nproc = std::thread::hardware_concurrency();
  info.l3_bytes = l3_bytes();
  info.ram_bytes = parse_size(proc_field("/proc/meminfo", "MemTotal")) * 1024;  // kB
  info.compiler = PERFBENCH_COMPILER;
  info.build_type = PERFBENCH_BUILD_TYPE;
  info.march = PERFBENCH_MARCH;
  return info;
}

double peak_rss_mib() {
  // "VmHWM:   123456 kB"
  std::istringstream field(proc_field("/proc/self/status", "VmHWM"));
  double kib = 0.0;
  field >> kib;
  return kib / 1024.0;
}

double copy_bandwidth_gbs(sfcvis::exec::ExecutionContext& ctx, std::uint64_t buffer_bytes) {
  const std::size_t half = static_cast<std::size_t>(buffer_bytes / 2);
  const std::unique_ptr<char[]> buffer(new char[2 * half]);
  const std::size_t chunks = ctx.size() * 4;
  const std::size_t chunk = (half + chunks - 1) / chunks;
  const auto copy = [&](char* dst, const char* src) {
    ctx.parallel_static(chunks, [&](std::size_t c, unsigned) {
      const std::size_t begin = c * chunk;
      const std::size_t end = std::min(half, begin + chunk);
      if (begin < end) {
        std::memcpy(dst + begin, src + begin, end - begin);
      }
    });
  };
  // First touch of both halves, then timed copies in alternating directions.
  std::memset(buffer.get(), 1, 2 * half);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    char* a = buffer.get();
    char* b = buffer.get() + half;
    const double t0 = now_s();
    if (rep % 2 == 0) {
      copy(b, a);
    } else {
      copy(a, b);
    }
    // Bytes read plus bytes written, the same accounting as the filter's
    // computed bandwidth.
    rates.push_back(2.0 * static_cast<double>(half) / (now_s() - t0) / 1e9);
  }
  return median(rates);
}

}  // namespace sfcbench

// Environment stamp for bench output: which machine and build produced
// a record. BenchJsonWriter writes it as the file's "context" block,
// and bench_micro adds it to google-benchmark's own "context"; the
// regression check (tools/check_bench_regression.py) refuses to compare
// records whose CPU counts differ.
//
// The build settings come from compile definitions the CMake bench
// targets set (S3_BENCH_BUILD_TYPE, S3_BENCH_SIMD, S3_BENCH_SOURCE_DIR);
// the git sha is read at run time, so a binary reports the checkout it
// runs from, with a "-dirty" suffix for uncommitted changes.
#ifndef S3_BENCH_BENCH_CONTEXT_H_
#define S3_BENCH_BENCH_CONTEXT_H_

#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#ifndef S3_BENCH_BUILD_TYPE
#define S3_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef S3_BENCH_SIMD
#define S3_BENCH_SIMD "unknown"
#endif

namespace s3::bench {

inline std::string CpuModelName() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t begin = line.find_first_not_of(' ', colon + 1);
    return begin == std::string::npos ? "unknown" : line.substr(begin);
  }
  return "unknown";
}

inline std::string GitSha() {
#if defined(S3_BENCH_SOURCE_DIR)
  const std::string cmd = std::string("git -C '") + S3_BENCH_SOURCE_DIR +
                          "' describe --always --dirty --abbrev=12 2>/dev/null";
  if (FILE* p = popen(cmd.c_str(), "r")) {
    std::array<char, 128> buf{};
    std::string out;
    while (fgets(buf.data(), buf.size(), p) != nullptr) out += buf.data();
    pclose(p);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    if (!out.empty()) return out;
  }
#endif
  return "unknown";
}

// (key, value) pairs; nproc is the only numeric one.
inline std::vector<std::pair<std::string, std::string>> BenchContext() {
  return {
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu_model", CpuModelName()},
#if defined(__clang__)
      {"compiler", "clang " __clang_version__},
#else
      {"compiler", "gcc " __VERSION__},
#endif
      {"build_type", S3_BENCH_BUILD_TYPE},
      {"S3_SIMD", S3_BENCH_SIMD},
#if defined(S3_OBS_DISABLED)
      {"S3_OBS", "OFF"},
#else
      {"S3_OBS", "ON"},
#endif
      {"git_sha", GitSha()},
  };
}

// The context as a JSON object.
inline std::string BenchContextJson() {
  std::string out = "{";
  for (const auto& [key, value] : BenchContext()) {
    if (out.size() > 1) out += ", ";
    out += "\"" + key + "\": ";
    if (key == "nproc") {
      out += value;
      continue;
    }
    out += "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    out += "\"";
  }
  return out + "}";
}

}  // namespace s3::bench

#endif  // S3_BENCH_BENCH_CONTEXT_H_

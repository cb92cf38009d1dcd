// Cold-start benchmark: how fast does a serving process get from a
// snapshot file to a queryable instance?
//
// Compares the load paths of the storage layer on the I1 (microblog)
// instance:
//
//   text     LoadInstance() + Finalize()   — population replay, then
//            saturation + matrix + components rebuilt from scratch;
//   v2 copy  LoadBinarySnapshot(v2 bytes)  — compact-section decode,
//            eager CRC over every section, heap copies;
//   v2 mmap  AttachBinarySnapshot(region)  — compact-section decode
//            plus zero-copy views over the mapped aligned sections
//            (matrix CSR floats, forest), lazy CRC.
//
// Also records bytes_on_disk of the v2 snapshot next to the text dump
// — the v2 compaction acceptance criterion (v2 <= 1.5x text) is
// measured here.
//
// Results are merged into BENCH_micro.json (BenchJsonWriter merge
// mode) next to the google-benchmark records, so the bench-regression
// gate tracks the numbers; run bench_micro first, then this binary.
//
//   S3_BENCH_COLD_ITERS   timed iterations per codec (default 5)
//   S3_BENCH_SCALE        instance scale multiplier (bench_util.h)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "common/mmap_file.h"
#include "core/serialization.h"
#include "core/snapshot_binary.h"

namespace {

size_t Iterations() {
  const char* env = std::getenv("S3_BENCH_COLD_ITERS");
  size_t n = env ? std::strtoul(env, nullptr, 10) : 5;
  return n == 0 ? 1 : n;
}

}  // namespace

int main() {
  using s3::WallTimer;

  s3::workload::GenResult gen = s3::bench::MakeI1();
  std::printf("bench_cold_start — instance %s: users=%zu docs=%zu "
              "tags=%zu triples=%zu\n",
              gen.name.c_str(), gen.instance->UserCount(),
              gen.instance->docs().DocumentCount(),
              gen.instance->TagCount(), gen.instance->rdf_graph().size());

  const std::string text = s3::core::SaveInstance(*gen.instance);
  auto v2 = s3::core::SaveBinarySnapshot(*gen.instance);
  if (!v2.ok()) {
    std::fprintf(stderr, "SaveBinarySnapshot failed\n");
    return 1;
  }
  const double v2_vs_text =
      static_cast<double>(v2->size()) / static_cast<double>(text.size());
  std::printf("snapshot bytes: text=%zu v2=%zu (%.2fx text)\n", text.size(),
              v2->size(), v2_vs_text);

  // The mmap leg attaches from a real file, like SnapshotManager
  // recovery does.
  const std::string v2_path = "bench_cold_start_v2.snap.tmp";
  {
    std::FILE* f = std::fopen(v2_path.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(v2->data(), 1, v2->size(), f) != v2->size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", v2_path.c_str());
      return 1;
    }
  }

  const size_t iters = Iterations();

  // Warm-up + correctness guard: every path must yield the population.
  {
    auto loaded = s3::core::LoadInstance(text);
    if (!loaded.ok() || !(*loaded)->Finalize().ok()) {
      std::fprintf(stderr, "text load failed\n");
      return 1;
    }
    auto attached = s3::core::LoadBinarySnapshot(*v2);
    if (!attached.ok()) {
      std::fprintf(stderr, "binary load failed: %s\n",
                   attached.status().ToString().c_str());
      return 1;
    }
    if ((*attached)->docs().NodeCount() != (*loaded)->docs().NodeCount()) {
      std::fprintf(stderr, "load paths disagree on the population\n");
      return 1;
    }
  }

  double text_seconds = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    WallTimer t;
    auto loaded = s3::core::LoadInstance(text);
    if (!loaded.ok() || !(*loaded)->Finalize().ok()) return 1;
    text_seconds += t.ElapsedSeconds();
  }

  double v2_seconds = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    WallTimer t;
    auto attached = s3::core::LoadBinarySnapshot(*v2);
    if (!attached.ok()) return 1;
    v2_seconds += t.ElapsedSeconds();
  }

  // mmap attach: open + map + attach per iteration — the full cold
  // path a recovering server pays.
  double mmap_seconds = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    WallTimer t;
    std::shared_ptr<const s3::MappedRegion> region;
    if (!s3::MappedRegion::Open(v2_path, &region).ok()) return 1;
    auto attached = s3::core::AttachBinarySnapshot(region);
    if (!attached.ok()) return 1;
    mmap_seconds += t.ElapsedSeconds();
  }
  std::remove(v2_path.c_str());

  const double text_ns = text_seconds / iters * 1e9;
  const double v2_ns = v2_seconds / iters * 1e9;
  const double mmap_ns = mmap_seconds / iters * 1e9;
  std::printf("text load+Finalize : %8.2f ms/op\n", text_ns / 1e6);
  std::printf("v2 copy attach     : %8.2f ms/op\n", v2_ns / 1e6);
  std::printf("v2 mmap attach     : %8.2f ms/op\n", mmap_ns / 1e6);
  std::printf("v2 mmap is %.2fx faster than v2 copy, %.2fx faster than "
              "text+Finalize\n",
              mmap_ns > 0 ? v2_ns / mmap_ns : 0.0,
              mmap_ns > 0 ? text_ns / mmap_ns : 0.0);

  s3::bench::BenchJsonWriter writer("BENCH_micro.json", /*merge=*/true);
  writer.Add("BM_ColdStart_I1_TextLoadFinalize", text_ns);
  char extra[96];
  std::snprintf(extra, sizeof(extra),
                "\"bytes_on_disk\": %zu, \"bytes_vs_text\": %.2f",
                v2->size(), v2_vs_text);
  writer.Add("BM_ColdStart_I1_V2CopyAttach", v2_ns, extra);
  std::snprintf(extra, sizeof(extra), "\"speedup_vs_v2_copy\": %.2f",
                mmap_ns > 0 ? v2_ns / mmap_ns : 0.0);
  writer.Add("BM_ColdStart_I1_V2MmapAttach", mmap_ns, extra);
  return 0;
}

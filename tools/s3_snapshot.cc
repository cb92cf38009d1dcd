// s3_snapshot — inspector / converter for S3 snapshot files and
// storage directories.
//
//   s3_snapshot inspect <file>
//       Header, format version, generation/lineage, population counts
//       and the per-section size + CRC table of a binary snapshot
//       (checksums are verified and mismatches flagged). Text dumps
//       are identified and summarized.
//
//   s3_snapshot convert <in> <out> [--to=text|binary]
//       Converts between the text codec and the binary snapshot codec
//       (default: the opposite of the input format). Text -> binary
//       finalizes the instance (fresh lineage, generation 0); binary
//       -> text drops derived state by design. Binary output is always
//       v2, so `--to=binary` upgrades a v1 file.
//
//   s3_snapshot recover <dir>
//       Dry-run of SnapshotManager::Recover on a storage directory:
//       reports the snapshot it would load, the WAL records it would
//       replay/skip, and the generation it would serve. Touches
//       nothing.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/file_io.h"
#include "core/snapshot.h"
#include "core/snapshot_binary.h"
#include "server/snapshot_manager.h"
#include "shard/shard_meta.h"

namespace {

using s3::core::SnapshotFormat;

// When the inspected file sits inside a shard storage directory
// (tools/s3_shard split output), report the shard's place in its
// partition. Pre-shard snapshots have no shard.meta sibling and print
// nothing — inspect degrades gracefully.
void PrintShardMetaIfPresent(const std::string& snapshot_path) {
  std::string dir = ".";
  const size_t slash = snapshot_path.find_last_of('/');
  if (slash != std::string::npos) dir = snapshot_path.substr(0, slash);
  std::string bytes;
  if (!s3::ReadFileToString(dir + "/" + s3::shard::kShardMetaFile, &bytes)
           .ok()) {
    return;  // not a shard directory
  }
  auto meta = s3::shard::ParseShardMeta(bytes);
  if (!meta.ok()) {
    std::printf("shard metadata: present but unreadable (%s)\n",
                meta.status().ToString().c_str());
    return;
  }
  std::printf(
      "shard metadata: shard %u of %u, %llu boundary social edges, "
      "%u owned users, %zu local docs, %zu local tags\n",
      meta->shard_index, meta->shard_count,
      static_cast<unsigned long long>(meta->boundary_social_edges),
      meta->owned_users, meta->map.doc_count(), meta->map.tag_count());
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  s3_snapshot inspect <file>\n"
               "  s3_snapshot convert <in> <out> [--to=text|binary]\n"
               "  s3_snapshot recover <dir>\n");
  return 2;
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  return s3::ReadFileToString(path, out).ok();
}

int Inspect(const std::string& path) {
  std::string bytes;
  if (!ReadWholeFile(path, &bytes)) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  auto format = s3::core::DetectSnapshotFormat(bytes);
  if (!format.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 format.status().ToString().c_str());
    return 1;
  }
  if (*format == SnapshotFormat::kText) {
    std::printf("%s: text snapshot (header 'S3 v1'), %zu bytes\n",
                path.c_str(), bytes.size());
    std::printf(
        "population-only dump; load pays Finalize(). Convert with\n"
        "  s3_snapshot convert %s <out> --to=binary\n",
        path.c_str());
    PrintShardMetaIfPresent(path);
    return 0;
  }

  auto info = s3::core::InspectBinarySnapshot(bytes);
  if (!info.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: binary snapshot, format v%u, %zu bytes\n", path.c_str(),
              info->version, bytes.size());
  std::printf("generation %llu, lineage %llu, rdf-imported social edges "
              "%llu\n",
              static_cast<unsigned long long>(info->generation),
              static_cast<unsigned long long>(info->lineage),
              static_cast<unsigned long long>(info->rdf_social_edges));
  std::printf(
      "population: %llu users, %llu docs (%llu nodes), %llu tags, "
      "%llu keywords, %llu edges, %llu terms, %llu triples\n",
      static_cast<unsigned long long>(info->n_users),
      static_cast<unsigned long long>(info->n_docs),
      static_cast<unsigned long long>(info->n_nodes),
      static_cast<unsigned long long>(info->n_tags),
      static_cast<unsigned long long>(info->n_keywords),
      static_cast<unsigned long long>(info->n_edges),
      static_cast<unsigned long long>(info->n_terms),
      static_cast<unsigned long long>(info->n_triples));
  std::printf("%-12s %-12s %12s %12s %6s %10s  %s\n", "section",
              "encoding", "disk", "memory", "ratio", "crc32", "checksum");
  bool all_ok = true;
  uint64_t disk_total = 0, mem_total = 0;
  for (const auto& section : info->sections) {
    const double ratio =
        section.size == 0
            ? 1.0
            : static_cast<double>(section.mem_bytes) /
                  static_cast<double>(section.size);
    std::printf("%-12s %-12s %12llu %12llu %5.2fx %10x  %s\n",
                section.name, section.encoding,
                static_cast<unsigned long long>(section.size),
                static_cast<unsigned long long>(section.mem_bytes), ratio,
                section.crc, section.crc_ok ? "ok" : "MISMATCH");
    disk_total += section.size;
    mem_total += section.mem_bytes;
    all_ok = all_ok && section.crc_ok;
  }
  std::printf("%-12s %-12s %12llu %12llu %5.2fx\n", "total", "",
              static_cast<unsigned long long>(disk_total),
              static_cast<unsigned long long>(mem_total),
              disk_total == 0 ? 1.0
                              : static_cast<double>(mem_total) /
                                    static_cast<double>(disk_total));
  if (!all_ok) {
    std::printf("CORRUPT: at least one section failed its checksum\n");
    return 1;
  }
  PrintShardMetaIfPresent(path);
  return 0;
}

// `to_flag` is the optional --to=... argument (nullptr when absent).
int Convert(const std::string& in_path, const std::string& out_path,
            const char* to_flag) {
  std::string bytes;
  if (!ReadWholeFile(in_path, &bytes)) {
    std::fprintf(stderr, "cannot read %s\n", in_path.c_str());
    return 1;
  }
  auto in_format = s3::core::DetectSnapshotFormat(bytes);
  if (!in_format.ok()) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(),
                 in_format.status().ToString().c_str());
    return 1;
  }
  SnapshotFormat out_format = *in_format == SnapshotFormat::kText
                                  ? SnapshotFormat::kBinary
                                  : SnapshotFormat::kText;
  if (to_flag != nullptr) {
    if (std::strcmp(to_flag, "--to=text") == 0) {
      out_format = SnapshotFormat::kText;
    } else if (std::strcmp(to_flag, "--to=binary") == 0) {
      out_format = SnapshotFormat::kBinary;
    } else {
      return Usage();
    }
  }

  auto instance = s3::core::LoadSnapshot(bytes);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(),
                 instance.status().ToString().c_str());
    return 1;
  }
  auto out_bytes = s3::core::SaveSnapshot(**instance, out_format);
  if (!out_bytes.ok()) {
    std::fprintf(stderr, "convert: %s\n",
                 out_bytes.status().ToString().c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out.write(out_bytes->data(),
                 static_cast<std::streamsize>(out_bytes->size()))) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("%s (%s) -> %s (%s%s), generation %llu\n", in_path.c_str(),
              s3::core::SnapshotFormatName(*in_format), out_path.c_str(),
              s3::core::SnapshotFormatName(out_format),
              out_format == SnapshotFormat::kBinary ? " v2" : "",
              static_cast<unsigned long long>((*instance)->generation()));
  return 0;
}

int Recover(const std::string& dir) {
  auto state = s3::server::SnapshotManager::Recover(dir);
  if (!state.ok()) {
    std::fprintf(stderr, "%s: %s\n", dir.c_str(),
                 state.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: recoverable\n", dir.c_str());
  std::printf("  snapshot generation     %llu\n",
              static_cast<unsigned long long>(state->snapshot_generation));
  std::printf("  WAL records replayed    %zu\n", state->replayed_records);
  std::printf("  WAL records skipped     %zu\n", state->skipped_records);
  std::printf("  tail discarded          %s\n",
              state->tail_discarded ? "yes (torn or corrupt)" : "no");
  std::printf("  would serve generation  %llu (lineage %llu)\n",
              static_cast<unsigned long long>(
                  state->instance->generation()),
              static_cast<unsigned long long>(state->instance->lineage()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  if (command == "inspect" && argc == 3) return Inspect(argv[2]);
  if (command == "convert" && (argc == 4 || argc == 5)) {
    return Convert(argv[2], argv[3], argc == 5 ? argv[4] : nullptr);
  }
  if (command == "recover" && argc == 3) return Recover(argv[2]);
  return Usage();
}

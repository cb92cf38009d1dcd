// Versioned binary snapshot codec for *finalized* S3 instances.
//
// Unlike the text codec (core/serialization.h), which saves only the
// population and pays a full Finalize() — saturation, matrix build,
// component discovery — on every load, the binary format serializes
// the derived state too: interned term dictionary, saturated triple
// store, inverted-index postings, transition-matrix CSR, component
// union-find forest and the keyword→component directory. Loading goes
// through S3Instance::FromSnapshot / AttachDerived and skips all of
// that recomputation; generation and lineage round-trip intact, which
// is what lets the server's SnapshotManager resume a killed process at
// its exact pre-crash generation.
//
// Two wire formats share the 8-byte magic and a u32 version:
//
//   v1 — streamed frames: (u32 id, u64 size, u32 CRC-32, payload) in
//        fixed ascending-id order, every field fixed-width. Read
//        forever; no longer written.
//   v2 — the compact + zero-copy format (see src/server/STORAGE.md),
//        the only one SaveBinarySnapshot writes:
//        a CRC-guarded section *table* up front, varint/delta-encoded
//        compact sections for the population, postings and CSR
//        columns, and 64-byte-aligned fixed-width sections (matrix
//        row_ptr / values / denominators, component forest) that
//        AttachBinarySnapshot hands to the instance as zero-copy
//        StorageSpan views over the mmap'd file.
//
// Corruption — truncation, bit flips, garbage — is detected at the
// framing layer and reported as InvalidArgument with the failing
// section named, never undefined behaviour. All multi-byte values are
// little-endian (common/binary_io.h).
#ifndef S3_CORE_SNAPSHOT_BINARY_H_
#define S3_CORE_SNAPSHOT_BINARY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mmap_file.h"
#include "common/status.h"
#include "core/s3_instance.h"

namespace s3::core {

inline constexpr uint32_t kBinarySnapshotV1 = 1;
inline constexpr uint32_t kBinarySnapshotV2 = 2;

// True when `bytes` begin with the binary-snapshot magic (cheap format
// sniffing; says nothing about the rest of the file).
bool LooksLikeBinarySnapshot(std::string_view bytes);

// Serializes `instance` — population and derived state — into the v2
// binary snapshot format. Fails with FailedPrecondition on an
// unfinalized instance (there is no derived state to save; use the
// text codec for build-phase dumps).
Result<std::string> SaveBinarySnapshot(const S3Instance& instance);

// Parses, checksum-verifies and validates a binary snapshot (either
// version), returning a finalized instance without running Finalize.
// Everything is copied to the heap — no views. Any framing or
// validation failure is InvalidArgument naming the offending section.
Result<std::shared_ptr<const S3Instance>> LoadBinarySnapshot(
    std::string_view bytes);

// Zero-copy attach policy for AttachBinarySnapshot.
struct SnapshotAttachOptions {
  // Attach v2 aligned sections as StorageSpan views into the region
  // (when the host is little-endian and the section lands properly
  // aligned in memory); false forces heap copies of everything.
  bool allow_views = true;
  // Verify aligned-section checksums at attach time. The default is
  // the lazy policy: aligned payloads skip their CRC pass (compact
  // sections are always verified — their decode walks every byte
  // anyway), keeping attach from paging in the large float arrays.
  // Corruption in a lazily-attached section is still bounded: the
  // structural validation in AttachDerived rejects malformed shapes,
  // and bench/tools can always re-verify with eager_crc.
  bool eager_crc = false;
};

// Attaches a snapshot from a mapped region. v1 regions load via the
// copy path; v2 regions decode the compact sections and hand the
// aligned sections to the instance as zero-copy views pinning
// `region`. The returned instance (and every ApplyDelta successor that
// still shares a view) keeps the mapping alive; deleting the file on
// disk while attached is safe (POSIX keeps mapped pages valid).
Result<std::shared_ptr<const S3Instance>> AttachBinarySnapshot(
    std::shared_ptr<const MappedRegion> region,
    const SnapshotAttachOptions& options = {});

// ---- inspection (tools/s3_snapshot) -----------------------------------

struct SnapshotSectionInfo {
  uint32_t id = 0;
  const char* name = "?";
  uint64_t size = 0;   // payload bytes on disk
  uint32_t crc = 0;    // stored checksum
  bool crc_ok = false; // stored checksum matches the payload
  // Wire encoding: "raw" (v1 sections and v2 fixed-width streams),
  // "varint-delta" (v2 compact) or "aligned" (v2 zero-copy views).
  const char* encoding = "raw";
  // Decoded in-memory bytes (equals `size` for raw and aligned
  // sections; larger for compact ones — size/mem_bytes is the
  // section's compression ratio).
  uint64_t mem_bytes = 0;
};

struct SnapshotInfo {
  uint32_t version = 0;
  // From the META section (zero when META is unreadable).
  uint64_t generation = 0;
  uint64_t lineage = 0;
  uint64_t rdf_social_edges = 0;
  uint64_t n_users = 0, n_docs = 0, n_nodes = 0, n_tags = 0;
  uint64_t n_keywords = 0, n_edges = 0, n_terms = 0, n_triples = 0;
  std::vector<SnapshotSectionInfo> sections;
};

// Frame-level inspection: header, section table, checksum verification
// and the META summary — without materializing an instance. Fails only
// when the header or section framing itself is unreadable; per-section
// checksum mismatches are reported via `crc_ok`.
Result<SnapshotInfo> InspectBinarySnapshot(std::string_view bytes);

}  // namespace s3::core

#endif  // S3_CORE_SNAPSHOT_BINARY_H_

// Binary snapshot codec tests: round-trip fidelity (bit-for-bit
// derived state, generation/lineage, query equivalence), the
// format-dispatch seam, the inspector surface, and robustness — a
// truncated, bit-flipped or garbage snapshot (text or binary) must
// come back InvalidArgument, never crash (the sweep runs under
// ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "common/mmap_file.h"
#include "core/instance_delta.h"
#include "core/s3k.h"
#include "core/serialization.h"
#include "core/snapshot.h"
#include "core/snapshot_binary.h"
#include "test_fixtures.h"
#include "workload/instance_stats.h"

namespace s3::core {
namespace {

// ---- fidelity helpers --------------------------------------------------

// `check_identity` also pins generation/lineage — golden-fixture
// comparisons drop it (lineage tokens are per-process).
void ExpectSameDerivedState(const S3Instance& got, const S3Instance& want,
                            bool check_identity = true) {
  ASSERT_EQ(got.layout().total(), want.layout().total());

  // Transition matrix: rows and denominators bit for bit.
  ASSERT_EQ(got.matrix().rows(), want.matrix().rows());
  ASSERT_EQ(got.matrix().nonzeros(), want.matrix().nonzeros());
  for (uint32_t row = 0; row < want.matrix().rows(); ++row) {
    EXPECT_EQ(got.matrix().Denominator(row), want.matrix().Denominator(row))
        << "denominator row " << row;
    auto a = got.matrix().Row(row);
    auto b = want.matrix().Row(row);
    ASSERT_EQ(a.size(), b.size()) << "row " << row;
    for (size_t i = 0; i < b.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first) << "row " << row;
      EXPECT_EQ(a[i].second, b[i].second) << "row " << row;
    }
  }

  // Component partition: identical ids per row.
  ASSERT_EQ(got.components().ComponentCount(),
            want.components().ComponentCount());
  for (uint32_t row = 0; row < want.layout().total(); ++row) {
    EXPECT_EQ(got.components().OfRow(row), want.components().OfRow(row))
        << "component of row " << row;
  }

  // Postings and the keyword -> component directory.
  for (KeywordId k = 0; k < want.vocabulary().size(); ++k) {
    EXPECT_EQ(got.index().Postings(k), want.index().Postings(k))
        << "postings of keyword " << k;
    EXPECT_EQ(got.ComponentsWithKeyword(k), want.ComponentsWithKeyword(k))
        << "components of keyword " << k;
  }

  if (check_identity) {
    EXPECT_EQ(got.generation(), want.generation());
    EXPECT_EQ(got.lineage(), want.lineage());
  }
  EXPECT_EQ(got.rdf_social_edges(), want.rdf_social_edges());
  EXPECT_EQ(got.saturation_stats().derived_triples,
            want.saturation_stats().derived_triples);
  EXPECT_EQ(got.terms().size(), want.terms().size());
  EXPECT_EQ(got.rdf_graph().size(), want.rdf_graph().size());
}

void ExpectSameQueryResults(const S3Instance& got, const S3Instance& want,
                            const Query& q) {
  S3kOptions opts;
  opts.k = 5;
  auto a = S3kSearcher(got, opts).Search(q);
  auto b = S3kSearcher(want, opts).Search(q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < b->size(); ++i) {
    EXPECT_EQ((*a)[i].node, (*b)[i].node) << "rank " << i;
    // Bit-for-bit: the reloaded derived structures are the saved ones.
    EXPECT_EQ((*a)[i].lower, (*b)[i].lower) << "rank " << i;
    EXPECT_EQ((*a)[i].upper, (*b)[i].upper) << "rank " << i;
  }
}

// Bytes of a committed fixture under tests/data.
std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(S3_TEST_DATA_DIR "/") + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---- round trips -------------------------------------------------------

TEST(BinarySnapshotTest, RequiresFinalizedInstance) {
  S3Instance inst;
  inst.AddUser("u");
  auto saved = SaveBinarySnapshot(inst);
  EXPECT_EQ(saved.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BinarySnapshotTest, Figure1RoundTripBitForBit) {
  auto fig = s3::testing::BuildFigure1();
  auto blob = SaveBinarySnapshot(*fig.instance);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_TRUE(LooksLikeBinarySnapshot(*blob));

  auto loaded = LoadBinarySnapshot(*blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDerivedState(**loaded, *fig.instance);
  ExpectSameQueryResults(**loaded, *fig.instance,
                         Query{fig.u1, {fig.kw_degree}});
  ExpectSameQueryResults(**loaded, *fig.instance,
                         Query{fig.u0, {fig.kw_university, fig.kw_ms}});

  // The population survives too (text re-export still works).
  EXPECT_EQ(SaveInstance(**loaded), SaveInstance(*fig.instance));
}

TEST(BinarySnapshotTest, RandomInstancesRoundTrip) {
  for (uint64_t seed : {71ull, 72ull, 73ull}) {
    s3::testing::RandomInstanceParams p;
    p.seed = seed;
    auto ri = s3::testing::BuildRandomInstance(p);
    auto blob = SaveBinarySnapshot(*ri.instance);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    auto loaded = LoadBinarySnapshot(*blob);
    ASSERT_TRUE(loaded.ok()) << "seed " << seed << ": "
                             << loaded.status().ToString();

    workload::InstanceStats a = workload::ComputeStats(*ri.instance);
    workload::InstanceStats b = workload::ComputeStats(**loaded);
    EXPECT_EQ(a.users, b.users) << seed;
    EXPECT_EQ(a.documents, b.documents) << seed;
    EXPECT_EQ(a.tags, b.tags) << seed;
    EXPECT_EQ(a.network_edges, b.network_edges) << seed;
    EXPECT_EQ(a.components, b.components) << seed;
    EXPECT_EQ(a.rdf_triples, b.rdf_triples) << seed;
    ExpectSameDerivedState(**loaded, *ri.instance);
    for (KeywordId k : ri.keywords) {
      ExpectSameQueryResults(**loaded, *ri.instance, Query{0, {k}});
    }
  }
}

TEST(BinarySnapshotTest, SavedBytesAreDeterministic) {
  auto fig = s3::testing::BuildFigure3();
  auto a = SaveBinarySnapshot(*fig.instance);
  auto b = SaveBinarySnapshot(*fig.instance);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

// An applied-delta generation round-trips with its generation and
// lineage, and continues to accept deltas after reload exactly like
// the never-serialized instance.
TEST(BinarySnapshotTest, AppliedGenerationRoundTripsAndStaysLive) {
  auto fig = s3::testing::BuildFigure1();
  std::shared_ptr<const S3Instance> base = std::move(fig.instance);

  InstanceDelta delta(base);
  doc::Document d("doc");
  d.AddKeywords(0, {delta.InternKeyword("fresh")});
  ASSERT_TRUE(delta.AddDocument(std::move(d), "gen1-doc", fig.u2).ok());
  ASSERT_TRUE(delta.AddSocialEdge(fig.u0, fig.u2, 0.4).ok());
  auto gen1 = base->ApplyDelta(delta);
  ASSERT_TRUE(gen1.ok());
  ASSERT_EQ((*gen1)->generation(), 1u);

  auto blob = SaveBinarySnapshot(**gen1);
  ASSERT_TRUE(blob.ok());
  auto loaded = LoadBinarySnapshot(*blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->generation(), 1u);
  EXPECT_EQ((*loaded)->lineage(), (*gen1)->lineage());
  ExpectSameDerivedState(**loaded, **gen1);

  // Same further delta against both: successors must agree bit for bit.
  auto extend = [&](std::shared_ptr<const S3Instance> snap) {
    InstanceDelta next(snap);
    doc::Document nd("doc");
    nd.AddKeywords(0, {next.InternKeyword("fresh")});
    EXPECT_TRUE(next.AddDocument(std::move(nd), "gen2-doc", fig.u1).ok());
    auto applied = snap->ApplyDelta(next);
    EXPECT_TRUE(applied.ok());
    return *applied;
  };
  auto live2 = extend(*gen1);
  auto reloaded2 = extend(*loaded);
  EXPECT_EQ(reloaded2->generation(), 2u);
  ExpectSameQueryResults(*reloaded2, *live2,
                         Query{fig.u0, {fig.kw_university}});
}

// A fresh Finalize after restoring a snapshot must not collide with
// the restored lineage token.
TEST(BinarySnapshotTest, RestoredLineageIsReserved) {
  auto fig = s3::testing::BuildFigure3();
  auto blob = SaveBinarySnapshot(*fig.instance);
  ASSERT_TRUE(blob.ok());
  auto loaded = LoadBinarySnapshot(*blob);
  ASSERT_TRUE(loaded.ok());

  auto other = s3::testing::BuildFigure3();  // runs Finalize
  EXPECT_NE(other.instance->lineage(), (*loaded)->lineage());
}

// ---- the format seam ---------------------------------------------------

TEST(SnapshotSeamTest, DetectsAndLoadsBothFormats) {
  auto fig = s3::testing::BuildFigure1();
  auto text = SaveSnapshot(*fig.instance, SnapshotFormat::kText);
  auto binary = SaveSnapshot(*fig.instance, SnapshotFormat::kBinary);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(binary.ok());

  ASSERT_TRUE(DetectSnapshotFormat(*text).ok());
  EXPECT_EQ(*DetectSnapshotFormat(*text), SnapshotFormat::kText);
  ASSERT_TRUE(DetectSnapshotFormat(*binary).ok());
  EXPECT_EQ(*DetectSnapshotFormat(*binary), SnapshotFormat::kBinary);
  EXPECT_FALSE(DetectSnapshotFormat("what even is this").ok());

  auto from_text = LoadSnapshot(*text);
  ASSERT_TRUE(from_text.ok());
  EXPECT_TRUE((*from_text)->finalized());
  // Text load rebuilds: fresh lineage, same answers.
  EXPECT_NE((*from_text)->lineage(), fig.instance->lineage());
  S3kOptions opts;
  opts.k = 5;
  auto a = S3kSearcher(**from_text, opts).Search(
      Query{fig.u1, {fig.kw_degree}});
  auto b = S3kSearcher(*fig.instance, opts).Search(
      Query{fig.u1, {fig.kw_degree}});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < b->size(); ++i) {
    EXPECT_EQ((*a)[i].node, (*b)[i].node);
  }

  auto from_binary = LoadSnapshot(*binary);
  ASSERT_TRUE(from_binary.ok());
  ExpectSameDerivedState(**from_binary, *fig.instance);
}

// ---- inspection --------------------------------------------------------

TEST(SnapshotInspectTest, ReportsSectionsAndMeta) {
  auto fig = s3::testing::BuildFigure1();
  auto blob = SaveBinarySnapshot(*fig.instance);
  ASSERT_TRUE(blob.ok());
  auto info = InspectBinarySnapshot(*blob);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kBinarySnapshotV2);
  EXPECT_EQ(info->generation, 0u);
  EXPECT_EQ(info->lineage, fig.instance->lineage());
  EXPECT_EQ(info->n_users, fig.instance->UserCount());
  EXPECT_EQ(info->n_nodes, fig.instance->docs().NodeCount());
  EXPECT_EQ(info->n_tags, fig.instance->TagCount());
  ASSERT_EQ(info->sections.size(), 17u);
  for (const auto& section : info->sections) {
    EXPECT_TRUE(section.crc_ok) << section.name;
    // Compact sections report the decoded footprint they expand to; raw
    // and aligned sections are stored as-is.
    if (std::string_view(section.encoding) == "varint-delta") {
      EXPECT_GE(section.mem_bytes, section.size) << section.name;
    } else {
      EXPECT_EQ(section.mem_bytes, section.size) << section.name;
    }
  }
  // The aligned (zero-copy) sections sit at 64-byte file offsets.
  std::vector<std::string_view> aligned;
  for (const auto& section : info->sections) {
    if (std::string_view(section.encoding) == "aligned") {
      aligned.push_back(section.name);
    }
  }
  EXPECT_EQ(aligned, (std::vector<std::string_view>{
                         "MATRIXROWPTR", "MATRIXVALS", "MATRIXDENOM",
                         "FOREST"}));
}

TEST(SnapshotInspectTest, ReportsV1Sections) {
  const std::string blob = ReadGolden("figure1_v1.snap");
  auto info = InspectBinarySnapshot(blob);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kBinarySnapshotV1);
  ASSERT_EQ(info->sections.size(), 14u);
  for (const auto& section : info->sections) {
    EXPECT_TRUE(section.crc_ok) << section.name;
    EXPECT_EQ(std::string_view(section.encoding), "raw") << section.name;
    EXPECT_EQ(section.mem_bytes, section.size) << section.name;
  }
}

TEST(SnapshotInspectTest, FlagsCorruptSection) {
  auto fig = s3::testing::BuildFigure1();
  auto blob = SaveBinarySnapshot(*fig.instance);
  ASSERT_TRUE(blob.ok());
  // Flip a byte near the end (inside the last section's payload).
  std::string corrupt = *blob;
  corrupt[corrupt.size() - 3] ^= 0x40;
  auto info = InspectBinarySnapshot(corrupt);
  ASSERT_TRUE(info.ok());
  bool any_bad = false;
  for (const auto& section : info->sections) any_bad |= !section.crc_ok;
  EXPECT_TRUE(any_bad);
  // And the loader refuses it.
  EXPECT_EQ(LoadBinarySnapshot(corrupt).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- robustness: corrupt binary input ----------------------------------

// Parameterized over the wire format: both v1 and v2 must reject every
// truncation, bit flip and garbage input. The v1 bytes are the
// committed Figure 1 fixture (v1 is read-only); v2 is written fresh.
class BinarySnapshotRobustnessTest
    : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    if (GetParam() == kBinarySnapshotV1) {
      blob_ = ReadGolden("figure1_v1.snap");
      ASSERT_FALSE(blob_.empty());
      return;
    }
    auto fig = s3::testing::BuildFigure1();
    auto blob = SaveBinarySnapshot(*fig.instance);
    ASSERT_TRUE(blob.ok());
    blob_ = std::move(*blob);
  }

  // Load must fail cleanly — InvalidArgument, no crash, no UB.
  void ExpectRejected(std::string_view bytes, const std::string& what) {
    auto loaded = LoadBinarySnapshot(bytes);
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << loaded.status().ToString();
  }

  std::string blob_;
};

INSTANTIATE_TEST_SUITE_P(Formats, BinarySnapshotRobustnessTest,
                         ::testing::Values(kBinarySnapshotV1,
                                           kBinarySnapshotV2),
                         [](const auto& info) {
                           return "v" + std::to_string(info.param);
                         });

TEST_P(BinarySnapshotRobustnessTest, TruncationsNeverCrash) {
  // Dense sweep over the header + first sections, coarse sweep beyond.
  for (size_t len = 0; len < std::min<size_t>(blob_.size(), 300); ++len) {
    ExpectRejected(std::string_view(blob_).substr(0, len),
                   "truncated to " + std::to_string(len));
  }
  for (size_t len = 300; len < blob_.size(); len += 97) {
    ExpectRejected(std::string_view(blob_).substr(0, len),
                   "truncated to " + std::to_string(len));
  }
}

TEST_P(BinarySnapshotRobustnessTest, BitFlipsNeverCrash) {
  for (size_t at = 0; at < blob_.size(); at += 13) {
    for (int bit : {0, 3, 7}) {
      std::string corrupt = blob_;
      corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << bit));
      // Every byte is either a validated header field or covered by a
      // section checksum, so any flip must be detected.
      ExpectRejected(corrupt, "bit " + std::to_string(bit) + " at byte " +
                                  std::to_string(at));
    }
  }
}

TEST_P(BinarySnapshotRobustnessTest, GarbageNeverCrashes) {
  ExpectRejected("", "empty");
  ExpectRejected("S3 v1\nUSER u\n", "text dump fed to binary loader");
  std::string junk(4096, '\0');
  for (size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<char>((i * 131 + 17) & 0xff);
  }
  ExpectRejected(junk, "pseudo-random junk");
  // Valid magic followed by junk.
  std::string magic_junk = blob_.substr(0, 8) + junk;
  ExpectRejected(magic_junk, "magic + junk");
  // Trailing garbage after a valid snapshot.
  ExpectRejected(blob_ + "tail", "trailing bytes");
}

// A *checksum-valid* but semantically hostile snapshot must still be
// rejected: rewrite a section payload and refresh its stored CRC, so
// only structural validation stands between the bytes and the engine.
TEST(BinarySnapshotConfusionTest, CrcValidKindConfusionIsRejected) {
  // Frame-walking is v1-specific: start from the committed v1 bytes.
  const std::string blob_ = ReadGolden("figure1_v1.snap");
  ASSERT_FALSE(blob_.empty());
  // Walk the frame table (8-byte magic, u32 version, u32 count, then
  // per section: u32 id, u64 size, u32 crc, payload) to the EDGES
  // section (id 10).
  auto rd32 = [&](const std::string& b, size_t at) {
    return ByteReader(std::string_view(b).substr(at, 4)).U32();
  };
  auto rd64 = [&](const std::string& b, size_t at) {
    return ByteReader(std::string_view(b).substr(at, 8)).U64();
  };
  size_t pos = 8 + 4 + 4;
  size_t edges_payload = 0, edges_size = 0, edges_crc_at = 0;
  while (pos + 16 <= blob_.size()) {
    const uint32_t id = rd32(blob_, pos);
    const uint64_t size = rd64(blob_, pos + 4);
    if (id == 10) {
      edges_crc_at = pos + 12;
      edges_payload = pos + 16;
      edges_size = static_cast<size_t>(size);
      break;
    }
    pos += 16 + static_cast<size_t>(size);
  }
  ASSERT_NE(edges_payload, 0u) << "EDGES section not found";

  // Rewrites the source of the first kCommentsOn edge (label 3) to
  // `packed` and refreshes the EDGES checksum, so only structural
  // validation stands between the bytes and the engine.
  auto rewrite_source = [&](uint32_t packed) {
    std::string corrupt = blob_;
    bool rewrote = false;
    size_t at = edges_payload + 8;  // skip the u64 edge count
    while (at + 17 <= edges_payload + edges_size) {
      if (static_cast<uint8_t>(corrupt[at]) ==
          static_cast<uint8_t>(social::EdgeLabel::kCommentsOn)) {
        std::string source;
        ByteWriter(&source).U32(packed);
        corrupt.replace(at + 1, 4, source);
        rewrote = true;
        break;
      }
      at += 17;
    }
    EXPECT_TRUE(rewrote) << "no kCommentsOn edge in the fixture";
    std::string fresh_crc;
    ByteWriter(&fresh_crc)
        .U32(Crc32(std::string_view(corrupt).substr(edges_payload,
                                                    edges_size)));
    corrupt.replace(edges_crc_at, 4, fresh_crc);
    return corrupt;
  };

  // User 0 (packed kind bits 00): in range for USERS, hostile for the
  // comments_on_ rebuild, invisible to the checksum once refreshed.
  std::string corrupt = rewrite_source(0);

  // Sanity: the refreshed checksum passes frame inspection...
  auto info = InspectBinarySnapshot(corrupt);
  ASSERT_TRUE(info.ok());
  for (const auto& section : info->sections) {
    EXPECT_TRUE(section.crc_ok) << section.name;
  }
  // ...and the loader still rejects the kind confusion.
  auto loaded = LoadBinarySnapshot(corrupt);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("kinds do not match"),
            std::string::npos)
      << loaded.status().ToString();

  // The largest fragment index: the EDGES decoder itself refuses it,
  // before the edge store would size its adjacency spine by it.
  auto far = LoadBinarySnapshot(rewrite_source((1u << 30) | 0x3fffffffu));
  ASSERT_FALSE(far.ok());
  EXPECT_NE(far.status().message().find(
                "section EDGES: edge endpoint out of range"),
            std::string::npos)
      << far.status().ToString();
}

// ---- v2 zero-copy attach -----------------------------------------------

// File offset and size of a v2 section's payload, straight from the
// section table (magic 8 + version/count/crc 12, then 36-byte entries:
// id u32, encoding u8, elem u8, reserved u16, offset u64, size u64,
// mem u64, crc u32).
std::pair<size_t, size_t> V2SectionExtent(const std::string& blob,
                                          uint32_t id) {
  const size_t entry = 8 + 12 + (id - 1) * 36;
  ByteReader r(std::string_view(blob).substr(entry, 36));
  r.Skip(8);
  const uint64_t offset = r.U64();
  const uint64_t size = r.U64();
  return {static_cast<size_t>(offset), static_cast<size_t>(size)};
}

class SnapshotAttachTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = s3::testing::BuildFigure1();
    auto blob = SaveBinarySnapshot(*fig_.instance);
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    blob_ = std::move(*blob);
  }

  s3::testing::Figure1 fig_;
  std::string blob_;
};

TEST_F(SnapshotAttachTest, MmapAttachMatchesHeapLoadBitForBit) {
  auto region = MappedRegion::FromBuffer(blob_);
  auto attached = AttachBinarySnapshot(region);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  auto heap = LoadBinarySnapshot(blob_);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();

  // The aligned sections really are views into the region (heap
  // buffers from FromBuffer are 16-byte aligned and every aligned
  // payload sits at a 64-byte file offset).
  EXPECT_TRUE((*attached)->matrix().values().is_view());
  EXPECT_TRUE((*attached)->matrix().row_ptr().is_view());
  EXPECT_TRUE((*attached)->matrix().denominators().is_view());
  EXPECT_TRUE((*attached)->components().forest().is_view());
  EXPECT_FALSE((*heap)->matrix().values().is_view());

  ExpectSameDerivedState(**attached, *fig_.instance);
  ExpectSameDerivedState(**attached, **heap);
  ExpectSameQueryResults(**attached, **heap,
                         Query{fig_.u1, {fig_.kw_degree}});
  ExpectSameQueryResults(**attached, *fig_.instance,
                         Query{fig_.u0, {fig_.kw_university, fig_.kw_ms}});
}

TEST_F(SnapshotAttachTest, DeltaChainsOnMmapBaseMatchHeapBase) {
  auto region = MappedRegion::FromBuffer(blob_);
  auto attached = AttachBinarySnapshot(region);
  ASSERT_TRUE(attached.ok());
  auto heap = LoadBinarySnapshot(blob_);
  ASSERT_TRUE(heap.ok());

  // The same two-delta chain applied to a view-backed and a heap base
  // must produce bit-identical successors: IncrementalUpdate and
  // BuildIncremental read the base (possibly through views) and write
  // only owned scratch.
  auto extend = [&](std::shared_ptr<const S3Instance> snap) {
    InstanceDelta d1(snap);
    doc::Document nd("doc");
    nd.AddKeywords(0, {d1.InternKeyword("mmap")});
    EXPECT_TRUE(d1.AddDocument(std::move(nd), "mmap-doc", fig_.u2).ok());
    EXPECT_TRUE(d1.AddSocialEdge(fig_.u0, fig_.u2, 0.25).ok());
    auto gen1 = snap->ApplyDelta(d1);
    EXPECT_TRUE(gen1.ok());
    InstanceDelta d2(*gen1);
    EXPECT_TRUE(
        d2.AddTagOnFragment(fig_.u1, fig_.d0_root, d2.InternKeyword("mmap"))
            .ok());
    auto gen2 = (*gen1)->ApplyDelta(d2);
    EXPECT_TRUE(gen2.ok());
    return *gen2;
  };
  auto from_view = extend(*attached);
  auto from_heap = extend(*heap);
  ASSERT_EQ(from_view->generation(), 2u);
  ExpectSameDerivedState(*from_view, *from_heap);
  ExpectSameQueryResults(*from_view, *from_heap,
                         Query{fig_.u1, {fig_.kw_degree}});
}

TEST_F(SnapshotAttachTest, ViewsOutliveTheRegionHandle) {
  auto region = MappedRegion::FromBuffer(blob_);
  auto attached = AttachBinarySnapshot(region);
  ASSERT_TRUE(attached.ok());
  // Dropping the caller's handle must not invalidate the views — the
  // spans pin the region.
  region.reset();
  ExpectSameQueryResults(**attached, *fig_.instance,
                         Query{fig_.u1, {fig_.kw_degree}});
}

TEST_F(SnapshotAttachTest, MisalignedRegionsFallBackToCopies) {
  for (size_t misalign : {1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    auto region = MappedRegion::FromBuffer(blob_, misalign);
    auto attached = AttachBinarySnapshot(region);
    ASSERT_TRUE(attached.ok())
        << "misalign " << misalign << ": " << attached.status().ToString();
    if (misalign % alignof(double) != 0) {
      EXPECT_FALSE((*attached)->matrix().values().is_view())
          << "misalign " << misalign;
    }
    if (misalign % alignof(uint32_t) != 0) {
      EXPECT_FALSE((*attached)->components().forest().is_view())
          << "misalign " << misalign;
    }
    ExpectSameDerivedState(**attached, *fig_.instance);
  }
}

TEST_F(SnapshotAttachTest, LazyCrcSkipsAlignedEagerCatchesIt) {
  // Corrupt one byte inside MATRIXVALS (aligned, lazily verified).
  auto [offset, size] = V2SectionExtent(blob_, 14);
  ASSERT_GT(size, 0u);
  std::string corrupt = blob_;
  corrupt[offset + size / 2] ^= 0x10;

  // Lazy attach admits it (the structural shape is intact — that is
  // the documented trade of skipping the float-array CRC pass)...
  auto lazy = AttachBinarySnapshot(MappedRegion::FromBuffer(corrupt));
  EXPECT_TRUE(lazy.ok()) << lazy.status().ToString();
  // ...eager attach and the heap loader both reject it.
  SnapshotAttachOptions eager;
  eager.eager_crc = true;
  auto checked =
      AttachBinarySnapshot(MappedRegion::FromBuffer(corrupt), eager);
  ASSERT_FALSE(checked.ok());
  EXPECT_EQ(checked.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadBinarySnapshot(corrupt).status().code(),
            StatusCode::kInvalidArgument);

  // Corruption in a *compact* section is caught even by the lazy
  // attach — those decode (and checksum) at attach time.
  auto [c_offset, c_size] = V2SectionExtent(blob_, 13);  // MATRIXCOLS
  ASSERT_GT(c_size, 0u);
  std::string compact_corrupt = blob_;
  compact_corrupt[c_offset] ^= 0x01;
  auto rejected =
      AttachBinarySnapshot(MappedRegion::FromBuffer(compact_corrupt));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotAttachTest, EagerAttachRejectsEveryTruncationAndFlip) {
  SnapshotAttachOptions eager;
  eager.eager_crc = true;
  for (size_t len = 0; len < blob_.size(); len += 61) {
    auto region = MappedRegion::FromBuffer(
        std::string_view(blob_).substr(0, len));
    auto attached = AttachBinarySnapshot(region, eager);
    ASSERT_FALSE(attached.ok()) << "truncated to " << len;
    EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument);
  }
  for (size_t at = 0; at < blob_.size(); at += 17) {
    std::string corrupt = blob_;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x20);
    auto attached =
        AttachBinarySnapshot(MappedRegion::FromBuffer(corrupt), eager);
    ASSERT_FALSE(attached.ok()) << "flip at byte " << at;
    EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument);
  }
}

// Many threads attach from one shared region and query concurrently —
// the mmap-attach leg of the TSan CI job (*Concurrent* filter).
TEST_F(SnapshotAttachTest, ConcurrentAttachAndQueryFromOneRegion) {
  auto region = MappedRegion::FromBuffer(blob_);
  // One shared pre-attached instance, queried from every thread...
  auto shared = AttachBinarySnapshot(region);
  ASSERT_TRUE(shared.ok());
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // ...plus a private attach per thread against the same region.
      auto mine = AttachBinarySnapshot(region);
      if (!mine.ok()) {
        ++failures;
        return;
      }
      S3kOptions opts;
      opts.k = 3;
      for (int i = 0; i < 25; ++i) {
        const auto& inst = (i % 2 == 0) ? **shared : **mine;
        auto r = S3kSearcher(inst, opts).Search(
            Query{static_cast<social::UserId>(t % 3), {fig_.kw_degree}});
        if (!r.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- golden fixtures ---------------------------------------------------
// Committed snapshot bytes: Figure 1 in each format, plus a v1 snapshot
// of BuildRandomInstance seed 71. A codec change that can no longer
// read them is a compatibility break, not a test to update: v1 and v2
// are both read-forever formats, and v1 is no longer written, so these
// files are the only v1 bytes the tests have.

// A golden fixture and the fresh build its bytes must reproduce.
struct GoldenCase {
  const char* name;  // test-name suffix
  const char* file;  // under tests/data
  bool random71;     // BuildRandomInstance seed 71; else Figure 1
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.file; }

class GoldenSnapshotTest : public ::testing::TestWithParam<GoldenCase> {};

INSTANTIATE_TEST_SUITE_P(
    Formats, GoldenSnapshotTest,
    ::testing::Values(GoldenCase{"v1", "figure1_v1.snap", false},
                      GoldenCase{"v2", "figure1_v2.snap", false},
                      GoldenCase{"random71_v1", "random71_v1.snap", true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(GoldenSnapshotTest, LoadsAndMatchesFreshBuild) {
  const std::string blob = ReadGolden(GetParam().file);
  ASSERT_FALSE(blob.empty());
  std::unique_ptr<S3Instance> fresh;
  std::vector<Query> queries;
  if (GetParam().random71) {
    s3::testing::RandomInstanceParams p;
    p.seed = 71;
    auto ri = s3::testing::BuildRandomInstance(p);
    fresh = std::move(ri.instance);
    for (social::UserId u = 0; u < fresh->UserCount(); ++u) {
      queries.push_back(Query{u, {ri.keywords[0]}});
      queries.push_back(Query{u, {ri.keywords[1], ri.keywords[3]}});
    }
  } else {
    auto fig = s3::testing::BuildFigure1();
    fresh = std::move(fig.instance);
    queries.push_back(Query{fig.u1, {fig.kw_degree}});
    queries.push_back(Query{fig.u0, {fig.kw_university, fig.kw_ms}});
  }

  auto loaded = LoadBinarySnapshot(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto attached = AttachBinarySnapshot(MappedRegion::FromBuffer(blob));
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  for (const S3Instance* got : {loaded->get(), attached->get()}) {
    ExpectSameDerivedState(*got, *fresh, /*check_identity=*/false);
    for (const Query& q : queries) ExpectSameQueryResults(*got, *fresh, q);
  }
}

// ---- robustness: corrupt text input ------------------------------------

TEST(TextLoaderRobustnessTest, MalformedNumbersAreErrorsNotCrashes) {
  const char* cases[] = {
      "S3 v1\nUSER u\nUSER v\nSOCIAL a b c\n",           // garbage ints
      "S3 v1\nUSER u\nUSER v\nSOCIAL 0 1 nope\n",        // garbage weight
      "S3 v1\nUSER u\nSOCIAL 99999999999999999999 0 0.5\n",  // overflow
      "S3 v1\nUSER u\nDOC d 0 notanumber\n",             // bad node count
      "S3 v1\nUSER u\nDOC d 0 2\nN - r\nN 7 child\n",    // parent OOR
      "S3 v1\nUSER u\nDOC d 0 2\nN - r\nN x child\n",    // bad parent
      "S3 v1\nUSER u\nDOC d 0 1\nN - r 12x\n",           // bad keyword id
      "S3 v1\nUSER u\nCOMMENT zero one\n",               // bad comment ids
      "S3 v1\nUSER u\nTAGF u 0 5\n",                     // garbage author
      "S3 v1\nKW a%2\n",                                 // truncated escape
      "S3 v1\nKW a%ZZ\n",                                // bad escape hex
      "S3 v1\nUSER u\nDOC d -1 1\nN - r\n",              // negative number
  };
  for (const char* dump : cases) {
    auto loaded = LoadInstance(dump);
    ASSERT_FALSE(loaded.ok()) << dump;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << dump;
  }
}

TEST(TextLoaderRobustnessTest, BitFlippedDumpNeverCrashes) {
  auto fig = s3::testing::BuildFigure3();
  std::string dump = SaveInstance(*fig.instance);
  for (size_t at = 0; at < dump.size(); at += 7) {
    std::string corrupt = dump;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x15);
    auto loaded = LoadInstance(corrupt);  // may succeed or fail...
    if (loaded.ok()) {
      // ...but success must yield a finalizable instance.
      EXPECT_TRUE((*loaded)->Finalize().ok());
    }
  }
}

// ---- WAL record framing ------------------------------------------------

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  auto fig = s3::testing::BuildFigure1();
  std::shared_ptr<const S3Instance> base = std::move(fig.instance);

  InstanceDelta delta(base);
  doc::Document d("doc");
  uint32_t child = d.AddChild(0, "para");
  d.AddKeywords(child, {delta.InternKeyword("walword")});
  auto new_doc = delta.AddDocument(std::move(d), "wal-doc", fig.u3);
  ASSERT_TRUE(new_doc.ok());
  ASSERT_TRUE(delta.AddComment(*new_doc, fig.d0_3_2).ok());
  ASSERT_TRUE(delta.AddTagOnFragment(fig.u0, fig.d0_5_1,
                                     delta.InternKeyword("walword"))
                  .ok());
  ASSERT_TRUE(delta.AddSocialEdge(fig.u0, fig.u1, 0.25).ok());

  std::string wal;
  delta.EncodeWalRecord(&wal);
  auto info = InstanceDelta::PeekWalRecord(wal);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->base_generation, 0u);
  EXPECT_EQ(info->base_lineage, base->lineage());
  EXPECT_EQ(info->record_bytes, wal.size());

  size_t consumed = 0;
  auto decoded = InstanceDelta::DecodeWalRecord(wal, &consumed, base);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(consumed, wal.size());
  EXPECT_EQ(decoded->op_count(), delta.op_count());

  // Applying original and decoded deltas yields identical successors.
  auto a = base->ApplyDelta(delta);
  auto b = base->ApplyDelta(*decoded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameDerivedState(**b, **a);
}

TEST(WalRecordTest, CorruptRecordsAreRejected) {
  auto fig = s3::testing::BuildFigure3();
  std::shared_ptr<const S3Instance> base = std::move(fig.instance);
  InstanceDelta delta(base);
  ASSERT_TRUE(delta.AddSocialEdge(fig.u0, fig.u2, 0.5).ok());
  std::string wal;
  delta.EncodeWalRecord(&wal);

  size_t consumed = 0;
  for (size_t len = 0; len < wal.size(); ++len) {
    EXPECT_FALSE(InstanceDelta::PeekWalRecord(
                     std::string_view(wal).substr(0, len))
                     .ok())
        << "truncated to " << len;
  }
  for (size_t at = 0; at < wal.size(); ++at) {
    std::string corrupt = wal;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x08);
    EXPECT_FALSE(
        InstanceDelta::DecodeWalRecord(corrupt, &consumed, base).ok())
        << "flip at " << at;
  }

  // A record decoded against the wrong generation is refused.
  auto next = base->ApplyDelta(delta);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(InstanceDelta::DecodeWalRecord(wal, &consumed, *next).ok());
}

// Two records back to back are self-delimiting.
TEST(WalRecordTest, RecordsAreSelfDelimiting) {
  auto fig = s3::testing::BuildFigure3();
  std::shared_ptr<const S3Instance> base = std::move(fig.instance);

  InstanceDelta first(base);
  ASSERT_TRUE(first.AddSocialEdge(fig.u0, fig.u2, 0.5).ok());
  std::string wal;
  first.EncodeWalRecord(&wal);
  const size_t first_bytes = wal.size();

  auto gen1 = base->ApplyDelta(first);
  ASSERT_TRUE(gen1.ok());
  InstanceDelta second(*gen1);
  ASSERT_TRUE(second.AddSocialEdge(fig.u2, fig.u0, 0.7).ok());
  second.EncodeWalRecord(&wal);

  size_t consumed = 0;
  auto d1 = InstanceDelta::DecodeWalRecord(wal, &consumed, base);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(consumed, first_bytes);
  auto applied1 = base->ApplyDelta(*d1);
  ASSERT_TRUE(applied1.ok());

  auto d2 = InstanceDelta::DecodeWalRecord(
      std::string_view(wal).substr(consumed), &consumed, *applied1);
  ASSERT_TRUE(d2.ok()) << d2.status().ToString();
  auto applied2 = (*applied1)->ApplyDelta(*d2);
  ASSERT_TRUE(applied2.ok());
  EXPECT_EQ((*applied2)->generation(), 2u);
}

}  // namespace
}  // namespace s3::core

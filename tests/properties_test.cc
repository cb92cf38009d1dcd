// Property-style sweeps (TEST_P) over random instances: the score
// feasibility properties of §3.3 and the structural invariants of the
// engine must hold for every seed and parameterization, not just the
// hand-built fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/mmap_file.h"
#include "core/instance_delta.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "core/snapshot_binary.h"
#include "test_fixtures.h"

namespace s3::core {
namespace {

struct SweepCase {
  uint64_t seed;
  double gamma;
};

class RandomInstanceSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    s3::testing::RandomInstanceParams p;
    p.seed = GetParam().seed;
    p.n_users = 8;
    p.n_docs = 10;
    p.n_tags = 8;
    ri_ = s3::testing::BuildRandomInstance(p);
  }
  s3::testing::RandomInstance ri_;
};

TEST_P(RandomInstanceSweep, MatrixRowsSubStochastic) {
  const auto& m = ri_.instance->matrix();
  for (uint32_t row = 0; row < m.rows(); ++row) {
    double sum = m.RowSum(row);
    EXPECT_GE(sum, -1e-12);
    EXPECT_LE(sum, 1.0 + 1e-9) << "row " << row;
    if (!m.Row(row).empty()) {
      EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << row;
    }
  }
}

TEST_P(RandomInstanceSweep, ProxMonotoneAndBounded) {
  const double gamma = GetParam().gamma;
  std::vector<double> prev(ri_.instance->layout().total(), 0.0);
  for (size_t len = 1; len <= 5; ++len) {
    auto prox = NaiveProx(*ri_.instance, 0, len, gamma);
    for (size_t row = 0; row < prox.size(); ++row) {
      EXPECT_GE(prox[row], prev[row] - 1e-12);
      EXPECT_LE(prox[row], 1.0 + 1e-9);
    }
    prev = std::move(prox);
  }
}

TEST_P(RandomInstanceSweep, AttenuationBoundHolds) {
  const double gamma = GetParam().gamma;
  for (size_t n = 1; n <= 4; ++n) {
    auto shorter = NaiveProx(*ri_.instance, 0, n, gamma);
    auto longer = NaiveProx(*ri_.instance, 0, n + 1, gamma);
    const double bound = TailBound(gamma, n);
    for (size_t row = 0; row < shorter.size(); ++row) {
      EXPECT_LE(longer[row] - shorter[row], bound + 1e-12)
          << "n=" << n << " row=" << row;
    }
  }
}

TEST_P(RandomInstanceSweep, MatrixEqualsPathEnumeration) {
  const double gamma = GetParam().gamma;
  const size_t max_len = 5;
  auto naive = NaiveProx(*ri_.instance, 0, max_len, gamma);

  const auto& m = ri_.instance->matrix();
  social::Frontier f, g;
  f.Init(m.rows());
  g.Init(m.rows());
  std::vector<double> prox(m.rows(), 0.0);
  uint32_t seeker_row = ri_.instance->RowOfUser(0);
  prox[seeker_row] = CGamma(gamma);
  f.Set(seeker_row, 1.0);
  for (size_t n = 1; n <= max_len; ++n) {
    m.Propagate(f, g);
    std::swap(f, g);
    for (uint32_t row : f.nonzero) {
      prox[row] += CGamma(gamma) * f.values[row] /
                   std::pow(gamma, static_cast<double>(n));
    }
  }
  for (size_t row = 0; row < prox.size(); ++row) {
    EXPECT_NEAR(prox[row], naive[row], 1e-9) << "row " << row;
  }
}

TEST_P(RandomInstanceSweep, SearchBoundsBracketTruth) {
  const double gamma = GetParam().gamma;
  S3kOptions opts;
  opts.score.gamma = gamma;
  opts.k = 5;
  opts.max_iterations = 300;
  S3kSearcher searcher(*ri_.instance, opts);

  // Converged prox for ground truth.
  const auto& m = ri_.instance->matrix();
  social::Frontier f, g;
  f.Init(m.rows());
  g.Init(m.rows());
  std::vector<double> prox(m.rows(), 0.0);
  uint32_t seeker_row = ri_.instance->RowOfUser(1 % 8);
  prox[seeker_row] = CGamma(gamma);
  f.Set(seeker_row, 1.0);
  for (size_t n = 1; n <= 1500 && !f.nonzero.empty(); ++n) {
    m.Propagate(f, g);
    std::swap(f, g);
    for (uint32_t row : f.nonzero) {
      prox[row] += CGamma(gamma) * f.values[row] /
                   std::pow(gamma, static_cast<double>(n));
    }
  }

  Query q{1 % 8, {ri_.keywords[GetParam().seed % ri_.keywords.size()]}};
  SearchStats st;
  auto result = searcher.Search(q, &st);
  ASSERT_TRUE(result.ok());
  QueryExtension ext(1);
  for (KeywordId k : ri_.instance->ExtendKeyword(q.keywords[0])) {
    ext[0].insert(k);
  }
  ConnectionBuilder builder(*ri_.instance, opts.score.eta);
  for (const ResultEntry& r : *result) {
    auto cc = builder.Build(ri_.instance->components().Of(
                                social::EntityId::Fragment(r.node)),
                            ext);
    for (const Candidate& c : cc.candidates) {
      if (c.node != r.node) continue;
      double truth = CandidateScore(c, prox);
      EXPECT_LE(r.lower, truth + 1e-7);
      EXPECT_GE(r.upper, truth - 1e-7);
    }
  }
}

TEST_P(RandomInstanceSweep, CandidateUniverseRespectsComponents) {
  // Every candidate's component must contain every query keyword (or
  // a member of its extension) — the GetDocuments pruning invariant.
  S3kOptions opts;
  opts.k = 3;
  S3kSearcher searcher(*ri_.instance, opts);
  Query q{0, {ri_.keywords[0]}};
  SearchStats st;
  auto result = searcher.Search(q, &st);
  ASSERT_TRUE(result.ok());
  std::unordered_set<KeywordId> accepted;
  for (KeywordId k : ri_.instance->ExtendKeyword(q.keywords[0])) {
    accepted.insert(k);
  }
  auto plan = BuildCandidatePlan(*ri_.instance, q.keywords,
                                opts.use_semantics, opts.score.eta);
  ASSERT_TRUE(plan.ok());
  const std::vector<doc::NodeId> nodes = s3::testing::CandidateNodes(*plan);
  EXPECT_EQ(nodes.size(), st.candidates_total);
  for (doc::NodeId n : nodes) {
    social::ComponentId c =
        ri_.instance->components().Of(social::EntityId::Fragment(n));
    bool found = false;
    for (KeywordId k : accepted) {
      for (social::ComponentId ck :
           ri_.instance->ComponentsWithKeyword(k)) {
        if (ck == c) {
          found = true;
          break;
        }
      }
      if (found) break;
    }
    EXPECT_TRUE(found) << "candidate " << n << " in component " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomInstanceSweep,
    ::testing::Values(SweepCase{11, 1.5}, SweepCase{12, 1.5},
                      SweepCase{13, 2.0}, SweepCase{14, 1.25},
                      SweepCase{15, 3.0}, SweepCase{16, 1.1},
                      SweepCase{17, 1.5}, SweepCase{18, 2.5},
                      SweepCase{19, 1.75}, SweepCase{20, 1.5}));

// ---- Sliced (SELL-4-σ) pull: bit-for-bit against push ------------------------

// Random frontier with `n_rows` ascending rows of mass; each row holds
// a value in (0, 1] on a random nonempty subset of lanes, and the last
// lane of a multi-lane frontier stays empty (a dropped-out seeker).
void FillFrontier(social::BatchFrontier& f, size_t total, size_t lanes,
                  size_t n_rows, Rng& rng) {
  f.Init(total, lanes);
  std::vector<uint32_t> rows(total);
  for (uint32_t r = 0; r < total; ++r) rows[r] = r;
  for (size_t i = 0; i < n_rows; ++i) {  // partial Fisher-Yates
    std::swap(rows[i], rows[i + rng.Uniform(total - i)]);
  }
  rows.resize(n_rows);
  std::sort(rows.begin(), rows.end());
  const size_t live = lanes > 1 ? lanes - 1 : 1;
  for (uint32_t r : rows) {
    const size_t first = rng.Uniform(live);
    f.Set(r, first, 1.0 - rng.NextDouble());
    for (size_t l = 0; l < live; ++l) {
      if (l != first && rng.Chance(0.5)) f.Set(r, l, 1.0 - rng.NextDouble());
    }
  }
}

bool SameBits(const social::BatchFrontier& a, const social::BatchFrontier& b) {
  return a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(),
                     a.values.size() * sizeof(double)) == 0 &&
         a.nonzero == b.nonzero && a.lane_mass == b.lane_mass;
}

// Sliced pull against the CSR push and against the single-seeker
// Propagate of every lane, over lane counts and frontier densities from
// one row to all rows.
void ExpectSweepsAgree(const social::TransitionMatrix& m, uint64_t seed) {
  const size_t total = m.rows();
  Rng rng(seed);
  social::BatchFrontier in, pull, push;
  social::Frontier lane_in, lane_out;
  lane_in.Init(total);
  lane_out.Init(total);
  for (size_t lanes : {1, 2, 4, 8, 12}) {
    pull.Init(total, lanes);
    push.Init(total, lanes);
    for (size_t n_rows : {size_t{1}, total / 50 + 1, total / 8 + 1,
                          total / 2 + 1, total}) {
      n_rows = std::min(n_rows, total);
      FillFrontier(in, total, lanes, n_rows, rng);
      m.PropagateBatchPull(in, pull);
      m.PropagateBatchPush(in, push);
      EXPECT_TRUE(SameBits(pull, push))
          << "lanes " << lanes << " rows " << n_rows;
      EXPECT_TRUE(std::is_sorted(pull.nonzero.begin(), pull.nonzero.end()));
      for (size_t l = 0; l < lanes; ++l) {
        lane_in.Init(total);
        for (uint32_t r = 0; r < total; ++r) {
          lane_in.Set(r, in.values[r * lanes + l]);
        }
        m.Propagate(lane_in, lane_out);
        for (uint32_t r = 0; r < total; ++r) {
          const double got = pull.values[r * lanes + l];
          ASSERT_EQ(0, std::memcmp(&got, &lane_out.values[r], sizeof(double)))
              << "lanes " << lanes << " rows " << n_rows << " lane " << l
              << " row " << r;
        }
      }
    }
  }
}

void ExpectSameMatrix(const social::TransitionMatrix& a,
                      const social::TransitionMatrix& b) {
  auto same = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0;
  };
  ASSERT_EQ(a.rows(), b.rows());
  EXPECT_TRUE(same(a.row_ptr(), b.row_ptr()));
  EXPECT_TRUE(same(a.col_index(), b.col_index()));
  EXPECT_TRUE(same(a.values(), b.values()));
  const social::SlicedTranspose& sa = a.sliced();
  const social::SlicedTranspose& sb = b.sliced();
  EXPECT_TRUE(same(sa.ptr, sb.ptr));
  EXPECT_TRUE(same(sa.rows, sb.rows));
  EXPECT_TRUE(same(sa.cols, sb.cols));
  EXPECT_TRUE(same(sa.vals, sb.vals));
  EXPECT_TRUE(same(sa.window, sb.window));
}

social::TransitionMatrix FreshBuild(const S3Instance& inst) {
  social::TransitionMatrix m;
  m.Build(inst.layout(), inst.edges(), inst.docs());
  return m;
}

// Rows of `m` with no in-edge (absent from every slice).
size_t ZeroInDegreeRows(const social::TransitionMatrix& m) {
  size_t sliced = 0;
  for (uint32_t r : m.sliced().rows) sliced += r != social::pk::kNoRow;
  return m.rows() - sliced;
}

TEST(SlicedPullPropertyTest, RandomInstancesMatchPushBitForBit) {
  bool saw_ragged = false, saw_zero_in_degree = false;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    s3::testing::RandomInstanceParams p;
    p.seed = 300 + seed;
    p.n_users = 5 + static_cast<uint32_t>(seed * 7 % 23);
    p.n_docs = 6 + static_cast<uint32_t>(seed * 5 % 17);
    p.n_tags = 4 + static_cast<uint32_t>(seed % 6);
    p.social_density = 0.05 + 0.05 * static_cast<double>(seed % 4);
    auto ri = s3::testing::BuildRandomInstance(p);
    const auto& m = ri.instance->matrix();
    saw_ragged = saw_ragged || m.rows() % social::pk::kSliceRows != 0;
    saw_zero_in_degree = saw_zero_in_degree || ZeroInDegreeRows(m) > 0;
    SCOPED_TRACE("seed " + std::to_string(p.seed));
    ExpectSweepsAgree(m, seed);
  }
  EXPECT_TRUE(saw_ragged);
  EXPECT_TRUE(saw_zero_in_degree);
}

TEST(SlicedPullPropertyTest, HubRowFarWiderThanItsWindow) {
  // User 0 is followed by everyone, so its row's slice is many times
  // wider than the rest of its σ window; the other slots of that slice
  // are mostly padding.
  S3Instance inst;
  Rng rng(77);
  const uint32_t n_users = 203;  // rows not a multiple of 4
  for (uint32_t u = 0; u < n_users; ++u) inst.AddUser("u" + std::to_string(u));
  KeywordId kw = inst.InternKeyword("k");
  for (uint32_t u = 1; u < n_users; ++u) {
    ASSERT_TRUE(inst.AddSocialEdge(u, 0, 0.2 + 0.8 * rng.NextDouble()).ok());
    if (rng.Chance(0.3)) {
      ASSERT_TRUE(inst.AddSocialEdge(
                          u, 1 + static_cast<uint32_t>(rng.Uniform(n_users - 1)),
                          0.5)
                      .ok());
    }
  }
  for (int i = 0; i < 5; ++i) {
    doc::Document d("doc");
    d.AddKeywords(d.AddChild(0, "p"), {kw});
    ASSERT_TRUE(inst.AddDocument(std::move(d), "d" + std::to_string(i),
                                 static_cast<social::UserId>(i))
                    .ok());
  }
  ASSERT_TRUE(inst.Finalize().ok());
  const auto& m = inst.matrix();
  const social::SlicedTranspose& t = m.sliced();
  const uint32_t hub = inst.RowOfUser(0);
  const auto at = std::find(t.rows.begin(), t.rows.end(), hub);
  ASSERT_NE(at, t.rows.end());
  const size_t slice = static_cast<size_t>(at - t.rows.begin()) /
                       social::pk::kSliceRows;
  const uint64_t width =
      (t.ptr[slice + 1] - t.ptr[slice]) / social::pk::kSliceRows;
  EXPECT_GE(width, 4 * social::pk::kSortWindow);
  ExpectSweepsAgree(m, 5);
}

TEST(SlicedPullPropertyTest, RebuiltAfterDeltaEqualsFreshBuild) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    s3::testing::RandomInstanceParams p;
    p.seed = 400 + seed;
    p.n_users = 9;
    p.n_docs = 10;
    auto ri = s3::testing::BuildRandomInstance(p);
    std::shared_ptr<const S3Instance> snap = std::move(ri.instance);
    Rng rng(seed);
    for (int gen = 0; gen < 2; ++gen) {
      InstanceDelta delta(snap);
      const auto users = static_cast<social::UserId>(snap->UserCount());
      for (int e = 0; e < 3; ++e) {
        (void)delta.AddSocialEdge(static_cast<social::UserId>(rng.Uniform(users)),
                                  static_cast<social::UserId>(rng.Uniform(users)),
                                  0.1 + 0.9 * rng.NextDouble());
      }
      doc::Document d("doc");
      d.AddKeywords(d.AddChild(0, "p"), {delta.InternKeyword("fresh")});
      auto id = delta.AddDocument(std::move(d),
                                  "delta-" + std::to_string(gen),
                                  static_cast<social::UserId>(rng.Uniform(users)));
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(delta.AddComment(*id, 0).ok());
      ASSERT_TRUE(delta
                      .AddTagOnFragment(
                          static_cast<social::UserId>(rng.Uniform(users)), 1,
                          delta.InternKeyword("tagged"))
                      .ok());
      auto next = snap->ApplyDelta(delta);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      snap = *next;
      SCOPED_TRACE("seed " + std::to_string(seed) + " gen " +
                   std::to_string(gen));
      ExpectSameMatrix(snap->matrix(), FreshBuild(*snap));
      ExpectSweepsAgree(snap->matrix(), seed * 10 + gen);
    }
  }
}

TEST(SlicedPullPropertyTest, RebuiltAfterV2AttachEqualsFreshBuild) {
  s3::testing::RandomInstanceParams p;
  p.seed = 501;
  p.n_users = 14;
  p.n_docs = 12;
  auto ri = s3::testing::BuildRandomInstance(p);
  auto blob = SaveBinarySnapshot(*ri.instance);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto attached = AttachBinarySnapshot(MappedRegion::FromBuffer(*blob));
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  const auto& m = (*attached)->matrix();
  EXPECT_TRUE(m.values().is_view());
  ExpectSameMatrix(m, FreshBuild(**attached));
  ExpectSameMatrix(m, ri.instance->matrix());
  ExpectSweepsAgree(m, 9);
}

TEST(SlicedPullPropertyTest, AdoptRejectsRowsBeyondTheGatherIndex) {
  social::TransitionMatrix m;
  Status st = m.Adopt({}, {}, {}, {}, social::kMaxMatrixRows + 1);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("gather"), std::string::npos) << st.ToString();
  // The limit itself is addressable; this one fails on shape instead.
  st = m.Adopt({}, {}, {}, {}, social::kMaxMatrixRows);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message().find("gather"), std::string::npos) << st.ToString();
}

// ---- Tie handling -------------------------------------------------------------

TEST(TieBreakTest, SymmetricTwinsResolveWithoutDivergence) {
  // Two identical documents posted by the same user: equal scores.
  // The search must terminate and return both (any order).
  S3Instance inst;
  auto u = inst.AddUser("u");
  KeywordId kw = inst.InternKeyword("x");
  for (int i = 0; i < 2; ++i) {
    doc::Document d("doc");
    d.AddKeywords(0, {kw});
    (void)inst.AddDocument(std::move(d), "d" + std::to_string(i), u)
        .value();
  }
  ASSERT_TRUE(inst.Finalize().ok());
  S3kOptions opts;
  opts.k = 2;
  S3kSearcher searcher(inst, opts);
  SearchStats st;
  auto result = searcher.Search(Query{u, {kw}}, &st);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_TRUE(st.converged);
  EXPECT_NEAR((*result)[0].lower, (*result)[1].lower, 1e-9);
}

TEST(TieBreakTest, AncestorDescendantTieExcludesOne) {
  // A single-child chain where the keyword sits in the leaf: the leaf
  // (η⁰) beats the root (η¹), and only one of the two vertical
  // neighbors may be returned.
  S3Instance inst;
  auto u = inst.AddUser("u");
  KeywordId kw = inst.InternKeyword("x");
  doc::Document d("doc");
  uint32_t child = d.AddChild(0, "c");
  d.AddKeywords(child, {kw});
  (void)inst.AddDocument(std::move(d), "d0", u).value();
  ASSERT_TRUE(inst.Finalize().ok());
  S3kOptions opts;
  opts.k = 2;
  S3kSearcher searcher(inst, opts);
  auto result = searcher.Search(Query{u, {kw}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
}

}  // namespace
}  // namespace s3::core

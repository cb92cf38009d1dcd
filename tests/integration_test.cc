// End-to-end tests: generated instances -> workloads -> S3k + TopkS ->
// quality metrics. This is the Fig. 5/8 pipeline at test scale.
#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/flatten.h"
#include "baseline/topks.h"
#include "core/s3k.h"
#include "eval/metrics.h"
#include "test_fixtures.h"
#include "workload/business_gen.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"
#include "workload/review_gen.h"

namespace s3 {
namespace {

workload::GenResult SmallInstance() {
  workload::MicroblogParams p;
  p.seed = 21;
  p.n_users = 150;
  p.n_tweets = 400;
  p.vocab_size = 400;
  p.n_hashtags = 30;
  p.ontology.n_classes = 25;
  p.ontology.n_entities = 150;
  return workload::GenerateMicroblog(p);
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { gen_ = SmallInstance(); }
  workload::GenResult gen_;
};

TEST_F(PipelineTest, S3kAnswersAllWorkloads) {
  for (auto freq : {workload::Frequency::kRare, workload::Frequency::kCommon}) {
    for (size_t l : {1u, 3u}) {
      workload::WorkloadSpec spec;
      spec.freq = freq;
      spec.n_keywords = l;
      spec.k = 5;
      spec.n_queries = 10;
      auto qs = workload::BuildWorkload(*gen_.instance,
                                        gen_.semantic_anchors, spec);
      core::S3kOptions opts;
      opts.k = spec.k;
      opts.max_iterations = 128;
      core::S3kSearcher searcher(*gen_.instance, opts);
      size_t converged = 0;
      for (const auto& q : qs.queries) {
        core::SearchStats stats;
        auto result = searcher.Search(q, &stats);
        ASSERT_TRUE(result.ok()) << qs.label;
        if (stats.converged) ++converged;
        EXPECT_LE(result->size(), spec.k);
        // No vertical neighbors in any answer.
        for (size_t i = 0; i < result->size(); ++i) {
          for (size_t j = i + 1; j < result->size(); ++j) {
            EXPECT_FALSE(gen_.instance->docs().AreVerticalNeighbors(
                (*result)[i].node, (*result)[j].node));
          }
        }
        // Upper bounds are sorted (results ranked by best possible
        // score).
        for (size_t i = 0; i + 1 < result->size(); ++i) {
          EXPECT_GE((*result)[i].upper, (*result)[i + 1].upper - 1e-9);
        }
      }
      // The threshold-based stop should fire for most queries (it
      // always did in the paper's experiments).
      EXPECT_GT(converged, qs.queries.size() / 2) << qs.label;
    }
  }
}

TEST_F(PipelineTest, SemanticsWidenCandidates) {
  workload::WorkloadSpec spec;
  spec.n_keywords = 1;
  spec.k = 5;
  spec.n_queries = 20;
  spec.anchor_prob = 1.0;  // force semantic anchors
  auto qs = workload::BuildWorkload(*gen_.instance, gen_.semantic_anchors,
                                    spec);
  core::S3kOptions sem;
  core::S3kOptions plain;
  plain.use_semantics = false;
  size_t wider = 0;
  for (const auto& q : qs.queries) {
    core::SearchStats st_sem, st_plain;
    (void)core::S3kSearcher(*gen_.instance, sem).Search(q, &st_sem);
    (void)core::S3kSearcher(*gen_.instance, plain).Search(q, &st_plain);
    EXPECT_GE(st_sem.candidates_total, st_plain.candidates_total);
    if (st_sem.candidates_total > st_plain.candidates_total) ++wider;
  }
  EXPECT_GT(wider, 0u);
}

TEST_F(PipelineTest, TopkSComparisonAndMetrics) {
  baseline::Flattened flat = baseline::FlattenToUit(*gen_.instance);
  ASSERT_GT(flat.uit.ItemCount(), 0u);

  workload::WorkloadSpec spec;
  spec.freq = workload::Frequency::kCommon;
  spec.n_keywords = 1;
  spec.k = 5;
  spec.n_queries = 15;
  auto qs = workload::BuildWorkload(*gen_.instance, gen_.semantic_anchors,
                                    spec);

  core::S3kOptions s3k_opts;
  s3k_opts.k = spec.k;
  core::S3kSearcher s3k(*gen_.instance, s3k_opts);
  baseline::TopkSOptions tk_opts;
  tk_opts.k = spec.k;
  baseline::TopkSSearcher topks(flat.uit, tk_opts);

  for (const auto& q : qs.queries) {
    core::SearchStats st;
    auto rs = s3k.Search(q, &st);
    ASSERT_TRUE(rs.ok());
    baseline::TopkSStats tst;
    auto rt = topks.Search(q.seeker, q.keywords, &tst);
    ASSERT_TRUE(rt.ok());

    // Map S3k results into item space and compute Fig. 8 metrics.
    std::vector<uint64_t> s3k_items, topks_items;
    for (const auto& r : *rs) {
      baseline::ItemId item = flat.ItemOfNode(*gen_.instance, r.node);
      ASSERT_NE(item, baseline::kInvalidItem);
      if (std::find(s3k_items.begin(), s3k_items.end(), item) ==
          s3k_items.end()) {
        s3k_items.push_back(item);
      }
    }
    for (const auto& r : *rt) topks_items.push_back(r.item);

    double l1 = eval::SpearmanFootRuleNormalized(s3k_items, topks_items);
    double inter = eval::IntersectionRatio(s3k_items, topks_items);
    EXPECT_GE(l1, 0.0);
    EXPECT_LE(l1, 1.0);
    EXPECT_GE(inter, 0.0);
    EXPECT_LE(inter, 1.0);

    // Graph reachability ingredients.
    auto plan = core::BuildCandidatePlan(*gen_.instance, q.keywords,
                                         s3k_opts.use_semantics,
                                         s3k_opts.score.eta);
    ASSERT_TRUE(plan.ok());
    std::vector<uint64_t> candidate_items, examined;
    for (doc::NodeId n : s3::testing::CandidateNodes(*plan)) {
      baseline::ItemId item = flat.ItemOfNode(*gen_.instance, n);
      if (item != baseline::kInvalidItem) candidate_items.push_back(item);
    }
    for (auto i : tst.examined_items) examined.push_back(i);
    double unreachable =
        eval::UnreachableFraction(candidate_items, examined);
    EXPECT_GE(unreachable, 0.0);
    EXPECT_LE(unreachable, 1.0);
  }
}

TEST(ReviewPipelineTest, I2StyleInstanceAnswersQueries) {
  workload::ReviewParams p;
  p.seed = 31;
  p.n_users = 80;
  p.n_movies = 40;
  auto gen = workload::GenerateReviewSite(p);
  workload::WorkloadSpec spec;
  spec.n_queries = 10;
  spec.k = 5;
  auto qs = workload::BuildWorkload(*gen.instance, {}, spec);
  core::S3kOptions opts;
  opts.k = 5;
  core::S3kSearcher searcher(*gen.instance, opts);
  size_t nonempty = 0;
  for (const auto& q : qs.queries) {
    auto r = searcher.Search(q);
    ASSERT_TRUE(r.ok());
    if (!r->empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0u);
}

TEST(BusinessPipelineTest, I3StyleInstanceAnswersQueries) {
  workload::BusinessParams p;
  p.seed = 32;
  p.n_users = 90;
  p.n_businesses = 30;
  p.ontology.n_classes = 12;
  p.ontology.n_entities = 50;
  auto gen = workload::GenerateBusinessReviews(p);
  workload::WorkloadSpec spec;
  spec.n_queries = 10;
  spec.k = 5;
  auto qs =
      workload::BuildWorkload(*gen.instance, gen.semantic_anchors, spec);
  core::S3kOptions opts;
  opts.k = 5;
  core::S3kSearcher searcher(*gen.instance, opts);
  for (const auto& q : qs.queries) {
    ASSERT_TRUE(searcher.Search(q).ok());
  }
}

}  // namespace
}  // namespace s3

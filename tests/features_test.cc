// Tests for the extensibility features: RDF-imported social edges
// (paper §2.2) and deadline-bounded anytime termination (§4.1).
#include <gtest/gtest.h>

#include "core/s3_instance.h"
#include "core/s3k.h"
#include "test_fixtures.h"

namespace s3 {
namespace {

// ---- RDF-imported social edges ----------------------------------------------

class RdfSocialTest : public ::testing::Test {
 protected:
  core::S3Instance inst_;
  social::UserId a_ = 0, b_ = 0;

  void SetUp() override {
    a_ = inst_.AddUser("user:a");
    b_ = inst_.AddUser("user:b");
  }

  size_t SocialEdgeCount() {
    return inst_.edges().CountLabel(social::EdgeLabel::kSocial);
  }
};

TEST_F(RdfSocialTest, SubPropertyAssertionBecomesEdge) {
  // workedWith ≺sp S3:social (the paper's §2.2 example).
  inst_.DeclareSubProperty("workedWith", "S3:social");
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("workedWith"),
                        inst_.terms().InternUri("user:b"));
  ASSERT_TRUE(inst_.Finalize().ok());
  EXPECT_EQ(inst_.rdf_social_edges(), 1u);
  EXPECT_EQ(SocialEdgeCount(), 1u);
  const auto& e = inst_.edges().edges()[0];
  EXPECT_EQ(e.source, social::EntityId::User(a_));
  EXPECT_EQ(e.target, social::EntityId::User(b_));
  EXPECT_DOUBLE_EQ(e.weight, 1.0);
}

TEST_F(RdfSocialTest, TransitiveSubPropertyChainImports) {
  inst_.DeclareSubProperty("closeColleague", "colleague");
  inst_.DeclareSubProperty("colleague", "S3:social");
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("closeColleague"),
                        inst_.terms().InternUri("user:b"));
  ASSERT_TRUE(inst_.Finalize().ok());
  EXPECT_EQ(inst_.rdf_social_edges(), 1u);
}

TEST_F(RdfSocialTest, WeightedAssertionKeepsWeight) {
  // Weighted triples do not saturate, but they must still import.
  inst_.DeclareSubProperty("similarTo", "S3:social");
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("similarTo"),
                        inst_.terms().InternUri("user:b"), 0.4);
  ASSERT_TRUE(inst_.Finalize().ok());
  ASSERT_EQ(inst_.rdf_social_edges(), 1u);
  EXPECT_DOUBLE_EQ(inst_.edges().edges()[0].weight, 0.4);
}

TEST_F(RdfSocialTest, NonUserEndpointsIgnored) {
  inst_.DeclareSubProperty("workedWith", "S3:social");
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("workedWith"),
                        inst_.terms().InternUri("company:acme"));
  ASSERT_TRUE(inst_.Finalize().ok());
  EXPECT_EQ(inst_.rdf_social_edges(), 0u);
}

TEST_F(RdfSocialTest, UnrelatedPropertiesIgnored) {
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("knowsAbout"),
                        inst_.terms().InternUri("user:b"));
  ASSERT_TRUE(inst_.Finalize().ok());
  EXPECT_EQ(inst_.rdf_social_edges(), 0u);
}

TEST_F(RdfSocialTest, ImportedEdgeAffectsSearch) {
  // b posts a document; a is connected to b only through RDF.
  KeywordId kw = inst_.InternKeyword("topic");
  doc::Document d("doc");
  d.AddKeywords(0, {kw});
  (void)inst_.AddDocument(std::move(d), "d0", b_).value();
  inst_.DeclareSubProperty("workedWith", "S3:social");
  inst_.rdf_graph().Add(inst_.terms().InternUri("user:a"),
                        inst_.terms().InternUri("workedWith"),
                        inst_.terms().InternUri("user:b"));
  ASSERT_TRUE(inst_.Finalize().ok());

  core::S3kOptions opts;
  opts.k = 1;
  core::S3kSearcher searcher(inst_, opts);
  auto result = searcher.Search(core::Query{a_, {kw}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_GT((*result)[0].lower, 0.0);
}

// ---- Deadline ---------------------------------------------------------------

TEST(TimeBudgetTest, TinyBudgetStillReturns) {
  auto fig = testing::BuildFigure1();
  core::S3kOptions opts;
  opts.k = 3;
  core::S3kSearcher searcher(*fig.instance, opts);
  core::QueryOptions qopts;
  qopts.deadline_seconds = 1e-9;  // expire after the first iteration
  core::SearchStats st;
  auto result = searcher.Search(
      core::QueryRequest(fig.u1, {fig.kw_university}, qopts), &st);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(st.iterations, 2u);
}

TEST(TimeBudgetTest, GenerousBudgetConverges) {
  auto fig = testing::BuildFigure1();
  core::S3kOptions opts;
  opts.k = 3;
  core::S3kSearcher searcher(*fig.instance, opts);
  core::QueryOptions qopts;
  qopts.deadline_seconds = 30.0;
  core::SearchStats st;
  auto result = searcher.Search(
      core::QueryRequest(fig.u1, {fig.kw_university}, qopts), &st);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(st.converged);
}

}  // namespace
}  // namespace s3

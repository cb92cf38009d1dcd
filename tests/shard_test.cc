// Sharding subsystem tests: partitioner determinism (golden pinned
// hash assignments, endian/platform-stable), shard-vs-unsharded
// bit-for-bit equality across every shard count, every replica of a
// seeker's group answering exactly, home-shard routing, delta routing
// with independent per-shard generations, and the storage round-trip
// (split -> Open -> query -> update -> reopen).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/naive_reference.h"
#include "core/s3_instance.h"
#include "core/s3k.h"
#include "gtest/gtest.h"
#include "shard/partitioner.h"
#include "shard/shard_meta.h"
#include "shard/shard_router.h"

namespace s3::shard {
namespace {

using core::Query;
using core::ResultEntry;
using core::S3Instance;

// ---- fixtures -------------------------------------------------------------

struct MultiGroup {
  std::unique_ptr<S3Instance> instance;
  std::vector<KeywordId> keywords;
  uint32_t n_groups = 0;
  uint32_t users_per_group = 0;
};

// `n_groups` disjoint social groups sharing one keyword pool (so
// candidate plans span groups and the reach/threshold pruning is
// actually exercised), each with documents, comments, tags and social
// edges. Group g owns users [g*P, (g+1)*P).
MultiGroup BuildMultiGroup(uint32_t n_groups, uint32_t users_per_group,
                           uint64_t seed) {
  MultiGroup out;
  out.n_groups = n_groups;
  out.users_per_group = users_per_group;
  out.instance = std::make_unique<S3Instance>();
  S3Instance& inst = *out.instance;
  Rng rng(seed);

  for (uint32_t u = 0; u < n_groups * users_per_group; ++u) {
    inst.AddUser("u" + std::to_string(u));
  }
  for (uint32_t k = 0; k < 5; ++k) {
    out.keywords.push_back(inst.InternKeyword("kw" + std::to_string(k)));
  }
  inst.DeclareSubClass("kw1", "kw0");  // extension anchor

  for (uint32_t g = 0; g < n_groups; ++g) {
    const social::UserId base = g * users_per_group;
    std::vector<doc::DocId> docs;
    const uint32_t n_docs = 2 + g % 3;
    for (uint32_t i = 0; i < n_docs; ++i) {
      doc::Document d("doc");
      uint32_t child = d.AddChild(0, "sec");
      d.AddKeywords(0, {out.keywords[rng.Uniform(out.keywords.size())]});
      d.AddKeywords(child,
                    {out.keywords[rng.Uniform(out.keywords.size())]});
      const social::UserId poster =
          base + static_cast<social::UserId>(rng.Uniform(users_per_group));
      docs.push_back(inst.AddDocument(std::move(d),
                                      "g" + std::to_string(g) + "d" +
                                          std::to_string(i),
                                      poster)
                         .value());
      if (i > 0 && rng.Chance(0.6)) {
        (void)inst.AddComment(docs[i],
                              inst.docs().RootNode(docs[rng.Uniform(i)]));
      }
    }
    for (uint32_t t = 0; t < 2; ++t) {
      const social::UserId author =
          base + static_cast<social::UserId>(rng.Uniform(users_per_group));
      const doc::DocId d = docs[rng.Uniform(docs.size())];
      (void)inst.AddTagOnFragment(
          author, inst.docs().RootNode(d),
          rng.Chance(0.7) ? out.keywords[rng.Uniform(out.keywords.size())]
                          : kInvalidKeyword);
    }
    for (uint32_t a = 0; a < users_per_group; ++a) {
      for (uint32_t b = 0; b < users_per_group; ++b) {
        if (a != b && rng.Chance(0.6)) {
          (void)inst.AddSocialEdge(base + a, base + b,
                                   0.2 + 0.8 * rng.NextDouble());
        }
      }
    }
  }
  EXPECT_TRUE(inst.Finalize().ok());
  return out;
}

// Exact score of one returned node under converged proximities (the
// s3k_test oracle idiom: returned intervals bracket this value).
double ExactScore(const S3Instance& inst, const Query& q,
                  const core::S3kOptions& opts, doc::NodeId node,
                  const std::vector<double>& prox) {
  core::QueryExtension ext(q.keywords.size());
  for (size_t i = 0; i < q.keywords.size(); ++i) {
    if (opts.use_semantics) {
      for (KeywordId k : inst.ExtendKeyword(q.keywords[i])) {
        ext[i].insert(k);
      }
    } else {
      ext[i].insert(q.keywords[i]);
    }
  }
  core::ConnectionBuilder b(inst, opts.score.eta);
  auto cc = b.Build(inst.components().Of(social::EntityId::Fragment(node)),
                    ext);
  for (const core::Candidate& c : cc.candidates) {
    if (c.node == node) return core::CandidateScore(c, prox);
  }
  return 0.0;
}

// Converged proximity by explicit matrix iteration (oracle side).
std::vector<double> ConvergedProx(const S3Instance& inst,
                                  social::UserId seeker, double gamma,
                                  size_t iters = 80) {
  const auto& m = inst.matrix();
  social::Frontier f, g;
  f.Init(inst.layout().total());
  g.Init(inst.layout().total());
  std::vector<double> prox(inst.layout().total(), 0.0);
  const uint32_t row = inst.RowOfUser(seeker);
  prox[row] = core::CGamma(gamma);
  f.Set(row, 1.0);
  for (size_t n = 1; n <= iters; ++n) {
    m.Propagate(f, g);
    std::swap(f, g);
    if (f.nonzero.empty()) break;
    for (uint32_t r : f.nonzero) {
      prox[r] += core::CGamma(gamma) * f.values[r] /
                 std::pow(gamma, static_cast<double>(n));
    }
  }
  return prox;
}

server::QueryServiceOptions ServiceOptions(bool cache_on) {
  server::QueryServiceOptions opts;
  opts.workers = 2;
  opts.enable_cache = cache_on;
  opts.search.k = 4;
  return opts;
}

std::vector<ResultEntry> Ask(server::QueryService& service, const Query& q) {
  auto fut = service.SubmitBlocking(q);
  EXPECT_TRUE(fut.ok()) << fut.status().ToString();
  auto resp = fut->get();
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  return resp->entries;
}

void ExpectSameEntries(const std::vector<ResultEntry>& sharded,
                       const std::vector<ResultEntry>& unsharded,
                       const std::string& what) {
  ASSERT_EQ(sharded.size(), unsharded.size()) << what;
  for (size_t i = 0; i < sharded.size(); ++i) {
    EXPECT_EQ(sharded[i].node, unsharded[i].node) << what << " rank " << i;
    // Bit-for-bit: the shard ran the same float operations in the same
    // order as the unsharded engine.
    EXPECT_EQ(sharded[i].lower, unsharded[i].lower) << what << " rank " << i;
    EXPECT_EQ(sharded[i].upper, unsharded[i].upper) << what << " rank " << i;
  }
}

// ---- partitioner ----------------------------------------------------------

TEST(PartitionerTest, StableHashGoldenValues) {
  // Pinned FNV-1a 64 over little-endian id bytes: these values must
  // never change on any platform or endianness — shard assignment is
  // part of the on-disk contract.
  EXPECT_EQ(StableUserHash(0), 5558979605539197941ull);
  EXPECT_EQ(StableUserHash(1), 12478008331234465636ull);
  EXPECT_EQ(StableUserHash(7), 7869321708915449410ull);
  EXPECT_EQ(StableUserHash(42), 10203658981158674303ull);
  EXPECT_EQ(StableUserHash(123456789), 8379007418144316681ull);

  EXPECT_EQ(ShardOfUser(0, 2), 1u);
  EXPECT_EQ(ShardOfUser(1, 2), 0u);
  EXPECT_EQ(ShardOfUser(42, 4), 3u);
  EXPECT_EQ(ShardOfUser(1000, 5), 4u);
  EXPECT_EQ(ShardOfUser(123456789, 64), 9u);
}

TEST(PartitionerTest, RejectsBadInput) {
  auto mg = BuildMultiGroup(2, 2, 7);
  PartitionOptions opts;
  opts.shard_count = 0;
  EXPECT_FALSE(Partition(*mg.instance, opts).ok());
  opts.shard_count = 65;
  EXPECT_FALSE(Partition(*mg.instance, opts).ok());

  S3Instance unfinalized;
  opts.shard_count = 2;
  EXPECT_FALSE(Partition(unfinalized, opts).ok());
}

TEST(PartitionerTest, DeterministicAndGroupComplete) {
  auto mg = BuildMultiGroup(4, 3, 11);
  PartitionOptions opts;
  opts.shard_count = 3;
  auto p1 = Partition(*mg.instance, opts);
  auto p2 = Partition(*mg.instance, opts);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());

  // Determinism: identical maps, counts and boundary stats run-to-run.
  ASSERT_EQ(p1->shards.size(), p2->shards.size());
  EXPECT_EQ(p1->boundary_social_edges, p2->boundary_social_edges);
  for (size_t s = 0; s < p1->shards.size(); ++s) {
    EXPECT_EQ(p1->shards[s].map.doc_global(), p2->shards[s].map.doc_global());
    EXPECT_EQ(p1->shards[s].map.tag_global(), p2->shards[s].map.tag_global());
    EXPECT_EQ(p1->shards[s].boundary_social_edges,
              p2->shards[s].boundary_social_edges);
    EXPECT_EQ(p1->shards[s].instance->docs().DocumentCount(),
              p2->shards[s].instance->docs().DocumentCount());
  }

  // Group completeness: every document lives on every home shard of
  // its group's members, and ids replicate exactly.
  const S3Instance& full = *mg.instance;
  for (doc::DocId d = 0; d < full.docs().DocumentCount(); ++d) {
    const uint32_t root = p1->user_root[full.PosterOfDoc(d)];
    for (uint32_t s = 0; s < opts.shard_count; ++s) {
      bool home_shard = false;
      for (social::UserId u = 0; u < full.UserCount(); ++u) {
        if (p1->user_root[u] == root && ShardOfUser(u, opts.shard_count) == s) {
          home_shard = true;
          break;
        }
      }
      const bool materialized = p1->shards[s].map.LocalDoc(d).ok();
      EXPECT_EQ(materialized, home_shard)
          << "doc " << d << " shard " << s;
    }
  }

  // Users and keywords are shard-invariant.
  for (const ShardPart& part : p1->shards) {
    EXPECT_EQ(part.instance->UserCount(), full.UserCount());
    EXPECT_EQ(part.instance->vocabulary().size(), full.vocabulary().size());
  }
}

TEST(ShardMetaTest, RoundTripAndErrors) {
  ShardMetaData meta;
  meta.shard_index = 1;
  meta.shard_count = 4;
  meta.boundary_social_edges = 17;
  meta.owned_users = 9;
  meta.map.AddDoc(3, 10, 4);
  meta.map.AddDoc(7, 30, 2);
  meta.map.AddTag(5);

  auto parsed = ParseShardMeta(EncodeShardMeta(meta));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->shard_index, 1u);
  EXPECT_EQ(parsed->shard_count, 4u);
  EXPECT_EQ(parsed->boundary_social_edges, 17u);
  EXPECT_EQ(parsed->owned_users, 9u);
  ASSERT_EQ(parsed->map.doc_count(), 2u);
  EXPECT_EQ(parsed->map.GlobalDoc(1), 7u);
  EXPECT_EQ(parsed->map.GlobalNodeBase(1), 30u);
  EXPECT_EQ(parsed->map.LocalNode(31).value(), 5u);  // 4 nodes of doc 3 first
  EXPECT_EQ(parsed->map.GlobalNode(5).value(), 31u);
  EXPECT_FALSE(parsed->map.LocalNode(14).ok());  // gap between docs
  EXPECT_FALSE(parsed->map.GlobalNode(6).ok());  // beyond the mapped range

  EXPECT_FALSE(ParseShardMeta("garbage").ok());
  EXPECT_FALSE(ParseShardMeta("S3SHARD v1\nshard 4 4\n").ok());
  // Overflow is a parse error, never a silent wrap.
  EXPECT_FALSE(
      ParseShardMeta(
          "S3SHARD v1\nshard 0 2\nboundary 18446744073709551616\n")
          .ok());
  EXPECT_FALSE(
      ParseShardMeta("S3SHARD v1\nshard 0 2\nD 5 0 2\nD 3 4 1\n").ok());

  PartitionMetaData pmeta;
  pmeta.shard_count = 8;
  pmeta.boundary_social_edges = 3;
  auto pparsed = ParsePartitionMeta(EncodePartitionMeta(pmeta));
  ASSERT_TRUE(pparsed.ok());
  EXPECT_EQ(pparsed->shard_count, 8u);
  EXPECT_EQ(pparsed->boundary_social_edges, 3u);
  EXPECT_FALSE(ParsePartitionMeta("S3PART v1\nshards 0\n").ok());
}

// ---- sharded == unsharded == oracle ---------------------------------------

class ShardEquivalenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(ShardEquivalenceTest, EveryShardCountMatchesUnshardedAndOracle) {
  const bool cache_on = GetParam();
  auto mg = BuildMultiGroup(4, 3, 23);
  const S3Instance& full = *mg.instance;
  std::shared_ptr<const S3Instance> full_shared = std::move(mg.instance);

  core::S3kOptions search;
  search.k = 4;
  server::QueryService unsharded(full_shared, ServiceOptions(cache_on));

  std::vector<Query> queries;
  for (social::UserId u = 0; u < full.UserCount(); ++u) {
    queries.push_back(Query{u, {mg.keywords[0]}});
    queries.push_back(Query{u, {mg.keywords[1], mg.keywords[2]}});
  }

  for (uint32_t n_shards : {1u, 2u, 3u, 4u, 5u}) {
    PartitionOptions popts;
    popts.shard_count = n_shards;
    auto partition = Partition(full, popts);
    ASSERT_TRUE(partition.ok()) << partition.status().ToString();

    ShardRouterOptions ropts;
    ropts.service = ServiceOptions(cache_on);
    auto router = ShardRouter::Serve(std::move(*partition), ropts);
    ASSERT_TRUE(router.ok()) << router.status().ToString();

    for (const Query& q : queries) {
      auto sharded = (*router)->Query(q);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      auto reference = Ask(unsharded, q);
      ExpectSameEntries(sharded->entries, reference,
                        "shards=" + std::to_string(n_shards) + " seeker=" +
                            std::to_string(q.seeker));

      // Repeat to hit the plan cache (the cached path must stay
      // bit-for-bit too).
      auto again = (*router)->Query(q);
      ASSERT_TRUE(again.ok());
      ExpectSameEntries(again->entries, reference, "cached repeat");
    }

    // Oracle: exact scores from converged proximities.
    for (social::UserId u = 0; u < full.UserCount(); u += 3) {
      Query q{u, {mg.keywords[0]}};
      auto sharded = (*router)->Query(q);
      ASSERT_TRUE(sharded.ok());
      auto prox = ConvergedProx(full, u, search.score.gamma);
      auto oracle = core::NaiveSearchWithProx(full, q, search, prox);
      ASSERT_EQ(sharded->entries.size(), oracle.size()) << "seeker " << u;
      // Answers are unique up to ties: compare the descending exact
      // score multisets, and check each reported interval brackets
      // the exact score (the s3k_test oracle idiom, over the router).
      std::vector<double> got, want;
      for (size_t i = 0; i < oracle.size(); ++i) {
        const double exact =
            ExactScore(full, q, search, sharded->entries[i].node, prox);
        EXPECT_LE(sharded->entries[i].lower, exact + 1e-7);
        EXPECT_GE(sharded->entries[i].upper, exact - 1e-7);
        got.push_back(exact);
        want.push_back(oracle[i].lower);
      }
      std::sort(got.rbegin(), got.rend());
      std::sort(want.rbegin(), want.rend());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], want[i], 1e-7) << "seeker " << u << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CacheOnOff, ShardEquivalenceTest,
                         ::testing::Bool());

// ---- one replica answers ------------------------------------------------

// The invariant home-shard routing rests on: every shard that
// materializes the seeker's reach group, asked through its own
// QueryService, answers what the unsharded serial engine answers —
// entries, order, score intervals and certificate, bit for bit.
class ShardReplicaTest : public ::testing::TestWithParam<bool> {};

TEST_P(ShardReplicaTest, EveryReplicaOfTheSeekersGroupAnswersExactly) {
  const bool cache_on = GetParam();
  auto mg = BuildMultiGroup(4, 3, 23);
  const S3Instance& full = *mg.instance;
  std::shared_ptr<const S3Instance> keep = std::move(mg.instance);
  const server::QueryServiceOptions sopts = ServiceOptions(cache_on);
  core::S3kSearcher serial(full, sopts.search);

  for (uint32_t n_shards : {1u, 2u, 3u, 4u, 5u}) {
    PartitionOptions popts;
    popts.shard_count = n_shards;
    auto partition = Partition(full, popts);
    ASSERT_TRUE(partition.ok()) << partition.status().ToString();
    std::vector<std::unique_ptr<server::QueryService>> services;
    for (const ShardPart& part : partition->shards) {
      services.push_back(
          std::make_unique<server::QueryService>(part.instance, sopts));
    }

    for (social::UserId u = 0; u < full.UserCount(); ++u) {
      uint64_t mask = 0;
      for (social::UserId v = 0; v < full.UserCount(); ++v) {
        if (partition->user_root[v] == partition->user_root[u]) {
          mask |= uint64_t{1} << ShardOfUser(v, n_shards);
        }
      }
      ASSERT_NE((mask >> ShardOfUser(u, n_shards)) & 1, 0u);

      for (double eps : {0.0, 0.05}) {
        core::QueryOptions o;
        o.epsilon_approx = eps;
        o.mode = core::QueryMode::kAnytime;
        const core::QueryRequest req(u, {mg.keywords[1], mg.keywords[2]}, o);
        core::SearchStats want_stats;
        auto want = serial.Search(req, &want_stats);
        ASSERT_TRUE(want.ok()) << want.status().ToString();

        for (uint32_t s = 0; s < n_shards; ++s) {
          if (((mask >> s) & 1) == 0) continue;
          const std::string what =
              "shards=" + std::to_string(n_shards) + " shard=" +
              std::to_string(s) + " seeker=" + std::to_string(u) +
              " eps=" + std::to_string(eps);
          auto fut = services[s]->SubmitBlocking(req);
          ASSERT_TRUE(fut.ok()) << fut.status().ToString();
          auto got = fut->get();
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          std::vector<ResultEntry> mapped;
          for (const ResultEntry& e : got->entries) {
            auto global = partition->shards[s].map.GlobalNode(e.node);
            ASSERT_TRUE(global.ok()) << what;
            mapped.push_back(ResultEntry{*global, e.lower, e.upper});
          }
          ExpectSameEntries(mapped, *want, what);
          EXPECT_EQ(got->stats.kth_lower, want_stats.kth_lower) << what;
          EXPECT_EQ(got->stats.remaining_upper, want_stats.remaining_upper)
              << what;
          EXPECT_EQ(got->certified_epsilon, want_stats.certified_epsilon)
              << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CacheOnOff, ShardReplicaTest, ::testing::Bool());

TEST(ShardRouterTest, QueryGlobalIsQueryAnsweredByTheHomeShard) {
  auto mg = BuildMultiGroup(5, 2, 31);
  const S3Instance& full = *mg.instance;
  std::shared_ptr<const S3Instance> full_shared = std::move(mg.instance);

  PartitionOptions popts;
  popts.shard_count = 4;
  auto partition = Partition(full, popts);
  ASSERT_TRUE(partition.ok());

  // Cache off, so the second call's cache outcome equals the first's.
  ShardRouterOptions ropts;
  ropts.service = ServiceOptions(false);
  auto router = ShardRouter::Serve(std::move(*partition), ropts);
  ASSERT_TRUE(router.ok());

  for (social::UserId u = 0; u < full.UserCount(); ++u) {
    const std::string what = "seeker " + std::to_string(u);
    Query q{u, {mg.keywords[0], mg.keywords[3]}};
    auto routed = (*router)->Query(q);
    auto global = (*router)->QueryGlobal(q);
    ASSERT_TRUE(routed.ok());
    ASSERT_TRUE(global.ok());

    // Field for field (timings and load samples excepted).
    ExpectSameEntries(global->entries, routed->entries, what);
    EXPECT_EQ(global->generations, routed->generations) << what;
    EXPECT_EQ(global->shards_queried, routed->shards_queried) << what;
    EXPECT_EQ(global->shards_pruned, routed->shards_pruned) << what;
    EXPECT_EQ(global->cache_hit, routed->cache_hit) << what;
    EXPECT_EQ(global->kth_lower, routed->kth_lower) << what;
    EXPECT_EQ(global->remaining_upper, routed->remaining_upper) << what;
    EXPECT_EQ(global->certified_epsilon, routed->certified_epsilon) << what;
    EXPECT_EQ(global->deadline_exceeded, routed->deadline_exceeded) << what;
    EXPECT_EQ(global->stats.iterations, routed->stats.iterations) << what;
    EXPECT_EQ(global->stats.candidates_total, routed->stats.candidates_total)
        << what;
    ASSERT_EQ(global->shards.size(), routed->shards.size()) << what;
    for (size_t s = 0; s < global->shards.size(); ++s) {
      const ShardReport& g = global->shards[s];
      const ShardReport& r = routed->shards[s];
      EXPECT_EQ(g.shard, r.shard) << what;
      EXPECT_EQ(g.generation, r.generation) << what;
      EXPECT_EQ(g.queried, r.queried) << what;
      EXPECT_EQ(g.pruned_bound, r.pruned_bound) << what;
      EXPECT_EQ(g.cache_hit, r.cache_hit) << what;
      EXPECT_EQ(g.deadline_exceeded, r.deadline_exceeded) << what;
      EXPECT_EQ(g.kth_lower, r.kth_lower) << what;
      EXPECT_EQ(g.remaining_upper, r.remaining_upper) << what;
      EXPECT_EQ(g.certified_epsilon, r.certified_epsilon) << what;
      EXPECT_EQ(g.entries, r.entries) << what;
    }

    // Exactly one shard answered, and it is the seeker's home shard.
    const uint32_t home = ShardOfUser(u, popts.shard_count);
    EXPECT_EQ((*router)->HomeShardOfUser(u), home) << what;
    EXPECT_EQ(global->shards_queried, 1u) << what;
    for (const ShardReport& report : global->shards) {
      EXPECT_EQ(report.queried, report.shard == home)
          << what << " shard " << report.shard;
      EXPECT_FALSE(report.pruned_bound) << what;
    }
    EXPECT_EQ(global->shards_queried + global->shards_pruned,
              (*router)->shard_count());
  }
}

// ---- delta routing --------------------------------------------------------

TEST(ShardRouterTest, DeltaRoutingAdvancesTouchedShardsOnly) {
  auto mg = BuildMultiGroup(4, 3, 41);
  const S3Instance& full = *mg.instance;
  std::shared_ptr<const S3Instance> full_shared = std::move(mg.instance);

  PartitionOptions popts;
  popts.shard_count = 3;
  auto partition = Partition(full, popts);
  ASSERT_TRUE(partition.ok());
  const std::vector<uint32_t> user_root = partition->user_root;

  ShardRouterOptions ropts;
  ropts.service = ServiceOptions(true);
  auto router = ShardRouter::Serve(std::move(*partition), ropts);
  ASSERT_TRUE(router.ok());

  // Unsharded reference evolves by the same ops.
  server::QueryService unsharded(full_shared, ServiceOptions(true));

  // Touch exactly one group: a new document + tag + social edge inside
  // group 0 (users 0..2).
  const social::UserId poster = 1;
  auto update = (*router)->BeginUpdate();
  const KeywordId fresh = update.InternKeyword("fresh-keyword");
  doc::Document d("doc");
  d.AddKeywords(0, {mg.keywords[0], fresh});
  auto gdoc = update.AddDocument(d, "delta-doc-0", poster);
  ASSERT_TRUE(gdoc.ok()) << gdoc.status().ToString();
  auto gtag = update.AddTagOnFragment(
      2, static_cast<doc::NodeId>(full.docs().NodeCount()), mg.keywords[1]);
  ASSERT_TRUE(gtag.ok());
  ASSERT_TRUE(update.AddSocialEdge(0, 2, 0.9).ok());

  const std::vector<uint64_t> before = (*router)->Generations();
  ASSERT_TRUE((*router)->ApplyUpdate(update).ok());
  const std::vector<uint64_t> after = (*router)->Generations();

  uint64_t mask = 0;
  for (social::UserId v = 0; v < full.UserCount(); ++v) {
    if (user_root[v] == user_root[poster]) {
      mask |= uint64_t{1} << ShardOfUser(v, popts.shard_count);
    }
  }
  for (uint32_t s = 0; s < (*router)->shard_count(); ++s) {
    if ((mask >> s) & 1) {
      EXPECT_EQ(after[s], before[s] + 1) << "shard " << s;
    } else {
      // Untouched groups advance only when new spellings must be
      // replicated for keyword-id alignment — which this update has.
      EXPECT_EQ(after[s], before[s] + 1) << "shard " << s;
    }
  }

  // Mirror the ops onto the unsharded instance and compare.
  {
    core::InstanceDelta delta(full_shared);
    EXPECT_EQ(delta.InternKeyword("fresh-keyword"), fresh);
    ASSERT_TRUE(delta.AddDocument(d, "delta-doc-0", poster).ok());
    ASSERT_TRUE(delta
                    .AddTagOnFragment(
                        2,
                        static_cast<doc::NodeId>(full.docs().NodeCount()),
                        mg.keywords[1])
                    .ok());
    ASSERT_TRUE(delta.AddSocialEdge(0, 2, 0.9).ok());
    auto next = full_shared->ApplyDelta(delta);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_TRUE(unsharded.SwapSnapshot(*next).ok());
  }

  for (social::UserId u = 0; u < full.UserCount(); ++u) {
    for (const std::vector<KeywordId>& kws :
         {std::vector<KeywordId>{mg.keywords[0]},
          std::vector<KeywordId>{fresh},
          std::vector<KeywordId>{mg.keywords[1], mg.keywords[0]}}) {
      Query q{u, kws};
      auto sharded = (*router)->Query(q);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ExpectSameEntries(sharded->entries, Ask(unsharded, q),
                        "post-delta seeker " + std::to_string(u));
    }
  }

  // A second update touching a different group advances only that
  // group's shards (no new spellings this time).
  const social::UserId poster2 = 3 * 3 - 1;  // last user of group 2
  auto update2 = (*router)->BeginUpdate();
  doc::Document d2("doc");
  d2.AddKeywords(0, {mg.keywords[2]});
  ASSERT_TRUE(update2.AddDocument(d2, "delta-doc-1", poster2).ok());
  const std::vector<uint64_t> before2 = (*router)->Generations();
  ASSERT_TRUE((*router)->ApplyUpdate(update2).ok());
  const std::vector<uint64_t> after2 = (*router)->Generations();
  uint64_t mask2 = 0;
  for (social::UserId v = 0; v < full.UserCount(); ++v) {
    if (user_root[v] == user_root[poster2]) {
      mask2 |= uint64_t{1} << ShardOfUser(v, popts.shard_count);
    }
  }
  bool some_untouched = false;
  for (uint32_t s = 0; s < (*router)->shard_count(); ++s) {
    if ((mask2 >> s) & 1) {
      EXPECT_EQ(after2[s], before2[s] + 1) << "shard " << s;
    } else {
      EXPECT_EQ(after2[s], before2[s]) << "shard " << s;
      some_untouched = true;
    }
  }
  EXPECT_TRUE(some_untouched || (*router)->shard_count() == 1)
      << "fixture should leave at least one shard untouched";
}

TEST(ShardRouterTest, CrossShardGroupMergeIsRefused) {
  // Single-user groups: each group's shard set is exactly its user's
  // home shard, so the fixture is guaranteed to contain both
  // equal-mask and different-mask group pairs under 2 shards.
  auto mg = BuildMultiGroup(6, 1, 53);
  const S3Instance& full = *mg.instance;

  PartitionOptions popts;
  popts.shard_count = 2;
  auto partition = Partition(full, popts);
  ASSERT_TRUE(partition.ok());
  const std::vector<uint32_t> user_root = partition->user_root;

  // Group masks under 2 shards.
  auto mask_of = [&](social::UserId u) {
    uint64_t mask = 0;
    for (social::UserId v = 0; v < full.UserCount(); ++v) {
      if (user_root[v] == user_root[u]) {
        mask |= uint64_t{1} << ShardOfUser(v, popts.shard_count);
      }
    }
    return mask;
  };

  social::UserId a = UINT32_MAX, b = UINT32_MAX;  // different masks
  social::UserId c = UINT32_MAX, e = UINT32_MAX;  // equal masks, diff groups
  for (social::UserId u = 0; u < full.UserCount(); ++u) {
    for (social::UserId v = 0; v < full.UserCount(); ++v) {
      if (user_root[u] == user_root[v]) continue;
      if (mask_of(u) != mask_of(v)) {
        if (a == UINT32_MAX) { a = u; b = v; }
      } else if (c == UINT32_MAX) {
        c = u;
        e = v;
      }
    }
  }
  ASSERT_NE(a, UINT32_MAX) << "fixture must contain cross-shard groups";

  ShardRouterOptions ropts;
  ropts.service = ServiceOptions(true);
  auto router = ShardRouter::Serve(std::move(*partition), ropts);
  ASSERT_TRUE(router.ok());

  const std::vector<uint64_t> before = (*router)->Generations();
  auto update = (*router)->BeginUpdate();
  ASSERT_TRUE(update.AddSocialEdge(a, b, 0.5).ok());
  Status applied = (*router)->ApplyUpdate(update);
  EXPECT_EQ(applied.code(), StatusCode::kFailedPrecondition)
      << applied.ToString();
  EXPECT_EQ((*router)->Generations(), before) << "refusal must be clean";

  // Same-mask merges are fine (both groups already live on the same
  // shard set, so no population needs to move).
  if (c != UINT32_MAX) {
    auto ok_update = (*router)->BeginUpdate();
    ASSERT_TRUE(ok_update.AddSocialEdge(c, e, 0.5).ok());
    EXPECT_TRUE((*router)->ApplyUpdate(ok_update).ok());
  }
}

// ---- storage round-trip ---------------------------------------------------

TEST(ShardRouterStorageTest, SplitOpenQueryUpdateReopen) {
  const std::string root = std::string(::testing::TempDir()) +
                           "s3-shard-storage-" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);

  auto mg = BuildMultiGroup(3, 3, 67);
  const S3Instance& full = *mg.instance;
  std::shared_ptr<const S3Instance> full_shared = std::move(mg.instance);
  server::QueryService unsharded(full_shared, ServiceOptions(true));

  PartitionOptions popts;
  popts.shard_count = 2;
  auto partition = Partition(full, popts);
  ASSERT_TRUE(partition.ok());
  ASSERT_TRUE(WritePartition(*partition, root).ok());

  // A second split into the same root must refuse.
  EXPECT_FALSE(WritePartition(*partition, root).ok());

  ShardRouterOptions ropts;
  ropts.service = ServiceOptions(true);
  {
    auto router = ShardRouter::Open(root, ropts);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    for (social::UserId u = 0; u < full.UserCount(); ++u) {
      Query q{u, {mg.keywords[0]}};
      auto sharded = (*router)->Query(q);
      ASSERT_TRUE(sharded.ok());
      ExpectSameEntries(sharded->entries, Ask(unsharded, q),
                        "storage seeker " + std::to_string(u));
    }

    // Durable update through the WAL.
    auto update = (*router)->BeginUpdate();
    doc::Document d("doc");
    d.AddKeywords(0, {mg.keywords[0]});
    ASSERT_TRUE(update.AddDocument(d, "stored-delta-doc", 0).ok());
    ASSERT_TRUE((*router)->ApplyUpdate(update).ok());

    core::InstanceDelta delta(full_shared);
    ASSERT_TRUE(delta.AddDocument(d, "stored-delta-doc", 0).ok());
    auto next = full_shared->ApplyDelta(delta);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(unsharded.SwapSnapshot(*next).ok());

    Query q{0, {mg.keywords[0]}};
    auto sharded = (*router)->Query(q);
    ASSERT_TRUE(sharded.ok());
    ExpectSameEntries(sharded->entries, Ask(unsharded, q), "post-update");
  }

  // Reopen: WAL replay + shard.meta must reproduce the updated state.
  {
    auto router = ShardRouter::Open(root, ropts);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    EXPECT_EQ((*router)->doc_count(), full.docs().DocumentCount() + 1);
    for (social::UserId u = 0; u < full.UserCount(); ++u) {
      Query q{u, {mg.keywords[0]}};
      auto sharded = (*router)->Query(q);
      ASSERT_TRUE(sharded.ok());
      ExpectSameEntries(sharded->entries, Ask(unsharded, q),
                        "reopened seeker " + std::to_string(u));
    }
  }

  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace s3::shard

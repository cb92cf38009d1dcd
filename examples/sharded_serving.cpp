// Sharded serving end-to-end: build a small two-community population,
// split it into 2 shards, route queries to the seekers' home shards,
// and push a live update through the router — the whole src/shard
// surface in one page. See src/server/SHARDING.md for why the home
// shard alone answers exactly.
#include <cstdio>
#include <memory>
#include <string>

#include "core/s3_instance.h"
#include "shard/partitioner.h"
#include "shard/shard_router.h"

using namespace s3;

int main() {
  // Two disjoint communities sharing a vocabulary.
  auto built = std::make_unique<core::S3Instance>();
  for (int u = 0; u < 6; ++u) built->AddUser("u" + std::to_string(u));
  const KeywordId coffee = built->InternKeyword("coffee");
  const KeywordId espresso = built->InternKeyword("espresso");
  built->DeclareSubClass("espresso", "coffee");
  for (int g = 0; g < 2; ++g) {
    const social::UserId base = g * 3;
    for (int i = 0; i < 2; ++i) {
      doc::Document d("post");
      d.AddKeywords(0, {i == 0 ? coffee : espresso});
      (void)built->AddDocument(std::move(d),
                               "g" + std::to_string(g) + "p" +
                                   std::to_string(i),
                               base + i);
    }
    (void)built->AddSocialEdge(base, base + 1, 0.8);
    (void)built->AddSocialEdge(base + 1, base + 2, 0.5);
  }
  if (!built->Finalize().ok()) return 1;
  std::shared_ptr<const core::S3Instance> full = std::move(built);

  // Partition into 2 shards and serve.
  shard::PartitionOptions popts;
  popts.shard_count = 2;
  auto partition = shard::Partition(*full, popts);
  if (!partition.ok()) return 1;
  std::printf("partitioned: %llu boundary social edges\n",
              static_cast<unsigned long long>(
                  partition->boundary_social_edges));

  shard::ShardRouterOptions ropts;
  ropts.service.workers = 2;
  ropts.service.search.k = 3;
  auto router = shard::ShardRouter::Serve(std::move(*partition), ropts);
  if (!router.ok()) return 1;

  // Routed query: one hop to the seeker's home shard.
  core::Query q{0, {coffee}};
  auto routed = (*router)->Query(q);
  if (!routed.ok()) return 1;
  std::printf("seeker 0 (home shard %u): %zu results\n",
              (*router)->HomeShardOfUser(0), routed->entries.size());
  for (const auto& e : routed->entries) {
    std::printf("  node %u score in [%.4f, %.4f]\n", e.node, e.lower,
                e.upper);
  }

  // QueryGlobal is the same call: the home shard answers alone, and
  // its certificate is the single instance's.
  auto global = (*router)->QueryGlobal(q);
  if (!global.ok()) return 1;
  std::printf("global query: %zu shards queried, %zu not asked, "
              "certified eps=%.2e\n",
              global->shards_queried, global->shards_pruned,
              global->certified_epsilon);

  // Per-request options flow through the router verbatim: a certified
  // anytime request may stop the home shard's search early, and the
  // response reports the achieved certificate.
  core::QueryOptions anytime;
  anytime.mode = core::QueryMode::kAnytime;
  anytime.epsilon_approx = 0.1;
  auto approx =
      (*router)->QueryGlobal(core::QueryRequest(0, {coffee}, anytime));
  if (!approx.ok()) return 1;
  std::printf("anytime query (eps<=0.1): %zu results, "
              "achieved eps=%.2e\n",
              approx->entries.size(), approx->certified_epsilon);

  // Live update: a new post by user 1 reaches only its group's shards.
  auto update = (*router)->BeginUpdate();
  doc::Document d("post");
  d.AddKeywords(0, {update.InternKeyword("espresso")});
  if (!update.AddDocument(d, "live-post", 1).ok()) return 1;
  if (!(*router)->ApplyUpdate(update).ok()) return 1;
  std::printf("after update, per-shard generations:");
  for (uint64_t g : (*router)->Generations()) {
    std::printf(" %llu", static_cast<unsigned long long>(g));
  }
  std::printf("\n");

  auto after = (*router)->Query(q);
  if (!after.ok()) return 1;
  std::printf("seeker 0 now sees %zu results\n", after->entries.size());
  return 0;
}

// Serving-layer batching tests: QueryService with batch_window > 0
// must answer every query bit-for-bit as the serial single-query
// engine — batch composition is a throughput optimization, never
// observable in a response — while the batching counters advance.
// The Concurrent suite (TSan target in CI) hammers a batching service
// from several client threads across SwapSnapshot generation swaps:
// the worker binds one snapshot per batch, so no batch may ever span
// a swap, which the per-generation exact-match oracle would expose.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/instance_delta.h"
#include "core/s3k.h"
#include "server/query_service.h"
#include "test_fixtures.h"

namespace s3::server {
namespace {

using core::InstanceDelta;
using core::Query;
using core::ResultEntry;
using core::S3Instance;
using core::S3kOptions;
using core::S3kSearcher;

S3kOptions TestOptions() {
  S3kOptions opts;
  opts.k = 4;
  opts.score.gamma = 1.5;
  opts.max_iterations = 400;
  return opts;
}

std::shared_ptr<const S3Instance> MakeSnapshot(
    uint64_t seed, std::vector<KeywordId>* kws) {
  s3::testing::RandomInstanceParams p;
  p.seed = seed;
  p.n_users = 10;
  p.n_docs = 14;
  p.n_tags = 10;
  auto ri = s3::testing::BuildRandomInstance(p);
  *kws = ri.keywords;
  return std::shared_ptr<const S3Instance>(std::move(ri.instance));
}

void ExpectExactEntries(const std::vector<ResultEntry>& got,
                        const std::vector<ResultEntry>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].node, want[r].node) << what << " rank " << r;
    ASSERT_EQ(got[r].lower, want[r].lower) << what << " rank " << r;
    ASSERT_EQ(got[r].upper, want[r].upper) << what << " rank " << r;
  }
}

// One worker, a same-keyword flood: batches must actually form (the
// worker drains the backlog through SearchBatchWithPlan), the counters
// must advance, and every response must equal the serial single-query
// answer exactly.
TEST(BatchedServiceTest, BatchedResponsesBitForBitAndCountersAdvance) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(11, &kws);
  const S3kOptions opts = TestOptions();

  std::vector<KeywordId> hot = {kws[0], kws[2]};
  std::sort(hot.begin(), hot.end());

  // Serial per-seeker expected results.
  S3kSearcher serial(*snap, opts);
  std::vector<std::vector<ResultEntry>> expected(snap->UserCount());
  for (social::UserId u = 0; u < snap->UserCount(); ++u) {
    auto r = serial.Search(Query{u, hot});
    ASSERT_TRUE(r.ok());
    expected[u] = *r;
  }

  QueryServiceOptions service_opts;
  service_opts.workers = 1;  // forces a backlog => batches form
  service_opts.queue_capacity = 512;
  service_opts.search = opts;
  service_opts.batch_window = 8;
  QueryService service(snap, service_opts);

  // Submission is a mutex push; a search is orders of magnitude
  // slower, so flooding 64 queries leaves a drainable backlog almost
  // immediately. Retry rounds keep the test robust on a loaded
  // machine rather than relying on one race going our way.
  bool batched_seen = false;
  for (int round = 0; round < 20 && !batched_seen; ++round) {
    std::vector<std::pair<social::UserId, QueryFuture>> inflight;
    for (int i = 0; i < 64; ++i) {
      const auto u =
          static_cast<social::UserId>(i % snap->UserCount());
      auto submitted = service.SubmitBlocking(Query{u, hot});
      ASSERT_TRUE(submitted.ok());
      inflight.emplace_back(u, std::move(*submitted));
    }
    for (auto& [u, future] : inflight) {
      auto resp = future.get();
      ASSERT_TRUE(resp.ok()) << resp.status().message();
      ExpectExactEntries(resp->entries, expected[u],
                         "seeker " + std::to_string(u));
      EXPECT_EQ(resp->generation, snap->generation());
    }
    batched_seen = service.Stats().batches_executed > 0;
  }

  const QueryServiceStats stats = service.Stats();
  EXPECT_TRUE(batched_seen) << "no batch formed in 20 flood rounds";
  // Every counted batch had width >= 2 and respected the window.
  EXPECT_GE(stats.batched_queries, 2 * stats.batches_executed);
  EXPECT_LE(stats.batched_queries,
            service_opts.batch_window * stats.batches_executed);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.MeanBatchWidth(), 2.0);
  // The rendered counter line carries the batching numbers.
  EXPECT_NE(FormatCounters(stats).find("batched="), std::string::npos);
}

// batch_window <= 1 disables draining entirely.
TEST(BatchedServiceTest, WindowOfOneNeverBatches) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(12, &kws);

  QueryServiceOptions service_opts;
  service_opts.workers = 1;
  service_opts.search = TestOptions();
  service_opts.batch_window = 1;
  QueryService service(snap, service_opts);

  std::vector<QueryFuture> inflight;
  for (int i = 0; i < 32; ++i) {
    auto submitted = service.SubmitBlocking(
        Query{static_cast<social::UserId>(i % snap->UserCount()),
              {kws[0]}});
    ASSERT_TRUE(submitted.ok());
    inflight.push_back(std::move(*submitted));
  }
  for (auto& f : inflight) ASSERT_TRUE(f.get().ok());
  EXPECT_EQ(service.Stats().batches_executed, 0u);
  EXPECT_EQ(service.Stats().batched_queries, 0u);
}

// Queries over *different* keyword multisets never share a batch (the
// drain predicate matches the plan key): interleave two keyword sets
// and verify exact per-query results either way.
TEST(BatchedServiceTest, MixedKeywordsOnlyBatchWithinPlan) {
  std::vector<KeywordId> kws;
  auto snap = MakeSnapshot(13, &kws);
  const S3kOptions opts = TestOptions();

  std::vector<std::vector<KeywordId>> sets = {{kws[0]}, {kws[1], kws[3]}};
  for (auto& s : sets) std::sort(s.begin(), s.end());

  S3kSearcher serial(*snap, opts);
  // expected[set][seeker]
  std::vector<std::vector<std::vector<ResultEntry>>> expected(sets.size());
  for (size_t si = 0; si < sets.size(); ++si) {
    for (social::UserId u = 0; u < snap->UserCount(); ++u) {
      auto r = serial.Search(Query{u, sets[si]});
      ASSERT_TRUE(r.ok());
      expected[si].push_back(*r);
    }
  }

  QueryServiceOptions service_opts;
  service_opts.workers = 1;
  service_opts.queue_capacity = 512;
  service_opts.search = opts;
  service_opts.batch_window = 4;
  QueryService service(snap, service_opts);

  std::vector<std::tuple<size_t, social::UserId, QueryFuture>> inflight;
  for (int i = 0; i < 48; ++i) {
    const size_t si = i % sets.size();
    const auto u = static_cast<social::UserId>(i % snap->UserCount());
    auto submitted = service.SubmitBlocking(Query{u, sets[si]});
    ASSERT_TRUE(submitted.ok());
    inflight.emplace_back(si, u, std::move(*submitted));
  }
  for (auto& [si, u, future] : inflight) {
    auto resp = future.get();
    ASSERT_TRUE(resp.ok());
    ExpectExactEntries(resp->entries, expected[si][u],
                       "set " + std::to_string(si) + " seeker " +
                           std::to_string(u));
  }
  EXPECT_EQ(service.Stats().failed, 0u);
}

// The TSan target: concurrent clients flooding a batching service
// while the main thread swaps snapshot generations. Each response must
// exactly match the serial answer of the generation it reports — a
// batch mixing generations, or a data race anywhere in the drain path,
// perturbs some response away from every per-generation oracle.
TEST(BatchedServiceConcurrentTest, BatchingUnderSubmitAndSwap) {
  constexpr size_t kRounds = 2;

  std::vector<KeywordId> kws;
  std::vector<std::shared_ptr<const S3Instance>> gens;
  gens.push_back(MakeSnapshot(14, &kws));
  // Each round rewires the social graph a little; exactness against
  // the wrong generation's oracle then fails.
  for (size_t round = 1; round <= kRounds; ++round) {
    InstanceDelta delta(gens.back());
    ASSERT_TRUE(delta
                    .AddSocialEdge(static_cast<social::UserId>(round),
                                   static_cast<social::UserId>(round + 4),
                                   0.6)
                    .ok());
    auto next = gens.back()->ApplyDelta(delta);
    ASSERT_TRUE(next.ok()) << next.status().message();
    gens.push_back(*next);
  }

  const S3kOptions opts = TestOptions();
  std::vector<KeywordId> hot = {kws[1], kws[2]};
  std::sort(hot.begin(), hot.end());
  std::vector<Query> queries;
  for (social::UserId u = 0; u < gens[0]->UserCount(); ++u) {
    queries.push_back(Query{u, hot});
  }

  // expected[g][qi]: serial per-generation results.
  std::vector<std::vector<std::vector<ResultEntry>>> expected(kRounds + 1);
  for (size_t g = 0; g <= kRounds; ++g) {
    S3kSearcher searcher(*gens[g], opts);
    for (const Query& q : queries) {
      auto r = searcher.Search(q);
      ASSERT_TRUE(r.ok());
      expected[g].push_back(*r);
    }
  }

  QueryServiceOptions service_opts;
  service_opts.workers = 2;
  service_opts.queue_capacity = 256;
  service_opts.search = opts;
  service_opts.batch_window = 4;
  QueryService service(gens[0], service_opts);

  std::atomic<size_t> checked{0};
  auto check_response = [&](size_t qi, const QueryResponse& resp) {
    ASSERT_LE(resp.generation, kRounds);
    ExpectExactEntries(resp.entries, expected[resp.generation][qi],
                       "generation " + std::to_string(resp.generation) +
                           " query " + std::to_string(qi));
    checked.fetch_add(1);
  };

  for (size_t round = 1; round <= kRounds; ++round) {
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t) {
      clients.emplace_back([&, t] {
        for (size_t pass = 0; pass < 6; ++pass) {
          std::vector<std::pair<size_t, QueryFuture>> inflight;
          for (size_t qi = t; qi < queries.size(); qi += 3) {
            auto submitted = service.SubmitBlocking(queries[qi]);
            ASSERT_TRUE(submitted.ok());
            inflight.emplace_back(qi, std::move(*submitted));
          }
          for (auto& [qi, future] : inflight) {
            auto resp = future.get();
            ASSERT_TRUE(resp.ok()) << resp.status().message();
            check_response(qi, *resp);
          }
        }
      });
    }
    ASSERT_TRUE(service.SwapSnapshot(gens[round]).ok());
    for (auto& t : clients) t.join();

    // Quiesced: everything now answers on the new generation.
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto submitted = service.SubmitBlocking(queries[qi]);
      ASSERT_TRUE(submitted.ok());
      auto resp = submitted->get();
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->generation, round);
      check_response(qi, *resp);
    }
  }

  EXPECT_GT(checked.load(), 0u);
  EXPECT_EQ(service.Stats().failed, 0u);
  EXPECT_EQ(service.snapshot()->generation(), kRounds);
}

}  // namespace
}  // namespace s3::server

// Open-loop serving benchmark for the S3 stack (workload definitions,
// metric definitions and the layer -> end-to-end table: NOTES.md).
//
//   s3_perfbench --workload <hot_skew|long_tail|live_update|scatter>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--out-dir <dir>] [--source-id <id>]
//
// One process drives QueryService / SnapshotManager / ShardRouter at
// their shipped defaults. Every layer is measured from outside: the
// spans below are recorded in this file around calls into the layers'
// public functions, plus the public response fields
// (QueryResponse::{queue_seconds,total_seconds,cache_hit,stats},
// ShardedResponse::shards[]).
//
// A run is: set-up (repeated, the fastest reported), warm-up, a
// closed-loop saturation phase (sat_qps), a fixed-rate open-loop phase
// (latency, CPU, memory) and the correctness checks. --trace 1 adds a second fixed-rate
// phase with spans recorded, writes the spans out at the end and
// replays that phase's kept queries serially through
// BuildCandidatePlan + SearchWithPlan to split exec time into core.plan
// and core.search.
//
// The last line of stdout is one JSON object:
//   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Any wrong answer, failed or refused query makes
// "correct" false and the exit code 1.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "core/instance_delta.h"
#include "core/naive_reference.h"
#include "core/s3k.h"
#include "core/score.h"
#include "server/query_service.h"
#include "server/snapshot_manager.h"
#include "shard/partitioner.h"
#include "shard/shard_router.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"

namespace {

using namespace s3;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Workload table. Offered rates are fixed numbers, chosen once at about
// 0.3 of each workload's sat_qps on the reference machine (0.4 for
// scatter, the lowest rate that still gives 1000 queries), and
// live_update's delta rate at about 0.3 of the updater's capacity under
// its read load (NOTES.md).

struct WorkloadDef {
  const char* name;
  double query_rate;   // fixed offered query rate (1/s)
  double delta_rate;   // offered delta rate (1/s); live_update only
  bool sharded;        // served through ShardRouter::QueryGlobal
};

constexpr WorkloadDef kWorkloads[] = {
    {"hot_skew", 100.0, 0.0, false},
    {"long_tail", 200.0, 0.0, false},
    {"live_update", 90.0, 12.0, false},
    {"scatter", 70.0, 0.0, true},
};

// Keyword-set pools are part of a workload's definition, like the
// instance: they come from a fixed seed, so every run offers the same
// mix (per-set engine cost spans two orders of magnitude, so a pool
// drawn per seed would move capacity by more than any bound). The run
// seed draws the stream: which set each request uses, its seeker,
// options, arrival times and the deltas.
constexpr uint64_t kPoolSeed = 20160315;
// hot_skew pool size and Zipf exponent over its ranks (the default
// plan cache holds 8x64 = 512 plans; 64 sets is far below that).
constexpr size_t kHotPool = 64;
constexpr double kHotZipf = 1.0;
constexpr size_t kHotDeck = 1024;
// long_tail: queries per (frequency, length, k) cell of the paper's
// §5.1 grid; 2 x 5 x 2 cells.
constexpr size_t kTailPerCell = 100;
constexpr double kTailAnytimeShare = 0.3;
constexpr double kTailDeadlineShare = 0.2;
// About the exact engine's p90 on this mix (serial replay on the
// reference box: 14 ms).
constexpr double kTailDeadlineSeconds = 0.014;
// live_update: a synchronous Checkpoint() after every this many
// deltas, the smallest count at which checkpoints add at most 10% to
// the write path's time (measurement in NOTES.md).
constexpr uint64_t kCheckpointEvery = 20;
// scatter: shards x workers per shard = nproc on the reference box.
constexpr uint32_t kShards = 2;
constexpr unsigned kWorkersPerShard = 2;
// Closed-loop window for sat_qps (requests outstanding).
constexpr size_t kSatOutstanding = 16;
// Client threads dispatching blocking QueryGlobal calls.
constexpr unsigned kScatterClients = 4;
// sat_qps: median over this many equal windows of the closed loop.
constexpr size_t kSatWindows = 10;
// Set-ups per run (setup_s is the fastest: the machine's slowdowns only
// ever add time).
constexpr int kSetupReps = 11;
// Correctness samples kept per fixed-rate phase (untraced runs) and
// queries checked against NaiveSearch.
constexpr size_t kCheckedSamples = 150;
constexpr size_t kNaiveChecks = 3;
// The generator is flagged invalid past this lateness (p99) or when
// the achieved offered rate falls short of the schedule by > 5%.
constexpr double kMaxLateP99Seconds = 0.010;

// ---------------------------------------------------------------------
// Small utilities.

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
         ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
}

// Resident-memory high-water mark (VmHWM) since the last
// ResetPeakRss(), in MB; the lifetime peak (ru_maxrss) where
// /proc/self/status cannot be read.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux: KiB
}

// Returns the heap freed by earlier set-ups to the system, then resets
// VmHWM to the current resident size, so PeakRssMb() measures the
// serving stack from here on. False when the kernel refuses the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// Poisson arrival offsets (seconds from phase start) at `rate` for
// `duration` seconds: precomputed, so the generator only sleeps.
std::vector<double> PoissonSchedule(Rng& rng, double rate, double duration) {
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

// ---------------------------------------------------------------------
// Spans: name, start, end (seconds since run start), parent span id
// (-1 for a root) and request id. Recorded in memory, written at exit.

struct Span {
  const char* name;
  double start;
  double end;
  int64_t parent;
  uint64_t req;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  double Rel(Clock::time_point t) const { return Seconds(origin_, t); }

  int64_t Add(const char* name, double start, double end, int64_t parent,
              uint64_t req) {
    if (!enabled()) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, req});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  // Self time of every span: its duration minus the union of its
  // children's intervals (clipped to it), grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimes() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[s.parent].push_back({s.start, s.end});
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      out[s.name].push_back(std::max(0.0, s.end - s.start - covered));
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                    "\"end_us\": %.3f, \"parent\": %lld, \"req\": %llu}\n",
                    i, s.name, s.start * 1e6, s.end * 1e6,
                    static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.req));
      f << buf;
    }
    return static_cast<bool>(f);
  }

  size_t size() const { return spans_.size(); }

 private:
  Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// The I1 microblog instance (the parameters of bench::MakeI1, held here
// so the benchmark's input does not move with the figure benches).

workload::GenResult MakeI1() {
  workload::MicroblogParams p;
  p.seed = 101;
  p.n_users = 4000;
  p.isolated_user_fraction = 0.12;
  p.n_tweets = 16000;
  p.vocab_size = 6000;
  p.n_hashtags = 300;
  p.ontology.n_classes = 600;
  p.ontology.n_entities = 1500;
  p.ontology.parent_probability = 0.25;
  p.entity_prob = 0.1;
  return workload::GenerateMicroblog(p);
}

// ---------------------------------------------------------------------
// Query mixes and streams.

// A workload's query mix: the keyword-set pool and a "deck" of pool
// indices in which every set appears its expected number of times.
struct QueryMix {
  std::vector<core::QueryRequest> pool;  // keyword sets (+ per-request k)
  std::vector<uint32_t> deck;
  uint32_t n_users = 1;
  double anytime_share = 0.0;
  double deadline_share = 0.0;
};

// Requests drawn deck by deck, each deck freshly shuffled: stratified
// sampling, so every run serves the mix's exact proportions of keyword
// sets (per-set cost varies by two orders of magnitude) while the
// order, seekers and options come from the seed.
class QueryStream {
 public:
  QueryStream(const QueryMix& mix, uint64_t seed) : mix_(mix), rng_(seed) {}

  core::QueryRequest Next() {
    if (pos_ == order_.size()) {
      order_ = mix_.deck;
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.Uniform(i)]);
      }
      pos_ = 0;
    }
    core::QueryRequest q = mix_.pool[order_[pos_++]];
    q.seeker = static_cast<social::UserId>(rng_.Uniform(mix_.n_users));
    if (mix_.anytime_share > 0 && rng_.Chance(mix_.anytime_share)) {
      q.options.mode = core::QueryMode::kAnytime;
      q.options.epsilon_approx = rng_.Chance(0.5) ? 0.01 : 0.1;
    }
    if (mix_.deadline_share > 0 && rng_.Chance(mix_.deadline_share)) {
      q.options.deadline_seconds = kTailDeadlineSeconds;
    }
    return q;
  }

 private:
  const QueryMix& mix_;
  Rng rng_;
  std::vector<uint32_t> order_;
  size_t pos_ = 0;
};

void AddSpec(const core::S3Instance& inst,
             const std::vector<KeywordId>& anchors, workload::Frequency f,
             size_t l, size_t k, size_t n, uint64_t seed,
             std::vector<core::QueryRequest>* pool) {
  workload::WorkloadSpec spec;
  spec.freq = f;
  spec.n_keywords = l;
  spec.k = k;
  spec.n_queries = n;
  spec.seed = seed;
  for (core::Query q : workload::BuildWorkload(inst, anchors, spec).queries) {
    // Sorted keywords: the plan cache's canonical slot order, so the
    // serial reference scores bit-identically.
    std::sort(q.keywords.begin(), q.keywords.end());
    core::QueryOptions opts;
    opts.k = k;
    pool->emplace_back(q.seeker, std::move(q.keywords), opts);
  }
}

QueryMix HotMix(const core::S3Instance& inst,
                const std::vector<KeywordId>& anchors) {
  QueryMix mix;
  mix.n_users = static_cast<uint32_t>(inst.UserCount());
  AddSpec(inst, anchors, workload::Frequency::kCommon, 2, 10, kHotPool,
          kPoolSeed, &mix.pool);
  // Popularity follows keyword frequency: sets are ranked by the summed
  // document frequency of their keywords, most common first (stable on
  // ties, so the ranking is deterministic).
  auto df = [&](const core::QueryRequest& q) {
    size_t n = 0;
    for (KeywordId k : q.keywords) n += inst.index().DocumentFrequency(k);
    return n;
  };
  std::stable_sort(mix.pool.begin(), mix.pool.end(),
                   [&](const auto& a, const auto& b) { return df(a) > df(b); });
  // Zipf weights over the ranks, as whole counts in a kHotDeck deck
  // (largest remainder).
  std::vector<double> w(mix.pool.size());
  double total = 0.0;
  for (size_t r = 0; r < w.size(); ++r) {
    total += w[r] = 1.0 / std::pow(double(r + 1), kHotZipf);
  }
  std::vector<std::pair<double, uint32_t>> rem;
  size_t dealt = 0;
  for (uint32_t r = 0; r < w.size(); ++r) {
    const double exact = w[r] / total * kHotDeck;
    const size_t n = static_cast<size_t>(exact);
    mix.deck.insert(mix.deck.end(), n, r);
    dealt += n;
    rem.push_back({exact - n, r});
  }
  std::sort(rem.rbegin(), rem.rend());
  for (size_t i = 0; dealt < kHotDeck; ++i, ++dealt) {
    mix.deck.push_back(rem[i].second);
  }
  return mix;
}

QueryMix TailMix(const core::S3Instance& inst,
                 const std::vector<KeywordId>& anchors) {
  QueryMix mix;
  mix.n_users = static_cast<uint32_t>(inst.UserCount());
  uint64_t cell = 0;
  for (auto f : {workload::Frequency::kRare, workload::Frequency::kCommon}) {
    for (size_t l = 1; l <= 5; ++l) {
      for (size_t k : {5u, 10u}) {
        AddSpec(inst, anchors, f, l, k, kTailPerCell,
                kPoolSeed + 100 + cell++, &mix.pool);
      }
    }
  }
  for (uint32_t i = 0; i < mix.pool.size(); ++i) mix.deck.push_back(i);
  mix.anytime_share = kTailAnytimeShare;
  mix.deadline_share = kTailDeadlineShare;
  return mix;
}

// ---------------------------------------------------------------------
// Deltas (the construction of bench_update_throughput's MakeDelta): a
// burst of tweets, a few tags and social edges.

core::InstanceDelta MakeDelta(std::shared_ptr<const core::S3Instance> snap,
                              Rng& rng, uint64_t serial) {
  core::InstanceDelta delta(std::move(snap));
  const core::S3Instance& base = *delta.base();
  const uint32_t n_users = static_cast<uint32_t>(base.UserCount());
  const uint32_t n_keywords = static_cast<uint32_t>(base.vocabulary().size());
  const uint32_t n_nodes = static_cast<uint32_t>(base.docs().NodeCount());
  for (int i = 0; i < 8; ++i) {
    doc::Document d("tweet");
    d.AddKeywords(0, {static_cast<KeywordId>(rng.Uniform(n_keywords)),
                      static_cast<KeywordId>(rng.Uniform(n_keywords))});
    if (rng.Chance(0.4)) {
      uint32_t child = d.AddChild(0, "text");
      d.AddKeywords(child, {delta.InternKeyword(
                               "live" + std::to_string(serial * 100 + i))});
    }
    auto id = delta.AddDocument(
        std::move(d), "live" + std::to_string(serial) + "_" + std::to_string(i),
        static_cast<social::UserId>(rng.Uniform(n_users)));
    if (id.ok() && rng.Chance(0.5)) {
      (void)delta.AddComment(*id,
                             static_cast<doc::NodeId>(rng.Uniform(n_nodes)));
    }
  }
  for (int t = 0; t < 4; ++t) {
    (void)delta.AddTagOnFragment(
        static_cast<social::UserId>(rng.Uniform(n_users)),
        static_cast<doc::NodeId>(rng.Uniform(n_nodes)),
        static_cast<KeywordId>(rng.Uniform(n_keywords)));
  }
  for (int e = 0; e < 4; ++e) {
    (void)delta.AddSocialEdge(static_cast<social::UserId>(rng.Uniform(n_users)),
                              static_cast<social::UserId>(rng.Uniform(n_users)),
                              0.2 + 0.7 * rng.NextDouble());
  }
  return delta;
}

// ---------------------------------------------------------------------
// Deployment: the serving stack of one workload.

struct Deployment {
  std::shared_ptr<const core::S3Instance> base;  // generation 0, unsharded
  std::vector<KeywordId> anchors;
  std::unique_ptr<server::SnapshotManager> manager;
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<shard::ShardRouter> router;
  double generate_s = 0.0;
  double start_s = 0.0;
  uint64_t snapshot_bytes = 0;  // live_update: Initialize's checkpoint
};

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

// Bytes of the snapshot files in a SnapshotManager directory (a
// checkpoint leaves exactly one: it deletes the older ones).
uint64_t SnapshotBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name.ends_with(".s3snap")) {
      total += FileBytes(e.path().string());
    }
  }
  return total;
}

Result<Deployment> Setup(const WorkloadDef& w, const std::string& store_dir) {
  Deployment d;
  auto t0 = Clock::now();
  workload::GenResult gen = MakeI1();
  d.base = std::shared_ptr<const core::S3Instance>(std::move(gen.instance));
  d.anchors = std::move(gen.semantic_anchors);
  auto t1 = Clock::now();
  if (w.sharded) {
    shard::PartitionOptions popts;
    popts.shard_count = kShards;
    auto part = shard::Partition(*d.base, popts);
    if (!part.ok()) return part.status();
    shard::ShardRouterOptions ropts;
    ropts.service.workers = kWorkersPerShard;
    auto router = shard::ShardRouter::Serve(std::move(*part), ropts);
    if (!router.ok()) return router.status();
    d.router = std::move(*router);
  } else {
    d.service = std::make_unique<server::QueryService>(
        d.base, server::QueryServiceOptions{});
    if (w.delta_rate > 0) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir, ec);
      server::SnapshotManagerOptions sopts;
      sopts.dir = store_dir;
      auto opened = server::SnapshotManager::Open(sopts);
      if (!opened.ok()) return opened.status();
      Status st = (*opened)->Initialize(d.base);
      if (!st.ok()) return st;
      d.manager = std::move(*opened);
      d.snapshot_bytes = SnapshotBytes(store_dir);
    }
  }
  auto t2 = Clock::now();
  d.generate_s = Seconds(t0, t1);
  d.start_s = Seconds(t1, t2);
  return d;
}

// The last two published generations, so a response can be checked
// against the exact snapshot that answered it. Under live updates a
// generation is published here before the service swaps to it: a
// response then comes from one of the two, unless the swaps overtook
// it (it is left unchecked and counted in CheckTally::missed).
class GenerationRing {
 public:
  void Publish(std::shared_ptr<const core::S3Instance> s) {
    std::lock_guard<std::mutex> lock(mu_);
    by_gen_[s->generation()] = std::move(s);
    while (by_gen_.size() > 2) by_gen_.erase(by_gen_.begin());
  }
  std::shared_ptr<const core::S3Instance> Find(uint64_t generation) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_gen_.find(generation);
    return it == by_gen_.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const core::S3Instance>> by_gen_;
};

// ---------------------------------------------------------------------
// Per-request records.

struct QueryRecord {
  core::QueryRequest req;
  double due = 0.0;           // intended send time (s since run start)
  double start = 0.0;         // Submit / QueryGlobal entry
  double submit_end = 0.0;    // Submit return
  double latency = 0.0;       // from due time to completion
  bool refused = false;       // Submit refused with Unavailable
  bool failed = false;        // error status (refusals included)
  bool wrong = false;         // failed a correctness check
  bool picked_late = false;   // scatter: no free client at due time
  // QueryService response fields.
  bool cache_hit = false;
  double queue_s = 0.0;
  double total_s = 0.0;
  uint64_t generation = 0;
  size_t iterations = 0, candidates = 0, comps_discovered = 0, ext_kw = 0;
  double certified_eps = 0.0;
  bool deadline_exceeded = false;
  // ShardRouter response fields.
  double scatter_max = 0.0;
  size_t shards_queried = 0, shards_pruned = 0, shards_bound_pruned = 0;
  // Kept for the correctness check / traced replay.
  bool kept = false;
  std::vector<core::ResultEntry> entries;
  std::shared_ptr<const core::S3Instance> snap;
  // Serial replay of the check (0 until checked).
  double replay_plan_s = 0.0, replay_search_s = 0.0;
};

// Checks that need only the response (every request).
void CheckCertificate(QueryRecord& r) {
  if (r.failed) return;
  if (r.req.options.mode == core::QueryMode::kAnytime &&
      !r.deadline_exceeded &&
      !(r.certified_eps <= r.req.options.epsilon_approx * (1 + 1e-9) + 1e-12)) {
    r.wrong = true;
  }
}

void FillFromResponse(QueryRecord& r, const server::QueryResponse& resp) {
  r.cache_hit = resp.cache_hit;
  r.queue_s = resp.queue_seconds;
  r.total_s = resp.total_seconds;
  r.generation = resp.generation;
  r.iterations = resp.stats.iterations;
  r.candidates = resp.stats.candidates_total;
  r.comps_discovered = resp.stats.components_discovered;
  r.ext_kw = resp.stats.extension_keywords;
  r.certified_eps = resp.certified_epsilon;
  r.deadline_exceeded = resp.deadline_exceeded;
}

// ---------------------------------------------------------------------
// Update stream (live_update): open-loop deltas through
// SnapshotManager::LogAndApply -> QueryService::SwapSnapshot, with a
// synchronous Checkpoint() every kCheckpointEvery deltas.

struct UpdateRecord {
  double due = 0.0;
  double latency = 0.0;  // due -> SwapSnapshot returned
  double build_s = 0.0, log_apply_s = 0.0, swap_s = 0.0, checkpoint_s = 0.0;
  uint64_t wal_bytes = 0;
  uint64_t snapshot_bytes = 0;
};

class Updater {
 public:
  Updater(Deployment& d, GenerationRing& ring, Tracer& tracer,
          const std::string& dir, uint64_t seed, double rate,
          Clock::time_point origin)
      : d_(d), ring_(ring), tracer_(tracer), dir_(dir), rng_(seed),
        rate_(rate), origin_(origin) {}

  ~Updater() { Stop(); }
  Updater(const Updater&) = delete;
  Updater& operator=(const Updater&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Records whose due time lies in [from, to) (s since run start).
  std::vector<UpdateRecord> Between(double from, double to) const {
    std::vector<UpdateRecord> out;
    for (const UpdateRecord& u : records_) {
      if (u.due >= from && u.due < to) out.push_back(u);
    }
    return out;
  }
  size_t failures() const { return failures_; }

 private:
  void Loop() {
    double next_due = 0.0;
    uint64_t serial = 0;
    const std::string wal = dir_ + "/wal.log";
    while (true) {
      next_due += -std::log(1.0 - rng_.NextDouble()) / rate_;
      const auto due_tp =
          origin_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(next_due));
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, due_tp, [this] { return stop_; })) return;
      }
      UpdateRecord u;
      u.due = next_due;
      const uint64_t req = serial;
      auto a = Clock::now();
      core::InstanceDelta delta =
          MakeDelta(d_.manager->current(), rng_, serial++);
      auto b = Clock::now();
      const uint64_t wal_before = FileBytes(wal);
      auto next = d_.manager->LogAndApply(delta);
      auto c = Clock::now();
      u.wal_bytes = FileBytes(wal) - wal_before;
      if (next.ok()) ring_.Publish(*next);
      Status st = next.ok() ? d_.service->SwapSnapshot(*next) : next.status();
      auto e = Clock::now();
      if (!st.ok()) {
        std::fprintf(stderr, "update %llu failed: %s\n",
                     static_cast<unsigned long long>(req),
                     st.ToString().c_str());
        ++failures_;
        return;
      }
      u.build_s = Seconds(a, b);
      u.log_apply_s = Seconds(b, c);
      u.swap_s = Seconds(c, e);
      u.latency = tracer_.Rel(e) - u.due;
      int64_t root = tracer_.Add("update", u.due, tracer_.Rel(e), -1, req);
      auto span = [&](const char* name, Clock::time_point from,
                      Clock::time_point to, int64_t parent) {
        tracer_.Add(name, tracer_.Rel(from), tracer_.Rel(to), parent, req);
      };
      span("storage.delta_build", a, b, root);
      span("storage.log_and_apply", b, c, root);
      span("storage.swap", c, e, root);
      if (serial % kCheckpointEvery == 0) {
        // Off the update's latency path: the next delta waits for it
        // (its due time is unaffected), as a real single writer would.
        auto f = Clock::now();
        Status cs = d_.manager->Checkpoint();
        auto g = Clock::now();
        if (!cs.ok()) {
          std::fprintf(stderr, "checkpoint failed: %s\n",
                       cs.ToString().c_str());
          ++failures_;
        }
        u.checkpoint_s = Seconds(f, g);
        u.snapshot_bytes = SnapshotBytes(dir_);
        span("storage.checkpoint", f, g, -1);
      }
      records_.push_back(u);
    }
  }

  Deployment& d_;
  GenerationRing& ring_;
  Tracer& tracer_;
  const std::string dir_;
  Rng rng_;
  const double rate_;
  const Clock::time_point origin_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  // Written by the update thread only; read after Stop().
  std::vector<UpdateRecord> records_;
  size_t failures_ = 0;
  std::thread thread_;
};

// Correctness-check counts: responses `sampled` for checking, the
// ones `checked` against the serial reference, the ones `missed`
// whose generation had left the GenerationRing before the response
// arrived (live_update only), and the CPU the in-run checks spent.
struct CheckTally {
  std::atomic<size_t> sampled{0}, checked{0}, missed{0};
  size_t naive = 0;         // checked against NaiveSearch too
  double check_cpu_s = 0.0;  // in-run checks (collector thread only)
};

struct Ctx {
  const WorkloadDef& w;
  Deployment& d;
  GenerationRing& ring;
  Tracer& tracer;
  CheckTally& tally;
  Clock::time_point origin;
};

// ---------------------------------------------------------------------
// Correctness: kept responses vs a serial S3kSearcher::Search on the
// same generation (bit-for-bit), and a few vs NaiveSearch.

bool SameEntries(const std::vector<core::ResultEntry>& a,
                 const std::vector<core::ResultEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].lower != b[i].lower ||
        a[i].upper != b[i].upper) {
      return false;
    }
  }
  return true;
}

// Converged proximity by long matrix iteration (γ^-120 ≈ 0).
std::vector<double> ConvergedProx(const core::S3Instance& inst,
                                  social::UserId seeker, double gamma) {
  const auto& m = inst.matrix();
  social::Frontier f, g;
  f.Init(inst.layout().total());
  g.Init(inst.layout().total());
  std::vector<double> prox(inst.layout().total(), 0.0);
  const uint32_t row = inst.RowOfUser(seeker);
  prox[row] = core::CGamma(gamma);
  f.Set(row, 1.0);
  for (size_t n = 1; n <= 120; ++n) {
    m.Propagate(f, g);
    std::swap(f, g);
    if (f.nonzero.empty()) break;
    const double scale = core::CGamma(gamma) / std::pow(gamma, double(n));
    for (uint32_t r : f.nonzero) prox[r] += scale * f.values[r];
  }
  return prox;
}

// The returned entries' exact converged scores equal NaiveSearch's
// (as descending multisets, up to 1e-7 relative).
bool AgreesWithNaive(const core::S3Instance& inst,
                     const core::QueryRequest& req,
                     const std::vector<core::ResultEntry>& got,
                     const core::S3kOptions& opts) {
  core::S3kOptions o = opts;
  if (req.options.k) o.k = req.options.k;
  core::Query q{req.seeker, req.keywords};
  auto prox = ConvergedProx(inst, q.seeker, o.score.gamma);
  auto oracle = core::NaiveSearchWithProx(inst, q, o, prox);
  if (oracle.size() != got.size()) return false;
  auto plan = core::BuildCandidatePlan(inst, q.keywords, o.use_semantics,
                                       o.score.eta);
  if (!plan.ok()) return false;
  std::unordered_map<doc::NodeId, double> exact;
  for (const auto& cc : plan->per_comp) {
    for (const core::Candidate& cand : cc.candidates) {
      exact[cand.node] = core::CandidateScore(cand, prox);
    }
  }
  std::vector<double> a, b;
  for (const auto& e : got) {
    a.push_back(exact.count(e.node) ? exact[e.node] : -1.0);
  }
  for (const auto& e : oracle) b.push_back(e.lower);
  std::sort(a.rbegin(), a.rend());
  std::sort(b.rbegin(), b.rend());
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > 1e-7 * std::max(1.0, std::fabs(b[i]))) {
      return false;
    }
  }
  return true;
}

// Checks one kept record: serial BuildCandidatePlan + SearchWithPlan
// (== S3kSearcher::Search) on the generation that answered it,
// compared bit-for-bit unless the served answer hit its deadline; the
// first kNaiveChecks converged exact ones also against NaiveSearch.
// Records the replay's timing (adding core.plan / core.search spans
// under a "replay" root while tracing), then releases the record's
// snapshot and entries.
void CheckOne(const Ctx& c, QueryRecord& r, uint64_t id) {
  const core::S3kOptions opts = server::QueryServiceOptions{}.search;
  core::S3kSearcher searcher(*r.snap, opts);
  core::QueryRequest req = r.req;
  req.options.deadline_seconds = 0.0;  // the reference never truncates
  auto a = Clock::now();
  auto plan = core::BuildCandidatePlan(*r.snap, req.keywords,
                                       opts.use_semantics, opts.score.eta);
  auto b = Clock::now();
  core::SearchStats stats;
  Result<std::vector<core::ResultEntry>> ref =
      plan.ok() ? searcher.SearchWithPlan(req, *plan, &stats)
                : Result<std::vector<core::ResultEntry>>(plan.status());
  auto e = Clock::now();
  ++c.tally.checked;
  if (!ref.ok()) {
    r.wrong = true;
  } else {
    r.replay_plan_s = Seconds(a, b);
    r.replay_search_s = Seconds(b, e);
    int64_t root =
        c.tracer.Add("replay", c.tracer.Rel(a), c.tracer.Rel(e), -1, id);
    c.tracer.Add("core.plan", c.tracer.Rel(a), c.tracer.Rel(b), root, id);
    c.tracer.Add("core.search", c.tracer.Rel(b), c.tracer.Rel(e), root, id);
    // Deadline-truncated answers depend on timing: not compared.
    if (!r.deadline_exceeded) {
      if (!SameEntries(r.entries, *ref)) {
        r.wrong = true;
      } else if (c.tally.naive < kNaiveChecks &&
                 r.req.options.mode == core::QueryMode::kExact &&
                 stats.converged) {
        ++c.tally.naive;
        if (!AgreesWithNaive(*r.snap, r.req, r.entries, opts)) r.wrong = true;
      }
    }
  }
  r.snap.reset();
  r.entries = {};
}

// Checks every kept record that was not checked in-run.
void CheckKept(const Ctx& c, std::vector<QueryRecord>& records,
               uint64_t id_base) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].kept && records[i].snap) CheckOne(c, records[i], id_base + i);
  }
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec * 1e-9;
}

// ---------------------------------------------------------------------
// Load phases.

struct PhaseResult {
  std::vector<QueryRecord> records;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double t_begin = 0.0, t_end = 0.0;  // s since run start
  server::QueryServiceStats stats_before, stats_after;
  server::ProximityCacheStats cache_before, cache_after;
};

void SnapServiceStats(const Ctx& c, server::QueryServiceStats* s,
                      server::ProximityCacheStats* cs) {
  if (!c.d.service) return;
  *s = c.d.service->Stats();
  if (c.d.service->cache()) *cs = c.d.service->cache()->Stats();
}

Clock::time_point At(const Ctx& c, double rel) {
  return c.origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(rel));
}

// Keeps a response for the correctness check. Under live updates it is
// checked at once, on the collector thread, so that the benchmark holds
// no retired generation (rss_mb); that CPU goes to
// CheckTally::check_cpu_s. Other workloads are checked after the run.
void Keep(const Ctx& c, QueryRecord& r, std::vector<core::ResultEntry> entries,
          uint64_t id) {
  ++c.tally.sampled;
  r.snap = c.w.sharded ? c.d.base : c.ring.Find(r.generation);
  if (!r.snap) {
    ++c.tally.missed;
    return;
  }
  r.kept = true;
  r.entries = std::move(entries);
  if (c.w.delta_rate > 0) {
    const double cpu0 = ThreadCpuSeconds();
    CheckOne(c, r, id);
    c.tally.check_cpu_s += ThreadCpuSeconds() - cpu0;
  }
}

void RecordQuerySpans(const Ctx& c, const QueryRecord& r, uint64_t id) {
  if (!c.tracer.enabled() || r.failed) return;
  const double done = r.start + r.total_s;
  int64_t root = c.tracer.Add("request", r.due, done, -1, id);
  c.tracer.Add("gen.late", r.due, r.start, root, id);
  c.tracer.Add("server.submit", r.start, r.submit_end, root, id);
  c.tracer.Add("server.queue", r.start, r.start + r.queue_s, root, id);
  c.tracer.Add("server.exec", r.start + r.queue_s, done, root, id);
}

// Fixed-rate open loop through QueryService::Submit: one generator
// thread sleeps to each precomputed due time and submits; one
// collector thread redeems the futures. Latency = (submit - due) +
// QueryResponse::total_seconds.
PhaseResult OpenLoopSubmit(const Ctx& c, std::vector<core::QueryRequest> reqs,
                           const std::vector<double>& due_offsets,
                           double t_begin, size_t keep_every,
                           uint64_t id_base) {
  PhaseResult out;
  out.records.resize(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    out.records[i].req = std::move(reqs[i]);
    out.records[i].due = t_begin + due_offsets[i];
  }
  SnapServiceStats(c, &out.stats_before, &out.cache_before);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, server::QueryFuture>> pending;
  bool done = false;

  std::thread collector([&] {
    while (true) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done || !pending.empty(); });
      if (pending.empty()) return;
      auto [i, fut] = std::move(pending.front());
      pending.pop_front();
      lock.unlock();
      QueryRecord& r = out.records[i];
      auto resp = fut.get();
      if (!resp.ok()) {
        r.failed = true;
        continue;
      }
      FillFromResponse(r, *resp);
      r.latency = (r.start - r.due) + r.total_s;
      CheckCertificate(r);
      RecordQuerySpans(c, r, id_base + i);
      if (keep_every && i % keep_every == 0) {
        Keep(c, r, std::move(resp->entries), id_base + i);
      }
    }
  });

  const double cpu0 = CpuSeconds();
  const double check_cpu0 = c.tally.check_cpu_s;
  const auto wall0 = Clock::now();
  for (size_t i = 0; i < out.records.size(); ++i) {
    QueryRecord& r = out.records[i];
    std::this_thread::sleep_until(At(c, r.due));
    auto s = Clock::now();
    auto sub = c.d.service->Submit(r.req);
    auto e = Clock::now();
    r.start = c.tracer.Rel(s);
    r.submit_end = c.tracer.Rel(e);
    if (!sub.ok()) {
      r.failed = true;
      r.refused = sub.status().code() == StatusCode::kUnavailable;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.emplace_back(i, std::move(*sub));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  out.wall_s = Seconds(wall0, Clock::now());
  // The serving stack's CPU: in-run checks excluded.
  out.cpu_s = CpuSeconds() - cpu0 - (c.tally.check_cpu_s - check_cpu0);
  out.t_begin = t_begin;
  out.t_end = c.tracer.Rel(Clock::now());
  SnapServiceStats(c, &out.stats_after, &out.cache_after);
  return out;
}

// Fixed-rate open loop through the blocking ShardRouter::QueryGlobal:
// kScatterClients threads take the next request in schedule order,
// sleep to its due time and call QueryGlobal. Latency = completion -
// due, so time a request waits for a free client counts.
PhaseResult OpenLoopGlobal(const Ctx& c, std::vector<core::QueryRequest> reqs,
                           const std::vector<double>& due_offsets,
                           double t_begin, size_t keep_every,
                           uint64_t id_base) {
  PhaseResult out;
  out.records.resize(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    out.records[i].req = std::move(reqs[i]);
    out.records[i].due = t_begin + due_offsets[i];
  }
  std::atomic<size_t> next{0};
  const double cpu0 = CpuSeconds();
  const auto wall0 = Clock::now();
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kScatterClients; ++t) {
    clients.emplace_back([&] {
      for (size_t i = next++; i < out.records.size(); i = next++) {
        QueryRecord& r = out.records[i];
        r.picked_late = c.tracer.Rel(Clock::now()) > r.due;
        std::this_thread::sleep_until(At(c, r.due));
        auto s = Clock::now();
        auto resp = c.d.router->QueryGlobal(r.req);
        auto e = Clock::now();
        r.start = c.tracer.Rel(s);
        r.submit_end = r.start;
        if (!resp.ok()) {
          r.failed = true;
          r.refused = resp.status().code() == StatusCode::kUnavailable;
          continue;
        }
        const double wall = Seconds(s, e);
        r.latency = c.tracer.Rel(e) - r.due;
        r.total_s = wall;
        r.cache_hit = resp->cache_hit;
        r.iterations = resp->stats.iterations;
        r.candidates = resp->stats.candidates_total;
        r.comps_discovered = resp->stats.components_discovered;
        r.ext_kw = resp->stats.extension_keywords;
        r.certified_eps = resp->certified_epsilon;
        r.deadline_exceeded = resp->deadline_exceeded;
        r.shards_queried = resp->shards_queried;
        r.shards_pruned = resp->shards_pruned;
        for (const shard::ShardReport& rep : resp->shards) {
          if (rep.queried) {
            r.scatter_max = std::max(r.scatter_max, rep.scatter_seconds);
          }
          if (rep.pruned_bound) ++r.shards_bound_pruned;
        }
        CheckCertificate(r);
        if (keep_every && i % keep_every == 0) {
          Keep(c, r, std::move(resp->entries), id_base + i);
        }
        if (c.tracer.enabled()) {
          const uint64_t id = id_base + i;
          int64_t root = c.tracer.Add("request", r.due, r.start + wall, -1, id);
          c.tracer.Add("gen.late", r.due, r.start, root, id);
          const double end = r.start + wall;
          const double split = r.start + r.scatter_max;
          int64_t qg =
              c.tracer.Add("shard.query_global", r.start, end, root, id);
          c.tracer.Add("shard.scatter", r.start, split, qg, id);
          c.tracer.Add("shard.merge", split, end, qg, id);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  out.wall_s = Seconds(wall0, Clock::now());
  out.cpu_s = CpuSeconds() - cpu0;
  out.t_begin = t_begin;
  out.t_end = c.tracer.Rel(Clock::now());
  return out;
}

// Closed loop: kSatOutstanding requests outstanding (Submit) or
// kScatterClients blocking callers (QueryGlobal) for `duration`
// seconds. Returns completed requests per second; counts failures.
double ClosedLoop(const Ctx& c, QueryStream& stream,
                  double duration, size_t* attempted, size_t* failed) {
  const auto t0 = Clock::now();
  const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(duration));
  std::atomic<size_t> fails{0}, tries{0};
  // Completions per sub-window; sat_qps is the median window's rate,
  // so a short stall of the machine moves it little.
  std::vector<std::atomic<size_t>> per_window(kSatWindows);
  const double window_s = duration / kSatWindows;
  auto complete = [&] {
    const auto now = Clock::now();
    if (now < t_end) {
      const size_t w = static_cast<size_t>(Seconds(t0, now) / window_s);
      ++per_window[std::min(w, kSatWindows - 1)];
    }
  };
  if (c.w.sharded) {
    std::mutex mu;
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < kScatterClients; ++t) {
      clients.emplace_back([&] {
        while (Clock::now() < t_end) {
          core::QueryRequest q;
          {
            std::lock_guard<std::mutex> lock(mu);
            q = stream.Next();
          }
          ++tries;
          auto resp = c.d.router->QueryGlobal(q);
          if (!resp.ok()) {
            ++fails;
          } else {
            complete();
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  } else {
    std::deque<server::QueryFuture> window;
    auto drain_one = [&] {
      auto resp = window.front().get();
      window.pop_front();
      if (!resp.ok()) {
        ++fails;
      } else {
        complete();
      }
    };
    while (Clock::now() < t_end) {
      while (window.size() < kSatOutstanding) {
        ++tries;
        auto sub = c.d.service->Submit(stream.Next());
        if (!sub.ok()) {
          ++fails;
          break;
        }
        window.push_back(std::move(*sub));
      }
      if (!window.empty()) drain_one();
    }
    while (!window.empty()) drain_one();
  }
  *attempted += tries;
  *failed += fails;
  std::vector<double> rates;
  for (const auto& n : per_window) rates.push_back(n / window_s);
  std::fprintf(stderr, "closed loop: window rates");
  for (double r : rates) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\n");
  return Quantile(rates, 0.5);
}

// ---------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string source_id = "unknown";
};

std::string StampJson(const Args& a) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %ld, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"S3_SIMD\": \"%s\", \"S3_OBS\": \"%s\", "
      "\"source_id\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}",
      sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(CpuModel()).c_str(),
      JsonEscape(
#if defined(__clang__)
          "clang " __clang_version__
#else
          "gcc " __VERSION__
#endif
          ).c_str(),
      PB_BUILD_TYPE, PB_S3_SIMD, PB_S3_OBS, JsonEscape(a.source_id).c_str(),
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(),
                  std::isfinite(ms[i].value) ? ms[i].value : 0.0, ms[i].unit);
    out += buf;
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end || !(a->seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--source-id") {
      a->source_id = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

int Run(const Args& args) {
  const WorkloadDef* wp = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (!wp) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadDef& w = *wp;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string tag = std::string(w.name) + "-seed" +
                          std::to_string(args.seed) + "-trace" +
                          (args.trace ? "1" : "0");
  const std::string store_dir =
      args.out_dir + "/store-" + tag + "-" + std::to_string(getpid());
  const std::string stamp = StampJson(args);
  std::fprintf(stderr, "stamp: %s\n", stamp.c_str());

  // ---- set-up (repeated; the last one serves) ----
  std::vector<double> setup_s, generate_s, start_s;
  Deployment d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d = Deployment{};  // tear the previous stack down first
    auto made = Setup(w, store_dir);
    if (!made.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    d = std::move(*made);
    generate_s.push_back(d.generate_s);
    start_s.push_back(d.start_s);
    setup_s.push_back(d.generate_s + d.start_s);
  }
  std::fprintf(stderr, "set-ups, s:");
  for (double v : setup_s) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\n");
  // rss_mb covers the serving stack only: from here to the end of the
  // untraced fixed-rate phase.
  const bool rss_reset = ResetPeakRss();
  if (!rss_reset) {
    std::fprintf(stderr, "could not reset VmHWM: rss_mb is the lifetime peak\n");
  }

  const auto origin = Clock::now();
  Tracer tracer(origin);
  GenerationRing ring;
  ring.Publish(d.base);
  CheckTally tally;
  Ctx c{w, d, ring, tracer, tally, origin};

  Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 17);
  const QueryMix mix = std::string(w.name) == "long_tail"
                           ? TailMix(*d.base, d.anchors)
                           : HotMix(*d.base, d.anchors);

  std::unique_ptr<Updater> updater;
  if (w.delta_rate > 0) {
    updater = std::make_unique<Updater>(d, ring, tracer, store_dir,
                                        args.seed * 31 + 5, w.delta_rate,
                                        origin);
    updater->Start();
  }

  const double T = args.seconds;
  size_t attempted = 0, failed = 0, refused = 0;

  // Warm-up (plan cache, searcher scratch), not measured.
  {
    QueryStream warm(mix, args.seed * 131 + 99);
    ClosedLoop(c, warm, 0.05 * T, &attempted, &failed);
  }

  QueryStream fixed_stream(mix, args.seed * 131 + 3);
  auto fixed_phase = [&](double dur, size_t keep_every, uint64_t id_base) {
    std::vector<double> due = PoissonSchedule(rng, w.query_rate, dur);
    std::vector<core::QueryRequest> reqs;
    reqs.reserve(due.size());
    for (size_t i = 0; i < due.size(); ++i) reqs.push_back(fixed_stream.Next());
    const double t_begin = tracer.Rel(Clock::now()) + 0.002;
    PhaseResult p = w.sharded
                        ? OpenLoopGlobal(c, std::move(reqs), due, t_begin,
                                         keep_every, id_base)
                        : OpenLoopSubmit(c, std::move(reqs), due, t_begin,
                                         keep_every, id_base);
    for (const QueryRecord& r : p.records) {
      ++attempted;
      failed += r.failed;
      refused += r.refused;
    }
    return p;
  };

  // Closed loop: capacity.
  QueryStream sat_stream(mix, args.seed * 131 + 7);
  const double sat_qps =
      ClosedLoop(c, sat_stream, 0.25 * T, &attempted, &failed);

  // The fixed-rate open loop, untraced: latency, CPU, memory and
  // generator metrics. A traced run adds a second, traced phase whose
  // kept requests are checked and replayed; its own phase keeps none.
  // live_update checks in-run, so it keeps only kCheckedSamples there.
  auto keep_stride = [&](double dur, size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(w.query_rate * dur) / n);
  };
  const double fixed_dur = 0.7 * T;
  PhaseResult p = fixed_phase(
      fixed_dur, args.trace ? 0 : keep_stride(fixed_dur, kCheckedSamples), 0);
  const double rss_mb = PeakRssMb();
  std::optional<PhaseResult> traced;
  constexpr uint64_t kTracedIds = 1000000;
  if (args.trace) {
    const double dur = 0.3 * T;
    const size_t n = w.delta_rate > 0 ? kCheckedSamples : 4 * kCheckedSamples;
    tracer.set_enabled(true);
    traced = fixed_phase(dur, keep_stride(dur, n), kTracedIds);
    tracer.set_enabled(false);
  }
  PhaseResult& checked_phase = traced ? *traced : p;

  std::vector<UpdateRecord> upd_all, upd_window;
  size_t update_failures = 0;
  if (updater) {
    updater->Stop();
    update_failures = updater->failures();
    upd_all = updater->Between(0.0, 1e18);
    upd_window = updater->Between(checked_phase.t_begin, checked_phase.t_end);
  }

  // ---- correctness ----
  tracer.set_enabled(args.trace);
  CheckKept(c, checked_phase.records, traced ? kTracedIds : 0);
  tracer.set_enabled(false);
  size_t wrong = 0;
  for (const QueryRecord& r : p.records) wrong += r.wrong;
  if (traced) {
    for (const QueryRecord& r : traced->records) wrong += r.wrong;
  }
  failed += wrong + update_failures;
  const size_t checked = tally.checked;
  const bool correct = failed == 0 && checked > 0;
  std::fprintf(stderr,
               "%s: attempted=%zu failed=%zu (refused=%zu wrong=%zu "
               "update_failures=%zu) sampled=%zu checked=%zu missed=%zu "
               "naive=%zu updates=%zu\n",
               tag.c_str(), attempted, failed, refused, wrong, update_failures,
               size_t(tally.sampled), checked, size_t(tally.missed),
               tally.naive, upd_all.size());

  // ---- phase statistics ----
  std::vector<double> lat, late;
  size_t completed = 0;
  for (const QueryRecord& r : p.records) {
    if (!r.picked_late) late.push_back(r.start - r.due);
    if (r.failed) continue;
    ++completed;
    lat.push_back(r.latency);
  }
  const double last_start =
      p.records.empty() ? p.t_begin : p.records.back().start;
  const double offered_qps = Ratio(p.records.size(), last_start - p.t_begin);
  const double scheduled_qps =
      Ratio(p.records.size(),
            p.records.empty() ? 0.0 : p.records.back().due - p.t_begin);
  const double late_p99 = Quantile(late, 0.99);
  const bool gen_valid = late_p99 <= kMaxLateP99Seconds &&
                         offered_qps >= 0.95 * scheduled_qps;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const size_t beyond_p99 = lat.size() / 100;
  // Latency over time (stderr only): a machine stall shows as a window
  // whose p50/p99 jump.
  {
    std::vector<std::vector<double>> win(7);
    const double span =
        p.records.empty() ? 1.0 : p.records.back().due - p.t_begin + 1e-9;
    for (const QueryRecord& r : p.records) {
      if (r.failed) continue;
      const size_t i =
          static_cast<size_t>((r.due - p.t_begin) / span * win.size());
      win[std::min(i, win.size() - 1)].push_back(r.latency);
    }
    std::fprintf(stderr, "fixed phase windows, p50/p99 ms:");
    for (const auto& v : win) {
      std::fprintf(stderr, " %.1f/%.1f", Quantile(v, 0.5) * 1e3,
                   Quantile(v, 0.99) * 1e3);
    }
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr,
               "fixed phase: %zu queries at %.1f/s offered (schedule %.1f/s), "
               "%zu beyond p99, generator late p99 %.3f ms -> %s\n",
               p.records.size(), offered_qps, scheduled_qps, beyond_p99,
               late_p99 * 1e3, gen_valid ? "valid" : "INVALID");

  std::vector<Metric> ms;
  if (!args.trace) {
    ms = {
        {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
        {"cpu_s_per_kq", Ratio(p.cpu_s, completed) * 1e3, "s/kq"},
        {"rss_mb", rss_mb, "MB"},
    };
  } else {
    // Layer metrics come from the traced phase `tp`; the user-facing
    // latency and capacity numbers from the untraced phases.
    const PhaseResult& tp = *traced;
    std::vector<double> tp_lat, exec;
    size_t tp_done = 0;
    for (const QueryRecord& r : tp.records) {
      if (r.failed) continue;
      ++tp_done;
      tp_lat.push_back(r.latency);
      exec.push_back(r.total_s - r.queue_s);
    }
    // Layer self times from the spans of the traced phase.
    auto self = tracer.SelfTimes();
    auto ms_of = [&](const char* name, double q) {
      return Quantile(self[name], q) * 1e3;
    };
    // explained_ratio: per replayed request, Σ self time of the layers
    // on its blocking path (generator lateness, queue, plan build when
    // the cache missed, engine search; for scatter: lateness + slowest
    // shard) over its end-to-end latency, as median / median.
    std::vector<double> expl, e2e;
    for (size_t i = 0; i < tp.records.size(); ++i) {
      const QueryRecord& r = tp.records[i];
      if (r.failed) continue;
      if (w.sharded) {
        expl.push_back(std::max(0.0, r.start - r.due) + r.scatter_max);
        e2e.push_back(r.latency);
      } else if (r.replay_search_s > 0) {
        expl.push_back((r.start - r.due) + r.queue_s +
                       (r.cache_hit ? 0.0 : r.replay_plan_s) +
                       r.replay_search_s);
        e2e.push_back(r.latency);
      }
    }
    auto per_query = [&](auto field) {
      double s = 0.0;
      for (const QueryRecord& r : tp.records) {
        if (!r.failed) s += field(r);
      }
      return Ratio(s, tp_done);
    };
    size_t anytime = 0, anytime_exit = 0, deadline = 0, refused_tp = 0;
    for (const QueryRecord& r : tp.records) {
      refused_tp += r.refused;
      if (r.failed) continue;
      deadline += r.deadline_exceeded;
      if (r.req.options.mode == core::QueryMode::kAnytime) {
        ++anytime;
        anytime_exit += !r.deadline_exceeded && r.certified_eps > 0;
      }
    }
    const auto& sa = tp.stats_after;
    const auto& sb = tp.stats_before;
    const double svc_done = double(sa.completed - sb.completed);
    const double batched = double(sa.batched_queries - sb.batched_queries);
    const double batches = double(sa.batches_executed - sb.batches_executed);
    const auto& ca = tp.cache_after;
    const auto& cb = tp.cache_before;
    const size_t swaps = upd_window.size();
    std::vector<double> u_lat, u_build, u_la, u_swap, u_ckpt;
    double wal_bytes = 0.0, snap_bytes_sum = 0.0, last_snap = 0.0;
    for (const UpdateRecord& u : upd_window) {
      u_lat.push_back(u.latency);
      u_build.push_back(u.build_s);
      u_la.push_back(u.log_apply_s);
      u_swap.push_back(u.swap_s);
      wal_bytes += u.wal_bytes;
      if (u.checkpoint_s > 0) {
        u_ckpt.push_back(u.checkpoint_s);
        snap_bytes_sum += u.snapshot_bytes;
        last_snap = u.snapshot_bytes;
      }
    }
    if (updater && last_snap == 0) last_snap = double(d.snapshot_bytes);
    std::vector<double> sc, mg;
    size_t queried = 0, pruned = 0, bpruned = 0;
    for (const QueryRecord& r : tp.records) {
      if (r.failed || !w.sharded) continue;
      sc.push_back(r.scatter_max);
      mg.push_back(r.total_s - r.scatter_max);
      queried += r.shards_queried;
      pruned += r.shards_pruned;
      bpruned += r.shards_bound_pruned;
    }
    const double shard_slots = double(tp_done) * kShards;
    std::vector<double> hits;
    for (const QueryRecord& r : tp.records) {
      if (!r.failed) hits.push_back(r.cache_hit);
    }
    ms = {
        {"p50_ms", Quantile(lat, 0.5) * 1e3, "ms"},
        {"p99_ms", Quantile(lat, 0.99) * 1e3, "ms"},
        {"sat_qps", sat_qps, "1/s"},
        {"core.search_p50_ms", ms_of("core.search", 0.5), "ms"},
        {"core.search_p99_ms", ms_of("core.search", 0.99), "ms"},
        {"core.iterations_per_query",
         per_query([](auto& r) { return double(r.iterations); }), "count"},
        {"core.plan_p50_ms", ms_of("core.plan", 0.5), "ms"},
        {"core.plan_p99_ms", ms_of("core.plan", 0.99), "ms"},
        {"core.candidates_per_query",
         per_query([](auto& r) { return double(r.candidates); }), "count"},
        {"core.components_discovered_per_query",
         per_query([](auto& r) { return double(r.comps_discovered); }),
         "count"},
        {"core.extension_keywords_per_query",
         per_query([](auto& r) { return double(r.ext_kw); }), "count"},
        {"core.anytime_exit_share", Ratio(anytime_exit, anytime), "ratio"},
        {"core.deadline_exceeded_share", Ratio(deadline, tp_done), "ratio"},
        {"server.queue_wait_p50_ms",
         w.sharded ? 0.0 : ms_of("server.queue", 0.5), "ms"},
        {"server.queue_wait_p99_ms",
         w.sharded ? 0.0 : ms_of("server.queue", 0.99), "ms"},
        {"server.exec_p50_ms",
         w.sharded ? 0.0 : Quantile(exec, 0.5) * 1e3, "ms"},
        {"server.exec_p99_ms",
         w.sharded ? 0.0 : Quantile(exec, 0.99) * 1e3, "ms"},
        {"server.plan_cache_hit_ratio", Mean(hits), "ratio"},
        {"server.cache_evictions_per_kq",
         Ratio(double(ca.evictions - cb.evictions), svc_done) * 1e3, "count"},
        {"server.cache_purged_per_swap",
         Ratio(double(ca.purged - cb.purged), swaps), "count"},
        {"server.batched_share", Ratio(batched, svc_done), "ratio"},
        {"server.mean_batch_width", Ratio(batched, batches), "count"},
        {"server.refused_share", Ratio(refused_tp, tp.records.size()), "ratio"},
        {"storage.delta_build_ms", Quantile(u_build, 0.5) * 1e3, "ms"},
        {"storage.log_and_apply_p50_ms", Quantile(u_la, 0.5) * 1e3, "ms"},
        {"storage.log_and_apply_p99_ms", Quantile(u_la, 0.99) * 1e3, "ms"},
        {"storage.swap_p99_ms", Quantile(u_swap, 0.99) * 1e3, "ms"},
        {"storage.checkpoint_ms", Quantile(u_ckpt, 0.5) * 1e3, "ms"},
        {"storage.wal_bytes_per_delta", Ratio(wal_bytes, swaps), "B"},
        {"storage.snapshot_bytes", last_snap, "B"},
        {"update_p50_ms", Quantile(u_lat, 0.5) * 1e3, "ms"},
        {"update_p99_ms", Quantile(u_lat, 0.99) * 1e3, "ms"},
        {"write_bytes_per_delta",
         Ratio(wal_bytes + snap_bytes_sum, swaps), "B"},
        {"shard.scatter_p50_ms", Quantile(sc, 0.5) * 1e3, "ms"},
        {"shard.scatter_p99_ms", Quantile(sc, 0.99) * 1e3, "ms"},
        {"shard.merge_p50_ms", Quantile(mg, 0.5) * 1e3, "ms"},
        {"shard.shards_queried_per_query", Ratio(queried, tp_done), "count"},
        {"shard.pruned_share", Ratio(pruned, shard_slots), "ratio"},
        {"shard.bound_pruned_share", Ratio(bpruned, shard_slots), "ratio"},
        {"setup.generate_s",
         *std::min_element(generate_s.begin(), generate_s.end()), "s"},
        {"setup.start_s", *std::min_element(start_s.begin(), start_s.end()),
         "s"},
        {"gen.late_p99_ms", late_p99 * 1e3, "ms"},
        {"gen.offered_qps", offered_qps, "1/s"},
        {"cpu.util", Ratio(p.cpu_s, p.wall_s * nproc), "ratio"},
        {"trace.overhead_ratio",
         Ratio(Quantile(tp_lat, 0.5), Quantile(lat, 0.5)), "ratio"},
        {"explained_ratio",
         Ratio(Quantile(expl, 0.5), Quantile(e2e, 0.5)), "ratio"},
        {"error_ratio", Ratio(failed, attempted), "ratio"},
    };
    const std::string span_path = args.out_dir + "/spans-" + tag + ".jsonl";
    if (tracer.Write(span_path)) {
      std::fprintf(stderr, "wrote %zu spans to %s\n", tracer.size(),
                   span_path.c_str());
    }
  }

  // Result file: stamp + validity + metrics. Two result files are
  // comparable only when their stamps (seed aside) agree.
  const std::string metrics = MetricsJson(ms);
  {
    std::ofstream f(args.out_dir + "/result-" + tag + ".json");
    f << "{\"stamp\": " << stamp << ", \"generator_valid\": "
      << (gen_valid ? "true" : "false") << ", \"queries\": " << lat.size()
      << ", \"beyond_p99\": " << beyond_p99
      << ", \"check\": {\"sampled\": " << tally.sampled
      << ", \"checked\": " << checked << ", \"missed\": " << tally.missed
      << ", \"naive\": " << tally.naive << "}, \"rss_reset\": "
      << (rss_reset ? "true" : "false") << ", \"correct\": "
      << (correct ? "true" : "false") << ", \"metrics\": " << metrics << "}\n";
  }
  d = Deployment{};
  std::filesystem::remove_all(store_dir, ec);

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Shipped defaults: the test-only thread override must not leak in.
  unsetenv("S3_TEST_THREADS");
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: s3_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--source-id <id>]\n");
    return 2;
  }
  return Run(args);
}

// Shared helpers for the figure-reproduction benchmark binaries.
//
// Scale: the paper ran on full Twitter/Vodkaster/Yelp dumps (Fig. 4).
// These harnesses default to a laptop-scale reduction that preserves
// the constructions (retweet/reply fractions, threading, enrichment)
// and therefore the *shapes* of Figures 5-8. Environment overrides:
//   S3_BENCH_QUERIES  queries per workload (default 30, paper: 100)
//   S3_BENCH_SCALE    instance scale multiplier (default 1.0)
#ifndef S3_BENCH_BENCH_UTIL_H_
#define S3_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "baseline/flatten.h"
#include "baseline/topks.h"
#include "bench_context.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/s3k.h"
#include "eval/runtime.h"
#include "workload/business_gen.h"
#include "workload/microblog_gen.h"
#include "workload/query_gen.h"
#include "workload/review_gen.h"

namespace s3::bench {

inline size_t QueriesPerWorkload() {
  const char* env = std::getenv("S3_BENCH_QUERIES");
  return env ? std::strtoul(env, nullptr, 10) : 30;
}

inline double Scale() {
  const char* env = std::getenv("S3_BENCH_SCALE");
  return env ? std::strtod(env, nullptr) : 1.0;
}

inline uint32_t Scaled(uint32_t base) {
  return static_cast<uint32_t>(base * Scale());
}

// Latency summary of a serving run: per-query seconds (the responses'
// QueryResponse::total_seconds, or a client-side timer) over the run's
// wall-clock window.
struct LatencySummary {
  size_t count = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

inline LatencySummary SummarizeLatency(const std::vector<double>& seconds,
                                       double elapsed_seconds) {
  LatencySummary s;
  s.count = seconds.size();
  if (elapsed_seconds > 0.0) s.qps = s.count / elapsed_seconds;
  s.p50_ms = Quantile(seconds, 0.50) * 1e3;
  s.p99_ms = Quantile(seconds, 0.99) * 1e3;
  return s;
}

// Machine-readable run record, mirroring google-benchmark's JSON shape
// ({"context": {...}, "benchmarks": [{"name", "ns_per_op", ...}]}), so
// BENCH_*.json files from the figure harnesses and from bench_micro can
// be diffed with the same tooling. The context block is this run's
// environment stamp (bench_context.h). Records are flushed on
// destruction.
//
// With merge = true the writer keeps the records already present in
// `path` whose names this run does not re-emit, so several bench
// binaries (e.g. bench_server_throughput and bench_update_throughput)
// can contribute to one file regardless of run order.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string path, bool merge = false)
      : path_(std::move(path)), merge_(merge) {}

  // One record; `extra` is a pre-rendered list of additional JSON
  // fields, e.g. "\"k\": 5, \"gamma\": 1.5".
  void Add(const std::string& name, double ns_per_op,
           const std::string& extra = "") {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"ns_per_op\": %.1f%s%s}",
                  name.c_str(), ns_per_op, extra.empty() ? "" : ", ",
                  extra.c_str());
    records_.push_back(buf);
  }

  ~BenchJsonWriter() {
    if (merge_) MergeExisting();
    std::ofstream out(path_);
    if (!out) return;
    out << "{\n  \"context\": " << BenchContextJson()
        << ",\n  \"benchmarks\": [\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      out << records_[i] << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "wrote %s (%zu records)\n", path_.c_str(),
                 records_.size());
  }

 private:
  // Value of the first `key` field in `json` ("" when absent): a
  // string's contents, or a number's digits. Tolerant of both this
  // writer's compact one-line records and google-benchmark's
  // pretty-printed objects.
  static std::string FieldValue(const std::string& json,
                                const std::string& key) {
    const std::string marker = "\"" + key + "\"";
    size_t at = json.find(marker);
    if (at == std::string::npos) return "";
    at += marker.size();
    while (at < json.size() && (json[at] == ' ' || json[at] == ':')) ++at;
    if (at < json.size() && json[at] == '"') {
      const size_t end = json.find('"', ++at);
      return end == std::string::npos ? "" : json.substr(at, end - at);
    }
    size_t end = at;
    while (end < json.size() && (std::isalnum(json[end]) || json[end] == '.')) {
      ++end;
    }
    return json.substr(at, end - at);
  }
  static std::string RecordName(const std::string& record) {
    return FieldValue(record, "name");
  }

  // One-line form of a JSON object: whitespace outside strings is
  // collapsed so a reloaded record stays a single line next merge.
  static std::string CompactObject(const std::string& obj) {
    std::string out = "    ";
    bool in_string = false;
    bool pending_space = false;
    for (size_t i = 0; i < obj.size(); ++i) {
      const char c = obj[i];
      if (in_string) {
        out.push_back(c);
        if (c == '\\' && i + 1 < obj.size()) {
          out.push_back(obj[++i]);
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == ' ' || c == '\n' || c == '\r' || c == '\t') {
        pending_space = !out.empty() && out.back() != '{';
        continue;
      }
      if (pending_space && c != '}' && c != ',' && c != ':') {
        out.push_back(' ');
      }
      pending_space = false;
      out.push_back(c);
      if (c == '"') in_string = true;
    }
    return out;
  }

  // Prepends the previous run's records that this run does not
  // replace, so several bench binaries can contribute to one file.
  // Understands both this writer's own output and google-benchmark's
  // --benchmark_out JSON ({"context": ..., "benchmarks": [...]}):
  // objects of the "benchmarks" array are split by brace depth and
  // compacted to one line each (the array entries of both producers
  // are flat objects).
  void MergeExisting() {
    std::ifstream in(path_);
    if (!in) return;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    size_t at = content.find("\"benchmarks\"");
    if (at == std::string::npos) return;
    at = content.find('[', at);
    if (at == std::string::npos) return;

    std::unordered_set<std::string> fresh;
    for (const std::string& r : records_) fresh.insert(RecordName(r));
    // Kept records measured on a different CPU count than this run (or
    // on an unknown one) carry their own "nproc", since the file's
    // context block will describe this run.
    const std::string head = content.substr(0, at);
    std::string old_cpus = FieldValue(head, "nproc");
    if (old_cpus.empty()) old_cpus = FieldValue(head, "num_cpus");
    if (old_cpus.empty()) old_cpus = "null";
    const std::string stamp =
        old_cpus == FieldValue(BenchContextJson(), "nproc")
            ? ""
            : ", \"nproc\": " + old_cpus;

    std::vector<std::string> kept;
    int depth = 0;
    bool in_string = false;
    size_t obj_start = std::string::npos;
    for (size_t i = at + 1; i < content.size(); ++i) {
      const char c = content[i];
      if (in_string) {
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        if (depth++ == 0) obj_start = i;
      } else if (c == '}') {
        if (--depth == 0 && obj_start != std::string::npos) {
          std::string obj =
              content.substr(obj_start, i - obj_start + 1);
          std::string name = RecordName(obj);
          if (!name.empty() && !fresh.count(name)) {
            std::string record = CompactObject(obj);
            if (FieldValue(record, "nproc").empty()) {
              record.insert(record.size() - 1, stamp);
            }
            kept.push_back(std::move(record));
          }
          obj_start = std::string::npos;
        }
      } else if (c == ']' && depth == 0) {
        break;
      }
    }
    records_.insert(records_.begin(), kept.begin(), kept.end());
  }

  std::string path_;
  bool merge_;
  std::vector<std::string> records_;
};

// The three bench instances, mirroring the paper's I1/I2/I3.
inline workload::GenResult MakeI1() {
  workload::MicroblogParams p;
  p.seed = 101;
  p.n_users = Scaled(4000);
  p.isolated_user_fraction = 0.12;
  p.n_tweets = Scaled(16000);
  p.vocab_size = Scaled(6000);
  p.n_hashtags = Scaled(300);
  // Shallow, sparse ontology so that Ext(k) grows workloads by roughly
  // the paper's +50% (Fig. 4 / §5.1).
  p.ontology.n_classes = Scaled(600);
  p.ontology.n_entities = Scaled(1500);
  p.ontology.parent_probability = 0.25;
  p.entity_prob = 0.1;
  return workload::GenerateMicroblog(p);
}

inline workload::GenResult MakeI2() {
  workload::ReviewParams p;
  p.seed = 102;
  p.n_users = Scaled(1500);
  p.isolated_user_fraction = 0.25;
  p.n_movies = Scaled(1200);
  p.avg_comments_per_movie = 6.0;
  return workload::GenerateReviewSite(p);
}

inline workload::GenResult MakeI3() {
  workload::BusinessParams p;
  p.seed = 103;
  p.n_users = Scaled(3000);
  p.isolated_user_fraction = 0.45;
  p.n_businesses = Scaled(900);
  p.avg_reviews_per_business = 8.0;
  p.ontology.n_classes = Scaled(500);
  p.ontology.n_entities = Scaled(1200);
  p.ontology.parent_probability = 0.25;
  p.entity_prob = 0.08;
  return workload::GenerateBusinessReviews(p);
}

// The paper's 8 standard workloads: f ∈ {+,−} × l ∈ {1,5} × k ∈ {5,10}.
inline std::vector<workload::WorkloadSpec> StandardWorkloads(
    uint64_t seed_base = 5000) {
  std::vector<workload::WorkloadSpec> specs;
  for (auto freq :
       {workload::Frequency::kCommon, workload::Frequency::kRare}) {
    for (size_t l : {1u, 5u}) {
      for (size_t k : {5u, 10u}) {
        workload::WorkloadSpec spec;
        spec.freq = freq;
        spec.n_keywords = l;
        spec.k = k;
        spec.n_queries = QueriesPerWorkload();
        spec.seed = seed_base++;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

// Runs one workload through S3k; returns per-query times.
inline eval::RuntimeSeries RunS3k(const core::S3Instance& inst,
                                  const workload::QuerySet& qs,
                                  core::S3kOptions opts) {
  opts.k = qs.k;
  core::S3kSearcher searcher(inst, opts);
  eval::RuntimeSeries series;
  for (const auto& q : qs.queries) {
    WallTimer t;
    auto result = searcher.Search(q);
    if (result.ok()) series.Add(t.ElapsedSeconds());
  }
  return series;
}

// Runs one workload through TopkS on the flattened instance.
inline eval::RuntimeSeries RunTopkS(const baseline::Flattened& flat,
                                    const workload::QuerySet& qs,
                                    baseline::TopkSOptions opts) {
  opts.k = qs.k;
  baseline::TopkSSearcher searcher(flat.uit, opts);
  eval::RuntimeSeries series;
  for (const auto& q : qs.queries) {
    WallTimer t;
    auto result = searcher.Search(q.seeker, q.keywords);
    if (result.ok()) series.Add(t.ElapsedSeconds());
  }
  return series;
}

// Shared "Fig. 5 / Fig. 6"-style harness: median per-workload times for
// S3k (γ sweep) vs TopkS (α sweep).
inline void RunTimesFigure(const char* title, workload::GenResult gen) {
  std::printf("%s\n", title);
  std::printf("instance: %s — users=%zu docs=%zu tags=%zu\n",
              gen.name.c_str(), gen.instance->UserCount(),
              gen.instance->docs().DocumentCount(),
              gen.instance->TagCount());
  std::printf("queries per workload: %zu (paper: 100)\n\n",
              QueriesPerWorkload());

  baseline::Flattened flat = baseline::FlattenToUit(*gen.instance);

  eval::TablePrinter table(
      {"workload", "S3k g=1.25", "S3k g=1.5", "S3k g=2",
       "TopkS a=0.75", "TopkS a=0.5", "TopkS a=0.25"});
  // Times are reported in milliseconds: the instances are ~1/100 of
  // the paper's, which ran in the 0.1-0.9 s range.
  for (const auto& spec : StandardWorkloads()) {
    auto qs = workload::BuildWorkload(*gen.instance, gen.semantic_anchors,
                                      spec);
    std::vector<std::string> row{qs.label};
    for (double gamma : {1.25, 1.5, 2.0}) {
      core::S3kOptions opts;
      opts.score.gamma = gamma;
      auto series = RunS3k(*gen.instance, qs, opts);
      row.push_back(series.empty()
                        ? "-"
                        : eval::FormatMillis(series.MedianSeconds()));
    }
    for (double alpha : {0.75, 0.5, 0.25}) {
      baseline::TopkSOptions opts;
      opts.alpha = alpha;
      auto series = RunTopkS(flat, qs, opts);
      row.push_back(series.empty()
                        ? "-"
                        : eval::FormatMillis(series.MedianSeconds()));
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "median query answering time in MILLISECONDS; expected shape "
      "(paper Fig. 5/6):\n"
      " - TopkS runs consistently faster (one shortest path vs all "
      "paths);\n"
      " - larger gamma => faster S3k (tail bound gamma^-(n+1) decays "
      "faster;\n"
      "   see EXPERIMENTS.md on the paper's inverted wording);\n"
      " - larger alpha => slower TopkS;\n"
      " - rare-keyword workloads (-) faster than common (+) for S3k.\n");
}

}  // namespace s3::bench

#endif  // S3_BENCH_BENCH_UTIL_H_

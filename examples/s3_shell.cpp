// s3_shell: a small batch/interactive front end for the library.
//
// Usage:
//   s3_shell [instance-file]
//
// Loads a serialized S3 instance (core/serialization.h format) — or a
// built-in demo instance when no file is given — finalizes it, and
// answers queries read from stdin, one per line:
//
//   <seeker-uri> <keyword> [keyword...]
//
// Prints the top-5 documents with their score intervals. Lines
// starting with '#' are echoed; EOF ends the session. Example:
//
//   echo "user:u1 degree" | ./build/examples/s3_shell
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "s3/s3.h"

using namespace s3;

namespace {

std::unique_ptr<core::S3Instance> BuildDemo() {
  auto inst = std::make_unique<core::S3Instance>();
  auto u0 = inst->AddUser("user:u0");
  auto u1 = inst->AddUser("user:u1");
  auto u2 = inst->AddUser("user:u2");
  (void)inst->AddSocialEdge(u1, u0, 1.0);
  (void)inst->AddSocialEdge(u0, u1, 1.0);
  inst->DeclareSubClass("m.s.", "degree");

  doc::Document d0("article");
  uint32_t par = d0.AddChild(0, "paragraph");
  d0.AddKeywords(par, inst->InternText("a degree gives more opportunities"));
  d0.AddKeywords(par, {inst->InternKeyword("degree")});
  auto a = inst->AddDocument(std::move(d0), "doc:d0", u0).value();

  doc::Document d1("tweet");
  uint32_t text = d1.AddChild(0, "text");
  d1.AddKeywords(text, inst->InternText("got my M.S. at @UAlberta in 2012"));
  d1.AddKeywords(text, {inst->InternKeyword("m.s.")});
  auto b = inst->AddDocument(std::move(d1), "doc:d1", u2).value();
  (void)inst->AddComment(b, inst->docs().RootNode(a));
  return inst;
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<core::S3Instance> inst;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    auto loaded = core::LoadInstance(buffer.str());
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    inst = std::move(*loaded);
    std::fprintf(stderr, "loaded %s\n", argv[1]);
  } else {
    inst = BuildDemo();
    std::fprintf(stderr, "no instance file given; using the demo\n");
  }
  if (Status s = inst->Finalize(); !s.ok()) {
    std::fprintf(stderr, "finalize failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "instance ready: %zu users, %zu docs, %zu tags\n"
               "query format: <seeker-uri> <keyword> [keyword...]\n"
               ":eps <value> sets a certified anytime slack for later "
               "queries (0 = exact)\n"
               ":trace toggles per-query engine iteration traces\n"
               ":metrics dumps the session's metric registry "
               "(Prometheus text)\n",
               inst->UserCount(), inst->docs().DocumentCount(),
               inst->TagCount());

  // Seeker lookup by URI.
  std::unordered_map<std::string, social::UserId> user_of;
  for (const auto& u : inst->users()) user_of.emplace(u.uri, u.id);

  core::S3kOptions opts;
  opts.k = 5;
  core::S3kSearcher searcher(*inst, opts);

  // Session-wide per-request options, adjusted with ":eps <value>".
  core::QueryOptions qopts;

  // Session observability: shell queries bypass QueryService, so the
  // shell observes its own latency series into the default registry;
  // :metrics dumps the full registry.
  obs::Histogram* h_query = obs::MetricRegistry::Default().GetHistogram(
      "s3_shell_query_seconds", "End-to-end latency of shell queries");
  obs::Counter* c_queries = obs::MetricRegistry::Default().GetCounter(
      "s3_shell_queries_total", "Queries answered by this shell session");
  uint64_t trace_id = 0;

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::printf("%s\n", line.c_str());
      continue;
    }
    std::istringstream in(line);
    std::string seeker_uri;
    in >> seeker_uri;
    if (seeker_uri == ":metrics") {
      const std::string text = obs::MetricRegistry::Default().RenderPrometheus();
      if (text.empty()) {
        std::printf("-- observability compiled out (-DS3_OBS=OFF)\n");
      } else {
        std::fputs(text.c_str(), stdout);
      }
      continue;
    }
    if (seeker_uri == ":trace") {
      qopts.trace = !qopts.trace;
      std::printf("-- trace %s\n", qopts.trace ? "on" : "off");
      continue;
    }
    if (seeker_uri == ":eps") {
      double eps = 0.0;
      if (!(in >> eps) || eps < 0.0) {
        std::printf("! usage: :eps <non-negative value>\n");
        continue;
      }
      qopts.epsilon_approx = eps;
      qopts.mode = eps > 0.0 ? core::QueryMode::kAnytime
                             : core::QueryMode::kExact;
      std::printf("-- eps=%g (%s)\n", eps,
                  eps > 0.0 ? "certified anytime" : "exact");
      continue;
    }
    auto user_it = user_of.find(seeker_uri);
    if (user_it == user_of.end()) {
      std::printf("! unknown user '%s'\n", seeker_uri.c_str());
      continue;
    }
    core::Query q;
    q.seeker = user_it->second;
    std::string kw;
    while (in >> kw) {
      KeywordId id = inst->vocabulary().Find(kw);
      if (id == kInvalidKeyword) {
        // Fall back to the stemmed form of the word.
        auto interned = ExtractKeywords(kw);
        if (!interned.empty()) id = inst->vocabulary().Find(interned[0]);
      }
      if (id == kInvalidKeyword) {
        std::printf("! keyword '%s' does not occur anywhere\n", kw.c_str());
        q.keywords.clear();
        break;
      }
      q.keywords.push_back(id);
    }
    if (q.keywords.empty()) continue;

    core::SearchStats st;
    auto result = searcher.Search(
        core::QueryRequest(q.seeker, q.keywords, qopts), &st);
    if (!result.ok()) {
      std::printf("! %s\n", result.status().ToString().c_str());
      continue;
    }
    c_queries->Inc();
    h_query->Observe(st.elapsed_seconds);
    if (qopts.trace) {
      obs::QueryTrace trace;
      trace.id = ++trace_id;
      trace.label = line;
      trace.certified_epsilon = st.certified_epsilon;
      trace.total_seconds = st.elapsed_seconds;
      trace.spans.push_back(
          obs::TraceSpan{"search", 0.0, st.elapsed_seconds, 0});
      trace.iterations = st.iteration_trace;
      std::fputs(obs::FormatTrace(trace).c_str(), stdout);
    }
    if (result->empty()) std::printf("(no results)\n");
    for (const auto& r : *result) {
      std::printf("%-24s [%.6f, %.6f]\n",
                  inst->docs().Uri(r.node).c_str(), r.lower, r.upper);
    }
    std::printf("-- %zu candidates, %zu iterations, %.2f ms, "
                "certified eps=%.2e%s\n",
                st.candidates_total, st.iterations,
                st.elapsed_seconds * 1e3, st.certified_epsilon,
                st.converged ? "" : " (truncated)");
  }
  return 0;
}

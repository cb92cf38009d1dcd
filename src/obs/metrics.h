// Process-wide metric registry: named, labeled Counter / Gauge /
// Histogram families with two renderers (Prometheus text exposition
// and JSON) — the one source of operational truth the serving layers
// (QueryService, SnapshotManager, ShardRouter, ProximityCache) publish
// into.
//
// Design constraints, in order:
//   * Hot-path writes must be effectively free. Counter is sharded
//     across cache lines (one relaxed fetch_add on a thread-striped
//     slot — no line ping-pong between service workers); Histogram is
//     a fixed array of log-spaced atomic buckets (one relaxed
//     increment per observation, no locks, no allocation).
//   * Readers never stop writers. Value()/TakeSnapshot()/Render* sum
//     relaxed atomics while the hot path keeps mutating them; totals
//     are monotonic and each read is a valid recent value, which is
//     all a scrape needs.
//   * Components with pre-existing counters (QueryService's admission
//     atomics, ProximityCacheStats, SnapshotManager bookkeeping) stay
//     the single source of truth: they register *callback* metrics the
//     registry evaluates at collection time, so nothing is counted
//     twice and nothing new runs on the hot path. CallbackSet is the
//     RAII holder that unregisters them when the component dies.
//
// -DS3_OBS=OFF compiles the whole subsystem out: this header then
// provides the same API as inline no-ops (renderers return ""), so
// instrumented call sites build unchanged and cost nothing.
#ifndef S3_OBS_METRICS_H_
#define S3_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#ifndef S3_OBS_DISABLED
#include <atomic>
#include <memory>
#include <mutex>
#endif

namespace s3::obs {

// Label set of one metric instance: (key, value) pairs. Keys should be
// fixed per family; values select the instance (e.g. {"service",
// "shard0"}). Order-insensitive — the registry canonicalizes.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

// Log-spaced histogram bucket layout: bucket i spans
// (base * growth^(i-1), base * growth^i]; an underflow observation
// lands in bucket 0, anything above the last bound in the overflow
// bucket. The default layout covers 1µs .. ~134s at ×2 resolution —
// query/WAL/checkpoint latencies all fit.
struct BucketSpec {
  double base = 1e-6;
  double growth = 2.0;
  uint32_t count = 28;  // bounded buckets; +1 overflow is implicit

  static BucketSpec Latency() { return BucketSpec{}; }
  // Small-integer quantities (batch widths, fan-out counts): 1, 2, 4,
  // ... 128.
  static BucketSpec SmallCounts() { return BucketSpec{1.0, 2.0, 8}; }
};

#ifndef S3_OBS_DISABLED

inline constexpr bool kEnabled = true;

// Monotonic counter, sharded across cache lines. Inc() is one relaxed
// fetch_add on the calling thread's stripe; Value() sums the stripes.
class Counter {
 public:
  static constexpr size_t kStripes = 8;

  void Inc(uint64_t n = 1) {
    stripes_[StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  static size_t StripeIndex() {
    // Round-robin stripe assignment per thread: stable for the
    // thread's lifetime, spreads workers evenly regardless of how the
    // runtime hashes thread ids.
    static std::atomic<size_t> next{0};
    thread_local const size_t slot =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return slot;
  }
  Stripe stripes_[kStripes];
};

// Instantaneous value. Set/Add are single relaxed atomic ops
// (atomic<double> — lock-free on the targets this builds for).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  std::vector<uint64_t> counts;  // per bucket, overflow last
  std::vector<double> uppers;    // inclusive upper bound per bucket
  uint64_t count = 0;
  double sum = 0.0;

  // Quantile estimate (q in [0,1]) by linear interpolation inside the
  // containing bucket. Zero-sample snapshots return 0.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p90() const { return Quantile(0.90); }
  double p99() const { return Quantile(0.99); }
};

// Fixed log-bucketed histogram. Observe() is one relaxed bucket
// increment plus one relaxed sum add; no locks, no allocation.
class Histogram {
 public:
  explicit Histogram(BucketSpec spec = BucketSpec::Latency());

  void Observe(double v);
  HistogramSnapshot TakeSnapshot() const;
  const BucketSpec& spec() const { return spec_; }

 private:
  BucketSpec spec_;
  std::vector<double> uppers_;  // spec_.count bounds (ascending)
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // count + overflow
  std::atomic<double> sum_{0.0};
};

// One process-wide (or per-test) registry of metric families.
// GetCounter/GetGauge/GetHistogram return a stable pointer owned by
// the registry — callers cache it and write lock-free forever after.
// Looking the same (name, labels) up twice returns the same instance,
// so restarted components keep accumulating into their series.
//
// AddCallback registers a collection-time metric: the function is
// evaluated by Collect()/Render* under the registry mutex. Callbacks
// read component-owned state, so they MUST be unregistered before that
// state dies — hold them in a CallbackSet.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide default registry (what `registry == nullptr`
  // means throughout the serving options structs).
  static MetricRegistry& Default();

  Counter* GetCounter(const std::string& name, const std::string& help,
                      Labels labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  Labels labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          Labels labels = {},
                          BucketSpec spec = BucketSpec::Latency());

  // Declares a family (HELP/TYPE) without creating an instance, so a
  // dump covers the catalog even before traffic creates the series.
  void DeclareFamily(const std::string& name, const std::string& help,
                     MetricKind kind);

  // Collection-time metric backed by component state; `kind` must be
  // kCounter or kGauge. Returns an id for Unregister.
  uint64_t AddCallback(const std::string& name, const std::string& help,
                       MetricKind kind, Labels labels,
                       std::function<double()> fn);
  void Unregister(uint64_t callback_id);

  // One collected sample (callbacks evaluated; histograms summarized).
  struct Sample {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    double value = 0.0;                 // counter/gauge
    HistogramSnapshot histogram;        // kHistogram only
  };
  std::vector<Sample> Collect() const;

  // Prometheus text exposition format (text/plain; version=0.0.4):
  // families sorted by name, one # HELP / # TYPE per family,
  // histograms as cumulative _bucket{le=...} + _sum + _count.
  std::string RenderPrometheus() const;
  // The same collection as a JSON object keyed by family name —
  // hand-written rendering, no JSON dependency.
  std::string RenderJson() const;

 private:
  struct Instance {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;
    uint64_t callback_id = 0;
  };
  struct Family {
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<std::unique_ptr<Instance>> instances;
  };

  Family* GetFamilyLocked(const std::string& name, const std::string& help,
                          MetricKind kind);
  Instance* FindInstanceLocked(Family& family, const Labels& labels);

  mutable std::mutex mu_;
  // Sorted map semantics via vector-of-pairs would do; std::map keeps
  // Render output deterministic with no extra sort.
  std::vector<std::pair<std::string, std::unique_ptr<Family>>> families_;
  uint64_t next_callback_id_ = 1;
};

// RAII holder for callback registrations: a component registers its
// collection-time metrics through one CallbackSet member and they are
// unregistered (before the state they read dies) by its destructor.
class CallbackSet {
 public:
  CallbackSet() = default;
  ~CallbackSet() { Clear(); }
  CallbackSet(const CallbackSet&) = delete;
  CallbackSet& operator=(const CallbackSet&) = delete;

  void Attach(MetricRegistry* registry) { registry_ = registry; }
  void Add(const std::string& name, const std::string& help,
           MetricKind kind, Labels labels, std::function<double()> fn) {
    if (registry_ == nullptr) return;
    ids_.push_back(registry_->AddCallback(name, help, kind,
                                          std::move(labels), std::move(fn)));
  }
  void Clear() {
    if (registry_ != nullptr) {
      for (uint64_t id : ids_) registry_->Unregister(id);
    }
    ids_.clear();
  }
  MetricRegistry* registry() const { return registry_; }

 private:
  MetricRegistry* registry_ = nullptr;
  std::vector<uint64_t> ids_;
};

#else  // S3_OBS_DISABLED -----------------------------------------------------

inline constexpr bool kEnabled = false;

class Counter {
 public:
  void Inc(uint64_t = 1) {}
  uint64_t Value() const { return 0; }
};

class Gauge {
 public:
  void Set(double) {}
  void Add(double) {}
  double Value() const { return 0.0; }
};

struct HistogramSnapshot {
  std::vector<uint64_t> counts;
  std::vector<double> uppers;
  uint64_t count = 0;
  double sum = 0.0;
  double Quantile(double) const { return 0.0; }
  double p50() const { return 0.0; }
  double p90() const { return 0.0; }
  double p99() const { return 0.0; }
};

class Histogram {
 public:
  explicit Histogram(BucketSpec spec = BucketSpec::Latency()) : spec_(spec) {}
  void Observe(double) {}
  HistogramSnapshot TakeSnapshot() const { return {}; }
  const BucketSpec& spec() const { return spec_; }

 private:
  BucketSpec spec_;
};

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  static MetricRegistry& Default() {
    static MetricRegistry registry;
    return registry;
  }

  Counter* GetCounter(const std::string&, const std::string&, Labels = {}) {
    return &counter_;
  }
  Gauge* GetGauge(const std::string&, const std::string&, Labels = {}) {
    return &gauge_;
  }
  Histogram* GetHistogram(const std::string&, const std::string&,
                          Labels = {}, BucketSpec = BucketSpec::Latency()) {
    return &histogram_;
  }
  void DeclareFamily(const std::string&, const std::string&, MetricKind) {}
  uint64_t AddCallback(const std::string&, const std::string&, MetricKind,
                       Labels, std::function<double()>) {
    return 0;
  }
  void Unregister(uint64_t) {}

  struct Sample {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    double value = 0.0;
    HistogramSnapshot histogram;
  };
  std::vector<Sample> Collect() const { return {}; }
  std::string RenderPrometheus() const { return std::string(); }
  std::string RenderJson() const { return std::string(); }

 private:
  // Shared no-op sinks: writes are discarded, reads are zero.
  Counter counter_;
  Gauge gauge_;
  Histogram histogram_;
};

class CallbackSet {
 public:
  void Attach(MetricRegistry* registry) { registry_ = registry; }
  void Add(const std::string&, const std::string&, MetricKind, Labels,
           std::function<double()>) {}
  void Clear() {}
  MetricRegistry* registry() const { return registry_; }

 private:
  MetricRegistry* registry_ = nullptr;
};

#endif  // S3_OBS_DISABLED

}  // namespace s3::obs

#endif  // S3_OBS_METRICS_H_

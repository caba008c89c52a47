// Lock-cheap metrics for the eclarity toolkit.
//
// The paper's thesis is that energy behaviour must be *legible*; the
// RAPL-overhead literature adds that the monitoring itself must be cheap and
// its cost known. This registry follows both rules: metric updates are
// relaxed atomic operations (no locks, no allocation), registration and
// export take a mutex but happen off the hot path, and everything is
// observable as JSON or Prometheus text. Counters are striped: each thread
// adds into its own cache-line-sized cell, so threads counting the same
// event never write a shared line (a single shared atomic was the query
// service's multi-core scaling bottleneck); reads sum the cells.
//
// Usage:
//   Counter& hits = MetricsRegistry::Global().GetCounter(
//       "eclarity_enum_cache_hits_total", "enumeration cache hits");
//   hits.Increment();
//
// Hot paths should resolve the Counter& once (function-local static or
// member) and only touch the atomic afterwards.

#ifndef ECLARITY_SRC_OBS_METRICS_H_
#define ECLARITY_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/latency.h"

namespace eclarity {

// Monotonically increasing event count, striped across cache-line-aligned
// cells. A thread always adds into the cell its stripe id names. A thread
// leases the least-shared stripe on its first increment (of any counter)
// and returns it when it exits, so up to kStripes live counting threads
// never share a written line, however many threads come and go; more
// threads share cells, still correctly, as every add is atomic. value() is
// the sum of all cells: exact once writers are quiescent, and while they
// run, at least every increment that happened-before the read.
class Counter {
 public:
  static constexpr size_t kStripes = 16;

  void Increment(uint64_t delta = 1) {
    cells_[Stripe()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t sum = 0;
    for (const Cell& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }
  void Reset() {
    for (Cell& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };

  // The calling thread's stripe. Constant-initialised, so the hot path is
  // one thread-local load and a compare.
  static size_t Stripe() {
    thread_local size_t stripe = kStripes;  // kStripes: not yet leased
    if (stripe == kStripes) {
      stripe = LeaseStripe();
    }
    return stripe;
  }
  // Leases the least-shared stripe to the calling thread until it exits.
  static size_t LeaseStripe();

  std::array<Cell, kStripes> cells_;
};

// Last-written scalar (cache sizes, error rates, alarm flags).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram; bucket bounds are upper bounds, with an implicit
// +inf bucket. Observations are two relaxed atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  // Cumulative count of observations <= bounds()[i]; the final entry is the
  // total count (+inf bucket included).
  std::vector<uint64_t> CumulativeCounts() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // size bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Exponential bucket bounds: start, start*factor, ... (count bounds).
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

// Linear bucket bounds: start, start+width, ... (count bounds).
std::vector<double> LinearBuckets(double start, double width, size_t count);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry the toolkit's built-in instrumentation uses.
  static MetricsRegistry& Global();

  // Returns the metric registered under `name`, creating it on first use.
  // References stay valid for the registry's lifetime. `help` is recorded on
  // first registration only. Requesting an existing name as a different
  // metric kind returns a dummy metric (never null) and logs nothing — the
  // exporter keeps the original.
  Counter& GetCounter(const std::string& name, const std::string& help = "");
  Gauge& GetGauge(const std::string& name, const std::string& help = "");
  Histogram& GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds);
  // HDR-style nanosecond latency histogram (src/obs/latency.h): exported
  // with p50/p90/p99/p99.9 in JSON and as a Prometheus summary.
  LatencyHistogram& GetLatencyHistogram(const std::string& name,
                                        const std::string& help = "");

  // All registered metrics as one JSON object:
  //   {"counters":{...},"gauges":{...},"histograms":{...},"latency":{...}}
  std::string ToJson() const;

  // Prometheus text exposition format (counters, gauges, and histograms
  // with _bucket/_sum/_count series).
  std::string ToPrometheusText() const;

  // Zeroes every registered metric (tests). Registrations are kept, so
  // cached references stay valid.
  void ResetAll();

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<LatencyHistogram> latency;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_OBS_METRICS_H_

#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/util/json.h"

namespace eclarity {
namespace {

std::string FormatDouble(double v) {
  if (std::isinf(v)) {
    return v > 0 ? "+Inf" : "-Inf";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Doubles are finite in practice (metric values), but JSON has no Inf/NaN;
// map them to null so the output always parses.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  return FormatDouble(v);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + v,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::CumulativeCounts() const {
  std::vector<uint64_t> out(buckets_.size());
  uint64_t running = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    out[i] = running;
  }
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  std::vector<double> out;
  out.reserve(count);
  double v = start;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

std::vector<double> LinearBuckets(double start, double width, size_t count) {
  std::vector<double> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(start + width * static_cast<double>(i));
  }
  return out;
}

size_t Counter::LeaseStripe() {
  // Live threads per stripe. Leaked, like the registry, so threads exiting
  // during static destruction can still return their lease.
  struct Leases {
    std::mutex mu;
    std::array<size_t, kStripes> users{};
  };
  static Leases* leases = new Leases();
  // Returns the lease when the thread exits.
  struct Lease {
    size_t stripe = kStripes;
    ~Lease() {
      std::lock_guard<std::mutex> lock(leases->mu);
      --leases->users[stripe];
    }
  };
  thread_local Lease lease;
  std::lock_guard<std::mutex> lock(leases->mu);
  const auto least =
      std::min_element(leases->users.begin(), leases->users.end());
  ++*least;
  lease.stripe = static_cast<size_t>(least - leases->users.begin());
  return lease.stripe;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.counter == nullptr && entry.gauge == nullptr &&
      entry.histogram == nullptr && entry.latency == nullptr) {
    entry.help = help;
    entry.counter = std::make_unique<Counter>();
  }
  if (entry.counter != nullptr) {
    return *entry.counter;
  }
  // Kind clash: hand back a detached dummy so callers never crash.
  static Counter* dummy = new Counter();
  return *dummy;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.counter == nullptr && entry.gauge == nullptr &&
      entry.histogram == nullptr && entry.latency == nullptr) {
    entry.help = help;
    entry.gauge = std::make_unique<Gauge>();
  }
  if (entry.gauge != nullptr) {
    return *entry.gauge;
  }
  static Gauge* dummy = new Gauge();
  return *dummy;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.counter == nullptr && entry.gauge == nullptr &&
      entry.histogram == nullptr && entry.latency == nullptr) {
    entry.help = help;
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  if (entry.histogram != nullptr) {
    return *entry.histogram;
  }
  static Histogram* dummy = new Histogram(std::vector<double>{1.0});
  return *dummy;
}

LatencyHistogram& MetricsRegistry::GetLatencyHistogram(
    const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[name];
  if (entry.counter == nullptr && entry.gauge == nullptr &&
      entry.histogram == nullptr && entry.latency == nullptr) {
    entry.help = help;
    entry.latency = std::make_unique<LatencyHistogram>();
  }
  if (entry.latency != nullptr) {
    return *entry.latency;
  }
  static LatencyHistogram* dummy = new LatencyHistogram();
  return *dummy;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream counters;
  std::ostringstream gauges;
  std::ostringstream histograms;
  std::ostringstream latencies;
  bool first_counter = true;
  bool first_gauge = true;
  bool first_histogram = true;
  bool first_latency = true;
  for (const auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) {
      if (!first_counter) counters << ',';
      first_counter = false;
      counters << JsonString(name) << ':' << entry.counter->value();
    } else if (entry.gauge != nullptr) {
      if (!first_gauge) gauges << ',';
      first_gauge = false;
      gauges << JsonString(name) << ':' << JsonNumber(entry.gauge->value());
    } else if (entry.histogram != nullptr) {
      if (!first_histogram) histograms << ',';
      first_histogram = false;
      const Histogram& h = *entry.histogram;
      histograms << JsonString(name) << ":{\"count\":" << h.count()
                 << ",\"sum\":" << JsonNumber(h.sum()) << ",\"buckets\":[";
      const auto counts = h.CumulativeCounts();
      for (size_t i = 0; i < counts.size(); ++i) {
        if (i > 0) histograms << ',';
        const std::string bound =
            i < h.bounds().size() ? FormatDouble(h.bounds()[i]) : "+Inf";
        histograms << "{\"le\":" << JsonString(bound)
                   << ",\"count\":" << counts[i] << '}';
      }
      histograms << "]}";
    } else if (entry.latency != nullptr) {
      if (!first_latency) latencies << ',';
      first_latency = false;
      const LatencyHistogram& h = *entry.latency;
      latencies << JsonString(name) << ":{\"count\":" << h.Count()
                << ",\"sum_ns\":" << h.SumNs()
                << ",\"p50_ns\":" << h.QuantileNs(0.50)
                << ",\"p90_ns\":" << h.QuantileNs(0.90)
                << ",\"p99_ns\":" << h.QuantileNs(0.99)
                << ",\"p999_ns\":" << h.QuantileNs(0.999)
                << ",\"max_ns\":" << h.MaxNs() << '}';
    }
  }
  std::ostringstream os;
  os << "{\"counters\":{" << counters.str() << "},\"gauges\":{"
     << gauges.str() << "},\"histograms\":{" << histograms.str()
     << "},\"latency\":{" << latencies.str() << "}}";
  return os.str();
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, entry] : entries_) {
    if (!entry.help.empty()) {
      os << "# HELP " << name << ' ' << entry.help << '\n';
    }
    if (entry.counter != nullptr) {
      os << "# TYPE " << name << " counter\n"
         << name << ' ' << entry.counter->value() << '\n';
    } else if (entry.gauge != nullptr) {
      os << "# TYPE " << name << " gauge\n"
         << name << ' ' << FormatDouble(entry.gauge->value()) << '\n';
    } else if (entry.histogram != nullptr) {
      const Histogram& h = *entry.histogram;
      os << "# TYPE " << name << " histogram\n";
      const auto counts = h.CumulativeCounts();
      for (size_t i = 0; i < counts.size(); ++i) {
        const std::string bound =
            i < h.bounds().size() ? FormatDouble(h.bounds()[i]) : "+Inf";
        os << name << "_bucket{le=\"" << bound << "\"} " << counts[i] << '\n';
      }
      os << name << "_sum " << FormatDouble(h.sum()) << '\n'
         << name << "_count " << h.count() << '\n';
    } else if (entry.latency != nullptr) {
      const LatencyHistogram& h = *entry.latency;
      os << "# TYPE " << name << " summary\n";
      // Canonical short labels: FormatDouble's %.17g would render 0.99 as
      // 0.98999999999999999, which breaks label matching in scrapers.
      constexpr struct {
        double q;
        const char* label;
      } kQuantiles[] = {
          {0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}, {0.999, "0.999"}};
      for (const auto& [q, label] : kQuantiles) {
        os << name << "{quantile=\"" << label << "\"} " << h.QuantileNs(q)
           << '\n';
      }
      os << name << "_sum " << h.SumNs() << '\n'
         << name << "_count " << h.Count() << '\n';
    }
  }
  return os.str();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    (void)name;
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.gauge != nullptr) entry.gauge->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
    if (entry.latency != nullptr) entry.latency->Reset();
  }
}

}  // namespace eclarity

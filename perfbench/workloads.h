// The three traffic mixes. Each request is a pure function of (workload
// seed, client, index), so the oracle can regenerate any request it samples
// without the timed loop storing it.
#ifndef ECLARITY_PERFBENCH_WORKLOADS_H_
#define ECLARITY_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/eval/ecv_profile.h"
#include "src/svc/query_service.h"

namespace perfbench {

enum class Workload { kHotKeys, kColdEval, kBatchSwap };

bool ParseWorkload(const std::string& name, Workload& out);
const char* WorkloadName(Workload w);

// How a request is served, for the per-route call spans.
enum class Route : uint8_t { kExact, kAnalytic, kMonteCarlo };

struct Request {
  eclarity::Query query;
  Route route = Route::kExact;
};

// Fixed shape of each workload.
struct WorkloadShape {
  int clients;
  // obs_sample_interval of the traced run: low enough to give many phase
  // spans, high enough that a periodic Drain() loses no journal events.
  uint32_t traced_sample_interval;
  size_t batch_size;              // 0: single Dispatch calls
  // The writer publishes after every this many batches the clients
  // complete (0: no writer). A cadence in work rather than wall time keeps
  // the read/write mix the same on a slow host and a fast one.
  uint64_t publish_every_batches;
  uint64_t oracle_every;          // replay one request (or batch) in N
  size_t oracle_cap;              // at most this many replays per run
};
WorkloadShape ShapeOf(Workload w);

class Generator {
 public:
  Generator(Workload w, uint64_t seed);

  Workload workload() const { return workload_; }

  // hot_keys: the prebuilt query for request `index` of `client`.
  const eclarity::Query& HotQuery(uint32_t client, uint64_t index) const;
  // cold_eval: a freshly generated, never-repeated request.
  Request ColdRequest(uint32_t client, uint64_t index) const;
  // batch_swap: the prebuilt batch for call `index` of `client`.
  const std::vector<eclarity::Query>& Batch(uint32_t client,
                                            uint64_t index) const;

  // Requests issued before the timed phase so that caches hold the warm
  // set (hot_keys, batch_swap) or code paths are faulted in (cold_eval,
  // whose warm-up client id never appears in the timed phase).
  std::vector<eclarity::Query> WarmupQueries() const;

  // Base ECV profile after `k` publications (k = 0 is the initial one):
  // the observed request_hit / local_cache_hit rates drifting the way the
  // webservice example feeds them back.
  eclarity::EcvProfile PublishProfile(uint64_t k) const;

  // Whether request (or batch) `index` of `client` is replayed by the
  // oracle.
  bool OracleSampled(uint32_t client, uint64_t index) const;

 private:
  uint64_t Hash(uint32_t client, uint64_t index) const;

  Workload workload_;
  uint64_t seed_;
  std::vector<eclarity::Query> hot_keys_;       // [key], Expected
  std::vector<eclarity::Query> hot_dist_keys_;  // [key], Distribution
  std::vector<uint32_t> hot_rank_to_key_;
  std::vector<double> hot_cdf_;                 // Zipf CDF over ranks
  std::vector<eclarity::Query> batch_keys_;
  std::vector<std::vector<eclarity::Query>> batch_pool_;
};

}  // namespace perfbench

#endif  // ECLARITY_PERFBENCH_WORKLOADS_H_

// QueryService: a thread-safe, concurrent energy-query front end.
//
// The paper's resource managers consult energy interfaces continuously —
// an OS scheduler or datacenter manager issues thousands of "how much
// energy would this input cost?" queries per second, from many threads.
// This service makes that usage pattern first-class:
//
//   * Immutable snapshots, RCU-style. The checked program (with its
//     lowered and compiled forms) and the base ECV profile live in a
//     std::shared_ptr<const Snapshot> that writers publish under a mutex,
//     bumping a publish sequence afterwards. Readers keep a thread-local
//     copy revalidated against that sequence, so acquisition is one atomic
//     load while no swap happened; they keep evaluating against their
//     snapshot even while a writer publishes a new profile or program —
//     the old snapshot stays valid until its last reader drops it, so
//     profile updates never block queries.
//
//   * Sharded exact-fold cache. Exact enumeration results are folded to a
//     canonical (distribution, mean) pair at insert time and cached in a
//     ShardedLruMap keyed on (program generation, interface, argument
//     fingerprints, effective-profile fingerprint); concurrent queries on
//     different keys take different shard locks, and a hit answers an
//     Expected or Distribution query with no re-fold. Errors are never
//     cached. In front of the shards each thread keeps a 512-entry
//     set-associative cache of the folds it last used, so a repeated query
//     takes no lock and writes no memory another thread shares.
//
//   * Snapshot-time bytecode specialization. Each publication specializes
//     the bundle's bytecode program against the snapshot's base profile
//     (Evaluator::PrepareSpecialized), so steady-state queries run baked
//     ECV resolution. Specialization compiles outside every lock — readers
//     on the old snapshot fall back to the generic program and never block.
//
//   * Deterministic concurrency. Expected / Distribution queries are exact
//     folds of the enumeration and therefore bit-reproducible regardless
//     of thread interleaving. Monte Carlo and Sample queries derive their
//     RNG stream from the query's seed alone (never from shared mutable
//     state), so a concurrent run is bit-identical to a single-threaded
//     replay of the same request log.
//
//   * Bounded Monte Carlo pool. MC requests run on a fixed-size worker
//     pool with a bounded queue (submitters block when it is full), so a
//     burst of heavy sampling queries cannot spawn unbounded threads.
//
// See DESIGN.md, "Concurrent query service".

#ifndef ECLARITY_SRC_SVC_QUERY_SERVICE_H_
#define ECLARITY_SRC_SVC_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/dist/distribution.h"
#include "src/eval/ecv_profile.h"
#include "src/eval/interp.h"
#include "src/lang/ast.h"
#include "src/svc/sharded_cache.h"
#include "src/units/units.h"
#include "src/util/status.h"

namespace eclarity {

enum class QueryKind {
  kExpected,      // exact expectation (Joules)
  kDistribution,  // exact distribution over Joules
  kMonteCarlo,    // sampled mean on the worker pool (seeded by the query)
  kSample,        // one sampled outcome (seeded by the query)
};

struct Query {
  std::string interface;    // entry interface to evaluate
  std::vector<Value> args;  // call arguments
  // Per-query ECV overrides, merged over the snapshot's base profile
  // (query keys win). Leave empty to use the snapshot profile as-is.
  EcvProfile profile;
  QueryKind kind = QueryKind::kExpected;
  uint64_t seed = 0;     // RNG seed for kMonteCarlo / kSample
  size_t samples = 1024;  // sample count for kMonteCarlo
  // Distribution-evaluation mode for kExpected / kDistribution. Unset uses
  // the service-wide options.eval.dist_mode; an analytic mode routes the
  // query through the snapshot evaluator's certified engine (with its
  // memoized sub-distribution cache), kEnumerate through the service's
  // sharded enumeration cache.
  std::optional<DistMode> dist_mode;
};

// One query's answer. `joules` is filled for kExpected / kMonteCarlo (and
// for kDistribution, as the mean); `distribution` only for kDistribution;
// `sample` only for kSample.
struct QueryOutcome {
  QueryKind kind = QueryKind::kExpected;
  double joules = 0.0;
  std::optional<Distribution> distribution;
  std::optional<Value> sample;

  // Certified-evaluation metadata, meaningful only when `analytic` is true
  // (the query ran under an analytic dist_mode): |exact_mean - joules| <=
  // error_bound, and pruned_mass is the certified dropped probability mass.
  bool analytic = false;
  double error_bound = 0.0;
  double pruned_mass = 0.0;

  // Canonical byte encoding (bit-exact doubles); equal outcomes produce
  // equal fingerprints. The concurrency tests compare these. Certified
  // metadata is appended only when `analytic` is set, so fingerprints of
  // legacy (enumeration-mode) outcomes are unchanged.
  std::string Fingerprint() const;
};

// Namespace-scope (not nested) so `Options options = {}` default arguments
// work around GCC bug 88165; spelled QueryService::Options at use sites.
struct QueryServiceOptions {
  // Total enumeration-cache capacity in entries, split across shards.
  size_t cache_capacity = 4096;
  size_t cache_shards = 16;
  // Monte Carlo worker pool: thread count and queue bound (0 means
  // 4 * mc_pool_threads). Submitters block while the queue is full.
  size_t mc_pool_threads = 2;
  size_t mc_queue_limit = 0;
  // Evaluation budgets / engine. The per-evaluator enumeration cache and
  // MC worker spawning are disabled internally: the service's sharded
  // cache and bounded pool replace them. Setting eval.vm_profiler threads
  // the bytecode VM profiler through every snapshot evaluator, giving
  // per-interface hot-op attribution for service traffic.
  EvalOptions eval;
  // Calibration for abstract-energy returns (borrowed; may be null).
  const EnergyCalibration* calibration = nullptr;
  // Continuous observability (src/obs): every N-th query per thread is
  // timed into the per-kind latency histograms and journalled as a span
  // (with cache-lookup / snapshot-pin / eval / fold phase spans on the
  // sampled query). Unsampled queries pay one thread-local countdown.
  // 0 disables sampling. The default keeps the self-accounted overhead
  // (eclarity_obs_overhead_ratio) under the 1% telemetry budget on mixed
  // traffic; diagnostic tools can lower it. It is prime so that traffic
  // repeating with a power-of-two period (say, a Monte Carlo query every
  // 32nd) is sampled at every phase: a period dividing the interval would
  // put every sample on the same query of the cycle, and the work the
  // budget credits would describe only that query kind.
  uint32_t obs_sample_interval = 257;
};

class QueryService {
 public:
  using Options = QueryServiceOptions;

  // Checks nothing beyond what evaluation will check: the program must be
  // closed (callers resolve imports first, e.g. via EnergyInterface::Link).
  static Result<std::unique_ptr<QueryService>> Create(
      Program program, Options options = {}, EcvProfile base_profile = {});

  ~QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // --- Queries (all thread-safe, any number of concurrent callers) --------

  Result<Energy> Expected(const Query& query) const;
  Result<Distribution> EvalDistribution(const Query& query) const;
  // Runs on the bounded worker pool; blocks until the result is ready.
  Result<Energy> MonteCarlo(const Query& query) const;
  Result<Value> Sample(const Query& query) const;

  // Dispatches on query.kind; the mixed-workload entry point.
  Result<QueryOutcome> Dispatch(const Query& query) const;

  // Evaluates a batch against ONE snapshot, amortising the snapshot
  // acquisition and deduplicating enumeration work: exact queries sharing
  // (interface, args, profile) are fingerprinted once and enumerated once.
  // Results are positionally aligned with `batch` and bit-identical to
  // dispatching each query alone.
  std::vector<Result<QueryOutcome>> EvaluateBatch(
      const std::vector<Query>& batch) const;

  // --- Snapshot publication (writers; never blocks readers) ---------------

  // Swaps the base ECV profile. In-flight queries finish on the snapshot
  // they acquired; the enumeration cache needs no flush because keys carry
  // the effective-profile fingerprint.
  void UpdateProfile(EcvProfile profile);

  // Swaps the whole program (re-lowered under a fresh generation, so stale
  // cache entries can never be returned for the new program).
  Status UpdateProgram(Program program);

  // --- Observability -------------------------------------------------------

  // An exact query's fully folded answer, shared via the cache: the
  // enumeration folded to its canonical distribution and mean once, at
  // insert time, so hits answer Expected / Distribution queries directly.
  struct ExactFold {
    Distribution distribution;
    double mean = 0.0;
  };
  using SharedFold = std::shared_ptr<const ExactFold>;

  using CacheStats = ShardedLruMap<std::string, SharedFold>::ShardStats;
  CacheStats TotalCacheStats() const;
  std::vector<CacheStats> PerShardCacheStats() const;
  size_t cache_shard_count() const;
  uint64_t snapshot_generation() const;

  // The snapshot type is opaque to callers; tests hold one to pin the old
  // world across a swap.
  class Snapshot;
  std::shared_ptr<const Snapshot> AcquireSnapshot() const;
  // Expected energy evaluated against a pinned snapshot (bypasses the
  // current publication, still uses the shared cache).
  Result<Energy> ExpectedOn(const Snapshot& snapshot,
                            const Query& query) const;

 private:
  class McPool;

  QueryService(std::shared_ptr<const Snapshot> initial, Options options);

  using SharedOutcomes = Evaluator::SharedOutcomes;

  // The calling thread's cached snapshot slot (revalidated against
  // publish_seq_). The returned reference is pinned by the thread-local
  // shared_ptr until this thread's next acquisition on any service.
  const std::shared_ptr<const Snapshot>& SnapshotSlot() const;
  // Borrowed snapshot for the synchronous query paths: no refcount traffic.
  // Valid until the calling thread's next acquisition — callers consume it
  // within the query and never stash it.
  const Snapshot& AcquireSnapshotRef() const { return *SnapshotSlot(); }

  // Cache-or-(enumerate+fold) against `snapshot`; `key_hint` (may be null)
  // carries a precomputed cache key from the batch path. The returned
  // pointer is pinned by the calling thread's set-associative fold cache
  // (a hit copies no shared_ptr) and stays valid until that thread's next
  // LookupFold / StoreFold; callers consume it immediately.
  Result<const ExactFold*> FoldCached(const Snapshot& snapshot,
                                      const Query& query,
                                      const std::string* key_hint) const;
  // Fold-cache primitives shared by FoldCached and the batch path. Both go
  // through the same thread-local cache and count exactly one cache hit or
  // miss per LookupFold call. LookupFold returns the thread-local entry
  // holding the fold (null on a miss), valid under the same rule as
  // FoldCached's pointer; callers that keep the fold copy the shared_ptr.
  // StoreFold publishes a freshly folded entry (shard insert + thread-local
  // fill, counting evictions).
  const SharedFold* LookupFold(const std::string& key) const;
  void StoreFold(const std::string& key, SharedFold entry) const;
  std::string CacheKey(const Snapshot& snapshot, const Query& query) const;
  void AppendCacheKey(const Snapshot& snapshot, const Query& query,
                      std::string& out) const;
  // The cache key minus the trailing effective-profile fingerprint. The
  // batch path appends a fingerprint hoisted once per distinct override
  // instead of re-merging and re-fingerprinting per item.
  void AppendCacheKeyPrefix(const Snapshot& snapshot, const Query& query,
                            std::string& out) const;
  // The query's dist_mode, falling back to the service-wide default.
  DistMode EffectiveMode(const Query& query) const;
  // Certified evaluation against `snapshot` under an analytic mode, through
  // the snapshot evaluator's memoized sub-distribution cache.
  Result<CertifiedDistribution> CertifiedOn(const Snapshot& snapshot,
                                            const Query& query,
                                            DistMode mode) const;
  Result<QueryOutcome> DispatchOn(const Snapshot& snapshot,
                                  const Query& query) const;
  Result<Energy> MonteCarloOn(const Snapshot& snapshot,
                              const Query& query) const;

  Options options_;
  // Distinguishes this service in thread-local caches; allocated from a
  // process-wide counter and never reused, so a service constructed at a
  // freed service's address cannot alias its stale thread-local state.
  const uint64_t svc_id_;
  // Published snapshot, guarded by snapshot_mu_. A plain mutex instead of
  // std::atomic<std::shared_ptr>: libstdc++'s lock-based _Sp_atomic unlocks
  // the reader side with memory_order_relaxed, so a reader's pointer read
  // and a writer's subsequent store have no happens-before edge — a data
  // race under the C++ memory model (ThreadSanitizer reports it). Readers
  // only take the mutex once per publication per thread: the hot path is
  // the publish_seq_-validated thread-local slot below.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const Snapshot> snapshot_;
  // Bumped after every snapshot publication. AcquireSnapshot's per-thread
  // cache revalidates against this with one relaxed-cost atomic load,
  // skipping the mutex entirely while no swap happened.
  std::atomic<uint64_t> publish_seq_;
  std::atomic<uint64_t> next_generation_;
  mutable ShardedLruMap<std::string, SharedFold> cache_;
  std::unique_ptr<McPool> mc_pool_;
};

}  // namespace eclarity

#endif  // ECLARITY_SRC_SVC_QUERY_SERVICE_H_

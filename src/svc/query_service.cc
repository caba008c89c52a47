#include "src/svc/query_service.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/eval/batch.h"
#include "src/obs/budget.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"

namespace eclarity {
namespace {

// Service instrumentation: resolved once, relaxed increments afterwards.
struct SvcCounters {
  Counter& queries;
  Counter& batches;
  Counter& batch_queries;
  Counter& cache_hits;
  Counter& cache_misses;
  Counter& cache_evictions;
  Counter& tl_fold_hits;
  Counter& tl_fold_misses;
  Counter& snapshot_swaps;
  Counter& mc_requests;
  Counter& profile_fingerprints;

  static SvcCounters& Get() {
    static SvcCounters* counters = new SvcCounters{
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_queries_total",
            "queries dispatched through QueryService"),
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_batches_total", "EvaluateBatch calls"),
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_batch_queries_total",
            "queries submitted via EvaluateBatch"),
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_cache_hits_total",
            "QueryService enumeration-cache hits (all shards)"),
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_cache_misses_total",
            "QueryService enumeration-cache misses (all shards)"),
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_cache_evictions_total",
            "QueryService enumeration-cache evictions (all shards)"),
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_tl_fold_hits_total",
            "exact-fold lookups answered by the thread-local fold cache"),
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_tl_fold_misses_total",
            "exact-fold lookups that fell through to the sharded cache"),
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_snapshot_swaps_total",
            "profile/program snapshots published"),
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_mc_requests_total",
            "Monte Carlo requests run on the service pool"),
        MetricsRegistry::Global().GetCounter(
            "eclarity_svc_profile_fingerprints_total",
            "effective-profile merges + fingerprints computed for "
            "override-carrying exact queries"),
    };
    return *counters;
  }
};

// Per-kind sampled query latency, resolved once like SvcCounters.
struct SvcLatency {
  LatencyHistogram& expected;
  LatencyHistogram& distribution;
  LatencyHistogram& montecarlo;
  LatencyHistogram& sample;

  LatencyHistogram& For(QueryKind kind) {
    switch (kind) {
      case QueryKind::kExpected:
        return expected;
      case QueryKind::kDistribution:
        return distribution;
      case QueryKind::kMonteCarlo:
        return montecarlo;
      case QueryKind::kSample:
        return sample;
    }
    return expected;
  }

  static SvcLatency& Get() {
    static SvcLatency* latency = new SvcLatency{
        MetricsRegistry::Global().GetLatencyHistogram(
            "eclarity_svc_latency_ns_expected",
            "sampled Expected query latency (ns)"),
        MetricsRegistry::Global().GetLatencyHistogram(
            "eclarity_svc_latency_ns_distribution",
            "sampled Distribution query latency (ns)"),
        MetricsRegistry::Global().GetLatencyHistogram(
            "eclarity_svc_latency_ns_montecarlo",
            "sampled Monte Carlo query latency (ns)"),
        MetricsRegistry::Global().GetLatencyHistogram(
            "eclarity_svc_latency_ns_sample",
            "sampled Sample query latency (ns)"),
    };
    return *latency;
  }
};

// Estimated telemetry nanoseconds spent *inside* the current sampled query
// (phase spans and journal records). The QueryTimer subtracts this from the
// sampled duration before crediting work and charges it as observability
// instead, so phase instrumentation cannot launder itself into the work
// side of the overhead ratio.
thread_local double tl_phase_obs_ns = 0.0;

// Batch-scope work accounting. Inside EvaluateBatch the per-item spans only
// cover pass-1 probes — the shared group passes and per-batch setup run
// outside them — so per-item timers must not credit work (the batch-level
// timer owns the whole wall time) and instead accumulate their
// instrumentation cost here for the batch timer to subtract.
thread_local bool tl_batch_active = false;
thread_local double tl_batch_obs_ns = 0.0;

// Records an instantaneous sampled event (the journal stamps the clock).
void JournalInstant(JournalEventKind kind, uint64_t a) {
  Journal::Global().Record(kind, a);
  tl_phase_obs_ns += 2.0 * ObsBudget::Global().clock_read_ns();
}

// Closes a sampled phase span opened at `t0` (costs two clock reads plus
// the record itself, estimated at one more clock-read-equivalent).
void JournalPhase(JournalEventKind kind, uint64_t a, uint64_t t0) {
  Journal::Global().Record(kind, a, 0, t0, ObsNowNs() - t0);
  tl_phase_obs_ns += 3.0 * ObsBudget::Global().clock_read_ns();
}

// One query's observability scope. Construction decides (via the shared
// per-thread 1-in-N gate) whether this query is sampled; an unsampled query
// pays exactly one thread-local countdown and branch. A sampled query is
// timed into its kind's latency histogram, journalled as a kQuery span, and
// settled against the ObsBudget: the measured duration (minus the phase
// instrumentation recorded inside it) is credited as work scaled by the
// sampling interval, and every instrumentation cost — the timer's own clock
// reads, the phase estimates, and the interval's worth of unsampled ticks —
// is charged as observability.
class QueryTimer {
 public:
  // `credit_work=false` is the EvaluateBatch per-item mode: the span still
  // samples, journals, and feeds the latency histogram, but work crediting
  // belongs to the enclosing BatchWorkTimer (per-item spans cover only the
  // pass-1 probe, not the shared group passes).
  QueryTimer(uint32_t interval, QueryKind kind, bool credit_work = true)
      : kind_(kind), credit_work_(credit_work) {
    if (ObsSampler::Tick(interval)) {
      interval_ = interval;
      tl_phase_obs_ns = 0.0;
      start_ns_ = ObsNowNs();
    }
  }

  ~QueryTimer() {
    if (interval_ == 0) {
      return;
    }
    const uint64_t end = ObsNowNs();
    const uint64_t dur = end - start_ns_;
    SvcLatency::Get().For(kind_).Record(dur);
    Journal::Global().Record(JournalEventKind::kQuery,
                             static_cast<uint64_t>(kind_), 0, start_ns_, dur);
    ObsSampler::EndSample();
    ObsBudget& budget = ObsBudget::Global();
    const double phase_obs =
        tl_phase_obs_ns < static_cast<double>(dur) ? tl_phase_obs_ns
                                                   : static_cast<double>(dur);
    if (credit_work_) {
      budget.AddWorkNs((static_cast<double>(dur) - phase_obs) * interval_);
    }
    // after - end prices the histogram + journal + EndSample work directly;
    // the remaining clock reads and the unsampled ticks are calibrated.
    const uint64_t after = ObsNowNs();
    const double own_obs = static_cast<double>(after - end) + phase_obs +
                           3.0 * budget.clock_read_ns();
    if (!credit_work_ && tl_batch_active) {
      // Ran inside a sampled batch: this instrumentation sits inside the
      // batch's wall time and must not be credited as batch work.
      tl_batch_obs_ns += own_obs;
    }
    budget.AddObsNs(own_obs +
                    static_cast<double>(interval_) * budget.sampler_tick_ns());
  }

  QueryTimer(const QueryTimer&) = delete;
  QueryTimer& operator=(const QueryTimer&) = delete;

 private:
  const QueryKind kind_;
  const bool credit_work_ = true;
  uint32_t interval_ = 0;  // 0: this query is not sampled
  uint64_t start_ns_ = 0;
};

// Whole-batch work scope for EvaluateBatch. Per-item spans there cover only
// the pass-1 probe (memo/table hits are a few ns), while the per-batch
// setup, the grouped SoA passes, and the fix-up pass run outside them — so
// crediting work per item both undercounts (shared passes vanish) and
// distorts the ratio (a memo hit measures ~20 ns of "work" against a fixed
// per-sample telemetry cost). Instead: 1-in-N *batches* (own gate, so the
// per-item cadence that tests pin down is untouched) measure the whole call
// and credit (duration - inner instrumentation) x interval as work. The
// unsampled-batch cost is one countdown, priced like a sampler tick.
class BatchWorkTimer {
 public:
  BatchWorkTimer(uint32_t interval, size_t items) : items_(items) {
    static thread_local uint32_t countdown = 1;
    if (interval == 0 || --countdown != 0) {
      return;
    }
    countdown = interval;
    interval_ = interval;
    tl_batch_active = true;
    tl_batch_obs_ns = 0.0;
    start_ns_ = ObsNowNs();
  }

  ~BatchWorkTimer() {
    if (interval_ == 0) {
      return;
    }
    const uint64_t end = ObsNowNs();
    tl_batch_active = false;
    ObsBudget& budget = ObsBudget::Global();
    // Every item paid its own per-item sampler tick inside this wall time.
    double inner_obs = tl_batch_obs_ns +
                       static_cast<double>(items_) * budget.sampler_tick_ns();
    const double dur = static_cast<double>(end - start_ns_);
    if (inner_obs > dur) {
      inner_obs = dur;
    }
    budget.AddWorkNs((dur - inner_obs) * interval_);
    budget.AddObsNs(2.0 * budget.clock_read_ns() +
                    static_cast<double>(interval_) * budget.sampler_tick_ns());
  }

  BatchWorkTimer(const BatchWorkTimer&) = delete;
  BatchWorkTimer& operator=(const BatchWorkTimer&) = delete;

 private:
  const size_t items_;
  uint32_t interval_ = 0;  // 0: this batch is not sampled
  uint64_t start_ns_ = 0;
};

void AppendBits(std::string& out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  out.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

}  // namespace

std::string QueryOutcome::Fingerprint() const {
  std::string out;
  out.push_back(static_cast<char>(kind));
  AppendBits(out, joules);
  if (distribution.has_value()) {
    for (const Atom& atom : distribution->atoms()) {
      AppendBits(out, atom.value);
      AppendBits(out, atom.probability);
    }
  }
  if (sample.has_value()) {
    sample->AppendFingerprint(out);
  }
  if (analytic) {
    out.push_back('\x01');
    AppendBits(out, error_bound);
    AppendBits(out, pruned_mass);
  }
  return out;
}

// --- Snapshot ---------------------------------------------------------------

// An immutable (program, profile) world. The evaluator is constructed once
// per program publication — lowering, interface pre-binding, and slot
// tables are paid at publish time, never on the query path — and shared by
// every snapshot that merely changes the profile.
class QueryService::Snapshot {
 public:
  // Program + evaluator bundle, shared across profile updates.
  struct Bundle {
    Bundle(Program p, uint64_t gen, const EvalOptions& eval)
        : program(std::move(p)), generation(gen), evaluator(program, eval) {}
    Program program;
    uint64_t generation;
    Evaluator evaluator;
  };

  Snapshot(std::shared_ptr<const Bundle> bundle, EcvProfile profile)
      : bundle_(std::move(bundle)),
        profile_(std::move(profile)),
        profile_fingerprint_(profile_.Fingerprint()),
        unique_id_([] {
          static std::atomic<uint64_t> next{1};
          return next.fetch_add(1, std::memory_order_relaxed);
        }()) {}

  const Bundle& bundle() const { return *bundle_; }
  std::shared_ptr<const Bundle> bundle_ptr() const { return bundle_; }
  uint64_t generation() const { return bundle_->generation; }
  const EcvProfile& profile() const { return profile_; }
  const std::string& profile_fingerprint() const {
    return profile_fingerprint_;
  }
  // Process-unique identity of this exact snapshot object. publish_seq_
  // cannot serve as one: the writer stores the snapshot before bumping the
  // sequence, so two readers observing equal sequences may hold different
  // snapshots. Memoization keyed on this id can never mix worlds.
  uint64_t unique_id() const { return unique_id_; }

 private:
  std::shared_ptr<const Bundle> bundle_;
  EcvProfile profile_;
  std::string profile_fingerprint_;
  const uint64_t unique_id_;
};

// --- Bounded Monte Carlo worker pool ----------------------------------------

class QueryService::McPool {
 public:
  McPool(size_t threads, size_t queue_limit)
      : queue_limit_(queue_limit == 0 ? 4 * std::max<size_t>(threads, 1)
                                      : queue_limit) {
    threads = std::max<size_t>(threads, 1);
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { Run(); });
    }
  }

  ~McPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }

  // Runs `task` on a pool worker and waits for it. Blocks while the queue
  // is at its bound (backpressure instead of unbounded growth).
  void RunAndWait(std::function<void()> task) {
    struct Done {
      std::mutex mu;
      std::condition_variable cv;
      bool done = false;
    };
    auto done = std::make_shared<Done>();
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock,
                     [this] { return queue_.size() < queue_limit_ || stopping_; });
      if (stopping_) {
        // Destruction while submitting: run inline rather than dropping.
        lock.unlock();
        task();
        return;
      }
      queue_.push_back([task = std::move(task), done] {
        task();
        std::lock_guard<std::mutex> lock(done->mu);
        done->done = true;
        done->cv.notify_all();
      });
    }
    not_empty_.notify_one();
    std::unique_lock<std::mutex> lock(done->mu);
    done->cv.wait(lock, [&] { return done->done; });
  }

 private:
  void Run() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        not_empty_.wait(lock, [this] { return !queue_.empty() || stopping_; });
        if (queue_.empty()) {
          return;  // stopping
        }
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      not_full_.notify_one();
      task();
    }
  }

  const size_t queue_limit_;
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

// --- QueryService -----------------------------------------------------------

Result<std::unique_ptr<QueryService>> QueryService::Create(
    Program program, Options options, EcvProfile base_profile) {
  const std::vector<std::string> imports = program.UnresolvedCallees();
  if (!imports.empty()) {
    std::string list;
    for (const std::string& name : imports) {
      if (!list.empty()) {
        list += ", ";
      }
      list += name;
    }
    return FailedPreconditionError(
        "QueryService needs a closed program; unresolved imports: " + list);
  }
  // Force the telemetry budget's one-time calibration now: it resets the
  // thread's sampler state, so letting it run lazily inside the first
  // sampled query would clear the in-flight sample and silently drop that
  // query's phase spans from the journal.
  ObsBudget::Global();
  // The service's sharded cache replaces the per-evaluator one, and MC
  // sampling runs on the service pool: one inline worker per request.
  EvalOptions eval = options.eval;
  eval.enum_cache_capacity = 0;
  eval.mc_workers = 1;
  options.eval = eval;
  auto bundle = std::make_shared<const Snapshot::Bundle>(std::move(program),
                                                         /*gen=*/0, eval);
  auto snapshot =
      std::make_shared<const Snapshot>(std::move(bundle),
                                       std::move(base_profile));
  // Specialize the bytecode program against the snapshot's own profile
  // object so the evaluator's pointer fast path matches on the query path.
  snapshot->bundle().evaluator.PrepareSpecialized(snapshot->profile());
  return std::unique_ptr<QueryService>(
      new QueryService(std::move(snapshot), std::move(options)));
}

QueryService::QueryService(std::shared_ptr<const Snapshot> initial,
                           Options options)
    : options_(options),
      svc_id_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      snapshot_(std::move(initial)),
      publish_seq_(1),
      next_generation_(1),
      cache_(options.cache_capacity, options.cache_shards),
      mc_pool_(std::make_unique<McPool>(options.mc_pool_threads,
                                        options.mc_queue_limit)) {}

const std::shared_ptr<const QueryService::Snapshot>&
QueryService::SnapshotSlot() const {
  // Per-thread snapshot cache, revalidated against publish_seq_: while no
  // writer publishes, acquisition is one atomic load instead of taking
  // the snapshot mutex. A thread that stops querying keeps
  // its last snapshot pinned until it queries again or exits — standard
  // RCU-reader behaviour, bounded by the thread count.
  struct TlSnapshot {
    uint64_t svc_id = 0;
    uint64_t seq = 0;
    std::shared_ptr<const Snapshot> snapshot;
  };
  thread_local TlSnapshot tl;
  const uint64_t seq = publish_seq_.load(std::memory_order_acquire);
  if (tl.svc_id == svc_id_ && tl.seq == seq) {
    return tl.snapshot;
  }
  // The writer publishes the snapshot (under the mutex) before bumping
  // publish_seq_, so having observed `seq` guarantees this read sees at
  // least that publication — possibly a newer one, which is fine: the
  // freshness contract is monotonic, not exact.
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    tl.snapshot = snapshot_;
  }
  tl.svc_id = svc_id_;
  tl.seq = seq;
  return tl.snapshot;
}

std::shared_ptr<const QueryService::Snapshot> QueryService::AcquireSnapshot()
    const {
  return SnapshotSlot();
}

void QueryService::UpdateProfile(EcvProfile profile) {
  // Readers that already hold the old snapshot keep it alive through their
  // shared_ptr; publication only redirects *future* acquisitions.
  std::shared_ptr<const Snapshot> current;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    current = snapshot_;
  }
  auto next = std::make_shared<const Snapshot>(current->bundle_ptr(),
                                               std::move(profile));
  // Re-specialize from the already-lowered IR before publication. The
  // compile runs outside every snapshot and evaluator lock: readers on the
  // old snapshot keep the generic program (profile fingerprints no longer
  // match) and are never blocked.
  const uint64_t generation = next->generation();
  const uint64_t spec_t0 = ObsNowNs();
  next->bundle().evaluator.PrepareSpecialized(next->profile());
  Journal::Global().Record(JournalEventKind::kRespecialize, generation, 0,
                           spec_t0, ObsNowNs() - spec_t0);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }
  publish_seq_.fetch_add(1, std::memory_order_release);
  SvcCounters::Get().snapshot_swaps.Increment();
  // Writer-path events are rare enough to journal unsampled; their cost is
  // publish-time, not steady-state query work, so the budget skips them.
  Journal::Global().Record(JournalEventKind::kSnapshotSwap, generation,
                           /*b=*/1);
}

Status QueryService::UpdateProgram(Program program) {
  if (!program.UnresolvedCallees().empty()) {
    return FailedPreconditionError(
        "UpdateProgram needs a closed program (unresolved imports remain)");
  }
  const uint64_t generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  auto bundle = std::make_shared<const Snapshot::Bundle>(
      std::move(program), generation, options_.eval);
  std::shared_ptr<const Snapshot> current;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    current = snapshot_;
  }
  auto next =
      std::make_shared<const Snapshot>(std::move(bundle), current->profile());
  const uint64_t spec_t0 = ObsNowNs();
  next->bundle().evaluator.PrepareSpecialized(next->profile());
  Journal::Global().Record(JournalEventKind::kRespecialize, generation, 0,
                           spec_t0, ObsNowNs() - spec_t0);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }
  publish_seq_.fetch_add(1, std::memory_order_release);
  SvcCounters::Get().snapshot_swaps.Increment();
  Journal::Global().Record(JournalEventKind::kSnapshotSwap, generation,
                           /*b=*/2);
  return OkStatus();
}

uint64_t QueryService::snapshot_generation() const {
  return AcquireSnapshot()->generation();
}

void QueryService::AppendCacheKeyPrefix(const Snapshot& snapshot,
                                        const Query& query,
                                        std::string& out) const {
  out.append(reinterpret_cast<const char*>(&snapshot.bundle().generation),
             sizeof(uint64_t));
  out += query.interface;
  out.push_back('\x1f');
  for (const Value& arg : query.args) {
    arg.AppendFingerprint(out);
  }
  out.push_back('\x1f');
}

void QueryService::AppendCacheKey(const Snapshot& snapshot,
                                  const Query& query,
                                  std::string& out) const {
  AppendCacheKeyPrefix(snapshot, query, out);
  if (query.profile.empty()) {
    out += snapshot.profile_fingerprint();
  } else {
    EcvProfile merged = snapshot.profile();
    merged.MergeFrom(query.profile);
    SvcCounters::Get().profile_fingerprints.Increment();
    out += merged.Fingerprint();
  }
}

std::string QueryService::CacheKey(const Snapshot& snapshot,
                                   const Query& query) const {
  std::string key;
  key.reserve(96);
  AppendCacheKey(snapshot, query, key);
  return key;
}

DistMode QueryService::EffectiveMode(const Query& query) const {
  return query.dist_mode.value_or(options_.eval.dist_mode);
}

Result<CertifiedDistribution> QueryService::CertifiedOn(
    const Snapshot& snapshot, const Query& query, DistMode mode) const {
  // The snapshot evaluator's analytic cache keys on (interface, args,
  // profile, mode, threshold, calibration), so concurrent certified queries
  // dedup there; a program swap replaces the evaluator wholesale, which
  // rekeys by construction.
  const Evaluator& evaluator = snapshot.bundle().evaluator;
  if (query.profile.empty()) {
    return evaluator.EvalCertifiedMode(query.interface, query.args,
                                       snapshot.profile(),
                                       options_.calibration, mode);
  }
  EcvProfile merged = snapshot.profile();
  merged.MergeFrom(query.profile);
  return evaluator.EvalCertifiedMode(query.interface, query.args, merged,
                                     options_.calibration, mode);
}

namespace {

// Per-thread set-associative fold cache: a repeated exact query is answered
// with one key build, one hash, a scan of at most two cache lines of tags
// and one string compare — no shard lock, no refcount traffic, and no write
// to memory another thread touches (the LRU stamp a hit bumps is this
// thread's own). Entries are keyed on the full cache key plus the owning
// service's id. The answer path is gated on a non-zero shared-cache
// capacity, so a deliberately uncached service still pays (and counts) one
// shard miss per lookup. Entries are immutable shared_ptrs and the key
// embeds the program generation and effective-profile fingerprint, so a
// stale entry — even one outliving a shard eviction or snapshot swap — can
// only ever answer with the exact fold its key names. Each entry pins its
// fold until replaced, so the fold memory a thread can keep alive past
// shard eviction is bounded by kEntries folds.
//
// Each key may live in either of two 8-way sets (picked by two independent
// hash bit-fields) and fills an empty or least-recently-used way of either.
// One set per key would not hold a hot set half the cache's size: 256
// random keys overflow some set of a 128x4 or 64x8 single-choice layout in
// most draws (simulated: >99% and 76%), while with two choices and 8 ways
// no overflow appeared in 20,000 draws.
class TlFoldCache {
 public:
  struct Entry {
    uint64_t svc_id = 0;  // 0: empty
    uint64_t last_use = 0;
    std::string key;
    QueryService::SharedFold fold;
  };

  static TlFoldCache& Get() {
    thread_local TlFoldCache cache;
    return cache;
  }

  // The calling thread's cache if it has one that is not yet destroyed
  // (a service may be destroyed during thread or process exit), else null.
  static TlFoldCache* IfLive() { return live_; }

  // Empties every entry `svc_id` filled, releasing the folds they pin. A
  // dead service's entries can never answer (ids are never reused), but
  // would keep its folds alive until evicted.
  void Drop(uint64_t svc_id) {
    for (size_t i = 0; i < kEntries; ++i) {
      if (entries_[i].svc_id == svc_id) {
        tags_[i / kWays].hash[i % kWays] = 0;
        entries_[i] = Entry{};
      }
    }
    uncached_pin_.reset();
  }

  // The entry holding (svc_id, key), or null.
  Entry* Find(uint64_t svc_id, const std::string& key, uint64_t hash) {
    for (const size_t set : {SetA(hash), SetB(hash)}) {
      for (size_t way = 0; way < kWays; ++way) {
        if (tags_[set].hash[way] != hash) {
          continue;
        }
        Entry& entry = entries_[set * kWays + way];
        if (entry.svc_id == svc_id && entry.key == key) {
          entry.last_use = ++tick_;
          return &entry;
        }
      }
    }
    return nullptr;
  }

  // Stores `fold` under (svc_id, key), which Find just missed, in an empty
  // or else the least recently used way of the key's two sets.
  Entry& Fill(uint64_t svc_id, const std::string& key, uint64_t hash,
              QueryService::SharedFold fold) {
    size_t victim = SetA(hash) * kWays;
    for (const size_t set : {SetA(hash), SetB(hash)}) {
      for (size_t i = set * kWays; i < (set + 1) * kWays; ++i) {
        if (entries_[i].last_use < entries_[victim].last_use) {
          victim = i;
        }
      }
    }
    tags_[victim / kWays].hash[victim % kWays] = hash;
    Entry& entry = entries_[victim];
    entry.svc_id = svc_id;
    entry.last_use = ++tick_;
    entry.key = key;  // assignment keeps capacity across refills
    entry.fold = std::move(fold);
    return entry;
  }

  // Pins the fold a service with the cache disabled just computed, so the
  // raw pointer FoldCached returns outlives its local handle.
  void PinUncached(QueryService::SharedFold fold) {
    uncached_pin_ = std::move(fold);
  }

 private:
  static constexpr size_t kWays = 8;
  static constexpr size_t kSets = 64;
  static constexpr size_t kEntries = kSets * kWays;
  static_assert((kSets & (kSets - 1)) == 0);

  // One set's tags share a cache line, so a lookup reads at most two.
  struct alignas(64) SetTags {
    std::array<uint64_t, kWays> hash{};
  };

  TlFoldCache() : tags_(kSets), entries_(kEntries) { live_ = this; }
  ~TlFoldCache() { live_ = nullptr; }
  TlFoldCache(const TlFoldCache&) = delete;
  TlFoldCache& operator=(const TlFoldCache&) = delete;

  static size_t SetA(uint64_t hash) { return hash & (kSets - 1); }
  static size_t SetB(uint64_t hash) { return (hash >> 32) & (kSets - 1); }

  // Heap-allocated (~36 KiB per querying thread plus key bytes).
  std::vector<SetTags> tags_;
  std::vector<Entry> entries_;
  uint64_t tick_ = 0;
  QueryService::SharedFold uncached_pin_;
  // Constant-initialised, so it stays readable after the cache is gone.
  static inline thread_local TlFoldCache* live_ = nullptr;
};

}  // namespace

QueryService::~QueryService() {
  // Only this thread's cache is reachable; other threads' entries for this
  // service age out under LRU or die with their thread.
  if (TlFoldCache* cache = TlFoldCache::IfLive()) {
    cache->Drop(svc_id_);
  }
}

const QueryService::SharedFold* QueryService::LookupFold(
    const std::string& key) const {
  const bool use_tl = cache_.capacity() > 0;
  // Phase spans (cache lookup, eval, fold) are recorded only inside a
  // query the QueryTimer already chose to sample, so the unsampled fast
  // path pays one thread-local bool read here.
  const bool sampled = ObsSampler::Active();
  const uint64_t lookup_t0 = sampled ? ObsNowNs() : 0;
  const uint64_t hash = std::hash<std::string>{}(key);
  if (use_tl) {
    if (TlFoldCache::Entry* entry =
            TlFoldCache::Get().Find(svc_id_, key, hash)) {
      SvcCounters::Get().cache_hits.Increment();
      SvcCounters::Get().tl_fold_hits.Increment();
      if (sampled) {
        JournalPhase(JournalEventKind::kCacheLookup, /*a=*/1, lookup_t0);
      }
      return &entry->fold;
    }
    SvcCounters::Get().tl_fold_misses.Increment();
  }
  if (std::optional<SharedFold> hit = cache_.Get(key)) {
    SvcCounters::Get().cache_hits.Increment();
    TlFoldCache::Entry& entry =
        TlFoldCache::Get().Fill(svc_id_, key, hash, std::move(*hit));
    if (sampled) {
      JournalPhase(JournalEventKind::kCacheLookup, /*a=*/2, lookup_t0);
    }
    return &entry.fold;
  }
  SvcCounters::Get().cache_misses.Increment();
  if (sampled) {
    JournalPhase(JournalEventKind::kCacheLookup, /*a=*/0, lookup_t0);
  }
  return nullptr;
}

void QueryService::StoreFold(const std::string& key, SharedFold entry) const {
  if (cache_.Put(key, entry)) {
    SvcCounters::Get().cache_evictions.Increment();
    // Always-on: evictions are rare and explain hit-rate cliffs.
    Journal::Global().Record(JournalEventKind::kShardEviction);
  }
  if (cache_.capacity() == 0) {
    TlFoldCache::Get().PinUncached(std::move(entry));
    return;
  }
  TlFoldCache::Get().Fill(svc_id_, key, std::hash<std::string>{}(key),
                          std::move(entry));
}

Result<const QueryService::ExactFold*> QueryService::FoldCached(
    const Snapshot& snapshot, const Query& query,
    const std::string* key_hint) const {
  // Thread-local scratch: steady-state key builds allocate nothing.
  thread_local std::string scratch;
  const std::string* key = key_hint;
  if (key == nullptr) {
    scratch.clear();
    AppendCacheKey(snapshot, query, scratch);
    key = &scratch;
  }
  if (const SharedFold* hit = LookupFold(*key)) {
    return hit->get();  // pinned by the thread-local entry; no refcount bump
  }
  const bool sampled = ObsSampler::Active();
  const uint64_t eval_t0 = sampled ? ObsNowNs() : 0;
  const Evaluator& evaluator = snapshot.bundle().evaluator;
  Result<SharedOutcomes> outcomes = [&]() -> Result<SharedOutcomes> {
    if (query.profile.empty()) {
      return evaluator.EnumerateShared(query.interface, query.args,
                                       snapshot.profile());
    }
    EcvProfile merged = snapshot.profile();
    merged.MergeFrom(query.profile);
    return evaluator.EnumerateShared(query.interface, query.args, merged);
  }();
  if (!outcomes.ok()) {
    return outcomes.status();  // errors are never cached
  }
  if (sampled) {
    JournalPhase(JournalEventKind::kEval, (*outcomes)->size(), eval_t0);
  }
  // Fold through Distribution's canonical atom order — the exact path
  // Evaluator::ExpectedEnergy takes — so service answers are bit-identical
  // to the single-threaded engine's. Folding once at insert means a cache
  // hit serves Expected and Distribution queries with no per-query fold.
  const uint64_t fold_t0 = sampled ? ObsNowNs() : 0;
  std::vector<Atom> atoms;
  atoms.reserve((*outcomes)->size());
  for (const WeightedOutcome& o : **outcomes) {
    ECLARITY_ASSIGN_OR_RETURN(double joules,
                              OutcomeJoules(o.value, options_.calibration));
    atoms.push_back({joules, o.probability});
  }
  ECLARITY_ASSIGN_OR_RETURN(Distribution dist,
                            Distribution::Categorical(std::move(atoms)));
  const double mean = dist.Mean();
  if (sampled) {
    JournalPhase(JournalEventKind::kFold, dist.atoms().size(), fold_t0);
  }
  auto entry = std::make_shared<const ExactFold>(
      ExactFold{std::move(dist), mean});
  const ExactFold* raw = entry.get();
  StoreFold(*key, std::move(entry));  // the thread-local cache pins `raw`
  return raw;
}

Result<Energy> QueryService::ExpectedOn(const Snapshot& snapshot,
                                        const Query& query) const {
  const DistMode mode = EffectiveMode(query);
  if (mode != DistMode::kEnumerate) {
    ECLARITY_ASSIGN_OR_RETURN(CertifiedDistribution cd,
                              CertifiedOn(snapshot, query, mode));
    return Energy::Joules(cd.mean);
  }
  ECLARITY_ASSIGN_OR_RETURN(const ExactFold* fold,
                            FoldCached(snapshot, query, nullptr));
  return Energy::Joules(fold->mean);
}

Result<Energy> QueryService::Expected(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, QueryKind::kExpected);
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  return ExpectedOn(snapshot, query);
}

Result<Distribution> QueryService::EvalDistribution(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, QueryKind::kDistribution);
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  ECLARITY_ASSIGN_OR_RETURN(const ExactFold* fold,
                            FoldCached(snapshot, query, nullptr));
  return fold->distribution;
}

Result<Energy> QueryService::MonteCarloOn(const Snapshot& snapshot,
                                          const Query& query) const {
  SvcCounters::Get().mc_requests.Increment();
  Result<Energy> result = InternalError("MC task never ran");
  mc_pool_->RunAndWait([&] {
    // The stream is a pure function of the query's seed: concurrent
    // execution and single-threaded replay draw identical samples.
    Rng rng(query.seed);
    const Evaluator& evaluator = snapshot.bundle().evaluator;
    if (query.profile.empty()) {
      result = evaluator.MonteCarloMean(query.interface, query.args,
                                        snapshot.profile(), rng, query.samples,
                                        options_.calibration);
      return;
    }
    EcvProfile merged = snapshot.profile();
    merged.MergeFrom(query.profile);
    result = evaluator.MonteCarloMean(query.interface, query.args, merged, rng,
                                      query.samples, options_.calibration);
  });
  return result;
}

Result<Energy> QueryService::MonteCarlo(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, QueryKind::kMonteCarlo);
  // MonteCarloOn blocks this thread until the pool task finishes, so the
  // borrowed snapshot stays pinned for the whole call (and the sampled
  // span covers queueing plus execution — the latency a caller sees).
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  return MonteCarloOn(snapshot, query);
}

Result<Value> QueryService::Sample(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, QueryKind::kSample);
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  Rng rng(query.seed);
  const Evaluator& evaluator = snapshot.bundle().evaluator;
  if (query.profile.empty()) {
    return evaluator.EvalSampled(query.interface, query.args,
                                 snapshot.profile(), rng);
  }
  EcvProfile merged = snapshot.profile();
  merged.MergeFrom(query.profile);
  return evaluator.EvalSampled(query.interface, query.args, merged, rng);
}

Result<QueryOutcome> QueryService::DispatchOn(const Snapshot& snapshot,
                                              const Query& query) const {
  QueryOutcome outcome;
  outcome.kind = query.kind;
  const DistMode mode = EffectiveMode(query);
  switch (query.kind) {
    case QueryKind::kExpected: {
      if (mode != DistMode::kEnumerate) {
        ECLARITY_ASSIGN_OR_RETURN(CertifiedDistribution cd,
                                  CertifiedOn(snapshot, query, mode));
        outcome.joules = cd.mean;
        outcome.analytic = true;
        outcome.error_bound = cd.mean_error_bound;
        outcome.pruned_mass = cd.pruned_mass;
        return outcome;
      }
      ECLARITY_ASSIGN_OR_RETURN(Energy energy, ExpectedOn(snapshot, query));
      outcome.joules = energy.joules();
      return outcome;
    }
    case QueryKind::kDistribution: {
      if (mode != DistMode::kEnumerate) {
        ECLARITY_ASSIGN_OR_RETURN(CertifiedDistribution cd,
                                  CertifiedOn(snapshot, query, mode));
        if (!cd.has_distribution) {
          return FailedPreconditionError(
              "moments-only evaluation materialises no distribution; "
              "use kExpected");
        }
        outcome.joules = cd.mean;
        outcome.distribution = std::move(cd.distribution);
        outcome.analytic = true;
        outcome.error_bound = cd.mean_error_bound;
        outcome.pruned_mass = cd.pruned_mass;
        return outcome;
      }
      ECLARITY_ASSIGN_OR_RETURN(const ExactFold* fold,
                                FoldCached(snapshot, query, nullptr));
      outcome.joules = fold->mean;
      outcome.distribution = fold->distribution;
      return outcome;
    }
    case QueryKind::kMonteCarlo: {
      ECLARITY_ASSIGN_OR_RETURN(Energy energy, MonteCarloOn(snapshot, query));
      outcome.joules = energy.joules();
      return outcome;
    }
    case QueryKind::kSample: {
      Rng rng(query.seed);
      const Evaluator& evaluator = snapshot.bundle().evaluator;
      Result<Value> value = [&]() -> Result<Value> {
        if (query.profile.empty()) {
          return evaluator.EvalSampled(query.interface, query.args,
                                       snapshot.profile(), rng);
        }
        EcvProfile merged = snapshot.profile();
        merged.MergeFrom(query.profile);
        return evaluator.EvalSampled(query.interface, query.args, merged, rng);
      }();
      if (!value.ok()) {
        return value.status();
      }
      outcome.sample = *value;
      return outcome;
    }
  }
  return InternalError("unknown query kind");
}

Result<QueryOutcome> QueryService::Dispatch(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, query.kind);
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  return DispatchOn(snapshot, query);
}

namespace {

// --- EvaluateBatch dedup scratch --------------------------------------------
//
// The batch fast path must stay far below one Dispatch per item: N items
// over K distinct queries pay K key builds and K cache lookups, not N.
// Base-profile items dedup through an open-addressed table keyed by a raw
// content hash (interface bytes + argument bits), so repeated items never
// materialise a string cache key or touch a node-based map. The scratch is
// thread-local and reused across batches — distinct records keep their key
// strings' capacity, so the all-hit steady state allocates nothing.

// Hash quality only costs probe time — every lookup is confirmed by a full
// bit-level content compare — so the mixers favour speed: forced inline
// (the per-item interface hash is the hot loop's largest line item when
// outlined) and two accumulator lanes so consecutive 8-byte chunks multiply
// in parallel instead of serialising on one chain.
#if defined(__GNUC__)
#define ECLARITY_BATCH_INLINE inline __attribute__((always_inline))
#else
#define ECLARITY_BATCH_INLINE inline
#endif

ECLARITY_BATCH_INLINE uint64_t BatchHashMix(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 32);
}

ECLARITY_BATCH_INLINE uint64_t BatchHashBytes(uint64_t h, const char* data,
                                              size_t n) {
  // Tails read a final overlapping 8-byte word instead of a variable-length
  // memcpy (which GCC lowers to a byte loop). Overlap double-mixes a few
  // bytes; harmless, every probe is confirmed by a full compare.
  uint64_t a = h ^ (n * 0x9E3779B97F4A7C15ull);
  uint64_t b = 0x517CC1B727220A95ull;
  if (n >= 8) {
    const char* p = data;
    size_t left = n;
    while (left >= 16) {
      uint64_t v0;
      uint64_t v1;
      std::memcpy(&v0, p, sizeof(v0));
      std::memcpy(&v1, p + 8, sizeof(v1));
      a = (a ^ v0) * 0x9E3779B97F4A7C15ull;
      b = (b ^ v1) * 0xC2B2AE3D27D4EB4Full;
      p += 16;
      left -= 16;
    }
    if (left >= 8) {
      uint64_t v;
      std::memcpy(&v, p, sizeof(v));
      a = (a ^ v) * 0x9E3779B97F4A7C15ull;
      p += 8;
      left -= 8;
    }
    if (left > 0) {
      uint64_t v;
      std::memcpy(&v, data + n - 8, sizeof(v));
      b = (b ^ v) * 0xC2B2AE3D27D4EB4Full;
    }
  } else if (n >= 4) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, data, sizeof(lo));
    std::memcpy(&hi, data + n - 4, sizeof(hi));
    a = (a ^ (static_cast<uint64_t>(hi) << 32 | lo)) * 0x9E3779B97F4A7C15ull;
  } else if (n > 0) {
    uint64_t v = static_cast<unsigned char>(data[0]);
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[n / 2])) << 8;
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[n - 1])) << 16;
    a = (a ^ v) * 0x9E3779B97F4A7C15ull;
  }
  uint64_t x = a ^ b;
  x ^= x >> 32;
  x *= 0x9E3779B97F4A7C15ull;
  return x ^ (x >> 32);
}

ECLARITY_BATCH_INLINE uint64_t BatchHashValue(uint64_t h, const Value& v,
                                              std::string& scratch) {
  if (v.is_number()) {
    uint64_t bits;
    const double d = v.number();
    std::memcpy(&bits, &d, sizeof(bits));
    // One mix, kind-tagged by constant: number/bool collisions are possible
    // in principle and harmless (the content compare rejects them).
    return BatchHashMix(h, bits ^ 0x4E554Dull);
  }
  if (v.is_bool()) {
    return BatchHashMix(h, v.boolean() ? 'T' : 'F');
  }
  scratch.clear();
  v.AppendFingerprint(scratch);
  return BatchHashBytes(h, scratch.data(), scratch.size());
}

// Bit-level equality, matching fingerprint keying exactly: distinct NaN or
// ±0.0 bit patterns fingerprint differently, so they must not dedup.
ECLARITY_BATCH_INLINE bool SameValueBits(const Value& a, const Value& b,
                                         std::string& sa, std::string& sb) {
  if (a.is_number()) {
    if (!b.is_number()) {
      return false;
    }
    uint64_t x;
    uint64_t y;
    const double da = a.number();
    const double db = b.number();
    std::memcpy(&x, &da, sizeof(x));
    std::memcpy(&y, &db, sizeof(y));
    return x == y;
  }
  if (a.is_bool()) {
    return b.is_bool() && a.boolean() == b.boolean();
  }
  if (!b.is_energy()) {
    return false;
  }
  sa.clear();
  sb.clear();
  a.AppendFingerprint(sa);
  b.AppendFingerprint(sb);
  return sa == sb;
}

bool SameQueryContent(const Query& a, const Query& b, std::string& sa,
                      std::string& sb) {
  if (a.interface != b.interface || a.args.size() != b.args.size()) {
    return false;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!SameValueBits(a.args[i], b.args[i], sa, sb)) {
      return false;
    }
  }
  return true;
}

// Cross-batch memo entry: a base-profile item repeated across batches is
// answered straight from the pinned fold — no cache key build, no fold
// cache lookup, no distinct record. An entry is valid only for the exact
// (service, snapshot) pair that filled it; both ids are process-unique and
// never reused, and the pinned fold is immutable, so a stale entry can
// only miss, never answer wrongly. Like the single-dispatch TL slot, the
// memo is gated on a non-zero fold-cache capacity — a deliberately
// uncached service pays (and counts) every lookup.
struct BatchMemoEntry {
  uint64_t hash = 0;
  uint64_t svc = 0;
  uint64_t snap = 0;  // 0: empty
  std::string interface;
  std::vector<Value> args;
  QueryService::SharedFold fold;
};

// Inline chunked byte compare: interface names are short (tens of bytes),
// so the libc memcmp call overhead would dominate the compare itself.
ECLARITY_BATCH_INLINE bool SameBytes(const char* a, const char* b, size_t n) {
  if (n >= 8) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t x;
      uint64_t y;
      std::memcpy(&x, a + i, sizeof(x));
      std::memcpy(&y, b + i, sizeof(y));
      if (x != y) {
        return false;
      }
    }
    if (i == n) {
      return true;
    }
    // Overlapping final word — no variable-length (byte loop) memcpy.
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a + n - 8, sizeof(x));
    std::memcpy(&y, b + n - 8, sizeof(y));
    return x == y;
  }
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

ECLARITY_BATCH_INLINE bool MemoMatches(const BatchMemoEntry& m, const Query& q,
                                       std::string& sa, std::string& sb) {
  if (m.interface.size() != q.interface.size() ||
      m.args.size() != q.args.size() ||
      !SameBytes(m.interface.data(), q.interface.data(),
                 q.interface.size())) {
    return false;
  }
  for (size_t i = 0; i < m.args.size(); ++i) {
    if (!SameValueBits(m.args[i], q.args[i], sa, sb)) {
      return false;
    }
  }
  return true;
}

void FillMemo(BatchMemoEntry& m, uint64_t hash, uint64_t svc, uint64_t snap,
              const Query& q, QueryService::SharedFold fold) {
  m.hash = hash;
  m.svc = svc;
  m.snap = snap;
  m.interface = q.interface;  // assignment keeps capacity across refills
  m.args = q.args;
  m.fold = std::move(fold);
}

// One lane per distinct cache key. Cache hits resolve in pass 1 through the
// same LookupFold (and counters) as single dispatch; misses become lanes of
// the grouped SoA passes. Fold copies are cheap: the distribution's atoms
// are shared, not cloned.
struct BatchDistinct {
  std::string key;  // full fold-cache key, built once per distinct
  const Query* query = nullptr;
  const EcvProfile* profile = nullptr;  // effective (merged or base)
  QueryService::SharedFold fold;
  Status error;
  bool resolved = false;
  // Memo slot to fill once this distinct resolves (base-profile items
  // only, and only when the fold cache is enabled).
  BatchMemoEntry* memo_slot = nullptr;
  uint64_t memo_hash = 0;
};

struct EffProfileEntry {
  EcvProfile merged;
  std::string fingerprint;
};

struct BatchScratch {
  struct Slot {
    uint32_t stamp = 0;
    uint32_t idx = 0;
  };
  static constexpr size_t kMemoSlots = 512;  // direct-mapped, power of two
  std::vector<BatchMemoEntry> memo;          // allocated on first use
  std::vector<Slot> table;  // open-addressed; size is a power of two
  uint32_t stamp = 0;
  std::vector<BatchDistinct> distincts;  // [0, live) valid this batch
  size_t live = 0;
  std::vector<int32_t> item_distinct;  // -1: answered in pass 1
  // Override-carrying items take the interned slow path: one base-profile
  // merge + fingerprint per distinct override, string-keyed distinct dedup.
  std::deque<EffProfileEntry> eff_profiles;
  std::unordered_map<std::string, const EffProfileEntry*> override_index;
  std::unordered_map<std::string, uint32_t> key_index;
  std::string va;
  std::string vb;

  void Begin(size_t batch_size) {
    live = 0;
    item_distinct.assign(batch_size, -1);
    size_t want = 16;
    while (want < batch_size * 2) {
      want <<= 1;
    }
    if (table.size() < want) {
      table.assign(want, Slot{});
      stamp = 0;
    }
    if (++stamp == 0) {  // stamp wrapped: stale slots could alias it
      std::fill(table.begin(), table.end(), Slot{});
      stamp = 1;
    }
    if (!override_index.empty()) {
      eff_profiles.clear();
      override_index.clear();
    }
    if (!key_index.empty()) {
      key_index.clear();
    }
  }

  BatchDistinct& Acquire(uint32_t& idx_out) {
    if (live == distincts.size()) {
      distincts.emplace_back();
    }
    BatchDistinct& d = distincts[live];
    d.key.clear();  // keeps capacity across batches
    d.query = nullptr;
    d.profile = nullptr;
    d.fold = nullptr;
    d.error = Status();
    d.resolved = false;
    d.memo_slot = nullptr;
    d.memo_hash = 0;
    idx_out = static_cast<uint32_t>(live++);
    return d;
  }
};

}  // namespace

std::vector<Result<QueryOutcome>> QueryService::EvaluateBatch(
    const std::vector<Query>& batch) const {
  SvcCounters::Get().batches.Increment();
  SvcCounters::Get().batch_queries.Increment(batch.size());
  if (batch.empty()) {
    return {};
  }
  // Work is credited batch-at-a-time: see BatchWorkTimer. Covers every
  // return path, including the shared group passes below.
  BatchWorkTimer batch_timer(options_.obs_sample_interval, batch.size());
  const Snapshot& snapshot = AcquireSnapshotRef();
  // Fill-construct every slot with a default success outcome up front: one
  // tight inlined loop instead of a per-item emplace_back call (which GCC
  // outlines, growth path and all). Every slot is overwritten before
  // return — hits in pass 1, distinct answers (or errors) in the fix-up
  // pass.
  std::vector<Result<QueryOutcome>> results(
      batch.size(), Result<QueryOutcome>(std::in_place));

  thread_local BatchScratch scratch;
  BatchScratch& sc = scratch;
  sc.Begin(batch.size());
  const EcvProfile* base_profile = &snapshot.profile();
  const std::string& base_fp = snapshot.profile_fingerprint();
  const uint32_t mask = static_cast<uint32_t>(sc.table.size() - 1);
  const bool memo_on = cache_.capacity() > 0;
  const uint64_t snap_id = snapshot.unique_id();
  if (memo_on && sc.memo.empty()) {
    sc.memo.resize(BatchScratch::kMemoSlots);
  }
  bool any_miss = false;

  for (size_t i = 0; i < batch.size(); ++i) {
    const Query& query = batch[i];
    // Batch items sample through the same per-thread gate as single
    // queries, so a batch of N advances the countdown N times and its
    // sampled items land in the same histograms and journal. (Group-pass
    // enumeration below runs outside these per-item spans; the enclosing
    // BatchWorkTimer owns work crediting — see DESIGN.md.)
    QueryTimer timer(options_.obs_sample_interval, query.kind,
                     /*credit_work=*/false);
    if ((query.kind != QueryKind::kExpected &&
         query.kind != QueryKind::kDistribution) ||
        EffectiveMode(query) != DistMode::kEnumerate) {
      // Certified queries dedup inside the snapshot evaluator's analytic
      // cache; the service's fold dedup below is kEnumerate-only.
      results[i] = DispatchOn(snapshot, query);
      continue;
    }

    int32_t idx;
    if (query.profile.empty()) {
      uint64_t h = BatchHashBytes(0x9E3779B97F4A7C15ull,
                                  query.interface.data(),
                                  query.interface.size());
      for (const Value& arg : query.args) {
        h = BatchHashValue(h, arg, sc.va);
      }
      BatchMemoEntry* memo_slot = nullptr;
      if (memo_on) {
        BatchMemoEntry& m = sc.memo[h & (BatchScratch::kMemoSlots - 1)];
        if (m.snap == snap_id && m.svc == svc_id_ && m.hash == h &&
            MemoMatches(m, query, sc.va, sc.vb)) {
          QueryOutcome& outcome = *results[i];
          outcome.kind = query.kind;
          outcome.joules = m.fold->mean;
          if (query.kind == QueryKind::kDistribution) {
            outcome.distribution = m.fold->distribution;
          }
          continue;
        }
        memo_slot = &m;
      }
      uint32_t pos = static_cast<uint32_t>(h) & mask;
      for (;;) {
        BatchScratch::Slot& slot = sc.table[pos];
        if (slot.stamp != sc.stamp) {
          uint32_t fresh_idx;
          BatchDistinct& d = sc.Acquire(fresh_idx);
          d.query = &query;
          d.profile = base_profile;
          d.memo_slot = memo_slot;
          d.memo_hash = h;
          AppendCacheKeyPrefix(snapshot, query, d.key);
          d.key += base_fp;
          if (const SharedFold* hit = LookupFold(d.key)) {
            d.fold = *hit;
            d.resolved = true;
            if (memo_slot != nullptr) {
              FillMemo(*memo_slot, h, svc_id_, snap_id, query, d.fold);
            }
          }
          slot.stamp = sc.stamp;
          slot.idx = fresh_idx;
          idx = static_cast<int32_t>(fresh_idx);
          break;
        }
        // Only base-profile distincts enter the table, so a content match
        // is a key match (same prefix, same base fingerprint).
        BatchDistinct& d = sc.distincts[slot.idx];
        if (SameQueryContent(*d.query, query, sc.va, sc.vb)) {
          idx = static_cast<int32_t>(slot.idx);
          break;
        }
        pos = (pos + 1) & mask;
      }
    } else {
      // Effective profiles, hoisted: one base-profile merge + one
      // fingerprint per *distinct* override in the batch, not per item.
      auto [it, fresh] =
          sc.override_index.try_emplace(query.profile.Fingerprint(), nullptr);
      if (fresh) {
        EffProfileEntry& eff = sc.eff_profiles.emplace_back();
        eff.merged = snapshot.profile();
        eff.merged.MergeFrom(query.profile);
        SvcCounters::Get().profile_fingerprints.Increment();
        eff.fingerprint = eff.merged.Fingerprint();
        it->second = &eff;
      }
      const EffProfileEntry* eff = it->second;
      thread_local std::string key_scratch;
      key_scratch.clear();
      AppendCacheKeyPrefix(snapshot, query, key_scratch);
      key_scratch += eff->fingerprint;
      auto [kit, knew] = sc.key_index.try_emplace(key_scratch, 0);
      if (knew) {
        uint32_t fresh_idx;
        BatchDistinct& d = sc.Acquire(fresh_idx);
        d.key = key_scratch;
        d.query = &query;
        d.profile = &eff->merged;
        if (const SharedFold* hit = LookupFold(d.key)) {
          d.fold = *hit;
          d.resolved = true;
        }
        kit->second = fresh_idx;
      }
      idx = static_cast<int32_t>(kit->second);
    }

    const BatchDistinct& d = sc.distincts[static_cast<size_t>(idx)];
    if (d.resolved) {
      // In place: QueryOutcome is large enough that the construct-then-move
      // idiom dominates the hit path.
      QueryOutcome& outcome = *results[i];
      outcome.kind = query.kind;
      outcome.joules = d.fold->mean;
      if (query.kind == QueryKind::kDistribution) {
        outcome.distribution = d.fold->distribution;
      }
    } else {
      sc.item_distinct[i] = idx;
      any_miss = true;
    }
  }

  if (!any_miss) {
    return results;
  }

  // Pass 2: distinct cache misses, grouped by (interface, effective
  // profile) — pointer identity suffices, every override was interned
  // above — each group one SoA pass. The batch engine's answers (vector or
  // per-lane scalar fallback) are bit-identical to FoldCached's
  // enumerate+fold, so duplicates, cache hits, and single dispatch all
  // agree bit-for-bit. Errors are never cached, exactly like FoldCached.
  std::map<std::pair<std::string_view, const EcvProfile*>,
           std::vector<BatchDistinct*>>
      groups;
  for (size_t di = 0; di < sc.live; ++di) {
    BatchDistinct& d = sc.distincts[di];
    if (!d.resolved) {
      groups[{std::string_view(d.query->interface), d.profile}].push_back(&d);
    }
  }
  for (auto& [group_key, lanes] : groups) {
    BatchPlan plan(snapshot.bundle().evaluator, std::string(group_key.first));
    std::vector<const std::vector<Value>*> lane_args;
    lane_args.reserve(lanes.size());
    for (const BatchDistinct* d : lanes) {
      lane_args.push_back(&d->query->args);
    }
    std::vector<Result<BatchLaneFold>> folds =
        plan.EnumerateFold(lane_args, *group_key.second, options_.calibration);
    for (size_t l = 0; l < lanes.size(); ++l) {
      BatchDistinct* d = lanes[l];
      d->resolved = true;
      if (!folds[l].ok()) {
        d->error = folds[l].status();
        continue;
      }
      auto entry = std::make_shared<const ExactFold>(
          ExactFold{std::move(folds[l]->distribution), folds[l]->mean});
      d->fold = entry;
      StoreFold(d->key, std::move(entry));
      if (d->memo_slot != nullptr) {
        FillMemo(*d->memo_slot, d->memo_hash, svc_id_, snapshot.unique_id(),
                 *d->query, d->fold);
      }
    }
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    const int32_t idx = sc.item_distinct[i];
    if (idx < 0) {
      continue;  // answered in pass 1
    }
    const BatchDistinct& d = sc.distincts[static_cast<size_t>(idx)];
    if (!d.error.ok()) {
      results[i] = d.error;
      continue;
    }
    QueryOutcome& outcome = *results[i];
    outcome.kind = batch[i].kind;
    outcome.joules = d.fold->mean;
    if (batch[i].kind == QueryKind::kDistribution) {
      outcome.distribution = d.fold->distribution;
    }
  }
  return results;
}

QueryService::CacheStats QueryService::TotalCacheStats() const {
  return cache_.TotalStats();
}

std::vector<QueryService::CacheStats> QueryService::PerShardCacheStats()
    const {
  std::vector<CacheStats> stats;
  stats.reserve(cache_.shard_count());
  for (size_t i = 0; i < cache_.shard_count(); ++i) {
    stats.push_back(cache_.StatsForShard(i));
  }
  return stats;
}

size_t QueryService::cache_shard_count() const { return cache_.shard_count(); }

}  // namespace eclarity

#include "src/svc/query_service.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
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
// the pass-1 probe (thread-local and table hits are a few ns), while the
// per-batch setup, the grouped SoA passes, and the fix-up pass run outside
// them — so crediting work per item both undercounts (shared passes vanish)
// and distorts the ratio (a hit measures ~20 ns of "work" against a fixed
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
  // snapshots. The thread-local fold cache keys on this id (in place of the
  // generation and base-profile fingerprint), so it can never mix worlds.
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
      cache_enabled_(options.cache_capacity > 0),
      snapshot_(std::move(initial)),
      publish_seq_(1),
      next_generation_(1),
      cache_(options.cache_capacity, options.cache_shards),
      mc_pool_(std::make_unique<McPool>(options.mc_pool_threads,
                                        options.mc_queue_limit)) {}

namespace {

// The calling thread's snapshot slot (see SnapshotSlot), revalidated against
// the owning service's publish sequence. Kept outside SnapshotSlot so
// ~QueryService can release a snapshot the destroying thread still pins.
class TlSnapshot {
 public:
  uint64_t svc_id = 0;
  uint64_t seq = 0;
  std::shared_ptr<const QueryService::Snapshot> snapshot;

  static TlSnapshot& Get() {
    thread_local TlSnapshot slot;
    return slot;
  }

  // The calling thread's slot if it exists and is not yet destroyed (a
  // service may be destroyed during thread or process exit), else null.
  static TlSnapshot* IfLive() { return live_; }

  // Releases the pinned snapshot if service `owner` pinned it.
  void Release(uint64_t owner) {
    if (svc_id == owner) {
      svc_id = 0;
      snapshot.reset();
    }
  }

 private:
  TlSnapshot() { live_ = this; }
  ~TlSnapshot() { live_ = nullptr; }
  TlSnapshot(const TlSnapshot&) = delete;
  TlSnapshot& operator=(const TlSnapshot&) = delete;

  // Constant-initialised, so it stays readable after the slot is gone.
  static inline thread_local TlSnapshot* live_ = nullptr;
};

}  // namespace

const std::shared_ptr<const QueryService::Snapshot>&
QueryService::SnapshotSlot() const {
  // Per-thread snapshot cache, revalidated against publish_seq_: while no
  // writer publishes, acquisition is one atomic load instead of taking
  // the snapshot mutex. A thread that stops querying keeps its last
  // snapshot pinned until it queries again, exits, or destroys the service
  // — standard RCU-reader behaviour, bounded by the thread count.
  TlSnapshot& tl = TlSnapshot::Get();
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

namespace {

// The snapshot's base profile, or `storage` holding it merged with the
// query's ECV overrides (query keys win).
const EcvProfile& EffectiveProfile(const QueryService::Snapshot& snapshot,
                                   const Query& query, EcvProfile& storage) {
  if (query.profile.empty()) {
    return snapshot.profile();
  }
  storage = snapshot.profile();
  storage.MergeFrom(query.profile);
  return storage;
}

// Appends the shard cache key: (program generation, interface, argument
// fingerprints, effective-profile fingerprint).
void AppendShardKey(const QueryService::Snapshot& snapshot, const Query& query,
                    const std::string& profile_fingerprint, std::string& out) {
  out.append(reinterpret_cast<const char*>(&snapshot.bundle().generation),
             sizeof(uint64_t));
  out += query.interface;
  out.push_back('\x1f');
  for (const Value& arg : query.args) {
    arg.AppendFingerprint(out);
  }
  out.push_back('\x1f');
  out += profile_fingerprint;
}

}  // namespace

DistMode QueryService::EffectiveMode(const Query& query) const {
  return query.dist_mode.value_or(options_.eval.dist_mode);
}

Result<CertifiedDistribution> QueryService::CertifiedOn(
    const Snapshot& snapshot, const Query& query, DistMode mode) const {
  // The snapshot evaluator's analytic cache keys on (interface, args,
  // profile, mode, threshold, calibration), so concurrent certified queries
  // dedup there; a program swap replaces the evaluator wholesale, which
  // rekeys by construction.
  EcvProfile merged;
  return snapshot.bundle().evaluator.EvalCertifiedMode(
      query.interface, query.args, EffectiveProfile(snapshot, query, merged),
      options_.calibration, mode);
}

// --- Thread-local fold cache -------------------------------------------------
//
// Hashing and bit-level content compares shared by the thread-local fold
// cache and EvaluateBatch's dedup table. Hash quality only costs probe time
// — every lookup is confirmed by a full bit-level content compare — so the
// mixers favour speed: forced inline (the per-item interface hash is the
// batch loop's largest line item when outlined) and two accumulator lanes so
// consecutive 8-byte chunks multiply in parallel instead of serialising on
// one chain.

namespace {

#if defined(__GNUC__)
#define ECLARITY_HOT_INLINE inline __attribute__((always_inline))
#else
#define ECLARITY_HOT_INLINE inline
#endif

constexpr uint64_t kHashSeed = 0x9E3779B97F4A7C15ull;

ECLARITY_HOT_INLINE uint64_t HashMix(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 32);
}

ECLARITY_HOT_INLINE uint64_t HashBytes(uint64_t h, const char* data,
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

ECLARITY_HOT_INLINE uint64_t HashValue(uint64_t h, const Value& v,
                                       std::string& scratch) {
  if (v.is_number()) {
    uint64_t bits;
    const double d = v.number();
    std::memcpy(&bits, &d, sizeof(bits));
    // One mix, kind-tagged by constant: number/bool collisions are possible
    // in principle and harmless (the content compare rejects them).
    return HashMix(h, bits ^ 0x4E554Dull);
  }
  if (v.is_bool()) {
    return HashMix(h, v.boolean() ? 'T' : 'F');
  }
  scratch.clear();
  v.AppendFingerprint(scratch);
  return HashBytes(h, scratch.data(), scratch.size());
}

// Hash of a query's ECV-override fingerprint; 0 for a base-profile query.
uint64_t OverrideHash(std::string_view override_fp) {
  return override_fp.empty()
             ? 0
             : HashBytes(kHashSeed, override_fp.data(), override_fp.size());
}

// The fold-cache hash of (interface, argument bits, overrides). The final
// multiply-xorshift spreads entropy into both of the fold cache's set-index
// bit-fields: integral double arguments leave them low in entropy without
// it, and a hot set of 256 keys then no longer fits.
ECLARITY_HOT_INLINE uint64_t FoldHash(const Query& query,
                                      uint64_t override_hash,
                                      std::string& scratch) {
  uint64_t h =
      HashBytes(kHashSeed, query.interface.data(), query.interface.size());
  for (const Value& arg : query.args) {
    h = HashValue(h, arg, scratch);
  }
  h = HashMix(h, override_hash);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  return h ^ (h >> 33);
}

// Bit-level equality, matching fingerprint keying exactly: distinct NaN or
// ±0.0 bit patterns fingerprint differently, so they must not match.
ECLARITY_HOT_INLINE bool SameValueBits(const Value& a, const Value& b,
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

// Inline chunked byte compare: interface names are short (tens of bytes),
// so the libc memcmp call overhead would dominate the compare itself.
ECLARITY_HOT_INLINE bool SameBytes(const char* a, const char* b, size_t n) {
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

// Whether `query` has exactly the content (interface, argument bits) of a
// stored (interface, args) pair.
ECLARITY_HOT_INLINE bool SameContent(const std::string& interface,
                                     const std::vector<Value>& args,
                                     const Query& query, std::string& sa,
                                     std::string& sb) {
  if (interface.size() != query.interface.size() ||
      args.size() != query.args.size() ||
      !SameBytes(interface.data(), query.interface.data(),
                 interface.size())) {
    return false;
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (!SameValueBits(args[i], query.args[i], sa, sb)) {
      return false;
    }
  }
  return true;
}

}  // namespace

// What a thread-local fold-cache entry is keyed on. The snapshot's unique id
// stands in for the program generation and the base profile, so together
// with the query's interface, argument bits and own overrides it names one
// effective query — found without building the shard key, running
// std::hash or merging a profile.
struct QueryService::FoldKey {
  uint64_t svc_id;
  uint64_t snap_id;
  const Query& query;
  std::string_view override_fp;  // query.profile.Fingerprint(); "" for none
  uint64_t hash;                 // FoldHash(query, OverrideHash(override_fp))
};

// Per-thread set-associative fold cache, the one private cache a thread
// keeps of exact folds: single dispatch and EvaluateBatch both probe it
// before anything else. A hit hashes the query content, scans at most two
// cache lines of tags and compares content bit for bit — no key build, no
// shard lock, no refcount traffic, and no write to memory another thread
// touches (the LRU stamp a hit bumps is this thread's own). The answer path
// is gated on a non-zero shared-cache capacity, so a deliberately uncached
// service still pays (and counts) one shard miss per lookup. Entries are
// immutable shared_ptrs, and service and snapshot ids are process-unique
// and never reused, so a stale entry — even one outliving a shard eviction
// or snapshot swap — can only miss, never answer for another world. Each
// entry pins its fold until replaced, so the fold memory a thread can keep
// alive past shard eviction is bounded by kEntries folds.
//
// Each key may live in either of two 8-way sets (picked by two independent
// hash bit-fields) and fills an empty or least-recently-used way of either.
// One set per key would not hold a hot set half the cache's size: 256
// random keys overflow some set of a 128x4 or 64x8 single-choice layout in
// most draws (simulated: >99% and 76%), while with two choices and 8 ways
// no overflow appeared in 20,000 draws.
class QueryService::TlFoldCache {
 public:
  struct Entry {
    uint64_t svc_id = 0;  // 0: empty
    uint64_t snap_id = 0;
    uint64_t last_use = 0;
    std::string interface;
    std::vector<Value> args;
    std::string override_fp;
    SharedFold fold;
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

  // The entry holding `key`, or null.
  Entry* Find(const FoldKey& key) {
    if (Entry* entry = FindIn(SetA(key.hash), key)) {
      return entry;
    }
    return FindIn(SetB(key.hash), key);
  }

  // Stores `fold` under `key`, which Find just missed, in an empty or else
  // the least recently used way of the key's two sets.
  Entry& Fill(const FoldKey& key, SharedFold fold) {
    size_t victim = SetA(key.hash) * kWays;
    for (const size_t set : {SetA(key.hash), SetB(key.hash)}) {
      for (size_t i = set * kWays; i < (set + 1) * kWays; ++i) {
        if (entries_[i].last_use < entries_[victim].last_use) {
          victim = i;
        }
      }
    }
    tags_[victim / kWays].hash[victim % kWays] = key.hash;
    Entry& entry = entries_[victim];
    entry.svc_id = key.svc_id;
    entry.snap_id = key.snap_id;
    entry.last_use = ++tick_;
    // Assignments keep capacity across refills.
    entry.interface = key.query.interface;
    entry.args = key.query.args;
    entry.override_fp = key.override_fp;
    entry.fold = std::move(fold);
    return entry;
  }

  // Pins the fold a service with the cache disabled just computed, so the
  // raw pointer FoldCached returns outlives its local handle.
  void PinUncached(SharedFold fold) { uncached_pin_ = std::move(fold); }

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

  Entry* FindIn(size_t set, const FoldKey& key) {
    for (size_t way = 0; way < kWays; ++way) {
      if (tags_[set].hash[way] != key.hash) {
        continue;
      }
      Entry& entry = entries_[set * kWays + way];
      if (entry.svc_id == key.svc_id && entry.snap_id == key.snap_id &&
          entry.override_fp == key.override_fp &&
          SameContent(entry.interface, entry.args, key.query, va_, vb_)) {
        entry.last_use = ++tick_;
        return &entry;
      }
    }
    return nullptr;
  }

  static size_t SetA(uint64_t hash) { return hash & (kSets - 1); }
  static size_t SetB(uint64_t hash) { return (hash >> 32) & (kSets - 1); }

  // Heap-allocated (~68 KiB per querying thread plus key bytes).
  std::vector<SetTags> tags_;
  std::vector<Entry> entries_;
  uint64_t tick_ = 0;
  SharedFold uncached_pin_;
  std::string va_;  // energy-argument compare scratch
  std::string vb_;
  // Constant-initialised, so it stays readable after the cache is gone.
  static inline thread_local TlFoldCache* live_ = nullptr;
};

QueryService::~QueryService() {
  // Only this thread's state is reachable. Other threads' fold entries for
  // this service age out under LRU or die with their thread, and their
  // snapshot slots let go on their next acquisition or at thread exit.
  if (TlFoldCache* cache = TlFoldCache::IfLive()) {
    cache->Drop(svc_id_);
  }
  if (TlSnapshot* slot = TlSnapshot::IfLive()) {
    slot->Release(svc_id_);
  }
}

const QueryService::SharedFold* QueryService::LookupShard(
    const std::string& key, const FoldKey& tl_key) const {
  std::optional<SharedFold> hit = cache_.Get(key);
  if (!hit.has_value()) {
    SvcCounters::Get().cache_misses.Increment();
    return nullptr;
  }
  SvcCounters::Get().cache_hits.Increment();
  return &TlFoldCache::Get().Fill(tl_key, std::move(*hit)).fold;
}

void QueryService::StoreFold(const std::string& key, const FoldKey& tl_key,
                             SharedFold entry) const {
  if (cache_.Put(key, entry)) {
    SvcCounters::Get().cache_evictions.Increment();
    // Always-on: evictions are rare and explain hit-rate cliffs.
    Journal::Global().Record(JournalEventKind::kShardEviction);
  }
  if (!cache_enabled_) {
    TlFoldCache::Get().PinUncached(std::move(entry));
    return;
  }
  TlFoldCache::Get().Fill(tl_key, std::move(entry));
}

Result<const QueryService::ExactFold*> QueryService::FoldCached(
    const Snapshot& snapshot, const Query& query) const {
  // Phase spans (cache lookup, eval, fold) are recorded only inside a
  // query the QueryTimer already chose to sample, so the unsampled fast
  // path pays one thread-local bool read here.
  const bool sampled = ObsSampler::Active();
  const uint64_t lookup_t0 = sampled ? ObsNowNs() : 0;
  // Thread-local scratch: steady-state base-profile lookups allocate
  // nothing.
  thread_local std::string override_fp;
  thread_local std::string value_scratch;
  thread_local std::string key;
  override_fp.clear();
  if (!query.profile.empty()) {
    override_fp = query.profile.Fingerprint();
  }
  const FoldKey tl_key{svc_id_, snapshot.unique_id(), query, override_fp,
                       FoldHash(query, OverrideHash(override_fp),
                                value_scratch)};
  if (cache_enabled_) {
    if (TlFoldCache::Entry* entry = TlFoldCache::Get().Find(tl_key)) {
      SvcCounters::Get().cache_hits.Increment();
      SvcCounters::Get().tl_fold_hits.Increment();
      if (sampled) {
        JournalPhase(JournalEventKind::kCacheLookup, /*a=*/1, lookup_t0);
      }
      return entry->fold.get();  // pinned by the entry; no refcount bump
    }
    SvcCounters::Get().tl_fold_misses.Increment();
  }
  // A thread-local miss builds the shard key, merging an override once for
  // both the key and the evaluation.
  EcvProfile merged;
  const EcvProfile& profile = EffectiveProfile(snapshot, query, merged);
  key.clear();
  if (query.profile.empty()) {
    AppendShardKey(snapshot, query, snapshot.profile_fingerprint(), key);
  } else {
    SvcCounters::Get().profile_fingerprints.Increment();
    AppendShardKey(snapshot, query, merged.Fingerprint(), key);
  }
  const SharedFold* hit = LookupShard(key, tl_key);
  if (sampled) {
    JournalPhase(JournalEventKind::kCacheLookup, hit != nullptr ? 2 : 0,
                 lookup_t0);
  }
  if (hit != nullptr) {
    return hit->get();
  }
  const uint64_t eval_t0 = sampled ? ObsNowNs() : 0;
  Result<SharedOutcomes> outcomes =
      snapshot.bundle().evaluator.EnumerateForFold(query.interface,
                                                   query.args, profile);
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
  StoreFold(key, tl_key, std::move(entry));  // the thread-local cache pins `raw`
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
  ECLARITY_ASSIGN_OR_RETURN(const ExactFold* fold, FoldCached(snapshot, query));
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
  ECLARITY_ASSIGN_OR_RETURN(const ExactFold* fold, FoldCached(snapshot, query));
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
    EcvProfile merged;
    result = snapshot.bundle().evaluator.MonteCarloMean(
        query.interface, query.args, EffectiveProfile(snapshot, query, merged),
        rng, query.samples, options_.calibration);
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

namespace {

Result<Value> SampleOn(const QueryService::Snapshot& snapshot,
                       const Query& query) {
  Rng rng(query.seed);
  EcvProfile merged;
  return snapshot.bundle().evaluator.EvalSampled(
      query.interface, query.args, EffectiveProfile(snapshot, query, merged),
      rng);
}

}  // namespace

Result<Value> QueryService::Sample(const Query& query) const {
  SvcCounters::Get().queries.Increment();
  QueryTimer timer(options_.obs_sample_interval, QueryKind::kSample);
  const Snapshot& snapshot = AcquireSnapshotRef();
  if (ObsSampler::Active()) {
    JournalInstant(JournalEventKind::kSnapshotPin, snapshot.generation());
  }
  return SampleOn(snapshot, query);
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
                                FoldCached(snapshot, query));
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
      ECLARITY_ASSIGN_OR_RETURN(Value value, SampleOn(snapshot, query));
      outcome.sample = std::move(value);
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
// The batch fast path must stay far below one Dispatch per item: every item
// probes the thread-local fold cache by content hash, and N misses over K
// distinct queries pay K shard-key builds and K shard lookups, not N. The
// misses dedup through an open-addressed table keyed by the same content
// hash, so repeated items never materialise a string key or touch a
// node-based map. The scratch is thread-local and reused across batches —
// distinct records keep their key strings' capacity, so the all-hit steady
// state allocates nothing for base-profile items.

// One distinct override profile of the batch, interned by its fingerprint
// (the override_index key), so content matches compare overrides by
// pointer.
struct BatchOverride {
  std::string_view fingerprint;  // the override_index key
  uint64_t hash = 0;             // OverrideHash(fingerprint)
  // The base profile merged with the override and its fingerprint, made on
  // the first thread-local miss that needs the shard key (`merged_fp` is
  // empty until then: a non-empty override never fingerprints empty).
  EcvProfile merged;
  std::string merged_fp;
};

// One record per distinct thread-local miss. Shard hits resolve in pass 1
// through the same LookupShard (and counters) as single dispatch; shard
// misses become lanes of the grouped SoA passes. Fold copies are cheap: the
// distribution's atoms are shared, not cloned.
struct BatchDistinct {
  const Query* query = nullptr;           // first item with this content
  BatchOverride* overrides = nullptr;     // null: base profile
  uint64_t hash = 0;                      // FoldHash of the content
  std::string key;                        // shard key
  const EcvProfile* profile = nullptr;    // effective (merged or base)
  QueryService::SharedFold fold;
  Status error;
  bool resolved = false;
};

std::string_view FingerprintOf(const BatchOverride* overrides) {
  return overrides != nullptr ? overrides->fingerprint : std::string_view();
}

// Answers a batch slot from an exact fold, in place: QueryOutcome is large
// enough that the construct-then-move idiom dominates the hit path.
ECLARITY_HOT_INLINE void SetFold(QueryOutcome& outcome, QueryKind kind,
                                 const QueryService::ExactFold& fold) {
  outcome.kind = kind;
  outcome.joules = fold.mean;
  if (kind == QueryKind::kDistribution) {
    outcome.distribution = fold.distribution;
  }
}

struct BatchScratch {
  struct Slot {
    uint32_t stamp = 0;
    uint32_t idx = 0;
  };
  std::vector<Slot> table;  // open-addressed; size is a power of two
  uint32_t stamp = 0;
  std::vector<BatchDistinct> distincts;  // [0, live) valid this batch
  size_t live = 0;
  std::vector<int32_t> item_distinct;  // -1: answered in pass 1
  std::unordered_map<std::string, BatchOverride> override_index;
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
      override_index.clear();
    }
  }

  BatchDistinct& Acquire(uint32_t& idx_out) {
    if (live == distincts.size()) {
      distincts.emplace_back();
    }
    BatchDistinct& d = distincts[live];
    d.query = nullptr;
    d.overrides = nullptr;
    d.hash = 0;
    d.key.clear();  // keeps capacity across batches
    d.profile = nullptr;
    d.fold = nullptr;
    d.error = Status();
    d.resolved = false;
    idx_out = static_cast<uint32_t>(live++);
    return d;
  }

  BatchOverride& Intern(const EcvProfile& overrides) {
    auto [it, fresh] = override_index.try_emplace(overrides.Fingerprint());
    if (fresh) {
      it->second.fingerprint = it->first;
      it->second.hash = OverrideHash(it->first);
    }
    return it->second;
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
  TlFoldCache& tl = TlFoldCache::Get();
  const uint64_t snap_id = snapshot.unique_id();
  const uint32_t mask = static_cast<uint32_t>(sc.table.size() - 1);
  // Thread-local outcomes are counted here and added once per batch.
  uint64_t tl_hits = 0;
  uint64_t tl_misses = 0;
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
    const bool sampled = ObsSampler::Active();
    const uint64_t lookup_t0 = sampled ? ObsNowNs() : 0;
    BatchOverride* overrides =
        query.profile.empty() ? nullptr : &sc.Intern(query.profile);
    const FoldKey tl_key{
        svc_id_, snap_id, query, FingerprintOf(overrides),
        FoldHash(query, overrides != nullptr ? overrides->hash : 0, sc.va)};
    if (cache_enabled_) {
      if (const TlFoldCache::Entry* entry = tl.Find(tl_key)) {
        ++tl_hits;
        if (sampled) {
          JournalPhase(JournalEventKind::kCacheLookup, /*a=*/1, lookup_t0);
        }
        SetFold(*results[i], query.kind, *entry->fold);
        continue;
      }
      ++tl_misses;
    }

    uint32_t pos = static_cast<uint32_t>(tl_key.hash) & mask;
    for (;; pos = (pos + 1) & mask) {
      BatchScratch::Slot& slot = sc.table[pos];
      if (slot.stamp != sc.stamp) {
        uint32_t fresh_idx;
        BatchDistinct& d = sc.Acquire(fresh_idx);
        d.query = &query;
        d.overrides = overrides;
        d.hash = tl_key.hash;
        if (overrides == nullptr) {
          d.profile = &snapshot.profile();
          AppendShardKey(snapshot, query, snapshot.profile_fingerprint(),
                         d.key);
        } else {
          // One base-profile merge + fingerprint per distinct override in
          // the batch, and only once the override misses thread-locally.
          if (overrides->merged_fp.empty()) {
            EffectiveProfile(snapshot, query, overrides->merged);
            SvcCounters::Get().profile_fingerprints.Increment();
            overrides->merged_fp = overrides->merged.Fingerprint();
          }
          d.profile = &overrides->merged;
          AppendShardKey(snapshot, query, overrides->merged_fp, d.key);
        }
        const SharedFold* hit = LookupShard(d.key, tl_key);
        if (sampled) {
          JournalPhase(JournalEventKind::kCacheLookup, hit != nullptr ? 2 : 0,
                       lookup_t0);
        }
        if (hit != nullptr) {
          d.fold = *hit;
          d.resolved = true;
        }
        slot.stamp = sc.stamp;
        slot.idx = fresh_idx;
        break;
      }
      const BatchDistinct& d = sc.distincts[slot.idx];
      if (d.hash == tl_key.hash && d.overrides == overrides &&
          SameContent(d.query->interface, d.query->args, query, sc.va,
                      sc.vb)) {
        break;
      }
    }
    const uint32_t idx = sc.table[pos].idx;
    const BatchDistinct& d = sc.distincts[idx];
    if (d.resolved) {
      SetFold(*results[i], query.kind, *d.fold);
    } else {
      sc.item_distinct[i] = static_cast<int32_t>(idx);
      any_miss = true;
    }
  }
  if (tl_hits > 0) {
    SvcCounters::Get().cache_hits.Increment(tl_hits);
    SvcCounters::Get().tl_fold_hits.Increment(tl_hits);
  }
  if (tl_misses > 0) {
    SvcCounters::Get().tl_fold_misses.Increment(tl_misses);
  }

  if (!any_miss) {
    return results;
  }

  // Pass 2: distinct shard misses, grouped by (interface, effective
  // profile) — pointer identity suffices, every override was interned
  // above — each group one SoA pass. Groups and their lanes run in first-
  // appearance order: that is the order of StoreFold calls, which decides
  // what the caches keep, so it must depend on the batch alone and never on
  // heap addresses. (A linear group search: each group also builds a
  // BatchPlan, which costs far more.) The batch engine's answers (vector or
  // per-lane scalar fallback) are bit-identical to FoldCached's
  // enumerate+fold, so duplicates, cache hits, and single dispatch all
  // agree bit-for-bit. Errors are never cached, exactly like FoldCached.
  struct MissGroup {
    const std::string* interface;
    const EcvProfile* profile;
    std::vector<BatchDistinct*> lanes;
  };
  std::vector<MissGroup> groups;
  for (size_t di = 0; di < sc.live; ++di) {
    BatchDistinct& d = sc.distincts[di];
    if (d.resolved) {
      continue;
    }
    auto group = std::find_if(groups.begin(), groups.end(),
                              [&d](const MissGroup& g) {
                                return g.profile == d.profile &&
                                       *g.interface == d.query->interface;
                              });
    if (group == groups.end()) {
      group = groups.insert(groups.end(),
                            MissGroup{&d.query->interface, d.profile, {}});
    }
    group->lanes.push_back(&d);
  }
  for (const MissGroup& group : groups) {
    BatchPlan plan(snapshot.bundle().evaluator, *group.interface);
    std::vector<const std::vector<Value>*> lane_args;
    lane_args.reserve(group.lanes.size());
    for (const BatchDistinct* d : group.lanes) {
      lane_args.push_back(&d->query->args);
    }
    std::vector<Result<BatchLaneFold>> folds =
        plan.EnumerateFold(lane_args, *group.profile, options_.calibration);
    for (size_t l = 0; l < group.lanes.size(); ++l) {
      BatchDistinct* d = group.lanes[l];
      d->resolved = true;
      if (!folds[l].ok()) {
        d->error = folds[l].status();
        continue;
      }
      d->fold = std::make_shared<const ExactFold>(
          ExactFold{std::move(folds[l]->distribution), folds[l]->mean});
      StoreFold(d->key,
                FoldKey{svc_id_, snap_id, *d->query,
                        FingerprintOf(d->overrides), d->hash},
                d->fold);
    }
  }

  for (size_t i = 0; i < batch.size(); ++i) {
    const int32_t idx = sc.item_distinct[i];
    if (idx < 0) {
      continue;  // answered in pass 1
    }
    const BatchDistinct& d = sc.distincts[static_cast<size_t>(idx)];
    if (d.error.ok()) {
      SetFold(*results[i], batch[i].kind, *d.fold);
    } else {
      results[i] = d.error;
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

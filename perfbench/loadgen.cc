// Closed-loop load generator for eclarity's QueryService.
//
//   perfbench_load --workload hot_keys|cold_eval|batch_swap --seed N
//                    --seconds S --trace 0|1 [--root DIR]
//                    [--clients C] [--requests N]
//
// Set-up parses and checks one interface corpus (examples/eil/*.eil plus a
// seeded ~0.5 MB layered stack) and loads it into one QueryService. The
// timed phase drives that service from client threads that each wait for
// every answer. --trace 0 prints the end-to-end metrics; --trace 1 prints
// the per-layer metrics from a traced phase of the same workload and seed.
// A seeded sample of the answers is replayed against the tree-walk engine,
// and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --requests N replaces the timed phase by N calls per client (used by the
// determinism self-check, with --clients 1).
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/corpus.h"
#include "perfbench/ledger.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "src/eval/bytecode.h"
#include "src/eval/lower.h"
#include "src/lang/checker.h"
#include "src/lang/parser.h"
#include "src/obs/budget.h"
#include "src/obs/metrics.h"
#include "src/svc/query_service.h"

namespace perfbench {
namespace {

using eclarity::BytecodeProgram;
using eclarity::DistMode;
using eclarity::EcvProfile;
using eclarity::LoweredProgram;
using eclarity::MetricsRegistry;
using eclarity::ObsBudget;
using eclarity::Program;
using eclarity::Query;
using eclarity::QueryKind;
using eclarity::QueryOutcome;
using eclarity::QueryService;
using eclarity::Result;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Arguments ---------------------------------------------------------------

struct Args {
  Workload workload = Workload::kHotKeys;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string root = ".";
  int clients = 0;        // 0: the workload's client count
  uint64_t requests = 0;  // 0: timed phase of `seconds`
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        have_workload = ParseWorkload(value, args.workload);
        if (!have_workload) {
          return false;
        }
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--root") {
        args.root = value;
      } else if (flag == "--clients") {
        args.clients = std::stoi(value);
      } else if (flag == "--requests") {
        args.requests = std::stoull(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args.seconds > 0 &&
         args.clients >= 0;
}

// --- Host and build stamp ----------------------------------------------------

bool OptimisedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string HostStamp() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"cpu_model\": " + JsonString(CpuModel()) +
         ", \"nproc\": " + std::to_string(Nproc()) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + JsonString(compiler) + "}";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// --- Program counters -------------------------------------------------------

// The MetricsRegistry counters the per-layer metrics difference across the
// timed phase.
constexpr const char* kCounterNames[] = {
    "eclarity_svc_cache_hits_total",
    "eclarity_svc_cache_misses_total",
    "eclarity_svc_tl_fold_hits_total",
    "eclarity_svc_tl_fold_misses_total",
    "eclarity_svc_snapshot_swaps_total",
    "eclarity_eval_analytic_hits_total",
    "eclarity_eval_analytic_fallbacks_total",
    "eclarity_eval_batch_lanes_total",
    "eclarity_eval_batch_passes_total",
    "eclarity_eval_batch_scalar_fallbacks_total",
    "eclarity_eval_budget_depth_exhausted_total",
    "eclarity_eval_budget_paths_exhausted_total",
    "eclarity_eval_budget_steps_exhausted_total",
    "eclarity_eval_engine_bytecode_total",
    "eclarity_eval_engine_fastpath_total",
    "eclarity_eval_engine_treewalk_total",
};
constexpr size_t kNumCounters = std::size(kCounterNames);

struct Counters {
  uint64_t v[kNumCounters] = {};

  static Counters Take() {
    Counters c;
    for (size_t i = 0; i < kNumCounters; ++i) {
      c.v[i] = MetricsRegistry::Global().GetCounter(kCounterNames[i]).value();
    }
    return c;
  }
  uint64_t Delta(const Counters& before, const char* name) const {
    for (size_t i = 0; i < kNumCounters; ++i) {
      if (std::strcmp(kCounterNames[i], name) == 0) {
        return v[i] - before.v[i];
      }
    }
    return 0;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Set-up ------------------------------------------------------------------

struct LayerTimes {
  std::vector<double> setup_s;
  std::vector<double> parse_ms, check_ms, lower_ms, compile_ms,
      specialize_ms, create_ms;
  size_t instructions = 0;
  uint64_t bytecode_evaluators = 0;
  uint64_t all_evaluators = 0;
};

constexpr uint64_t kCorpusSeed = 0xEC1A;

double Ms(uint64_t t0, uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

QueryService::Options ServiceOptions(uint32_t sample_interval) {
  QueryService::Options options;
  // Certified bounded answers prune atoms below this mass, so their
  // error_bound is non-trivial and the oracle's containment check bites.
  options.eval.prune_threshold = 1e-4;
  options.obs_sample_interval = sample_interval;
  return options;
}

bool ParseAndCheck(const std::string& root, const std::string& corpus,
                   Program& program, double& parse_ms, double& check_ms) {
  std::string text;
  if (!ReadExamples(root, text)) {
    std::fprintf(stderr, "perfbench: no examples/eil/*.eil under %s\n",
                 root.c_str());
    return false;
  }
  text += corpus;
  const uint64_t t0 = NowNs();
  Result<Program> parsed = eclarity::ParseProgram(text);
  const uint64_t t1 = NowNs();
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: parse: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  const eclarity::Status checked = eclarity::CheckProgramOk(*parsed);
  const uint64_t t2 = NowNs();
  if (!checked.ok()) {
    std::fprintf(stderr, "perfbench: check: %s\n",
                 checked.ToString().c_str());
    return false;
  }
  program = std::move(*parsed);
  parse_ms = Ms(t0, t1);
  check_ms = Ms(t1, t2);
  return true;
}

// Issues the warm-up set from a thread of its own, which exits before the
// timed phase: client threads start with empty thread-local state, and no
// thread keeps a snapshot of this service pinned after it is destroyed.
bool WarmUp(const QueryService& svc, const Generator& gen, size_t batch) {
  bool ok = true;
  std::thread warm([&] {
    const std::vector<Query> queries = gen.WarmupQueries();
    if (batch == 0) {
      for (const Query& q : queries) {
        ok = ok && svc.Dispatch(q).ok();
      }
      return;
    }
    for (size_t i = 0; i < queries.size(); i += batch) {
      const std::vector<Query> chunk(
          queries.begin() + static_cast<ptrdiff_t>(i),
          queries.begin() +
              static_cast<ptrdiff_t>(std::min(i + batch, queries.size())));
      for (const Result<QueryOutcome>& r : svc.EvaluateBatch(chunk)) {
        ok = ok && r.ok();
      }
    }
  });
  warm.join();
  return ok;
}

// One set-up: parse + check + Create + warm-up, timed as a whole. Traced
// runs also time lowering and bytecode compilation (generic and
// specialized) on a clone of the program, outside the set-up span.
std::unique_ptr<QueryService> SetUpOnce(const Args& args,
                                        const std::string& corpus,
                                        const Generator& gen,
                                        uint32_t sample_interval,
                                        LayerTimes& times) {
  const uint64_t t0 = NowNs();
  Program program;
  double parse_ms = 0.0;
  double check_ms = 0.0;
  if (!ParseAndCheck(args.root, corpus, program, parse_ms, check_ms)) {
    return nullptr;
  }
  Program clone;
  if (args.trace) {
    clone = program.Clone();
  }
  const Counters engines_before = Counters::Take();
  const uint64_t c0 = NowNs();
  Result<std::unique_ptr<QueryService>> svc = QueryService::Create(
      std::move(program), ServiceOptions(sample_interval),
      gen.PublishProfile(0));
  const uint64_t c1 = NowNs();
  if (!svc.ok()) {
    std::fprintf(stderr, "perfbench: Create: %s\n",
                 svc.status().ToString().c_str());
    return nullptr;
  }
  const Counters engines_after = Counters::Take();
  if (!WarmUp(**svc, gen, ShapeOf(args.workload).batch_size)) {
    std::fprintf(stderr, "perfbench: warm-up query failed\n");
    return nullptr;
  }
  const uint64_t t1 = NowNs();
  times.setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  times.parse_ms.push_back(parse_ms);
  times.check_ms.push_back(check_ms);
  times.create_ms.push_back(Ms(c0, c1));
  times.bytecode_evaluators = engines_after.Delta(
      engines_before, "eclarity_eval_engine_bytecode_total");
  times.all_evaluators =
      times.bytecode_evaluators +
      engines_after.Delta(engines_before,
                          "eclarity_eval_engine_fastpath_total") +
      engines_after.Delta(engines_before,
                          "eclarity_eval_engine_treewalk_total");
  if (args.trace) {
    const eclarity::EvalOptions eval;
    const uint64_t l0 = NowNs();
    const LoweredProgram lowered =
        LoweredProgram::Lower(clone, eval.max_ecv_support);
    const uint64_t l1 = NowNs();
    auto generic = BytecodeProgram::Compile(lowered);
    const uint64_t l2 = NowNs();
    const EcvProfile base = gen.PublishProfile(0);
    BytecodeProgram::CompileOptions copts;
    copts.specialize_profile = &base;
    auto specialized = BytecodeProgram::Compile(lowered, copts);
    const uint64_t l3 = NowNs();
    if (!generic.ok() || !specialized.ok()) {
      std::fprintf(stderr, "perfbench: bytecode compile failed\n");
      return nullptr;
    }
    times.lower_ms.push_back(Ms(l0, l1));
    times.compile_ms.push_back(Ms(l1, l2));
    times.specialize_ms.push_back(Ms(l2, l3));
    times.instructions = (*generic)->instruction_count();
  }
  return std::move(*svc);
}

// --- Timed phase ------------------------------------------------------------

struct Sample {
  uint32_t client = 0;
  uint64_t index = 0;
  uint32_t item = 0;  // position in the batch (batch_swap)
  uint64_t t0 = 0;
  uint64_t t1 = 0;
  QueryOutcome outcome;
};

struct ClientStats {
  LogHistogram latency_ns;
  LogHistogram mc_ns;
  LogHistogram analytic_ns;
  uint64_t items = 0;        // queries attempted (batch items count one each)
  uint64_t timed_items = 0;  // queries completed within the timed phase
  uint64_t failed = 0;
  double busy_ns = 0.0;  // sum of call spans within the phase
  std::vector<Sample> samples;
  // Traced phase: the calls that hold a sampled query span.
  std::vector<CallSpan> spans;
};

struct Publish {
  uint64_t k;
  uint64_t t0;
  uint64_t t1;
};

struct PhaseResult {
  std::vector<ClientStats> clients;
  std::vector<Publish> publishes;
  double wall_s = 0.0;
  Counters before;
  Counters after;
  QueryService::CacheStats cache_before;
  QueryService::CacheStats cache_after;
  double work_ns = 0.0;  // ObsBudget deltas
  double obs_ns = 0.0;
  JournalLedger ledger;
};

struct PhaseContext {
  QueryService& svc;
  const Generator& gen;
  const Args& args;
  WorkloadShape shape;
  uint32_t traced_interval = 0;  // 0: untraced phase
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches_done{0};
  uint64_t t_start = 0;
  uint64_t t_end = 0;     // 0: fixed request count, no deadline
  size_t sample_cap = 0;  // per client
  std::vector<Publish>* publishes = nullptr;
};

void Account(const PhaseContext& ctx, ClientStats& st, uint64_t i,
             uint64_t t0, uint64_t t1, uint64_t items) {
  // The service samples every N-th query of a thread (every item of a
  // batch ticks), so in the traced phase the client keeps exactly the call
  // spans that can contain a journalled query span.
  if (ctx.traced_interval != 0 &&
      (items > 1 || (i + 1) % ctx.traced_interval == 0)) {
    st.spans.push_back({t0, t1});
  }
  st.items += items;
  if (ctx.t_end == 0 || t1 <= ctx.t_end) {
    st.timed_items += items;
    st.busy_ns += static_cast<double>(t1 - t0);
    st.latency_ns.Add(t1 - t0);
  }
}

void RunClient(PhaseContext& ctx, uint32_t c, ClientStats& st) {
  const Generator& gen = ctx.gen;
  if (ctx.traced_interval != 0) {
    MarkClientRing(c);
  }
  ctx.ready.fetch_add(1);
  while (!ctx.go.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  const bool fixed = ctx.args.requests != 0;
  uint64_t published = 0;
  for (uint64_t i = 0; fixed ? i < ctx.args.requests
                             : !ctx.stop.load(std::memory_order_relaxed);
       ++i) {
    // A fixed-count run is short: the oracle checks it from the start.
    const bool sampled = st.samples.size() < ctx.sample_cap &&
                         (fixed || gen.OracleSampled(c, i));
    switch (gen.workload()) {
      case Workload::kHotKeys: {
        const Query& q = gen.HotQuery(c, i);
        const uint64_t t0 = NowNs();
        Result<QueryOutcome> r = ctx.svc.Dispatch(q);
        const uint64_t t1 = NowNs();
        Account(ctx, st, i, t0, t1, 1);
        if (!r.ok()) {
          ++st.failed;
        } else if (sampled) {
          st.samples.push_back({c, i, 0, t0, t1, std::move(*r)});
        }
        break;
      }
      case Workload::kColdEval: {
        const Request req = gen.ColdRequest(c, i);
        const uint64_t t0 = NowNs();
        Result<QueryOutcome> r = ctx.svc.Dispatch(req.query);
        const uint64_t t1 = NowNs();
        Account(ctx, st, i, t0, t1, 1);
        if (req.route == Route::kMonteCarlo) {
          st.mc_ns.Add(t1 - t0);
        } else if (req.route == Route::kAnalytic) {
          st.analytic_ns.Add(t1 - t0);
        }
        if (!r.ok()) {
          ++st.failed;
        } else if (sampled) {
          st.samples.push_back({c, i, 0, t0, t1, std::move(*r)});
        }
        break;
      }
      case Workload::kBatchSwap: {
        const std::vector<Query>& batch = gen.Batch(c, i);
        const uint64_t t0 = NowNs();
        std::vector<Result<QueryOutcome>> rs = ctx.svc.EvaluateBatch(batch);
        const uint64_t t1 = NowNs();
        Account(ctx, st, i, t0, t1, batch.size());
        ctx.batches_done.fetch_add(1, std::memory_order_relaxed);
        for (const Result<QueryOutcome>& r : rs) {
          st.failed += r.ok() ? 0 : 1;
        }
        const uint32_t item = static_cast<uint32_t>(Mix64(i, c) % batch.size());
        if (sampled && rs[item].ok()) {
          st.samples.push_back({c, i, item, t0, t1, std::move(*rs[item])});
        }
        // Without a timed phase client 0 publishes itself, every eighth
        // batch, so with one client the interleaving of reads and writes
        // repeats exactly.
        if (fixed && c == 0 && (i + 1) % 8 == 0) {
          const EcvProfile next = gen.PublishProfile(++published);
          const uint64_t p0 = NowNs();
          ctx.svc.UpdateProfile(next);
          ctx.publishes->push_back({published, p0, NowNs()});
        }
        break;
      }
    }
  }
}

void RunWriter(PhaseContext& ctx) {
  for (uint64_t k = 1;; ++k) {
    const uint64_t due = k * ctx.shape.publish_every_batches;
    while (!ctx.stop.load() &&
           ctx.batches_done.load(std::memory_order_relaxed) < due) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (ctx.stop.load()) {
      return;
    }
    const EcvProfile next = ctx.gen.PublishProfile(k);
    const uint64_t t0 = NowNs();
    ctx.svc.UpdateProfile(next);
    ctx.publishes->push_back({k, t0, NowNs()});
  }
}

PhaseResult RunPhase(QueryService& svc, const Generator& gen,
                     const Args& args, double seconds, bool traced) {
  PhaseResult res;
  PhaseContext ctx{svc, gen, args, ShapeOf(args.workload)};
  ctx.traced_interval = traced ? ctx.shape.traced_sample_interval : 0;
  const int clients = args.clients > 0 ? args.clients : ctx.shape.clients;
  ctx.sample_cap = (ctx.shape.oracle_cap + static_cast<size_t>(clients) - 1) /
                   static_cast<size_t>(clients);
  ctx.publishes = &res.publishes;
  res.clients.resize(static_cast<size_t>(clients));

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(RunClient, std::ref(ctx), static_cast<uint32_t>(c),
                         std::ref(res.clients[static_cast<size_t>(c)]));
  }
  while (ctx.ready.load() < clients) {
    std::this_thread::yield();
  }
  std::unique_ptr<JournalCollector> collector;
  if (traced) {
    collector = std::make_unique<JournalCollector>();
  }
  res.before = Counters::Take();
  res.cache_before = svc.TotalCacheStats();
  const double work0 = ObsBudget::Global().WorkNs();
  const double obs0 = ObsBudget::Global().ObsNs();
  ctx.t_start = NowNs();
  if (args.requests == 0) {
    ctx.t_end = ctx.t_start + static_cast<uint64_t>(seconds * 1e9);
  }
  ctx.go.store(true, std::memory_order_release);

  std::thread writer;
  if (args.requests == 0 && ctx.shape.publish_every_batches != 0) {
    writer = std::thread(RunWriter, std::ref(ctx));
  }
  std::thread drainer;
  if (traced) {
    // Periodic drains keep every ring below its capacity between polls.
    drainer = std::thread([&] {
      while (!ctx.stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        collector->Poll();
      }
    });
  }
  if (args.requests == 0) {
    while (NowNs() < ctx.t_end) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min<uint64_t>(20000, (ctx.t_end - NowNs()) / 1000 + 1)));
    }
    res.wall_s = seconds;
    ctx.stop.store(true);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  if (args.requests != 0) {
    res.wall_s = static_cast<double>(NowNs() - ctx.t_start) / 1e9;
    ctx.stop.store(true);
  }
  if (writer.joinable()) {
    writer.join();
  }
  if (drainer.joinable()) {
    drainer.join();
  }
  res.after = Counters::Take();
  res.cache_after = svc.TotalCacheStats();
  res.work_ns = ObsBudget::Global().WorkNs() - work0;
  res.obs_ns = ObsBudget::Global().ObsNs() - obs0;
  if (collector) {
    collector->Poll(/*final=*/true);
    res.ledger = collector->ledger();
  }
  return res;
}

uint64_t TotalItems(const PhaseResult& p, uint64_t ClientStats::*field) {
  uint64_t n = 0;
  for (const ClientStats& c : p.clients) {
    n += c.*field;
  }
  return n;
}

// Queries completed within the timed phase, per second.
double Throughput(const PhaseResult& p) {
  return Ratio(static_cast<double>(TotalItems(p, &ClientStats::timed_items)),
               p.wall_s);
}

LogHistogram Merged(const PhaseResult& p, LogHistogram ClientStats::*field) {
  LogHistogram h;
  for (const ClientStats& c : p.clients) {
    h.Merge(c.*field);
  }
  return h;
}

// --- Oracle -----------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// True when `got` is a correct answer to `q` given the tree-walk service's
// answers under the profile it currently holds.
bool Matches(const QueryService& oracle, const Query& q,
             const QueryOutcome& got) {
  if (q.dist_mode.has_value() && *q.dist_mode != DistMode::kEnumerate) {
    Query exact = q;
    exact.dist_mode = DistMode::kEnumerate;
    exact.kind = QueryKind::kExpected;
    Result<QueryOutcome> ref = oracle.Dispatch(exact);
    if (!ref.ok()) {
      return false;
    }
    if (*q.dist_mode == DistMode::kAnalyticExact) {
      return Bits(ref->joules) == Bits(got.joules) && got.error_bound == 0.0;
    }
    return std::abs(ref->joules - got.joules) <= got.error_bound;
  }
  Result<QueryOutcome> ref = oracle.Dispatch(q);
  return ref.ok() && ref->Fingerprint() == got.Fingerprint();
}

Query Regenerate(const Generator& gen, const Sample& s) {
  switch (gen.workload()) {
    case Workload::kHotKeys:
      return gen.HotQuery(s.client, s.index);
    case Workload::kColdEval:
      return gen.ColdRequest(s.client, s.index).query;
    case Workload::kBatchSwap:
      return gen.Batch(s.client, s.index)[s.item];
  }
  return {};
}

// Replays the sampled answers, single-threaded, on a fresh service running
// the tree-walk engine (the executable specification). A batch_swap answer
// may match the reference under any base profile that was live during its
// call: profile k is current from some instant in its publish span until
// some instant in the next one. Returns the number of mismatches.
uint64_t RunOracle(const Args& args, const std::string& corpus,
                   const Generator& gen, const PhaseResult& phase,
                   uint64_t& checked) {
  Program program;
  double unused_parse = 0.0;
  double unused_check = 0.0;
  if (!ParseAndCheck(args.root, corpus, program, unused_parse,
                     unused_check)) {
    return 1;
  }
  QueryService::Options options = ServiceOptions(256);
  options.eval.engine = eclarity::EvalEngine::kTreeWalk;
  Result<std::unique_ptr<QueryService>> oracle = QueryService::Create(
      std::move(program), options, gen.PublishProfile(0));
  if (!oracle.ok()) {
    return 1;
  }
  std::vector<const Sample*> samples;
  for (const ClientStats& c : phase.clients) {
    for (const Sample& s : c.samples) {
      samples.push_back(&s);
    }
  }
  checked = samples.size();
  const std::vector<Publish>& pubs = phase.publishes;
  std::vector<std::vector<const Sample*>> by_profile(pubs.size() + 1);
  for (const Sample* s : samples) {
    for (size_t k = 0; k <= pubs.size(); ++k) {
      const bool started = k == 0 || pubs[k - 1].t0 <= s->t1;
      const bool not_replaced = k == pubs.size() || pubs[k].t1 >= s->t0;
      if (started && not_replaced) {
        by_profile[k].push_back(s);
      }
    }
  }
  std::vector<const Sample*> matched;
  for (size_t k = 0; k < by_profile.size(); ++k) {
    if (by_profile[k].empty()) {
      continue;
    }
    if (k > 0) {
      (*oracle)->UpdateProfile(gen.PublishProfile(pubs[k - 1].k));
    }
    for (const Sample* s : by_profile[k]) {
      if (Matches(**oracle, Regenerate(gen, *s), s->outcome)) {
        matched.push_back(s);
      }
    }
  }
  std::sort(matched.begin(), matched.end());
  matched.erase(std::unique(matched.begin(), matched.end()), matched.end());
  return samples.size() - matched.size();
}

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Emit(const std::vector<Metric>& metrics, bool correct, uint64_t attempted,
          uint64_t failed) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    std::printf("metric %-32s %-20s %s\n", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
    json += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
            ": {\"value\": " + value +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Median(const std::vector<double>& v) { return SampleQuantile(v, 0.5); }

void AddEndToEnd(const PhaseResult& p, const LayerTimes& times, double rss_mb,
                 std::vector<Metric>& out) {
  const LogHistogram latency = Merged(p, &ClientStats::latency_ns);
  const double tail = SupportedTail(0.99, latency.count());
  std::printf("latency: %llu calls timed; tail percentile p%.4g\n",
              static_cast<unsigned long long>(latency.count()), tail * 100.0);
  out.push_back({"setup_s", Median(times.setup_s), "s"});
  out.push_back({"throughput_qps", Throughput(p), "queries/s"});
  out.push_back({"latency_p50_us", latency.Quantile(0.5) / 1e3, "us"});
  out.push_back({"latency_p99_us", latency.Quantile(tail) / 1e3, "us"});
  out.push_back({"peak_rss_mb", rss_mb, "MB"});
}

void AddPerLayer(const PhaseResult& untraced, const PhaseResult& traced,
                 const LayerTimes& times, std::vector<Metric>& out) {
  const Counters& a = traced.after;
  const Counters& b = traced.before;
  const auto d = [&](const char* name) {
    return static_cast<double>(a.Delta(b, name));
  };
  const JournalLedger& j = traced.ledger;

  out.push_back({"lang.parse_ms", Median(times.parse_ms), "ms"});
  out.push_back({"lang.check_ms", Median(times.check_ms), "ms"});
  out.push_back({"eval.lower_ms", Median(times.lower_ms), "ms"});
  out.push_back({"eval.bytecode.compile_ms", Median(times.compile_ms), "ms"});
  out.push_back(
      {"eval.bytecode.specialize_ms", Median(times.specialize_ms), "ms"});
  out.push_back({"eval.bytecode.instructions",
                 static_cast<double>(times.instructions), "count"});

  out.push_back({"svc.create_ms", Median(times.create_ms), "ms"});
  std::vector<double> publish_ms;
  for (const Publish& p : traced.publishes) {
    publish_ms.push_back(Ms(p.t0, p.t1));
  }
  out.push_back({"svc.publish_ms_p50", SampleQuantile(publish_ms, 0.5), "ms"});
  out.push_back({"svc.publish_ms_p90", SampleQuantile(publish_ms, 0.9), "ms"});
  out.push_back({"svc.respecialize_ms_p50",
                 SampleQuantile(j.respecialize_ms, 0.5), "ms"});
  out.push_back(
      {"svc.snapshot_swaps", d("eclarity_svc_snapshot_swaps_total"), "count"});

  const double hits = d("eclarity_svc_cache_hits_total");
  const double misses = d("eclarity_svc_cache_misses_total");
  const double tl_hits = d("eclarity_svc_tl_fold_hits_total");
  const double tl_misses = d("eclarity_svc_tl_fold_misses_total");
  out.push_back({"svc.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"});
  out.push_back(
      {"svc.tl_hit_ratio", Ratio(tl_hits, tl_hits + tl_misses), "ratio"});
  out.push_back({"svc.shard_evictions",
                 static_cast<double>(traced.cache_after.evictions -
                                     traced.cache_before.evictions),
                 "count"});
  const double lookup_tail =
      SupportedTail(0.99, j.cache_lookup_ns.count());
  out.push_back({"svc.cache_lookup_ns_p50", j.cache_lookup_ns.Quantile(0.5),
                 "ns"});
  out.push_back({"svc.cache_lookup_ns_p99",
                 j.cache_lookup_ns.Quantile(lookup_tail), "ns"});
  out.push_back(
      {"svc.query_self_ns_p50", j.query_self_ns.Quantile(0.5), "ns"});

  const LogHistogram mc = Merged(traced, &ClientStats::mc_ns);
  out.push_back({"svc.mc_latency_us_p50", mc.Quantile(0.5) / 1e3, "us"});
  out.push_back({"svc.mc_latency_us_p99",
                 mc.Quantile(SupportedTail(0.99, mc.count())) / 1e3, "us"});

  out.push_back({"eval.enumerate_us_p50", j.eval_ns.Quantile(0.5) / 1e3, "us"});
  out.push_back({"eval.enumerate_us_p99",
                 j.eval_ns.Quantile(SupportedTail(0.99, j.eval_ns.count())) /
                     1e3,
                 "us"});
  out.push_back({"eval.outcomes_per_query",
                 Ratio(static_cast<double>(j.outcomes),
                       static_cast<double>(j.eval_ns.count())),
                 "count"});
  out.push_back({"eval.bytecode_share",
                 Ratio(static_cast<double>(times.bytecode_evaluators),
                       static_cast<double>(times.all_evaluators)),
                 "ratio"});
  out.push_back({"eval.budget_exhausted",
                 d("eclarity_eval_budget_depth_exhausted_total") +
                     d("eclarity_eval_budget_paths_exhausted_total") +
                     d("eclarity_eval_budget_steps_exhausted_total"),
                 "count"});
  const double a_hits = d("eclarity_eval_analytic_hits_total");
  const double a_fallbacks = d("eclarity_eval_analytic_fallbacks_total");
  out.push_back({"eval.analytic_hit_ratio",
                 Ratio(a_hits, a_hits + a_fallbacks), "ratio"});
  const LogHistogram analytic = Merged(traced, &ClientStats::analytic_ns);
  out.push_back(
      {"eval.analytic_us_p50", analytic.Quantile(0.5) / 1e3, "us"});

  out.push_back({"dist.fold_us_p50", j.fold_ns.Quantile(0.5) / 1e3, "us"});
  out.push_back({"dist.fold_us_p99",
                 j.fold_ns.Quantile(SupportedTail(0.99, j.fold_ns.count())) /
                     1e3,
                 "us"});
  out.push_back({"dist.atoms_per_fold",
                 Ratio(static_cast<double>(j.atoms),
                       static_cast<double>(j.fold_ns.count())),
                 "count"});

  const double lanes = d("eclarity_eval_batch_lanes_total");
  out.push_back({"eval.batch.lanes_per_pass",
                 Ratio(lanes, d("eclarity_eval_batch_passes_total")),
                 "count"});
  out.push_back(
      {"eval.batch.vector_lane_share",
       Ratio(lanes - d("eclarity_eval_batch_scalar_fallbacks_total"), lanes),
       "ratio"});

  out.push_back({"obs.overhead_ratio",
                 Ratio(untraced.obs_ns, untraced.work_ns), "ratio"});
  out.push_back({"obs.trace_overhead",
                 Ratio(Throughput(untraced), Throughput(traced)), "ratio"});
  out.push_back({"obs.journal_dropped", static_cast<double>(j.dropped),
                 "count"});

  // Ledger over the calls holding a sampled query span; the client loop
  // outside calls is printed for context and is not a layer.
  LedgerTotals ledger;
  double call_ns = 0.0;
  for (size_t c = 0; c < traced.clients.size(); ++c) {
    call_ns += traced.clients[c].busy_ns;
    const auto it = j.client_queries.find(static_cast<uint32_t>(c));
    if (it != j.client_queries.end()) {
      Reconcile(traced.clients[c].spans, it->second, ledger);
    }
  }
  const double wall_ns = traced.wall_s * 1e9 *
                         static_cast<double>(traced.clients.size());
  std::printf(
      "ledger: %llu calls; shares of their time: svc self %.4f, cache "
      "%.4f, eval %.4f, fold %.4f, unattributed %.4f; client loop outside "
      "calls %.4f of client wall\n",
      static_cast<unsigned long long>(ledger.calls),
      Ratio(ledger.svc_self_ns, ledger.call_ns),
      Ratio(ledger.cache_ns, ledger.call_ns),
      Ratio(ledger.eval_ns, ledger.call_ns),
      Ratio(ledger.fold_ns, ledger.call_ns),
      Ratio(ledger.unattributed_ns, ledger.call_ns),
      Ratio(wall_ns - call_ns, wall_ns));
  out.push_back({"ledger.unattributed_share",
                 Ratio(ledger.unattributed_ns, ledger.call_ns), "ratio"});
}

int Main(int argc, char** argv) {
  const uint64_t t_process = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_load --workload hot_keys|cold_eval|"
                 "batch_swap --seed N --seconds S --trace 0|1 [--root DIR] "
                 "[--clients C] [--requests N]\n");
    return 2;
  }
  const std::string stamp = HostStamp();
  std::printf("host: %s\n", stamp.c_str());
  if (!OptimisedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a non-optimised build "
                 "(%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const WorkloadShape shape = ShapeOf(args.workload);
  const Generator gen(args.workload, args.seed);
  // The corpus is fixed, like a resource manager's interface set; the
  // seed drives the request streams.
  const std::string corpus = GenerateCorpus(kCorpusSeed);
  std::printf("workload: %s seed %llu, corpus %zu generated bytes\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed),
              corpus.size());

  // Set-up time is the median of seven set-ups: four before the timed
  // phase (the last one serves it) and three after, so that it samples the
  // host at both ends of the run. Each service is destroyed before the next
  // set-up starts.
  constexpr int kSetupsBefore = 4;
  constexpr int kSetupsAfter = 3;
  LayerTimes times;
  const uint32_t default_interval =
      QueryService::Options().obs_sample_interval;
  std::unique_ptr<QueryService> svc;
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    svc.reset();
    svc = SetUpOnce(args, corpus, gen, default_interval, times);
    if (!svc) {
      return 1;
    }
  }

  const uint64_t t_setup_done = NowNs();
  // A traced run splits its time between an untraced phase at the shipped
  // sample interval (the obs.* baselines) and the traced phase, each on a
  // service of its own.
  const double phase_s = args.trace ? args.seconds / 2.0 : args.seconds;
  PhaseResult untraced = RunPhase(*svc, gen, args, phase_s, /*traced=*/false);
  const double rss_mb = PeakRssMb();
  const PhaseResult* checked_phase = &untraced;
  PhaseResult traced;
  if (args.trace) {
    svc.reset();
    svc = SetUpOnce(args, corpus, gen, shape.traced_sample_interval, times);
    if (!svc) {
      return 1;
    }
    traced = RunPhase(*svc, gen, args, phase_s, /*traced=*/true);
    checked_phase = &traced;
  }
  svc.reset();
  for (int rep = 0; rep < kSetupsAfter; ++rep) {
    if (!SetUpOnce(args, corpus, gen, default_interval, times)) {
      return 1;
    }
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    AddPerLayer(untraced, traced, times, metrics);
  } else {
    AddEndToEnd(untraced, times, rss_mb, metrics);
  }

  const uint64_t t_oracle = NowNs();
  uint64_t checked = 0;
  const uint64_t mismatches =
      RunOracle(args, corpus, gen, *checked_phase, checked);
  std::printf("timing: set-ups %.3f s, phases %.3f s, oracle %.3f s\n",
              static_cast<double>(t_setup_done - t_process) / 1e9,
              static_cast<double>(t_oracle - t_setup_done) / 1e9,
              static_cast<double>(NowNs() - t_oracle) / 1e9);
  const uint64_t attempted = TotalItems(untraced, &ClientStats::items) +
                             TotalItems(traced, &ClientStats::items);
  uint64_t failed = mismatches;
  for (const PhaseResult* p : {&untraced, &traced}) {
    for (const ClientStats& c : p->clients) {
      failed += c.failed;
    }
  }
  std::printf("oracle: %llu sampled answers replayed on the tree walk, "
              "%llu mismatches\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(mismatches));
  std::printf("error_rate %.17g fraction (%llu failed of %llu attempted)\n",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  Emit(metrics, failed == 0 && checked > 0, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// Stress and determinism tests for the concurrent query layer (src/svc):
// the sharded striped-lock LRU cache and the snapshot-swapping
// QueryService. The load tests run real threads and are meant to be
// exercised under ThreadSanitizer (the CI sanitize-thread job does); the
// determinism tests enforce the service contract that a concurrent run is
// bit-identical to a single-threaded replay of the same request log.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/eval/interp.h"
#include "src/lang/parser.h"
#include "src/obs/metrics.h"
#include "src/svc/query_service.h"
#include "src/svc/sharded_cache.h"
#include "src/util/rng.h"
#include "tests/parity_programs.h"

namespace eclarity {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

Program MustParse(const std::string& source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

std::unique_ptr<QueryService> MustCreate(const std::string& source,
                                         QueryService::Options options = {},
                                         EcvProfile profile = {}) {
  auto service = QueryService::Create(MustParse(source), options,
                                      std::move(profile));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

// The Fig. 1 interface — the same corpus the engine-parity tests use.
constexpr char kFig1Source[] = R"(
const max_response_len = 1024;
interface E_ml_webservice_handle(image_size, n_zeros) {
  ecv request_hit ~ bernoulli(0.3);
  if (request_hit) {
    return E_cache_lookup(image_size, max_response_len);
  } else {
    return E_cnn_forward(image_size, n_zeros);
  }
}
interface E_cache_lookup(key_size, response_len) {
  ecv local_cache_hit ~ bernoulli(0.8);
  if (local_cache_hit) {
    return 0.001mJ * response_len;
  } else {
    return 0.1mJ * response_len;
  }
}
interface E_cnn_forward(image_size, n_zeros) {
  let n_embedding = 256;
  return 8 * (image_size - n_zeros) * 20nJ +
         8 * n_embedding * 0.1nJ +
         16 * n_embedding * 1.5nJ;
}
)";

// --- Striped counters -------------------------------------------------------

TEST(StripedCounterTest, EightThreadsCountExactlyAndResetZeroesEveryStripe) {
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test_striped_total", "test");
  // Fresh threads each round: the second round's threads lease the
  // stripes the first round's threads returned on exit.
  auto hammer = [&counter] {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&counter] {
        for (uint64_t i = 0; i < kPerThread; ++i) {
          counter.Increment();
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  };
  hammer();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_NE(registry.ToJson().find("\"test_striped_total\":800000"),
            std::string::npos);

  // Cells only grow, so a zero sum means every cell is zero.
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
  hammer();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  registry.ResetAll();
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment(5);
  EXPECT_EQ(counter.value(), 5u);
}

// --- ShardedLruMap ----------------------------------------------------------

TEST(ShardedLruMapTest, SplitsCapacityAcrossShards) {
  ShardedLruMap<uint64_t, int> cache(10, 4);
  EXPECT_EQ(cache.shard_count(), 4u);
  EXPECT_EQ(cache.capacity(), 10u);
  size_t summed = 0;
  for (size_t i = 0; i < cache.shard_count(); ++i) {
    const auto stats = cache.StatsForShard(i);
    EXPECT_GE(stats.capacity, 2u);  // 10/4 split: {3, 3, 2, 2}
    summed += stats.capacity;
  }
  EXPECT_EQ(summed, 10u);
}

TEST(ShardedLruMapTest, ClampsShardCountToCapacity) {
  ShardedLruMap<uint64_t, int> cache(3, 16);
  EXPECT_EQ(cache.shard_count(), 3u);
  for (size_t i = 0; i < cache.shard_count(); ++i) {
    EXPECT_EQ(cache.StatsForShard(i).capacity, 1u);
  }
}

TEST(ShardedLruMapTest, ZeroCapacityNeverStores) {
  ShardedLruMap<uint64_t, int> cache(0, 16);
  EXPECT_EQ(cache.shard_count(), 1u);  // one (disabled) shard
  cache.Put(1, 10);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.size(), 0u);
  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.lookups(), 1u);
}

TEST(ShardedLruMapTest, BasicHitMissAndEviction) {
  ShardedLruMap<uint64_t, int> cache(2, 1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_TRUE(cache.Get(1).has_value());  // 1 now most-recent
  EXPECT_EQ(*cache.Get(1), 10);
  EXPECT_TRUE(cache.Put(3, 30));  // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.TotalStats().evictions, 1u);
}

// A hash that sends every key to the same shard: correctness must not
// depend on the spreading being good, only the contention does.
struct CollidingHash {
  size_t operator()(uint64_t) const { return 42; }
};

TEST(ShardedLruMapTest, ForcedCollisionsStillBehaveAsOneLru) {
  ShardedLruMap<uint64_t, uint64_t, CollidingHash> cache(4, 8);
  const size_t target = cache.ShardIndexOf(0);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(cache.ShardIndexOf(key), target);
    cache.Put(key, key * 2);
  }
  // All residency is in the one shard the colliding hash picked.
  const auto stats = cache.StatsForShard(target);
  EXPECT_EQ(stats.size, cache.StatsForShard(target).capacity);
  EXPECT_EQ(cache.size(), stats.size);
  // The most recent inserts survived.
  for (uint64_t key = 100 - stats.size; key < 100; ++key) {
    ASSERT_TRUE(cache.Get(key).has_value()) << key;
    EXPECT_EQ(*cache.Get(key), key * 2);
  }
}

TEST(ShardedLruMapTest, CapacityOneChurnFromTwoThreads) {
  // A single capacity-1 shard shared by two writers: pure eviction churn.
  // Every Put either refreshes the resident key or evicts it, so the final
  // state is exactly one resident entry and the stats stay coherent.
  ShardedLruMap<uint64_t, uint64_t> cache(1, 1);
  constexpr int kOps = 20000;
  auto churn = [&cache](uint64_t tid) {
    for (uint64_t i = 0; i < kOps; ++i) {
      const uint64_t key = tid * kOps + i;
      cache.Put(key, key);
      cache.Get(key);  // may hit or miss depending on interleaving
    }
  };
  std::thread a(churn, 0);
  std::thread b(churn, 1);
  a.join();
  b.join();
  EXPECT_EQ(cache.size(), 1u);
  const auto stats = cache.TotalStats();
  EXPECT_EQ(stats.lookups(), static_cast<uint64_t>(2 * kOps));
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups());
  // 2*kOps distinct keys went through a 1-entry cache: all but the resident
  // one were displaced.
  EXPECT_EQ(stats.evictions, static_cast<uint64_t>(2 * kOps - 1));
}

TEST(ShardedLruMapTest, ConcurrentMixedLoadStatsAddUp) {
  ShardedLruMap<uint64_t, uint64_t> cache(64, 8);
  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 5000;
  std::atomic<uint64_t> gets{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &gets, t] {
      Rng rng(1000 + t);
      uint64_t local_gets = 0;
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = rng.NextUint64() % 256;
        if (rng.NextUint64() % 2 == 0) {
          cache.Get(key);
          ++local_gets;
        } else {
          cache.Put(key, key);
        }
      }
      gets.fetch_add(local_gets, std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const auto total = cache.TotalStats();
  // Quiescent: the aggregate must account for every Get, and the per-shard
  // rows must sum to the aggregate.
  EXPECT_EQ(total.lookups(), gets.load());
  ShardedLruMap<uint64_t, uint64_t>::ShardStats summed;
  for (size_t i = 0; i < cache.shard_count(); ++i) {
    const auto shard = cache.StatsForShard(i);
    EXPECT_LE(shard.size, shard.capacity);
    summed.hits += shard.hits;
    summed.misses += shard.misses;
    summed.evictions += shard.evictions;
    summed.size += shard.size;
  }
  EXPECT_EQ(summed.hits, total.hits);
  EXPECT_EQ(summed.misses, total.misses);
  EXPECT_EQ(summed.evictions, total.evictions);
  EXPECT_EQ(summed.size, total.size);
  EXPECT_LE(cache.size(), cache.capacity());
}

// --- QueryService: determinism under concurrency ----------------------------

// The serve-loop request mix: a pure function of the global query index, so
// concurrent clients and the single-threaded replay generate the same log.
Query MixedQueryAt(size_t global) {
  Query query;
  query.interface = "E_ml_webservice_handle";
  query.args = {Value::Number(50176.0), Value::Number(10000.0)};
  if (global % 64 == 0) {
    query.kind = QueryKind::kMonteCarlo;
    query.seed = global;
    query.samples = 128;
  } else if (global % 16 == 0) {
    query.kind = QueryKind::kDistribution;
  } else if (global % 16 == 8) {
    query.kind = QueryKind::kSample;
    query.seed = global * 2 + 1;
  } else {
    query.kind = QueryKind::kExpected;
  }
  return query;
}

TEST(QueryServiceConcurrencyTest, MixedLoadBitIdenticalToSingleThreadedReplay) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 96;
  auto service = MustCreate(kFig1Source);

  std::vector<std::vector<std::string>> fingerprints(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &fingerprints, t] {
      std::vector<std::string>& out = fingerprints[t];
      out.reserve(kPerThread);
      for (size_t i = 0; i < kPerThread; ++i) {
        auto result = service->Dispatch(MixedQueryAt(t * kPerThread + i));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        out.push_back(result->Fingerprint());
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  // Replay the identical request log on ONE thread through a fresh service.
  auto replay = MustCreate(kFig1Source);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      auto result = replay->Dispatch(MixedQueryAt(t * kPerThread + i));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->Fingerprint(), fingerprints[t][i])
          << "thread " << t << " query " << i;
    }
  }

  // Quiescent cache accounting: every lookup is a hit or a miss, and the
  // per-shard rows sum to the aggregate.
  const QueryService::CacheStats total = service->TotalCacheStats();
  EXPECT_EQ(total.hits + total.misses, total.lookups());
  uint64_t shard_lookups = 0;
  for (const QueryService::CacheStats& shard : service->PerShardCacheStats()) {
    shard_lookups += shard.lookups();
  }
  EXPECT_EQ(shard_lookups, total.lookups());
  EXPECT_GT(total.hits, 0u);  // one arg vector: the cache must be doing work
}

TEST(QueryServiceConcurrencyTest, EightThreadParityCorpusMatchesEvaluator) {
  // Every entry in the engine-parity corpus, answered concurrently by the
  // service, must carry the exact bits the single-threaded engine produces.
  struct Case {
    const char* source;
    const char* entry;
    std::vector<Value> args;
  };
  const std::vector<Case> corpus = {
      {kFig1Source, "E_ml_webservice_handle",
       {Value::Number(50176.0), Value::Number(10000.0)}},
      {R"(
const k_iters = 4;
const k_unit = 2mJ;
interface f(x) {
  let mut total = 0J;
  for i in 0..k_iters {
    ecv spike ~ bernoulli(0.25);
    let step = spike ? k_unit * (i + 1) : k_unit;
    total = total + step;
  }
  return total + min(x, k_iters) * 1mJ;
}
)",
       "f",
       {Value::Number(7.0)}},
      {R"(
interface outer(n) {
  ecv tier ~ categorical(0: 0.5, 1: 0.3, 2: 0.2);
  return inner(tier) * n;
}
interface inner(tier) {
  ecv burst ~ uniform_int(1, 3);
  return (tier + 1) * burst * 1uJ;
}
)",
       "outer",
       {Value::Number(2.0)}},
  };

  for (const Case& c : corpus) {
    SCOPED_TRACE(c.entry);
    const Program program = MustParse(c.source);
    Evaluator evaluator(program);
    auto reference = evaluator.ExpectedEnergy(c.entry, c.args, {});
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const uint64_t want = Bits(reference->joules());

    auto service = MustCreate(c.source);
    std::vector<std::thread> workers;
    workers.reserve(8);
    for (int t = 0; t < 8; ++t) {
      workers.emplace_back([&service, &c, want] {
        for (int i = 0; i < 50; ++i) {
          Query query;
          query.interface = c.entry;
          query.args = c.args;
          auto energy = service->Expected(query);
          ASSERT_TRUE(energy.ok()) << energy.status().ToString();
          EXPECT_EQ(Bits(energy->joules()), want);
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
}

TEST(QueryServiceConcurrencyTest, PerQueryProfileOverrideMatchesEvaluator) {
  const char* source = R"(
interface f() {
  ecv mode ~ bernoulli(0.5);
  return mode ? 1mJ : 2mJ;
}
)";
  EcvProfile profile;
  ASSERT_TRUE(profile
                  .Set("mode", {{Value::Bool(true), 0.2},
                                {Value::Bool(false), 0.8}})
                  .ok());
  const Program program = MustParse(source);
  Evaluator evaluator(program);
  auto reference = evaluator.ExpectedEnergy("f", {}, profile);
  ASSERT_TRUE(reference.ok());

  auto service = MustCreate(source);
  Query query;
  query.interface = "f";
  query.profile = profile;
  auto overridden = service->Expected(query);
  ASSERT_TRUE(overridden.ok());
  EXPECT_EQ(Bits(overridden->joules()), Bits(reference->joules()));

  // The override and the base answer use distinct cache keys.
  Query base;
  base.interface = "f";
  auto plain = service->Expected(base);
  ASSERT_TRUE(plain.ok());
  EXPECT_NE(Bits(plain->joules()), Bits(overridden->joules()));
  EXPECT_EQ(service->TotalCacheStats().misses, 2u);
}

TEST(QueryServiceConcurrencyTest, MonteCarloDeterministicOnPool) {
  QueryService::Options options;
  options.mc_pool_threads = 4;
  auto service = MustCreate(kFig1Source, options);
  Query query = MixedQueryAt(0);
  ASSERT_EQ(query.kind, QueryKind::kMonteCarlo);
  query.samples = 1000;
  query.seed = 42;

  // The reference stream: the engine itself, fed the same seed.
  const Program program = MustParse(kFig1Source);
  Evaluator evaluator(program);
  Rng rng(42);
  auto reference = evaluator.MonteCarloMean(query.interface, query.args, {},
                                            rng, query.samples);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  // Concurrent submitters with the same seed must all reproduce it.
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&service, &query, &reference] {
      for (int i = 0; i < 8; ++i) {
        auto mc = service->MonteCarlo(query);
        ASSERT_TRUE(mc.ok()) << mc.status().ToString();
        EXPECT_EQ(Bits(mc->joules()), Bits(reference->joules()));
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

TEST(QueryServiceConcurrencyTest, BatchBitIdenticalToSinglesAndDeduped) {
  auto service = MustCreate(kFig1Source);
  std::vector<Query> batch;
  for (size_t i = 0; i < 48; ++i) {
    batch.push_back(MixedQueryAt(i));
  }
  auto batched = service->EvaluateBatch(batch);
  ASSERT_EQ(batched.size(), batch.size());

  auto singles = MustCreate(kFig1Source);
  for (size_t i = 0; i < batch.size(); ++i) {
    auto one = singles->Dispatch(batch[i]);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
    EXPECT_EQ(batched[i]->Fingerprint(), one->Fingerprint()) << "query " << i;
  }

  // One arg vector and one profile: the whole batch shares one enumeration
  // key, so the sharded cache saw exactly one miss.
  EXPECT_EQ(service->TotalCacheStats().misses, 1u);
}

// The batch request log: a pure function of (thread, round, lane), so the
// concurrent run and the single-threaded replay see identical batches.
std::vector<Query> BatchLogAt(size_t thread, size_t round) {
  std::vector<Query> batch;
  batch.reserve(16);
  for (size_t lane = 0; lane < 16; ++lane) {
    const size_t global = (thread * 97 + round) * 16 + lane;
    Query query;
    query.interface = "E_ml_webservice_handle";
    query.args = {Value::Number(50176.0 + static_cast<double>(global % 6) * 64.0),
                  Value::Number(10000.0)};
    query.kind =
        global % 5 == 0 ? QueryKind::kDistribution : QueryKind::kExpected;
    batch.push_back(std::move(query));
  }
  return batch;
}

TEST(QueryServiceConcurrencyTest, BatchDispatchBitIdenticalToReplay) {
  // 8 threads each push rounds of 16-lane batches through the SoA batch
  // path; every fingerprint must match a single-threaded replay of the
  // identical batch log on a fresh service.
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 24;
  auto service = MustCreate(kFig1Source);

  std::vector<std::vector<std::string>> fingerprints(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &fingerprints, t] {
      std::vector<std::string>& out = fingerprints[t];
      out.reserve(kRounds * 16);
      for (size_t r = 0; r < kRounds; ++r) {
        const auto results = service->EvaluateBatch(BatchLogAt(t, r));
        for (const auto& result : results) {
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          out.push_back(result->Fingerprint());
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  auto replay = MustCreate(kFig1Source);
  for (size_t t = 0; t < kThreads; ++t) {
    size_t cursor = 0;
    for (size_t r = 0; r < kRounds; ++r) {
      const auto results = replay->EvaluateBatch(BatchLogAt(t, r));
      for (const auto& result : results) {
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->Fingerprint(), fingerprints[t][cursor])
            << "thread " << t << " round " << r;
        ++cursor;
      }
    }
  }
}

TEST(QueryServiceConcurrencyTest, BatchDispatchIsSnapshotAtomicUnderSwaps) {
  // EvaluateBatch pins ONE snapshot for the whole batch, so while a writer
  // flips the profile every answer in a batch must come from the same
  // world: the per-lane fingerprints are uniformly the base world's or
  // uniformly the hot world's, never a mix.
  EcvProfile hot;
  hot.SetBernoulli("request_hit", 0.9);
  const std::vector<Query> batch = BatchLogAt(0, 0);

  // Oracle fingerprints for both legal worlds, from fresh services.
  std::vector<std::string> world_a;
  std::vector<std::string> world_b;
  {
    auto base_service = MustCreate(kFig1Source);
    auto hot_service = MustCreate(kFig1Source, {}, hot);
    for (const Query& query : batch) {
      auto a = base_service->Dispatch(query);
      auto b = hot_service->Dispatch(query);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_NE(a->Fingerprint(), b->Fingerprint());
      world_a.push_back(a->Fingerprint());
      world_b.push_back(b->Fingerprint());
    }
  }

  auto service = MustCreate(kFig1Source);
  std::atomic<bool> stop{false};
  std::thread writer([&service, &hot, &stop] {
    EcvProfile base;  // empty profile: the seed world
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      service->UpdateProfile(i % 2 == 0 ? hot : base);
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&service, &batch, &world_a, &world_b] {
      for (int round = 0; round < 50; ++round) {
        const auto results = service->EvaluateBatch(batch);
        ASSERT_EQ(results.size(), batch.size());
        ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
        const std::vector<std::string>* want =
            results[0]->Fingerprint() == world_a[0] ? &world_a : &world_b;
        for (size_t i = 0; i < results.size(); ++i) {
          ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
          EXPECT_EQ(results[i]->Fingerprint(), (*want)[i])
              << "round " << round << " lane " << i << ": mixed snapshots";
        }
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(QueryServiceConcurrencyTest, ErrorsPropagateAndAreNeverCached) {
  auto service = MustCreate(kFig1Source);
  Query query;
  query.interface = "E_no_such_interface";
  for (int i = 0; i < 3; ++i) {
    auto result = service->Expected(query);
    ASSERT_FALSE(result.ok());
  }
  const QueryService::CacheStats stats = service->TotalCacheStats();
  EXPECT_EQ(stats.misses, 3u);  // never satisfied from cache
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.size, 0u);
}

TEST(QueryServiceConcurrencyTest, RejectsOpenPrograms) {
  auto program = ParseProgram(
      "interface f(x) { return E_imported(x); }");
  ASSERT_TRUE(program.ok());
  auto service = QueryService::Create(std::move(*program));
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition);
}

// --- QueryService: snapshot publication -------------------------------------

TEST(QueryServiceSnapshotTest, PinnedSnapshotSurvivesProfileSwap) {
  auto service = MustCreate(kFig1Source);
  Query query = MixedQueryAt(1);  // kExpected

  auto before = service->Expected(query);
  ASSERT_TRUE(before.ok());
  auto pinned = service->AcquireSnapshot();

  EcvProfile always_hit;
  always_hit.SetBernoulli("request_hit", 1.0);
  service->UpdateProfile(always_hit);

  // New queries see the new profile; the pinned snapshot still answers with
  // the old world, bit for bit.
  auto after = service->Expected(query);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(Bits(after->joules()), Bits(before->joules()));
  auto on_pinned = service->ExpectedOn(*pinned, query);
  ASSERT_TRUE(on_pinned.ok());
  EXPECT_EQ(Bits(on_pinned->joules()), Bits(before->joules()));
}

TEST(QueryServiceSnapshotTest, ProfileSwapsRacingQueriesYieldOnlyLegalAnswers) {
  auto service = MustCreate(kFig1Source);
  Query query = MixedQueryAt(1);  // kExpected

  // The two legal worlds, computed up front.
  EcvProfile hot;
  hot.SetBernoulli("request_hit", 0.9);
  auto base_answer = service->Expected(query);
  ASSERT_TRUE(base_answer.ok());
  Query hot_query = query;
  hot_query.profile = hot;
  auto hot_answer = service->Expected(hot_query);
  ASSERT_TRUE(hot_answer.ok());
  const uint64_t legal_a = Bits(base_answer->joules());
  const uint64_t legal_b = Bits(hot_answer->joules());

  std::atomic<bool> stop{false};
  std::thread writer([&service, &hot, &stop] {
    EcvProfile base;  // empty profile: the seed world
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      service->UpdateProfile(i % 2 == 0 ? hot : base);
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&service, &query, legal_a, legal_b] {
      for (int i = 0; i < 400; ++i) {
        auto energy = service->Expected(query);
        ASSERT_TRUE(energy.ok()) << energy.status().ToString();
        const uint64_t got = Bits(energy->joules());
        EXPECT_TRUE(got == legal_a || got == legal_b) << got;
      }
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(QueryServiceSnapshotTest, ProgramSwapBumpsGenerationAndRekeysCache) {
  auto service = MustCreate("interface f() { return 1J; }");
  Query query;
  query.interface = "f";
  auto v1 = service->Expected(query);
  ASSERT_TRUE(v1.ok());
  EXPECT_DOUBLE_EQ(v1->joules(), 1.0);
  EXPECT_EQ(service->snapshot_generation(), 0u);

  ASSERT_TRUE(service->UpdateProgram(
                         MustParse("interface f() { return 2J; }"))
                  .ok());
  EXPECT_EQ(service->snapshot_generation(), 1u);
  auto v2 = service->Expected(query);
  ASSERT_TRUE(v2.ok());
  // The generation is part of the cache key, so the old program's cached
  // enumeration cannot leak into the new world.
  EXPECT_DOUBLE_EQ(v2->joules(), 2.0);
}

// --- QueryService: analytic certified modes ---------------------------------

// A request mix cycling the per-query dist_mode override — a pure function
// of the global index, so the concurrent run and the replay share a log.
Query AnalyticQueryAt(size_t global) {
  Query query;
  query.interface = "acc_chain";
  query.args = {Value::Number(6.0)};
  query.kind = QueryKind::kExpected;
  switch (global % 4) {
    case 0:  // service default (enumeration) baseline
      break;
    case 1:
      query.dist_mode = DistMode::kAnalyticExact;
      break;
    case 2:
      query.kind = QueryKind::kDistribution;
      query.dist_mode = DistMode::kAnalyticBounded;
      break;
    default:
      query.dist_mode = DistMode::kAnalyticMoments;
      break;
  }
  return query;
}

TEST(QueryServiceConcurrencyTest,
     AnalyticModesBitIdenticalToSingleThreadedReplay) {
  // 8 threads hammer the snapshot evaluator's memoized sub-distribution
  // cache with mixed certified/enumeration queries; the outcome
  // fingerprints (which include the certified bound and pruned-mass bits)
  // must match a single-threaded replay of the same log exactly.
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 64;
  auto service = MustCreate(parity::kAccumulatorChainSource);

  std::vector<std::vector<std::string>> fingerprints(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &fingerprints, t] {
      std::vector<std::string>& out = fingerprints[t];
      out.reserve(kPerThread);
      for (size_t i = 0; i < kPerThread; ++i) {
        auto result = service->Dispatch(AnalyticQueryAt(t * kPerThread + i));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        out.push_back(result->Fingerprint());
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  auto replay = MustCreate(parity::kAccumulatorChainSource);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      auto result = replay->Dispatch(AnalyticQueryAt(t * kPerThread + i));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->Fingerprint(), fingerprints[t][i])
          << "thread " << t << " query " << i;
    }
  }
}

TEST(QueryServiceConcurrencyTest, AnalyticOutcomesMatchEvaluatorAndCertify) {
  // The concurrent service's certified answers carry the single-threaded
  // engine's exact bits (exact mode) and a bound containing the exact mean
  // (bounded/moments modes).
  const Program program = MustParse(parity::kAccumulatorChainSource);
  Evaluator evaluator(program);
  auto exact = evaluator.ExpectedEnergy("acc_chain", {Value::Number(6.0)}, {});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  const double want = exact->joules();

  auto service = MustCreate(parity::kAccumulatorChainSource);
  std::vector<std::thread> workers;
  workers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&service, want] {
      for (size_t i = 1; i < 32; ++i) {  // skip the enumerate slot
        const Query query = AnalyticQueryAt(i % 4 == 0 ? i + 1 : i);
        auto outcome = service->Dispatch(query);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        EXPECT_TRUE(outcome->analytic);
        if (query.dist_mode == DistMode::kAnalyticExact) {
          EXPECT_EQ(Bits(outcome->joules), Bits(want));
          EXPECT_EQ(outcome->error_bound, 0.0);
        } else {
          EXPECT_LE(std::abs(outcome->joules - want), outcome->error_bound);
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

TEST(QueryServiceSnapshotTest, ProgramSwapRekeysAnalyticCache) {
  // The sub-distribution cache lives in the snapshot's evaluator, which is
  // rebuilt on UpdateProgram — so a new generation can never be answered
  // from the old program's cached analytic results.
  auto service = MustCreate(R"(
interface f() {
  let mut acc = 0J;
  ecv hit ~ bernoulli(0.5);
  if (hit) { acc = acc + 2mJ; }
  return acc;
}
)");
  Query query;
  query.interface = "f";
  query.dist_mode = DistMode::kAnalyticExact;
  auto v1 = service->Dispatch(query);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_DOUBLE_EQ(v1->joules, 0.001);
  EXPECT_TRUE(v1->analytic);

  ASSERT_TRUE(service
                  ->UpdateProgram(MustParse(R"(
interface f() {
  let mut acc = 0J;
  ecv hit ~ bernoulli(0.5);
  if (hit) { acc = acc + 4mJ; }
  return acc;
}
)"))
                  .ok());
  auto v2 = service->Dispatch(query);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_DOUBLE_EQ(v2->joules, 0.002);
}

// --- Thread-local fold cache ------------------------------------------------

// Hot key k of the set-associative tests: distinct base-profile args, every
// 4th one a Distribution query so both answer paths read the pinned fold.
constexpr size_t kHotKeys = 256;

Query HotKeyAt(size_t k) {
  Query query;
  query.interface = "E_ml_webservice_handle";
  query.args = {Value::Number(1024.0 + 64.0 * static_cast<double>(k)),
                Value::Number(16.0 * static_cast<double>(k))};
  query.kind = k % 4 == 3 ? QueryKind::kDistribution : QueryKind::kExpected;
  return query;
}

TEST(QueryServiceConcurrencyTest, ThreadLocalCacheHoldsHotSetOfHalfItsSize) {
  // 256 keys are half the thread-local cache; a direct-mapped cache of the
  // same size would lose some to collisions. Re-querying them must be
  // answered entirely thread-locally, without touching a shard.
  auto service = MustCreate(kFig1Source);
  Counter& tl_hits = MetricsRegistry::Global().GetCounter(
      "eclarity_svc_tl_fold_hits_total");
  Counter& tl_misses = MetricsRegistry::Global().GetCounter(
      "eclarity_svc_tl_fold_misses_total");
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t shard_lookups = 0;
  // A fresh thread starts with an empty thread-local cache.
  std::thread worker([&] {
    for (size_t k = 0; k < kHotKeys; ++k) {
      ASSERT_TRUE(service->Dispatch(HotKeyAt(k)).ok());
    }
    const uint64_t hits0 = tl_hits.value();
    const uint64_t misses0 = tl_misses.value();
    const uint64_t lookups0 = service->TotalCacheStats().lookups();
    for (size_t k = 0; k < kHotKeys; ++k) {
      ASSERT_TRUE(service->Dispatch(HotKeyAt(k)).ok());
    }
    hits = tl_hits.value() - hits0;
    misses = tl_misses.value() - misses0;
    shard_lookups = service->TotalCacheStats().lookups() - lookups0;
  });
  worker.join();
  EXPECT_EQ(hits, kHotKeys);
  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(shard_lookups, 0u);
}

TEST(QueryServiceConcurrencyTest, HotSetFromFourThreadsBitIdenticalToReplay) {
  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 3;
  auto service = MustCreate(kFig1Source);
  for (size_t k = 0; k < kHotKeys; ++k) {
    ASSERT_TRUE(service->Dispatch(HotKeyAt(k)).ok());
  }
  // Each thread walks the hot set from its own offset, so the threads hit
  // the same shared folds at different times.
  std::vector<std::vector<std::string>> fingerprints(kThreads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &fingerprints, t] {
      for (size_t i = 0; i < kRounds * kHotKeys; ++i) {
        auto result = service->Dispatch(HotKeyAt((i + t * 67) % kHotKeys));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        fingerprints[t].push_back(result->Fingerprint());
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  auto replay = MustCreate(kFig1Source);
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(fingerprints[t].size(), kRounds * kHotKeys);
    for (size_t i = 0; i < kRounds * kHotKeys; ++i) {
      auto result = replay->Dispatch(HotKeyAt((i + t * 67) % kHotKeys));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->Fingerprint(), fingerprints[t][i])
          << "thread " << t << " query " << i;
    }
  }
}

TEST(QueryServiceSnapshotTest, ZeroCapacityCacheStillAnswersCorrectly) {
  QueryService::Options options;
  options.cache_capacity = 0;
  auto uncached = MustCreate(kFig1Source, options);
  auto cached = MustCreate(kFig1Source);
  Query query = MixedQueryAt(1);
  for (int i = 0; i < 3; ++i) {
    auto a = uncached->Expected(query);
    auto b = cached->Expected(query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(Bits(a->joules()), Bits(b->joules()));
  }
  const QueryService::CacheStats stats = uncached->TotalCacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);  // nothing ever sticks, every lookup misses
  EXPECT_EQ(stats.size, 0u);
}

}  // namespace
}  // namespace eclarity

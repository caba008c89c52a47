#include "perfbench/workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "perfbench/corpus.h"

namespace perfbench {

using eclarity::DistMode;
using eclarity::EcvProfile;
using eclarity::Query;
using eclarity::QueryKind;
using eclarity::Value;

namespace {

constexpr size_t kHotKeys = 256;
constexpr double kZipfExponent = 0.9;
constexpr size_t kBatchKeys = 4096;
constexpr size_t kBatchPool = 512;
constexpr size_t kBatchSize = 64;
constexpr uint64_t kKeySetSeed = 0x5E7;
// Client id of cold_eval's warm-up stream; timed clients are numbered from 0.
constexpr uint32_t kWarmupClient = 1000;

Query Make(std::string iface, std::vector<double> args) {
  Query q;
  q.interface = std::move(iface);
  for (double a : args) {
    q.args.push_back(Value::Number(a));
  }
  return q;
}

Query Fig1(double image_size, double n_zeros) {
  return Make("E_ml_webservice_handle", {image_size, n_zeros});
}

Query Stack(int layer, int index, double n) {
  return Make(StackName(layer, index), {n});
}

Query Gpt2(double prompt_len, double gen_tokens) {
  return Make("E_gpt2_generate", {prompt_len, gen_tokens});
}

// One of the few per-query what-if overrides the webservice example asks.
EcvProfile Override(uint64_t variant) {
  EcvProfile p;
  switch (variant % 4) {
    case 1:
      p.SetBernoulli("request_hit", 0.9);
      break;
    case 2:
      p.SetFixed("local_cache_hit", Value::Bool(true));
      break;
    case 3:
      p.SetBernoulli("request_hit", 0.1);
      p.SetFixed("local_cache_hit", Value::Bool(false));
      break;
    default:
      break;
  }
  return p;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload& out) {
  for (Workload w :
       {Workload::kHotKeys, Workload::kColdEval, Workload::kBatchSwap}) {
    if (name == WorkloadName(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kHotKeys:
      return "hot_keys";
    case Workload::kColdEval:
      return "cold_eval";
    case Workload::kBatchSwap:
      return "batch_swap";
  }
  return "?";
}

WorkloadShape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kHotKeys:
      return {4, 64, 0, 0, 16384, 4000};
    case Workload::kColdEval:
      return {2, 2, 0, 0, 128, 150};
    case Workload::kBatchSwap:
      // 4096 batches take about 250 ms on a 4-vCPU Xeon at 2.0 GHz.
      return {2, 32, kBatchSize, 4096, 128, 3000};
  }
  return {1, 1, 0, 0, 1, 1};
}

Generator::Generator(Workload w, uint64_t seed) : workload_(w), seed_(seed) {
  // The key sets are the same for every seed, so runs with different
  // seeds differ only in the request streams drawn over them.
  SeqRng rng(kKeySetSeed);
  if (w == Workload::kHotKeys) {
    // 256 warm keys: Fig. 1 (a quarter with what-if overrides), GPT-2,
    // the crypto example, and stack entries of layers 0-7 (the top layers
    // would only lengthen warm-up and the tree-walk oracle).
    for (size_t k = 0; k < kHotKeys; ++k) {
      Query q;
      if (k < 64) {
        q = Fig1(1000.0 + 937.0 * static_cast<double>(k),
                 static_cast<double>(rng.Below(1000)));
        if (k % 4 == 3) {
          q.profile = Override(1 + k / 4);
        }
      } else if (k < 96) {
        q = Gpt2(8.0 + 8.0 * static_cast<double>(k - 64),
                 16.0 + 4.0 * static_cast<double>(k % 8));
      } else if (k < 104) {
        q = Make(k % 2 == 0 ? "E_compare_leaky" : "E_compare_hardened",
                 {static_cast<double>(8 + k)});
      } else {
        q = Stack(static_cast<int>(k % 8),
                  static_cast<int>(rng.Below(kStackWidth)),
                  static_cast<double>(16 + rng.Below(4096)));
      }
      hot_keys_.push_back(q);
      q.kind = QueryKind::kDistribution;
      hot_dist_keys_.push_back(std::move(q));
    }
    hot_rank_to_key_.resize(kHotKeys);
    std::iota(hot_rank_to_key_.begin(), hot_rank_to_key_.end(), 0u);
    for (size_t i = kHotKeys - 1; i > 0; --i) {
      std::swap(hot_rank_to_key_[i], hot_rank_to_key_[rng.Below(i + 1)]);
    }
    double total = 0.0;
    for (size_t r = 0; r < kHotKeys; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      hot_cdf_.push_back(total);
    }
    for (double& c : hot_cdf_) {
      c /= total;
    }
  }
  if (w == Workload::kBatchSwap) {
    // 4096 keys: Fig. 1 arguments under four override variants, low stack
    // layers, and short GPT-2 generations.
    for (size_t k = 0; k < kBatchKeys; ++k) {
      Query q;
      if (k < 2048) {
        q = Fig1(1000.0 + 113.0 * static_cast<double>(k / 4),
                 static_cast<double>(rng.Below(1000)));
        q.profile = Override(k);
      } else if (k < 3584) {
        q = Stack(static_cast<int>(k % 3),
                  static_cast<int>(rng.Below(kStackWidth)),
                  static_cast<double>(k));
      } else {
        q = Gpt2(8.0 + static_cast<double>(k - 3584) / 8.0,
                 static_cast<double>(4 + k % 9));
      }
      batch_keys_.push_back(std::move(q));
    }
    SeqRng draws(Mix64(seed, 0xBA7C));
    for (size_t b = 0; b < kBatchPool; ++b) {
      std::vector<Query> batch;
      batch.reserve(kBatchSize);
      for (size_t j = 0; j < kBatchSize; ++j) {
        Query q = batch_keys_[draws.Below(kBatchKeys)];
        if (j % 16 == 15) {
          q.kind = QueryKind::kDistribution;
        }
        batch.push_back(std::move(q));
      }
      batch_pool_.push_back(std::move(batch));
    }
  }
}

uint64_t Generator::Hash(uint32_t client, uint64_t index) const {
  return Mix64(Mix64(seed_, client + 1), index);
}

const Query& Generator::HotQuery(uint32_t client, uint64_t index) const {
  const double u =
      static_cast<double>(Hash(client, index) >> 11) * 0x1.0p-53;
  const size_t rank = static_cast<size_t>(
      std::lower_bound(hot_cdf_.begin(), hot_cdf_.end(), u) -
      hot_cdf_.begin());
  const uint32_t key = hot_rank_to_key_[std::min(rank, kHotKeys - 1)];
  return index % 16 == 15 ? hot_dist_keys_[key] : hot_keys_[key];
}

Request Generator::ColdRequest(uint32_t client, uint64_t index) const {
  const uint64_t h = Hash(client, index);
  // A real number no other request of this run carries: every key is
  // unseen, so the fold cache only inserts and evicts.
  const double u = static_cast<double>(index) +
                   static_cast<double>(client + 1) / 2048.0;
  Request r;
  if (index % 32 == 31) {
    r.route = Route::kMonteCarlo;
    r.query = (h & 1) != 0
                  ? Fig1(20000.0 + u, static_cast<double>(h % 10000))
                  : Make(ChainName(kChainMinDepth + static_cast<int>(h % 3),
                                   static_cast<int>((h >> 8) % kChainVariants)),
                         {1.0 + u / 1024.0});
    r.query.kind = QueryKind::kMonteCarlo;
    r.query.seed = h;
    r.query.samples = 256;
    return r;
  }
  const uint64_t mix = (h >> 32) % 100;
  if (mix < 25) {
    r.query = Fig1(20000.0 + u, static_cast<double>(h % 10000));
    r.query.profile.SetBernoulli(
        "request_hit", 0.05 + 0.9 * static_cast<double>((h >> 8) % 1000) /
                                 1000.0);
    if ((h >> 20) % 2 == 0) {
      r.query.profile.SetFixed("local_cache_hit",
                               Value::Bool((h >> 21) % 2 == 0));
    }
  } else if (mix < 40) {
    r.query = Gpt2(16.0 + u / 65536.0, static_cast<double>(16 + h % 48));
  } else if (mix < 80) {
    r.query = Stack(4 + static_cast<int>(h % 6),
                    static_cast<int>((h >> 8) % kStackWidth),
                    100.0 + u / 1024.0);
  } else {
    // Depth 8 + k with probability 2^-(k+1) (depth 12 takes the rest):
    // each depth then costs about the same share of the enumeration work.
    const int depth =
        kChainMinDepth +
        std::min(std::countr_zero(h | (uint64_t{1} << 63)),
                 kChainMaxDepth - kChainMinDepth);
    const int variant = static_cast<int>((h >> 8) % kChainVariants);
    r.query = Make(ChainName(depth, variant), {1.0 + u / 1024.0});
    if ((h >> 16) % 8 == 0) {
      r.route = Route::kAnalytic;
      r.query.dist_mode = (h >> 19) % 2 == 0 ? DistMode::kAnalyticExact
                                             : DistMode::kAnalyticBounded;
    }
  }
  if (index % 16 == 7) {
    r.query.kind = QueryKind::kDistribution;
  }
  return r;
}

const std::vector<Query>& Generator::Batch(uint32_t client,
                                           uint64_t index) const {
  return batch_pool_[Hash(client, index) % batch_pool_.size()];
}

std::vector<Query> Generator::WarmupQueries() const {
  switch (workload_) {
    case Workload::kHotKeys:
      return hot_keys_;
    case Workload::kBatchSwap:
      return batch_keys_;
    case Workload::kColdEval: {
      std::vector<Query> warm;
      for (uint64_t i = 0; i < 64; ++i) {
        warm.push_back(ColdRequest(kWarmupClient, i).query);
      }
      return warm;
    }
  }
  return {};
}

EcvProfile Generator::PublishProfile(uint64_t k) const {
  const double phase = 1.7;
  const double t = static_cast<double>(k);
  EcvProfile p;
  p.SetBernoulli("request_hit", 0.3 + 0.2 * std::sin(0.7 * t + phase));
  p.SetBernoulli("local_cache_hit", 0.8 + 0.15 * std::cos(0.45 * t + phase));
  return p;
}

bool Generator::OracleSampled(uint32_t client, uint64_t index) const {
  const uint64_t every = ShapeOf(workload_).oracle_every;
  return Mix64(Hash(client, index), 0x0AC1E) % every == 0;
}

}  // namespace perfbench

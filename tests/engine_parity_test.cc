// Parity tests for the two evaluation engines: the register bytecode VM
// (EvalEngine::kBytecode) must be observationally identical to the
// tree-walking reference interpreter (EvalEngine::kTreeWalk) — same
// outcome values (bit-exact), probabilities, draw order, trace events, and
// error codes and messages. Also covers the determinism guarantee of the
// parallel Monte Carlo reduction, and the bytecode engine's fork-at-choice
// enumeration against the tree walk's replay from the entry.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/eval/interp.h"
#include "src/lang/parser.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"
#include "tests/deep_program_gen.h"
#include "tests/parity_programs.h"

namespace eclarity {
namespace {

std::vector<Value> NumberArgs(const std::vector<double>& xs) {
  std::vector<Value> args;
  args.reserve(xs.size());
  for (double x : xs) {
    args.push_back(Value::Number(x));
  }
  return args;
}

Program MustParse(const std::string& source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Fingerprint(const Value& v) {
  std::string out;
  v.AppendFingerprint(out);
  return out;
}

EvalOptions BytecodeOptions() {
  EvalOptions options;
  options.engine = EvalEngine::kBytecode;
  return options;
}

EvalOptions TreeOptions() {
  EvalOptions options;
  options.engine = EvalEngine::kTreeWalk;
  return options;
}

// Enumerates `entry` traced on both engines and requires bit-identical
// event streams — the trace-parity contract of src/obs/trace.h. Runs on
// error programs too: events emitted before the failure must also match.
void ExpectTraceParity(const Program& program, const std::string& entry,
                       const std::vector<Value>& args,
                       const EcvProfile& profile = {}) {
  RecordingTraceSink bc_sink;
  RecordingTraceSink tree_sink;
  EvalOptions bc_options = BytecodeOptions();
  bc_options.trace = &bc_sink;
  EvalOptions tree_options = TreeOptions();
  tree_options.trace = &tree_sink;
  Evaluator bc(program, bc_options);
  Evaluator tree(program, tree_options);
  auto bc_out = bc.Enumerate(entry, args, profile);
  auto tree_out = tree.Enumerate(entry, args, profile);
  ASSERT_EQ(bc_out.ok(), tree_out.ok())
      << "traced bytecode: " << bc_out.status().ToString()
      << "\ntraced tree: " << tree_out.status().ToString();
  const std::vector<TraceEvent> bc_events = bc_sink.TakeEvents();
  const std::vector<TraceEvent> tree_events = tree_sink.TakeEvents();
  ASSERT_EQ(bc_events.size(), tree_events.size())
      << "bytecode trace:\n" << FormatTrace(bc_events) << "tree trace:\n"
      << FormatTrace(tree_events);
  for (size_t i = 0; i < bc_events.size(); ++i) {
    EXPECT_EQ(TraceEventFingerprint(bc_events[i]),
              TraceEventFingerprint(tree_events[i]))
        << "event " << i << "\nbytecode: " << FormatTraceEvent(bc_events[i])
        << "\ntree: " << FormatTraceEvent(tree_events[i]);
  }
}

// Enumerates `entry` on both engines and requires bit-identical results:
// same outcome order, values, probability bits, and ECV draw sequences —
// or the same error code and message. Also checks trace parity, so the
// whole parity corpus exercises the event stream.
void ExpectEnumerationParity(const Program& program, const std::string& entry,
                             const std::vector<Value>& args,
                             const EcvProfile& profile = {}) {
  ExpectTraceParity(program, entry, args, profile);
  Evaluator bc(program, BytecodeOptions());
  ASSERT_NE(bc.bytecode(), nullptr) << "bytecode compilation fell back";
  Evaluator tree(program, TreeOptions());
  auto bc_out = bc.Enumerate(entry, args, profile);
  auto tree_out = tree.Enumerate(entry, args, profile);
  ASSERT_EQ(bc_out.ok(), tree_out.ok())
      << "bytecode: " << bc_out.status().ToString()
      << "\ntree: " << tree_out.status().ToString();
  if (!bc_out.ok()) {
    EXPECT_EQ(bc_out.status().code(), tree_out.status().code());
    EXPECT_EQ(bc_out.status().message(), tree_out.status().message());
    return;
  }
  ASSERT_EQ(bc_out->size(), tree_out->size());
  for (size_t i = 0; i < bc_out->size(); ++i) {
    const WeightedOutcome& b = (*bc_out)[i];
    const WeightedOutcome& t = (*tree_out)[i];
    EXPECT_EQ(Fingerprint(b.value), Fingerprint(t.value)) << "outcome " << i;
    EXPECT_EQ(Bits(b.probability), Bits(t.probability)) << "outcome " << i;
    ASSERT_EQ(b.ecv_assignments.size(), t.ecv_assignments.size())
        << "outcome " << i;
    for (size_t j = 0; j < b.ecv_assignments.size(); ++j) {
      EXPECT_EQ(b.ecv_assignments[j].first, t.ecv_assignments[j].first);
      EXPECT_EQ(Fingerprint(b.ecv_assignments[j].second),
                Fingerprint(t.ecv_assignments[j].second));
    }
  }
}

// Samples `entry` on both engines from identically seeded RNGs and requires
// the same value (or the same error).
void ExpectSampleParity(const Program& program, const std::string& entry,
                        const std::vector<Value>& args,
                        const EcvProfile& profile = {}) {
  Evaluator bc(program, BytecodeOptions());
  Evaluator tree(program, TreeOptions());
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng bc_rng(seed);
    Rng tree_rng(seed);
    auto b = bc.EvalSampled(entry, args, profile, bc_rng);
    auto t = tree.EvalSampled(entry, args, profile, tree_rng);
    ASSERT_EQ(b.ok(), t.ok()) << "seed " << seed << "\nbytecode: "
                              << b.status().ToString()
                              << "\ntree: " << t.status().ToString();
    if (!b.ok()) {
      EXPECT_EQ(b.status().code(), t.status().code());
      EXPECT_EQ(b.status().message(), t.status().message());
    } else {
      EXPECT_EQ(Fingerprint(*b), Fingerprint(*t)) << "seed " << seed;
    }
  }
}

// The corpus lives in tests/parity_programs.h so the analytic differential
// harness replays exactly the same programs.
TEST(FastPathTest, ParityCorpus) {
  for (const parity::ParityCase& c : parity::kParityCorpus) {
    SCOPED_TRACE(c.name);
    const Program p = MustParse(c.source);
    const std::vector<Value> args = NumberArgs(c.args);
    ExpectEnumerationParity(p, c.entry, args);
    ExpectSampleParity(p, c.entry, args);
  }
}

TEST(FastPathTest, ProfileOverrideParity) {
  const Program p = MustParse(parity::kProfileOverrideSource);
  EcvProfile profile;
  ASSERT_TRUE(profile
                  .Set("mode", {{Value::Bool(true), 0.2},
                                {Value::Bool(false), 0.8}})
                  .ok());
  ExpectEnumerationParity(p, "f", {}, profile);
  ExpectSampleParity(p, "f", {}, profile);
}

TEST(FastPathTest, ErrorParity) {
  // Each corpus program hits a different failure path; both engines must
  // agree on the status code and the exact message.
  for (const parity::ParityCase& c : parity::kErrorCorpus) {
    SCOPED_TRACE(c.name);
    const Program p = MustParse(c.source);
    const std::vector<Value> args = NumberArgs(c.args);
    ExpectEnumerationParity(p, c.entry, args);
    ExpectSampleParity(p, c.entry, args);
  }
}

TEST(FastPathTest, ConstantFoldingPreservesRuntimeErrors) {
  // The folder sees `log(-1)` with constant arguments; the failure must
  // still surface at evaluation time with the tree-walk's message.
  const Program p = MustParse(
      "const bad = log(0 - 1);\n"
      "interface f(x) { return bad * 1J; }");
  ExpectEnumerationParity(p, "f", {Value::Number(1.0)});
}

TEST(FastPathTest, MonteCarloDeterministicAcrossWorkerCounts) {
  const Program p = MustParse(parity::kFig1Source);
  const std::vector<Value> args = {Value::Number(50176.0),
                                   Value::Number(10000.0)};
  double reference = 0.0;
  bool have_reference = false;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
    EvalOptions options;
    options.mc_workers = workers;
    Evaluator eval(p, options);
    Rng rng(42);
    auto mean = eval.MonteCarloMean("E_ml_webservice_handle", args, {}, rng,
                                    2000);
    ASSERT_TRUE(mean.ok()) << mean.status().ToString();
    if (!have_reference) {
      reference = mean->joules();
      have_reference = true;
    } else {
      EXPECT_EQ(Bits(mean->joules()), Bits(reference))
          << "workers=" << workers;
    }
  }
}

TEST(FastPathTest, MonteCarloAgreesWithExactExpectation) {
  const Program p = MustParse(parity::kFig1Source);
  const std::vector<Value> args = {Value::Number(50176.0),
                                   Value::Number(10000.0)};
  Evaluator eval(p);
  auto exact = eval.ExpectedEnergy("E_ml_webservice_handle", args, {});
  ASSERT_TRUE(exact.ok());
  Rng rng(7);
  auto mc = eval.MonteCarloMean("E_ml_webservice_handle", args, {}, rng,
                                20000);
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  EXPECT_NEAR(mc->joules() / exact->joules(), 1.0, 0.05);
}

TEST(FastPathTest, MonteCarloSurfacesSampleErrors) {
  const Program p = MustParse(
      "interface f(x) { ecv e ~ bernoulli(2); return e ? 1J : 2J; }");
  Evaluator eval(p);
  Rng rng(1);
  auto mc = eval.MonteCarloMean("f", {Value::Number(0.0)}, {}, rng, 100);
  EXPECT_FALSE(mc.ok());
}

// --- Fork-at-choice enumeration ----------------------------------------------
//
// Untraced bytecode enumeration resumes each path from a snapshot taken at
// the choice point it changes; the tree walk re-runs every path from the
// entry. The outcome vectors must still agree bit for bit — values,
// probability bits, assignments — or fail with the same status, under the
// same budgets. `specialize` runs the bytecode side on a program
// specialized against `profile` (kEcvBaked draws instead of kEcvBegin).

void ExpectForkParity(const Program& program, const std::string& entry,
                      const std::vector<Value>& args,
                      const EcvProfile& profile, EvalOptions options,
                      bool specialize = false) {
  options.enum_cache_capacity = 0;
  EvalOptions bc_options = options;
  bc_options.engine = EvalEngine::kBytecode;
  EvalOptions tree_options = options;
  tree_options.engine = EvalEngine::kTreeWalk;
  Evaluator bc(program, bc_options);
  Evaluator tree(program, tree_options);
  ASSERT_NE(bc.bytecode(), nullptr) << "bytecode compilation fell back";
  if (specialize) {
    bc.PrepareSpecialized(profile);
    ASSERT_NE(bc.specialized_bytecode(), nullptr);
  }
  auto bc_out = bc.Enumerate(entry, args, profile);
  auto tree_out = tree.Enumerate(entry, args, profile);
  auto fold_out = bc.EnumerateForFold(entry, args, profile);
  ASSERT_EQ(bc_out.ok(), tree_out.ok())
      << "bytecode: " << bc_out.status().ToString()
      << "\ntree: " << tree_out.status().ToString();
  ASSERT_EQ(fold_out.ok(), tree_out.ok()) << fold_out.status().ToString();
  if (!tree_out.ok()) {
    EXPECT_EQ(bc_out.status().code(), tree_out.status().code());
    EXPECT_EQ(bc_out.status().message(), tree_out.status().message());
    EXPECT_EQ(fold_out.status().code(), tree_out.status().code());
    EXPECT_EQ(fold_out.status().message(), tree_out.status().message());
    return;
  }
  const std::vector<WeightedOutcome>& fold = **fold_out;
  ASSERT_EQ(bc_out->size(), tree_out->size());
  ASSERT_EQ(fold.size(), tree_out->size());
  for (size_t i = 0; i < tree_out->size(); ++i) {
    SCOPED_TRACE("outcome " + std::to_string(i));
    const WeightedOutcome& b = (*bc_out)[i];
    const WeightedOutcome& t = (*tree_out)[i];
    EXPECT_EQ(Fingerprint(b.value), Fingerprint(t.value));
    EXPECT_EQ(Bits(b.probability), Bits(t.probability));
    ASSERT_EQ(b.ecv_assignments.size(), t.ecv_assignments.size());
    for (size_t j = 0; j < b.ecv_assignments.size(); ++j) {
      EXPECT_EQ(b.ecv_assignments[j].first, t.ecv_assignments[j].first);
      EXPECT_EQ(Fingerprint(b.ecv_assignments[j].second),
                Fingerprint(t.ecv_assignments[j].second));
    }
    // The fold-only enumeration carries the same (value, probability)
    // and no assignments.
    EXPECT_EQ(Fingerprint(fold[i].value), Fingerprint(t.value));
    EXPECT_EQ(Bits(fold[i].probability), Bits(t.probability));
    EXPECT_TRUE(fold[i].ecv_assignments.empty());
  }
}

void ExpectForkParity(const Program& program, const std::string& entry,
                      const std::vector<Value>& args,
                      const EcvProfile& profile = {}) {
  ExpectForkParity(program, entry, args, profile, EvalOptions());
}

TEST(ForkParityTest, CorpusPrograms) {
  for (const parity::ParityCase& c : parity::kParityCorpus) {
    SCOPED_TRACE(c.name);
    ExpectForkParity(MustParse(c.source), c.entry, NumberArgs(c.args));
  }
  for (const parity::ParityCase& c : parity::kErrorCorpus) {
    SCOPED_TRACE(c.name);
    ExpectForkParity(MustParse(c.source), c.entry, NumberArgs(c.args));
  }
}

TEST(ForkParityTest, DrawsInsideLoops) {
  // A loop-carried accumulator and loop counter live in registers across
  // every fork point; the inner loop draws at a changing call depth.
  const Program p = MustParse(R"(
interface f(n) {
  let mut acc = 0J;
  for i in 0..n {
    ecv spike ~ bernoulli(0.25);
    if (spike) { acc = acc + g(i); } else { acc = acc + 1mJ * i; }
    for j in 0..2 {
      ecv tier ~ categorical(1: 0.5, 2: 0.3, 3: 0.2);
      acc = acc + tier * j * 1uJ;
    }
  }
  return acc;
}
interface g(i) {
  ecv w ~ uniform_int(0, 2);
  return (w + i) * 3uJ;
}
)");
  ExpectForkParity(p, "f", {Value::Number(2.0)});  // 36^2 paths
}

TEST(ForkParityTest, DynamicSupportsAndOpenCategoricals) {
  // Each support depends on earlier draws, so the dynamic support a fork
  // point saved differs from the one a later draw left behind. The
  // categorical's second value calls an interface that draws while the
  // categorical's parameter list is still open.
  const Program p = MustParse(R"(
interface f(n) {
  ecv a ~ uniform_int(1, 3);
  ecv b ~ uniform_int(0, a);
  ecv c ~ bernoulli(0.1 * (a + b));
  ecv t ~ categorical(a: 0.5, pick(b): 0.25 * a, n: 0.125);
  let base = c ? 2mJ : 1mJ;
  return base * (t + 1);
}
interface pick(b) {
  ecv d ~ bernoulli(0.5);
  ecv e ~ uniform_int(b, b + 1);
  return d ? e : b + 10;
}
)");
  ExpectForkParity(p, "f", {Value::Number(4.0)});
}

TEST(ForkParityTest, DrawsInCallsNestedFourDeep) {
  const Program p = MustParse(R"(
interface l0(n) {
  ecv a ~ bernoulli(0.3);
  let x = l1(n) + (a ? 1mJ : 2mJ);
  ecv z ~ categorical(0: 0.5, 1: 0.5);
  return x + z * l1(n + 1);
}
interface l1(n) {
  ecv b ~ bernoulli(0.6);
  return b ? l2(n) * 2 : l2(n + 2);
}
interface l2(n) {
  let mut s = 0J;
  for k in 0..2 {
    s = s + l3(n + k);
  }
  return s;
}
interface l3(n) {
  ecv c ~ uniform_int(0, 2);
  return (n + c) * 1uJ;
}
)");
  ExpectForkParity(p, "l0", {Value::Number(5.0)});
}

TEST(ForkParityTest, ProfileOverridesAndSpecializedPrograms) {
  const Program p = MustParse(parity::kFig1Source);
  const std::vector<Value> args = {Value::Number(50176.0),
                                   Value::Number(10000.0)};
  EcvProfile profile;
  ASSERT_TRUE(profile
                  .Set("request_hit", {{Value::Bool(true), 0.25},
                                       {Value::Bool(false), 0.5},
                                       {Value::Bool(true), 0.25}})
                  .ok());
  profile.SetBernoulli("E_cache_lookup.local_cache_hit", 0.9);
  // Generic program: resolved per draw (kEcvBegin).
  ExpectForkParity(p, "E_ml_webservice_handle", args, profile, EvalOptions());
  // Specialized program: overrides baked into the code (kEcvBaked).
  ExpectForkParity(p, "E_ml_webservice_handle", args, profile, EvalOptions(),
                   /*specialize=*/true);
  const Program nested = MustParse(parity::kNestedCallsCategoricalSource);
  EcvProfile burst;
  burst.SetFixed("burst", Value::Number(2.0));
  ExpectForkParity(nested, "outer", {Value::Number(2.0)}, burst,
                   EvalOptions(), /*specialize=*/true);
}

TEST(ForkParityTest, BudgetsExhaustedOnALaterPath) {
  // Path 0 (c = 0) fits every budget; path 1 (c = 1) does not. Steps and
  // call depth are spent before the draw too, so a resumed path must carry
  // them over exactly, as a replay from the entry would.
  const Program steps = MustParse(R"(
interface f(n) {
  let mut acc = 0J;
  for i in 0..n { acc = acc + 1uJ; }
  ecv c ~ categorical(0: 0.5, 1: 0.5);
  if (c == 1) {
    for i in 0..n { acc = acc + 2uJ; }
  }
  return acc;
}
)");
  EvalOptions tight;
  tight.max_steps = 20;
  ExpectForkParity(steps, "f", {Value::Number(10.0)}, {}, tight);
  {
    Evaluator bc(steps, tight);
    auto out = bc.Enumerate("f", {Value::Number(10.0)}, {});
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  }
  tight.max_steps = 40;  // both paths fit
  ExpectForkParity(steps, "f", {Value::Number(10.0)}, {}, tight);

  const Program depth = MustParse(R"(
interface e(n) { return f(n); }
interface f(n) {
  ecv c ~ categorical(0: 0.5, 1: 0.5);
  if (c == 1) { return g(n); }
  return n * 1J;
}
interface g(n) { return h(n); }
interface h(n) { return n * 2J; }
)");
  EvalOptions shallow;
  shallow.max_call_depth = 3;
  ExpectForkParity(depth, "e", {Value::Number(1.0)}, {}, shallow);
  {
    Evaluator bc(depth, shallow);
    auto out = bc.Enumerate("e", {Value::Number(1.0)}, {});
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  }
  shallow.max_call_depth = 4;
  ExpectForkParity(depth, "e", {Value::Number(1.0)}, {}, shallow);

  const Program paths = MustParse(R"(
interface f(n) {
  ecv a ~ bernoulli(0.5);
  ecv b ~ uniform_int(0, 2);
  ecv c ~ bernoulli(0.25);
  return (a ? 1 : 2) * (b + n) * (c ? 1mJ : 3mJ);
}
)");
  EvalOptions few;
  few.max_paths = 7;  // 12 paths exist
  ExpectForkParity(paths, "f", {Value::Number(1.0)}, {}, few);
  few.max_paths = 12;
  ExpectForkParity(paths, "f", {Value::Number(1.0)}, {}, few);

  // A rejected dynamic parameter on a later path only.
  const Program bad = MustParse(R"(
interface f(n) {
  ecv a ~ categorical(0.5: 0.5, 1.5: 0.5);
  ecv b ~ bernoulli(a);
  return b ? 1J : 2J;
}
)");
  ExpectForkParity(bad, "f", {Value::Number(0.0)});
}

TEST(ForkParityTest, GeneratedDeepPrograms) {
  Rng rng(2024);
  for (int i = 0; i < 24; ++i) {
    const int depth = 3 + i % 6;
    const bool friendly = i % 2 == 0;
    const std::string source =
        deepgen::DeepProgram(rng, depth, friendly, /*binary_only=*/i % 3 == 0);
    SCOPED_TRACE(source);
    ExpectForkParity(MustParse(source), "deep", {Value::Number(3.0 + i)});
  }
}

}  // namespace
}  // namespace eclarity

// Parity tests for the two evaluation engines: the register bytecode VM
// (EvalEngine::kBytecode) must be observationally identical to the
// tree-walking reference interpreter (EvalEngine::kTreeWalk) — same
// outcome values (bit-exact), probabilities, draw order, trace events, and
// error codes and messages. Also covers the determinism guarantee of the
// parallel Monte Carlo reduction.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/eval/interp.h"
#include "src/lang/parser.h"
#include "src/obs/trace.h"
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

}  // namespace
}  // namespace eclarity

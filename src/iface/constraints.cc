#include "src/iface/constraints.h"

#include <algorithm>
#include <sstream>

namespace eclarity {
namespace {

// Maximum energy over all ECV draws for `entry` at `args`.
Result<double> MaxOverDraws(const Program& program, const std::string& entry,
                            const std::vector<Value>& args,
                            const EnergyCalibration* calibration) {
  Evaluator evaluator(program);
  ECLARITY_ASSIGN_OR_RETURN(Evaluator::SharedOutcomes outcomes,
                            evaluator.EnumerateForFold(entry, args, {}));
  double worst = 0.0;
  bool first = true;
  for (const WeightedOutcome& o : *outcomes) {
    ECLARITY_ASSIGN_OR_RETURN(double joules,
                              OutcomeJoules(o.value, calibration));
    if (first || joules > worst) {
      worst = joules;
      first = false;
    }
  }
  return worst;
}

}  // namespace

Result<EnvelopeReport> CheckEnvelopeAtPoint(
    const Program& program, const std::string& impl,
    const std::string& envelope, const std::vector<Value>& args,
    const EnergyCalibration* calibration) {
  ECLARITY_ASSIGN_OR_RETURN(double impl_max,
                            MaxOverDraws(program, impl, args, calibration));
  ECLARITY_ASSIGN_OR_RETURN(
      double bound, MaxOverDraws(program, envelope, args, calibration));
  EnvelopeReport report;
  report.impl_max_joules = impl_max;
  report.bound_joules = bound;
  report.margin_joules = bound - impl_max;
  report.satisfied = impl_max <= bound;
  return report;
}

Result<EnvelopeReport> CheckEnvelopeOnBox(
    const Program& program, const std::string& impl,
    const std::string& envelope, const std::vector<IntervalValue>& args,
    const EnergyCalibration* calibration) {
  IntervalEvaluator evaluator(program, calibration);
  ECLARITY_ASSIGN_OR_RETURN(EnergyInterval impl_bounds,
                            evaluator.EvalInterval(impl, args));
  ECLARITY_ASSIGN_OR_RETURN(EnergyInterval envelope_bounds,
                            evaluator.EvalInterval(envelope, args));
  EnvelopeReport report;
  report.impl_max_joules = impl_bounds.hi_joules;
  report.bound_joules = envelope_bounds.lo_joules;
  report.margin_joules = report.bound_joules - report.impl_max_joules;
  report.satisfied = report.impl_max_joules <= report.bound_joules;
  return report;
}

Result<ConstantEnergyReport> CheckConstantEnergy(
    const Program& program, const std::string& entry,
    const std::vector<Value>& args, double tolerance_joules,
    const EnergyCalibration* calibration) {
  Evaluator evaluator(program);
  ECLARITY_ASSIGN_OR_RETURN(std::vector<WeightedOutcome> outcomes,
                            evaluator.Enumerate(entry, args, {}));
  ConstantEnergyReport report;
  if (outcomes.empty()) {
    return InternalError("no outcomes enumerated");
  }
  size_t lo_idx = 0;
  size_t hi_idx = 0;
  std::vector<double> joules(outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ECLARITY_ASSIGN_OR_RETURN(joules[i],
                              OutcomeJoules(outcomes[i].value, calibration));
    if (joules[i] < joules[lo_idx]) {
      lo_idx = i;
    }
    if (joules[i] > joules[hi_idx]) {
      hi_idx = i;
    }
  }
  report.min_joules = joules[lo_idx];
  report.max_joules = joules[hi_idx];
  report.constant = (report.max_joules - report.min_joules) <= tolerance_joules;
  if (!report.constant) {
    report.low_trace = outcomes[lo_idx].ecv_assignments;
    report.high_trace = outcomes[hi_idx].ecv_assignments;
  }
  return report;
}

Result<std::vector<ConstraintViolation>> CheckCompatibility(
    const Program& program, const std::vector<EnergyConstraint>& constraints,
    const std::vector<std::vector<Value>>& test_inputs,
    const EnergyCalibration* calibration) {
  std::vector<ConstraintViolation> violations;
  for (const EnergyConstraint& constraint : constraints) {
    for (const std::vector<Value>& args : test_inputs) {
      switch (constraint.kind) {
        case ConstraintKind::kUpperBound: {
          ECLARITY_ASSIGN_OR_RETURN(
              EnvelopeReport report,
              CheckEnvelopeAtPoint(program, constraint.impl,
                                   constraint.envelope, args, calibration));
          if (!report.satisfied) {
            std::ostringstream os;
            os << "'" << constraint.impl << "' exceeds envelope '"
               << constraint.envelope << "': " << report.impl_max_joules
               << " J > " << report.bound_joules << " J";
            violations.push_back({constraint, args, os.str()});
          }
          break;
        }
        case ConstraintKind::kConstantEnergy: {
          ECLARITY_ASSIGN_OR_RETURN(
              ConstantEnergyReport report,
              CheckConstantEnergy(program, constraint.impl, args,
                                  constraint.tolerance_joules, calibration));
          if (!report.constant) {
            std::ostringstream os;
            os << "'" << constraint.impl << "' is not constant-energy: ["
               << report.min_joules << " J, " << report.max_joules << " J]";
            violations.push_back({constraint, args, os.str()});
          }
          break;
        }
      }
    }
  }
  return violations;
}

}  // namespace eclarity

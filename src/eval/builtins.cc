#include "src/eval/builtins.h"

#include <cmath>

namespace eclarity {
namespace {

Status ArgError(const std::string& context, Builtin builtin,
                const std::string& what) {
  return InvalidArgumentError(context + ": builtin '" + BuiltinName(builtin) +
                              "': " + what);
}

// min/max over numbers or concrete energies.
Result<Value> MinMax(Builtin builtin, const std::vector<Value>& args,
                     const std::string& context, bool want_min) {
  if (args.size() != 2) {
    return ArgError(context, builtin, "expected 2 arguments");
  }
  if (args[0].is_number() && args[1].is_number()) {
    const double a = args[0].number();
    const double b = args[1].number();
    return Value::Number(want_min ? std::min(a, b) : std::max(a, b));
  }
  if (args[0].is_energy() && args[1].is_energy() &&
      args[0].energy().IsConcrete() && args[1].energy().IsConcrete()) {
    const double a = args[0].energy().concrete().joules();
    const double b = args[1].energy().concrete().joules();
    return Value::Joules(want_min ? std::min(a, b) : std::max(a, b));
  }
  return ArgError(context, builtin,
                  "arguments must both be numbers or concrete energies");
}

Result<Value> Numeric1(Builtin builtin, const std::vector<Value>& args,
                       const std::string& context, double (*fn)(double)) {
  if (args.size() != 1) {
    return ArgError(context, builtin, "expected 1 argument");
  }
  ECLARITY_ASSIGN_OR_RETURN(double x, args[0].AsNumber());
  const double y = fn(x);
  if (!std::isfinite(y)) {
    return ArgError(context, builtin, "non-finite result");
  }
  return Value::Number(y);
}

}  // namespace

Result<Value> ApplyBuiltin(Builtin builtin,
                           const std::vector<Value>& args,
                           const std::vector<std::string>& string_args,
                           const std::string& context) {
  switch (builtin) {
    case Builtin::kMin:
      return MinMax(builtin, args, context, /*want_min=*/true);
    case Builtin::kMax:
      return MinMax(builtin, args, context, /*want_min=*/false);
    case Builtin::kClamp: {
      if (args.size() != 3) {
        return ArgError(context, builtin, "expected 3 arguments");
      }
      ECLARITY_ASSIGN_OR_RETURN(double x, args[0].AsNumber());
      ECLARITY_ASSIGN_OR_RETURN(double lo, args[1].AsNumber());
      ECLARITY_ASSIGN_OR_RETURN(double hi, args[2].AsNumber());
      if (lo > hi) {
        return ArgError(context, builtin, "clamp bounds inverted");
      }
      return Value::Number(std::clamp(x, lo, hi));
    }
    case Builtin::kAbs: {
      if (args.size() != 1) {
        return ArgError(context, builtin, "expected 1 argument");
      }
      if (args[0].is_energy() && args[0].energy().IsConcrete()) {
        return Value::Joules(std::fabs(args[0].energy().concrete().joules()));
      }
      ECLARITY_ASSIGN_OR_RETURN(double x, args[0].AsNumber());
      return Value::Number(std::fabs(x));
    }
    case Builtin::kFloor:
      return Numeric1(builtin, args, context,
                      [](double x) { return std::floor(x); });
    case Builtin::kCeil:
      return Numeric1(builtin, args, context,
                      [](double x) { return std::ceil(x); });
    case Builtin::kRound:
      return Numeric1(builtin, args, context,
                      [](double x) { return std::round(x); });
    case Builtin::kLog:
      return Numeric1(builtin, args, context,
                      [](double x) { return std::log(x); });
    case Builtin::kLog2:
      return Numeric1(builtin, args, context,
                      [](double x) { return std::log2(x); });
    case Builtin::kExp:
      return Numeric1(builtin, args, context,
                      [](double x) { return std::exp(x); });
    case Builtin::kSqrt:
      return Numeric1(builtin, args, context,
                      [](double x) { return std::sqrt(x); });
    case Builtin::kPow: {
      if (args.size() != 2) {
        return ArgError(context, builtin, "expected 2 arguments");
      }
      ECLARITY_ASSIGN_OR_RETURN(double x, args[0].AsNumber());
      ECLARITY_ASSIGN_OR_RETURN(double y, args[1].AsNumber());
      const double r = std::pow(x, y);
      if (!std::isfinite(r)) {
        return ArgError(context, builtin, "non-finite result");
      }
      return Value::Number(r);
    }
    case Builtin::kAu: {
      if (string_args.size() != 1 || string_args[0].empty()) {
        return ArgError(context, builtin, "expected a unit name string");
      }
      double count = 1.0;
      // args[0] is the placeholder for the string literal; a real second
      // argument supplies the count.
      if (args.size() == 2) {
        ECLARITY_ASSIGN_OR_RETURN(count, args[1].AsNumber());
      }
      return Value::EnergyValue(AbstractEnergy::Unit(string_args[0], count));
    }
  }
  return InternalError("unknown builtin");
}

}  // namespace eclarity

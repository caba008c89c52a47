#include "src/eval/pure_expr.h"

#include "src/eval/builtins.h"

namespace eclarity {

Result<Value> EvalPureExpr(const Expr& expr,
                           const std::map<std::string, Value>& env) {
  switch (expr.kind) {
    case ExprKind::kNumberLit:
      return Value::Number(static_cast<const NumberLit&>(expr).value);
    case ExprKind::kEnergyLit:
      return Value::Joules(static_cast<const EnergyLit&>(expr).joules);
    case ExprKind::kBoolLit:
      return Value::Bool(static_cast<const BoolLit&>(expr).value);
    case ExprKind::kVarRef: {
      const auto& var = static_cast<const VarRef&>(expr);
      const auto it = env.find(var.name);
      if (it == env.end()) {
        return NotFoundError("undefined name '" + var.name +
                             "' in pure expression");
      }
      return it->second;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      ECLARITY_ASSIGN_OR_RETURN(Value operand, EvalPureExpr(*u.operand, env));
      return ApplyUnary(u.op, operand, "pure-expr");
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      ECLARITY_ASSIGN_OR_RETURN(Value lhs, EvalPureExpr(*b.lhs, env));
      ECLARITY_ASSIGN_OR_RETURN(Value rhs, EvalPureExpr(*b.rhs, env));
      return ApplyBinary(b.op, lhs, rhs, "pure-expr");
    }
    case ExprKind::kConditional: {
      const auto& c = static_cast<const ConditionalExpr&>(expr);
      ECLARITY_ASSIGN_OR_RETURN(Value cond, EvalPureExpr(*c.condition, env));
      ECLARITY_ASSIGN_OR_RETURN(bool truth, cond.AsBool());
      return truth ? EvalPureExpr(*c.then_value, env)
                   : EvalPureExpr(*c.else_value, env);
    }
    case ExprKind::kCall: {
      const auto& call = static_cast<const CallExpr&>(expr);
      const std::optional<Builtin> builtin = LookupBuiltin(call.callee);
      if (!builtin) {
        return InvalidArgumentError("pure expressions cannot call interface '" +
                                    call.callee + "'");
      }
      std::vector<Value> args;
      for (const ExprPtr& a : call.args) {
        ECLARITY_ASSIGN_OR_RETURN(Value v, EvalPureExpr(*a, env));
        args.push_back(std::move(v));
      }
      return ApplyBuiltin(*builtin, args, call.string_args, "pure-expr");
    }
  }
  return InternalError("unknown expression kind");
}

}  // namespace eclarity

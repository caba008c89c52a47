#include "src/lang/printer.h"

#include <cmath>
#include <sstream>

#include "src/lang/builtin.h"

namespace eclarity {
namespace {

// Operator precedence for minimal parenthesisation. Higher binds tighter.
int Precedence(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr: return 1;
    case BinaryOp::kAnd: return 2;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: return 3;
    case BinaryOp::kAdd:
    case BinaryOp::kSub: return 4;
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: return 5;
  }
  return 0;
}

std::string FormatNumber(double v) {
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

// Renders joules using the unit suffix recorded at parse time when possible.
std::string FormatEnergyLit(const EnergyLit& lit) {
  static const struct { const char* suffix; double factor; } kUnits[] = {
      {"kJ", 1e3}, {"J", 1.0},    {"mJ", 1e-3},
      {"uJ", 1e-6}, {"nJ", 1e-9}, {"pJ", 1e-12},
  };
  for (const auto& u : kUnits) {
    if (lit.unit_text == u.suffix) {
      return FormatNumber(lit.joules / u.factor) + u.suffix;
    }
  }
  // Unknown recorded suffix: pick the largest unit giving a value >= 1.
  for (const auto& u : kUnits) {
    if (std::fabs(lit.joules) >= u.factor) {
      return FormatNumber(lit.joules / u.factor) + u.suffix;
    }
  }
  return FormatNumber(lit.joules / 1e-12) + "pJ";
}

void PrintExprInner(const Expr& expr, int parent_prec, std::ostringstream& os);

void PrintOperand(const Expr& expr, int parent_prec, std::ostringstream& os) {
  PrintExprInner(expr, parent_prec, os);
}

void PrintExprInner(const Expr& expr, int parent_prec,
                    std::ostringstream& os) {
  switch (expr.kind) {
    case ExprKind::kNumberLit:
      os << FormatNumber(static_cast<const NumberLit&>(expr).value);
      return;
    case ExprKind::kEnergyLit:
      os << FormatEnergyLit(static_cast<const EnergyLit&>(expr));
      return;
    case ExprKind::kBoolLit:
      os << (static_cast<const BoolLit&>(expr).value ? "true" : "false");
      return;
    case ExprKind::kVarRef:
      os << static_cast<const VarRef&>(expr).name;
      return;
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      os << (u.op == UnaryOp::kNeg ? "-" : "!");
      // Unary binds tighter than any binary op; parenthesise binary operands.
      if (u.operand->kind == ExprKind::kBinary ||
          u.operand->kind == ExprKind::kConditional) {
        os << "(";
        PrintExprInner(*u.operand, 0, os);
        os << ")";
      } else {
        PrintExprInner(*u.operand, 6, os);
      }
      return;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      const int prec = Precedence(b.op);
      const bool need_parens = prec < parent_prec;
      if (need_parens) {
        os << "(";
      }
      PrintOperand(*b.lhs, prec, os);
      os << " " << BinaryOpName(b.op) << " ";
      // Right operand of a left-associative chain needs tighter binding.
      PrintOperand(*b.rhs, prec + 1, os);
      if (need_parens) {
        os << ")";
      }
      return;
    }
    case ExprKind::kConditional: {
      const auto& c = static_cast<const ConditionalExpr&>(expr);
      const bool need_parens = parent_prec > 0;
      if (need_parens) {
        os << "(";
      }
      PrintExprInner(*c.condition, 1, os);
      os << " ? ";
      PrintExprInner(*c.then_value, 0, os);
      os << " : ";
      PrintExprInner(*c.else_value, 0, os);
      if (need_parens) {
        os << ")";
      }
      return;
    }
    case ExprKind::kCall: {
      const auto& call = static_cast<const CallExpr&>(expr);
      os << call.callee << "(";
      size_t string_idx = 0;
      for (size_t i = 0; i < call.args.size(); ++i) {
        if (i > 0) {
          os << ", ";
        }
        // String arguments occupy placeholder slots at the front positions
        // they were parsed in; for `au`, the string is always argument 0.
        const bool is_string_slot =
            string_idx < call.string_args.size() && i == string_idx &&
            LookupBuiltin(call.callee) == Builtin::kAu;
        if (is_string_slot) {
          os << "\"" << call.string_args[string_idx++] << "\"";
        } else {
          PrintExprInner(*call.args[i], 0, os);
        }
      }
      os << ")";
      return;
    }
  }
}

std::string Indent(int n) { return std::string(static_cast<size_t>(n) * 2, ' '); }

void PrintStmtInner(const Stmt& stmt, int indent, std::ostringstream& os);

void PrintBlockInner(const Block& block, int indent, std::ostringstream& os) {
  os << "{\n";
  for (const StmtPtr& s : block.statements) {
    PrintStmtInner(*s, indent + 1, os);
  }
  os << Indent(indent) << "}";
}

void PrintStmtInner(const Stmt& stmt, int indent, std::ostringstream& os) {
  os << Indent(indent);
  switch (stmt.kind) {
    case StmtKind::kLet: {
      const auto& s = static_cast<const LetStmt&>(stmt);
      os << "let " << (s.is_mut ? "mut " : "") << s.name << " = "
         << PrintExpr(*s.init) << ";\n";
      return;
    }
    case StmtKind::kAssign: {
      const auto& s = static_cast<const AssignStmt&>(stmt);
      os << s.name << " = " << PrintExpr(*s.value) << ";\n";
      return;
    }
    case StmtKind::kEcv: {
      const auto& s = static_cast<const EcvStmt&>(stmt);
      os << "ecv " << s.name << " ~ ";
      switch (s.dist.kind) {
        case EcvDistKind::kBernoulli:
          os << "bernoulli(" << PrintExpr(*s.dist.params[0]) << ")";
          break;
        case EcvDistKind::kUniformInt:
          os << "uniform_int(" << PrintExpr(*s.dist.params[0]) << ", "
             << PrintExpr(*s.dist.params[1]) << ")";
          break;
        case EcvDistKind::kCategorical: {
          os << "categorical(";
          for (size_t i = 0; i + 1 < s.dist.params.size(); i += 2) {
            if (i > 0) {
              os << ", ";
            }
            os << PrintExpr(*s.dist.params[i]) << ": "
               << PrintExpr(*s.dist.params[i + 1]);
          }
          os << ")";
          break;
        }
      }
      os << ";\n";
      return;
    }
    case StmtKind::kIf: {
      const auto& s = static_cast<const IfStmt&>(stmt);
      os << "if (" << PrintExpr(*s.condition) << ") ";
      PrintBlockInner(s.then_block, indent, os);
      if (s.else_block.has_value()) {
        os << " else ";
        // Collapse `else { if ... }` back into `else if` for readability.
        if (s.else_block->statements.size() == 1 &&
            s.else_block->statements[0]->kind == StmtKind::kIf) {
          std::ostringstream inner;
          PrintStmtInner(*s.else_block->statements[0], indent, inner);
          std::string text = inner.str();
          // Strip the leading indentation the nested printer added.
          const std::string prefix = Indent(indent);
          if (text.rfind(prefix, 0) == 0) {
            text = text.substr(prefix.size());
          }
          // Drop the trailing newline; we add our own.
          if (!text.empty() && text.back() == '\n') {
            text.pop_back();
          }
          os << text << "\n";
          return;
        }
        PrintBlockInner(*s.else_block, indent, os);
      }
      os << "\n";
      return;
    }
    case StmtKind::kFor: {
      const auto& s = static_cast<const ForStmt&>(stmt);
      os << "for " << s.var << " in " << PrintExpr(*s.begin) << ".."
         << PrintExpr(*s.end) << " ";
      PrintBlockInner(s.body, indent, os);
      os << "\n";
      return;
    }
    case StmtKind::kReturn: {
      const auto& s = static_cast<const ReturnStmt&>(stmt);
      os << "return " << PrintExpr(*s.value) << ";\n";
      return;
    }
  }
}

}  // namespace

std::string PrintExpr(const Expr& expr) {
  std::ostringstream os;
  PrintExprInner(expr, 0, os);
  return os.str();
}

std::string PrintStmt(const Stmt& stmt, int indent) {
  std::ostringstream os;
  PrintStmtInner(stmt, indent, os);
  return os.str();
}

std::string PrintBlock(const Block& block, int indent) {
  std::ostringstream os;
  PrintBlockInner(block, indent, os);
  return os.str();
}

std::string PrintInterface(const InterfaceDecl& decl) {
  std::ostringstream os;
  if (!decl.doc.empty()) {
    std::istringstream lines(decl.doc);
    std::string line;
    while (std::getline(lines, line)) {
      os << "# " << line << "\n";
    }
  }
  os << "interface " << decl.name << "(";
  for (size_t i = 0; i < decl.params.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << decl.params[i];
  }
  os << ") ";
  os << PrintBlock(decl.body, 0);
  os << "\n";
  return os.str();
}

std::string PrintProgram(const Program& program) {
  std::ostringstream os;
  for (const ExternDecl& e : program.externs()) {
    os << "extern interface " << e.name << "(";
    for (size_t i = 0; i < e.params.size(); ++i) {
      if (i > 0) {
        os << ", ";
      }
      os << e.params[i];
    }
    os << ");\n";
  }
  for (const ConstDecl& c : program.consts()) {
    os << "const " << c.name << " = " << PrintExpr(*c.value) << ";\n";
  }
  if ((!program.consts().empty() || !program.externs().empty()) &&
      !program.interfaces().empty()) {
    os << "\n";
  }
  for (size_t i = 0; i < program.interfaces().size(); ++i) {
    if (i > 0) {
      os << "\n";
    }
    os << PrintInterface(program.interfaces()[i]);
  }
  return os.str();
}

}  // namespace eclarity

#include "src/obs/provenance.h"

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/lang/builtin.h"
#include "src/obs/trace.h"

namespace eclarity {
namespace {

// --------------------------------------------------------------------------
// Term-site discovery and ablation
// --------------------------------------------------------------------------

bool IsTermExpr(const Expr& e) {
  if (e.kind == ExprKind::kEnergyLit) {
    return true;
  }
  return e.kind == ExprKind::kCall &&
         LookupBuiltin(static_cast<const CallExpr&>(e).callee) == Builtin::kAu;
}

bool ExprHasTermAt(const Expr& e, int line, int column);

bool BlockHasTermAt(const Block& block, int line, int column) {
  bool found = false;
  VisitExprs(block, [&](const Expr& e) {
    if (!found && IsTermExpr(e) && e.line == line && e.column == column) {
      found = true;
    }
  });
  return found;
}

bool ExprHasTermAt(const Expr& e, int line, int column) {
  if (IsTermExpr(e) && e.line == line && e.column == column) {
    return true;
  }
  switch (e.kind) {
    case ExprKind::kUnary:
      return ExprHasTermAt(*static_cast<const UnaryExpr&>(e).operand, line,
                           column);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      return ExprHasTermAt(*b.lhs, line, column) ||
             ExprHasTermAt(*b.rhs, line, column);
    }
    case ExprKind::kConditional: {
      const auto& c = static_cast<const ConditionalExpr&>(e);
      return ExprHasTermAt(*c.condition, line, column) ||
             ExprHasTermAt(*c.then_value, line, column) ||
             ExprHasTermAt(*c.else_value, line, column);
    }
    case ExprKind::kCall: {
      const auto& call = static_cast<const CallExpr&>(e);
      for (const ExprPtr& arg : call.args) {
        if (ExprHasTermAt(*arg, line, column)) {
          return true;
        }
      }
      return false;
    }
    default:
      return false;
  }
}

// Zeroes every term at (line, column) in `e` — the same ablation
// src/stack/stack.cc applies to whole layers, restricted to one site.
// Returns the number of terms zeroed.
int ZeroSiteInExpr(Expr& e, int line, int column) {
  if (e.kind == ExprKind::kEnergyLit && e.line == line && e.column == column) {
    static_cast<EnergyLit&>(e).joules = 0.0;
    return 1;
  }
  if (e.kind == ExprKind::kCall) {
    auto& call = static_cast<CallExpr&>(e);
    if (LookupBuiltin(call.callee) == Builtin::kAu && e.line == line &&
        e.column == column) {
      // au("unit", k) contributes k abstract units; zero the count so the
      // term vanishes under any calibration.
      if (call.args.size() == 2) {
        call.args[1] = MakeNumber(0.0);
      } else {
        call.args.push_back(MakeNumber(0.0));
      }
      return 1;
    }
    int zeroed = 0;
    for (ExprPtr& arg : call.args) {
      zeroed += ZeroSiteInExpr(*arg, line, column);
    }
    return zeroed;
  }
  switch (e.kind) {
    case ExprKind::kUnary:
      return ZeroSiteInExpr(*static_cast<UnaryExpr&>(e).operand, line, column);
    case ExprKind::kBinary: {
      auto& b = static_cast<BinaryExpr&>(e);
      return ZeroSiteInExpr(*b.lhs, line, column) +
             ZeroSiteInExpr(*b.rhs, line, column);
    }
    case ExprKind::kConditional: {
      auto& c = static_cast<ConditionalExpr&>(e);
      return ZeroSiteInExpr(*c.condition, line, column) +
             ZeroSiteInExpr(*c.then_value, line, column) +
             ZeroSiteInExpr(*c.else_value, line, column);
    }
    default:
      return 0;
  }
}

int ZeroSiteInBlock(Block& block, int line, int column);

int ZeroSiteInStmt(Stmt& stmt, int line, int column) {
  switch (stmt.kind) {
    case StmtKind::kLet:
      return ZeroSiteInExpr(*static_cast<LetStmt&>(stmt).init, line, column);
    case StmtKind::kAssign:
      return ZeroSiteInExpr(*static_cast<AssignStmt&>(stmt).value, line,
                            column);
    case StmtKind::kEcv: {
      auto& s = static_cast<EcvStmt&>(stmt);
      int zeroed = 0;
      for (ExprPtr& p : s.dist.params) {
        zeroed += ZeroSiteInExpr(*p, line, column);
      }
      return zeroed;
    }
    case StmtKind::kIf: {
      auto& s = static_cast<IfStmt&>(stmt);
      int zeroed = ZeroSiteInExpr(*s.condition, line, column);
      zeroed += ZeroSiteInBlock(s.then_block, line, column);
      if (s.else_block.has_value()) {
        zeroed += ZeroSiteInBlock(*s.else_block, line, column);
      }
      return zeroed;
    }
    case StmtKind::kFor: {
      auto& s = static_cast<ForStmt&>(stmt);
      return ZeroSiteInExpr(*s.begin, line, column) +
             ZeroSiteInExpr(*s.end, line, column) +
             ZeroSiteInBlock(s.body, line, column);
    }
    case StmtKind::kReturn:
      return ZeroSiteInExpr(*static_cast<ReturnStmt&>(stmt).value, line,
                            column);
  }
  return 0;
}

int ZeroSiteInBlock(Block& block, int line, int column) {
  int zeroed = 0;
  for (StmtPtr& stmt : block.statements) {
    zeroed += ZeroSiteInStmt(*stmt, line, column);
  }
  return zeroed;
}

// Clone of `program` with one term site zeroed. `owner` scopes the edit to a
// single interface body or const initializer, so colliding source locations
// across separately parsed (then merged) programs stay distinct sites.
Program ZeroSite(const Program& program, const TermSite& site) {
  Program zeroed;
  for (const ConstDecl& c : program.consts()) {
    ConstDecl copy = c.Clone();
    if (site.owner == "const:" + c.name) {
      ZeroSiteInExpr(*copy.value, site.line, site.column);
    }
    (void)zeroed.AddConst(std::move(copy));
  }
  for (const InterfaceDecl& i : program.interfaces()) {
    InterfaceDecl copy = i.Clone();
    if (site.owner == i.name) {
      ZeroSiteInBlock(copy.body, site.line, site.column);
    }
    (void)zeroed.AddInterface(std::move(copy));
  }
  for (const ExternDecl& x : program.externs()) {
    (void)zeroed.AddExtern(x);
  }
  return zeroed;
}

// --------------------------------------------------------------------------
// Site resolution: trace event -> owning declaration
// --------------------------------------------------------------------------

// kEnergyTerm events carry the *evaluating* interface, which for a term in a
// const initializer is the interface that referenced the const. The resolver
// maps each event to its owning declaration — the named interface's own body
// first, const initializers second — deduplicating const-owned sites that
// several interfaces share.
class SiteResolver {
 public:
  explicit SiteResolver(const Program& program) : program_(program) {}

  size_t Resolve(const std::string& iface_name, int line, int column) {
    const auto event_key = std::make_tuple(iface_name, line, column);
    const auto cached = by_event_.find(event_key);
    if (cached != by_event_.end()) {
      return cached->second;
    }
    std::string owner = iface_name;
    const InterfaceDecl* decl = program_.FindInterface(iface_name);
    if (decl == nullptr || !BlockHasTermAt(decl->body, line, column)) {
      for (const ConstDecl& c : program_.consts()) {
        if (ExprHasTermAt(*c.value, line, column)) {
          owner = "const:" + c.name;
          break;
        }
      }
    }
    const auto owner_key = std::make_tuple(owner, line, column);
    const auto existing = by_owner_.find(owner_key);
    size_t index;
    if (existing != by_owner_.end()) {
      index = existing->second;
    } else {
      index = sites_.size();
      TermSite site;
      site.owner = std::move(owner);
      site.line = line;
      site.column = column;
      sites_.push_back(std::move(site));
      by_owner_.emplace(owner_key, index);
    }
    by_event_.emplace(event_key, index);
    return index;
  }

  std::vector<TermSite>& sites() { return sites_; }

 private:
  const Program& program_;
  std::map<std::tuple<std::string, int, int>, size_t> by_event_;
  std::map<std::tuple<std::string, int, int>, size_t> by_owner_;
  std::vector<TermSite> sites_;
};

// --------------------------------------------------------------------------
// Merged call tree
// --------------------------------------------------------------------------

struct Node {
  std::string name;
  double expected_calls = 0.0;
  std::map<size_t, double> site_hits;  // site index -> expected executions
  std::vector<std::unique_ptr<Node>> children;

  Node* Child(const std::string& child_name) {
    for (const std::unique_ptr<Node>& c : children) {
      if (c->name == child_name) {
        return c.get();
      }
    }
    children.push_back(std::make_unique<Node>());
    children.back()->name = child_name;
    return children.back().get();
  }
};

double ConvertNode(const Node& node,
                   const std::vector<TermSite>& sites,
                   ProvenanceNode& out) {
  out.name = node.name;
  out.expected_calls = node.expected_calls;
  out.own_joules = 0.0;
  for (const auto& [index, hits] : node.site_hits) {
    const TermSite& site = sites[index];
    ProvenanceSiteShare share;
    share.site = index;
    share.expected_hits = hits;
    share.joules = site.expected_hits > 0.0
                       ? site.delta_joules * (hits / site.expected_hits)
                       : 0.0;
    out.own_joules += share.joules;
    out.sites.push_back(share);
  }
  double subtree = out.own_joules;
  out.children.reserve(node.children.size());
  for (const std::unique_ptr<Node>& child : node.children) {
    ProvenanceNode converted;
    subtree += ConvertNode(*child, sites, converted);
    out.children.push_back(std::move(converted));
  }
  out.subtree_joules = subtree;
  return subtree;
}

std::string FormatJoules(double joules) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", joules);
  return std::string(buf) + " J";
}

void RenderNode(const ProvenanceNode& node,
                const std::vector<TermSite>& sites, int indent,
                std::ostringstream& os) {
  os << std::string(static_cast<size_t>(indent) * 2, ' ') << node.name;
  char calls[48];
  std::snprintf(calls, sizeof(calls), "%.6g", node.expected_calls);
  os << "  calls=" << calls << "  subtree=" << FormatJoules(node.subtree_joules)
     << "  own=" << FormatJoules(node.own_joules) << '\n';
  for (const ProvenanceSiteShare& share : node.sites) {
    const TermSite& site = sites[share.site];
    os << std::string(static_cast<size_t>(indent) * 2 + 2, ' ') << "term "
       << site.owner << " @" << site.line << ':' << site.column << " -> "
       << FormatJoules(share.joules);
    char hits[48];
    std::snprintf(hits, sizeof(hits), "%.6g", share.expected_hits);
    os << " (hits=" << hits << ")\n";
  }
  for (const ProvenanceNode& child : node.children) {
    RenderNode(child, sites, indent + 1, os);
  }
}

}  // namespace

Result<ProvenanceTree> ComputeProvenance(const Program& program,
                                         const std::string& entry,
                                         const std::vector<Value>& args,
                                         const EcvProfile& profile,
                                         const ProvenanceOptions& options) {
  EvalOptions base = options.eval;
  base.trace = nullptr;

  // 1. The exact expectation everything else is measured against.
  Evaluator base_eval(program, base);
  ECLARITY_ASSIGN_OR_RETURN(
      Energy total, base_eval.ExpectedEnergy(entry, args, profile,
                                             options.calibration));

  // 2. Traced enumeration: the call structure and term hits of every path.
  RecordingTraceSink sink;
  EvalOptions traced = base;
  traced.trace = &sink;
  Evaluator traced_eval(program, traced);
  ECLARITY_ASSIGN_OR_RETURN(std::vector<WeightedOutcome> outcomes,
                            traced_eval.Enumerate(entry, args, profile));
  const std::vector<TraceEvent> events = sink.TakeEvents();

  // 3. Fold per-path call/term counts into the merged tree, weighted by
  //    path probability, so accumulated counts are expectations.
  SiteResolver resolver(program);
  auto root = std::make_unique<Node>();
  root->name = entry;
  struct PathCounts {
    double calls = 0.0;
    std::map<size_t, double> hits;
  };
  std::vector<Node*> stack;
  std::map<Node*, PathCounts> path;
  for (const TraceEvent& event : events) {
    switch (event.kind) {
      case TraceEventKind::kPathStart:
        stack.clear();
        path.clear();
        break;
      case TraceEventKind::kInterfaceEnter: {
        Node* node = stack.empty() ? root.get() : stack.back()->Child(event.name);
        path[node].calls += 1.0;
        stack.push_back(node);
        break;
      }
      case TraceEventKind::kInterfaceExit:
        if (!stack.empty()) {
          stack.pop_back();
        }
        break;
      case TraceEventKind::kEnergyTerm: {
        if (stack.empty()) {
          break;
        }
        const size_t site =
            resolver.Resolve(event.name, event.line, event.column);
        path[stack.back()].hits[site] += 1.0;
        break;
      }
      case TraceEventKind::kPathEnd: {
        const double p = event.probability;
        for (auto& [node, counts] : path) {
          node->expected_calls += counts.calls * p;
          for (const auto& [site, hits] : counts.hits) {
            node->site_hits[site] += hits * p;
            resolver.sites()[site].expected_hits += hits * p;
          }
        }
        stack.clear();
        path.clear();
        break;
      }
      default:
        break;
    }
  }

  // 4. Each site's marginal energy: zero it, re-evaluate, take the delta.
  double attributed = 0.0;
  for (TermSite& site : resolver.sites()) {
    Program zeroed = ZeroSite(program, site);
    Evaluator zeroed_eval(zeroed, base);
    ECLARITY_ASSIGN_OR_RETURN(
        Energy without, zeroed_eval.ExpectedEnergy(entry, args, profile,
                                                   options.calibration));
    site.delta_joules = total.joules() - without.joules();
    attributed += site.delta_joules;
  }

  // 5. Assemble the public tree.
  ProvenanceTree tree;
  tree.entry = entry;
  tree.expected_joules = total.joules();
  tree.attributed_joules = attributed;
  tree.unattributed_joules = total.joules() - attributed;
  tree.path_count = outcomes.size();
  tree.sites = std::move(resolver.sites());
  ConvertNode(*root, tree.sites, tree.root);
  return tree;
}

std::string RenderProvenanceTree(const ProvenanceTree& tree) {
  std::ostringstream os;
  os << "energy provenance of '" << tree.entry << "'\n";
  os << "expected energy: " << FormatJoules(tree.expected_joules) << " over "
     << tree.path_count << " path" << (tree.path_count == 1 ? "" : "s")
     << '\n';
  RenderNode(tree.root, tree.sites, 0, os);
  os << "unattributed: " << FormatJoules(tree.unattributed_joules) << '\n';
  return os.str();
}

}  // namespace eclarity

#include "src/stack/stack.h"

#include "src/lang/builtin.h"
#include "src/lang/checker.h"
#include "src/lang/parser.h"

namespace eclarity {
namespace {

void ZeroExpr(Expr& e);

void ZeroBlock(Block& block) {
  for (StmtPtr& stmt : block.statements) {
    switch (stmt->kind) {
      case StmtKind::kLet:
        ZeroExpr(*static_cast<LetStmt&>(*stmt).init);
        break;
      case StmtKind::kAssign:
        ZeroExpr(*static_cast<AssignStmt&>(*stmt).value);
        break;
      case StmtKind::kEcv:
        break;
      case StmtKind::kIf: {
        auto& s = static_cast<IfStmt&>(*stmt);
        ZeroBlock(s.then_block);
        if (s.else_block.has_value()) {
          ZeroBlock(*s.else_block);
        }
        break;
      }
      case StmtKind::kFor:
        ZeroBlock(static_cast<ForStmt&>(*stmt).body);
        break;
      case StmtKind::kReturn:
        ZeroExpr(*static_cast<ReturnStmt&>(*stmt).value);
        break;
    }
  }
}

void ZeroExpr(Expr& e) {
  switch (e.kind) {
    case ExprKind::kEnergyLit:
      static_cast<EnergyLit&>(e).joules = 0.0;
      return;
    case ExprKind::kNumberLit:
    case ExprKind::kBoolLit:
    case ExprKind::kVarRef:
      return;
    case ExprKind::kUnary:
      ZeroExpr(*static_cast<UnaryExpr&>(e).operand);
      return;
    case ExprKind::kBinary: {
      auto& b = static_cast<BinaryExpr&>(e);
      ZeroExpr(*b.lhs);
      ZeroExpr(*b.rhs);
      return;
    }
    case ExprKind::kConditional: {
      auto& c = static_cast<ConditionalExpr&>(e);
      ZeroExpr(*c.condition);
      ZeroExpr(*c.then_value);
      ZeroExpr(*c.else_value);
      return;
    }
    case ExprKind::kCall: {
      auto& call = static_cast<CallExpr&>(e);
      if (LookupBuiltin(call.callee) == Builtin::kAu) {
        // au("unit", k) contributes k abstract units; scale the count to 0
        // so the term vanishes under any calibration.
        if (call.args.size() == 2) {
          ZeroExpr(*call.args[1]);
          call.args[1] = MakeNumber(0.0);
        } else {
          call.args.push_back(MakeNumber(0.0));
        }
        return;
      }
      for (ExprPtr& arg : call.args) {
        ZeroExpr(*arg);
      }
      return;
    }
  }
}

}  // namespace

Program ZeroEnergyTerms(const Program& program) {
  Program zeroed;
  for (const ConstDecl& c : program.consts()) {
    ConstDecl copy = c.Clone();
    ZeroExpr(*copy.value);
    (void)zeroed.AddConst(std::move(copy));
  }
  for (const InterfaceDecl& i : program.interfaces()) {
    InterfaceDecl copy = i.Clone();
    ZeroBlock(copy.body);
    (void)zeroed.AddInterface(std::move(copy));
  }
  return zeroed;
}

Program StubOutInterfaces(const Program& program) {
  Program stubbed;
  for (const ConstDecl& c : program.consts()) {
    (void)stubbed.AddConst(c.Clone());
  }
  for (const InterfaceDecl& i : program.interfaces()) {
    InterfaceDecl stub;
    stub.name = i.name;
    stub.params = i.params;
    stub.doc = i.doc;
    stub.line = i.line;
    stub.body.statements.push_back(MakeReturn(MakeEnergyJoules(0.0)));
    (void)stubbed.AddInterface(std::move(stub));
  }
  return stubbed;
}

ResourceManager::ResourceManager(const ResourceManager& other)
    : name_(other.name_), policy_(other.policy_) {
  resources_.reserve(other.resources_.size());
  for (const StackResource& r : other.resources_) {
    resources_.push_back(r.Clone());
  }
  glue_.reserve(other.glue_.size());
  for (const Program& g : other.glue_) {
    glue_.push_back(g.Clone());
  }
}

ResourceManager& ResourceManager::operator=(const ResourceManager& other) {
  if (this != &other) {
    *this = ResourceManager(other);
  }
  return *this;
}

Status ResourceManager::AddResource(StackResource resource) {
  for (const StackResource& existing : resources_) {
    if (existing.name == resource.name) {
      return AlreadyExistsError("duplicate resource '" + resource.name +
                                "' in layer '" + name_ + "'");
    }
    for (const InterfaceDecl& decl : resource.interfaces.interfaces()) {
      if (existing.interfaces.Has(decl.name)) {
        return AlreadyExistsError("interface '" + decl.name +
                                  "' exported by both '" + existing.name +
                                  "' and '" + resource.name + "'");
      }
    }
  }
  resources_.push_back(std::move(resource));
  return OkStatus();
}

Status ResourceManager::AddGlue(const std::string& eil_source) {
  ECLARITY_ASSIGN_OR_RETURN(Program program, ParseProgram(eil_source));
  CheckOptions options;
  options.allow_any_unresolved = true;  // resolved at stack composition
  ECLARITY_RETURN_IF_ERROR(CheckProgramOk(program, options));
  glue_.push_back(std::move(program));
  return OkStatus();
}

Result<Program> ResourceManager::ComposeExported() const {
  Program composed;
  for (const StackResource& resource : resources_) {
    ECLARITY_RETURN_IF_ERROR(composed.Merge(resource.interfaces));
  }
  for (const Program& g : glue_) {
    ECLARITY_RETURN_IF_ERROR(composed.Merge(g));
  }
  return composed;
}

Status SystemStack::AddLayer(ResourceManager manager) {
  for (const ResourceManager& existing : layers_) {
    if (existing.name() == manager.name()) {
      return AlreadyExistsError("duplicate layer '" + manager.name() + "'");
    }
  }
  layers_.push_back(std::move(manager));
  return OkStatus();
}

const ResourceManager* SystemStack::FindLayer(const std::string& name) const {
  for (const ResourceManager& layer : layers_) {
    if (layer.name() == name) {
      return &layer;
    }
  }
  return nullptr;
}

Status SystemStack::SwapLayer(const std::string& name,
                              ResourceManager replacement) {
  for (ResourceManager& layer : layers_) {
    if (layer.name() == name) {
      layer = std::move(replacement);
      return OkStatus();
    }
  }
  return NotFoundError("no layer named '" + name + "'");
}

Result<EnergyInterface> SystemStack::Compose(const std::string& entry) const {
  if (layers_.empty()) {
    return FailedPreconditionError("stack has no layers");
  }
  Program merged;
  for (const ResourceManager& layer : layers_) {
    ECLARITY_ASSIGN_OR_RETURN(Program exported, layer.ComposeExported());
    ECLARITY_RETURN_IF_ERROR(merged.Merge(exported));
  }
  std::vector<std::string> imports = merged.UnresolvedCallees();
  if (!imports.empty()) {
    std::string joined;
    for (const std::string& name : imports) {
      if (!joined.empty()) {
        joined += ", ";
      }
      joined += name;
    }
    return FailedPreconditionError(
        "stack composition has unresolved interfaces: " + joined);
  }
  return EnergyInterface::FromProgram(std::move(merged), entry);
}

EcvProfile SystemStack::CombinedPolicy() const {
  EcvProfile combined;
  for (const ResourceManager& layer : layers_) {
    combined.MergeFrom(layer.policy());
  }
  return combined;
}

Result<std::vector<LayerContribution>> SystemStack::AttributeWith(
    const std::string& entry, const std::vector<Value>& args,
    const EnergyCalibration* calibration,
    Program (*ablate)(const Program&)) const {
  ECLARITY_ASSIGN_OR_RETURN(EnergyInterface full, Compose(entry));
  const EcvProfile policy = CombinedPolicy();
  ECLARITY_ASSIGN_OR_RETURN(Energy total,
                            full.Expected(args, policy, calibration));

  std::vector<LayerContribution> contributions;
  for (const ResourceManager& layer : layers_) {
    // Rebuild the stack with this layer ablated.
    Program merged;
    for (const ResourceManager& other : layers_) {
      ECLARITY_ASSIGN_OR_RETURN(Program exported, other.ComposeExported());
      if (other.name() == layer.name()) {
        exported = ablate(exported);
      }
      ECLARITY_RETURN_IF_ERROR(merged.Merge(exported));
    }
    ECLARITY_ASSIGN_OR_RETURN(EnergyInterface ablated,
                              EnergyInterface::FromProgram(std::move(merged),
                                                           entry));
    ECLARITY_ASSIGN_OR_RETURN(Energy without,
                              ablated.Expected(args, policy, calibration));
    LayerContribution contribution;
    contribution.layer = layer.name();
    contribution.own_energy = total - without;
    contribution.fraction =
        total.joules() > 0.0 ? contribution.own_energy.joules() / total.joules()
                             : 0.0;
    contributions.push_back(contribution);
  }
  return contributions;
}

Result<std::vector<LayerContribution>> SystemStack::AttributeByLayer(
    const std::string& entry, const std::vector<Value>& args,
    const EnergyCalibration* calibration) const {
  return AttributeWith(entry, args, calibration, &ZeroEnergyTerms);
}

Result<std::vector<LayerContribution>> SystemStack::AttributeRoutedThrough(
    const std::string& entry, const std::vector<Value>& args,
    const EnergyCalibration* calibration) const {
  return AttributeWith(entry, args, calibration, &StubOutInterfaces);
}

}  // namespace eclarity

// The bytecode VM's opcode table, defined once.
//
// Each entry is X(enumerator). The BcOp enum, the opcode count the VM
// profiler sizes its per-opcode arrays by, and the display names are all
// generated from this list.
//
// Operand conventions (see Instr in bytecode.h): `a` is the destination
// register, `b`/`c` are operand registers or an argument base/count, `imm`
// indexes a pool or site table or is an absolute jump target. kFoldChain
// and kEcvDrawBranch are superinstructions; kEcvBaked appears only in
// programs specialized against an ECV profile.

#ifndef ECLARITY_SRC_EVAL_BC_OPS_H_
#define ECLARITY_SRC_EVAL_BC_OPS_H_

#include <cstddef>
#include <cstdint>

#define ECLARITY_BC_OPS(X)                                                     \
  X(kConst)         /* regs[a] = const_pool[imm] */                            \
  X(kConstTerm)     /* regs[a] = pool[term.pool]; trace kEnergyTerm */         \
  X(kMove)          /* regs[a] = regs[b] */                                    \
  X(kUnary)         /* regs[a] = ApplyUnary(sub, regs[b], ctx_pool[imm]) */    \
  X(kBinary)        /* regs[a] = ApplyBinary(sub, regs[b], regs[c], ctx) */    \
  X(kFoldChain)     /* regs[a] = fold of c steps from fold_steps[imm] */       \
  X(kJump)          /* pc = imm */                                             \
  X(kAndShort)      /* !AsBool(regs[b]) ? regs[a]=false, pc=imm : next */      \
  X(kOrShort)       /* AsBool(regs[b]) ? regs[a]=true, pc=imm : next */        \
  X(kBoolCast)      /* regs[a] = Bool(AsBool(regs[b])) */                      \
  X(kCondJump)      /* conditional expr: !AsBool(regs[b]) -> pc = imm */       \
  X(kBranch)        /* if stmt: wrapped AsBool, trace, !taken -> else */       \
  X(kStep)          /* ++steps > max_steps -> status_pool[imm] */              \
  X(kFail)          /* return status_pool[imm] */                              \
  X(kBuiltin)       /* regs[a] = builtin(regs[b..b+c)); builtin_sites[imm] */  \
  X(kCall)          /* regs[a] = call ifaces[imm](regs[b..b+c)) */             \
  X(kReturn)        /* return regs[a] from the current frame */                \
  X(kForPrep)       /* regs[a]=bits(llround(begin)), regs[b]=bits(end) */      \
  X(kForNext)       /* i>=hi -> pc=end; else budget, regs[c]=Number(i) */      \
  X(kForIncJump)    /* ++i (bit-stored in regs[a]); pc = imm */                \
  X(kEcvBegin)      /* profile override check; hit -> pc = draw target */      \
  X(kEcvStatic)     /* cur support = lowered static support */                 \
  X(kEcvBaked)      /* cur support = baked_supports[site.baked] */             \
  X(kEcvCatOpen)    /* open a categorical accumulation level */                \
  X(kEcvCatPush)    /* push (regs[b], AsNumber(regs[c])) onto the level */     \
  X(kEcvDynBern)    /* cur support = Bernoulli(AsNumber(regs[b])) */           \
  X(kEcvDynUniform) /* cur support = uniform_int(regs[b], regs[c]) */          \
  X(kEcvDynCat)     /* cur support = Make(open level) */                       \
  X(kEcvDraw)       /* choose + trace + store slot (ecv_sites[imm]) */         \
  X(kEcvDrawBranch) /* kEcvDraw fused with a guarding if (superop) */

namespace eclarity {

enum class BcOp : uint8_t {
#define ECLARITY_BC_OP_ENUM(op) op,
  ECLARITY_BC_OPS(ECLARITY_BC_OP_ENUM)
#undef ECLARITY_BC_OP_ENUM
};

// Number of opcodes.
inline constexpr size_t kVmOpCount =
#define ECLARITY_BC_OP_COUNT(op) +1
    0 ECLARITY_BC_OPS(ECLARITY_BC_OP_COUNT);
#undef ECLARITY_BC_OP_COUNT

// Display name for a BcOp raw value ("kFoldChain", ...); "op?" when out of
// range.
const char* VmOpName(uint8_t op);

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_BC_OPS_H_

// The EIL builtin function table, defined once.
//
// Each entry is X(enumerator, "name", min_args, max_args); the argument
// counts are what the checker accepts, and arguments are numbers unless the
// entry's comment says otherwise. `au`'s count includes the
// placeholder argument the parser inserts for its unit-name string literal,
// and the checker additionally requires exactly one such literal. The
// Builtin enum, LookupBuiltin and BuiltinName are generated from this list;
// the evaluators switch over Builtin with no default, so -Wswitch flags a
// builtin that one of them does not handle.

#ifndef ECLARITY_SRC_LANG_BUILTIN_H_
#define ECLARITY_SRC_LANG_BUILTIN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#define ECLARITY_BUILTINS(X)                                                \
  X(kMin,   "min",   2, 2)  /* numbers or concrete energies */              \
  X(kMax,   "max",   2, 2)  /* numbers or concrete energies */              \
  X(kAbs,   "abs",   1, 1)  /* number or concrete energy */                 \
  X(kFloor, "floor", 1, 1)                                                  \
  X(kCeil,  "ceil",  1, 1)                                                  \
  X(kRound, "round", 1, 1)                                                  \
  X(kPow,   "pow",   2, 2)                                                  \
  X(kLog,   "log",   1, 1)                                                  \
  X(kLog2,  "log2",  1, 1)                                                  \
  X(kExp,   "exp",   1, 1)                                                  \
  X(kSqrt,  "sqrt",  1, 1)                                                  \
  X(kClamp, "clamp", 3, 3)  /* clamp(x, lo, hi) */                          \
  X(kAu,    "au",    1, 2)  /* au("unit") or au("unit", k): abstract units */

namespace eclarity {

enum class Builtin : uint8_t {
#define ECLARITY_BUILTIN_ENUM(id, name, min_args, max_args) id,
  ECLARITY_BUILTINS(ECLARITY_BUILTIN_ENUM)
#undef ECLARITY_BUILTIN_ENUM
};

struct BuiltinArity {
  size_t min_args = 0;
  size_t max_args = 0;
};

// The builtin called `name`, or nullopt when `name` is not a builtin.
std::optional<Builtin> LookupBuiltin(std::string_view name);

// The source-level name ("min", "au", ...).
const char* BuiltinName(Builtin builtin);

// Argument counts the checker accepts.
BuiltinArity GetBuiltinArity(Builtin builtin);

}  // namespace eclarity

#endif  // ECLARITY_SRC_LANG_BUILTIN_H_

#include "src/lang/builtin.h"

#include <iterator>

namespace eclarity {
namespace {

struct BuiltinEntry {
  const char* name;
  BuiltinArity arity;
};

constexpr BuiltinEntry kBuiltins[] = {
#define ECLARITY_BUILTIN_ENTRY(id, name, min_args, max_args) \
  {name, {min_args, max_args}},
    ECLARITY_BUILTINS(ECLARITY_BUILTIN_ENTRY)
#undef ECLARITY_BUILTIN_ENTRY
};

}  // namespace

std::optional<Builtin> LookupBuiltin(std::string_view name) {
  for (size_t i = 0; i < std::size(kBuiltins); ++i) {
    if (name == kBuiltins[i].name) {
      return static_cast<Builtin>(i);
    }
  }
  return std::nullopt;
}

const char* BuiltinName(Builtin builtin) {
  return kBuiltins[static_cast<size_t>(builtin)].name;
}

BuiltinArity GetBuiltinArity(Builtin builtin) {
  return kBuiltins[static_cast<size_t>(builtin)].arity;
}

}  // namespace eclarity

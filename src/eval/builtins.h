// Evaluation of the builtin functions declared in src/lang/builtin.h.

#ifndef ECLARITY_SRC_EVAL_BUILTINS_H_
#define ECLARITY_SRC_EVAL_BUILTINS_H_

#include <string>
#include <vector>

#include "src/lang/builtin.h"
#include "src/lang/value.h"
#include "src/util/status.h"

namespace eclarity {

// Applies `builtin` to already-evaluated arguments. `string_args` carries
// string literals (only `au` uses them). `context` prefixes errors.
Result<Value> ApplyBuiltin(Builtin builtin,
                           const std::vector<Value>& args,
                           const std::vector<std::string>& string_args,
                           const std::string& context);

}  // namespace eclarity

#endif  // ECLARITY_SRC_EVAL_BUILTINS_H_

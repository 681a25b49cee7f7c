// Data Conditioning plug-in adapter: CoD-mini programs over stream pieces.
//
// This is the glue that makes CoD-mini codelets act as the paper's DC
// plug-ins (Section II.F): make_plugin_compiler() yields the compiler the
// FlexIO runtime invokes when a plug-in source string arrives from the
// peer side. The compiled plug-in sees, for each data piece:
//   globals   n (elements), rows, cols, step-invariant shape info
//   array     input[i]            -- the piece's payload as doubles (a view
//                                    of the piece's own bytes, borrowed or
//                                    owned, when they are aligned doubles)
//   builtins  emit(v)             -- append one value to the output
//             keep_row(r)         -- append input row r (all cols values)
//   math      sqrt fabs pow floor min max exp log sin cos (VM opcodes)
// and must define `void transform()`. If transform() never emits anything
// and never references emit/keep_row, the piece passes through unchanged
// (annotation-only plug-ins). Local-array pieces may shrink or grow by
// whole rows (selection, sampling); global-array pieces must preserve
// their element count (e.g. unit conversion).
#pragma once

#include <string>

#include "cod/program.h"
#include "core/runtime.h"

namespace flexio::cod {

/// Compile `source` into a reusable DC plug-in. The program is compiled
/// once; each piece execution binds a fresh environment.
StatusOr<PluginFn> compile_plugin(const std::string& source,
                                  const VmLimits& limits = {});

/// A PluginCompiler for Runtime::set_plugin_compiler().
PluginCompiler make_plugin_compiler(const VmLimits& limits = {});

}  // namespace flexio::cod

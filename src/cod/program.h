// Bytecode program, execution environment, and VM for CoD-mini.
//
// Plug-in source is compiled once (where it lands, after travelling as a
// string) into register (three-address) bytecode; executions then bind a
// fresh Environment holding the data being conditioned (globals like
// n/rows/cols, read-only arrays like input, and host builtins like
// emit/keep_row). The VM enforces an instruction budget, a per-frame slot
// bound, a call-depth bound, array bounds and arithmetic-domain checks --
// mobile code from the analytics side must not be able to wedge or crash
// the simulation.
//
// Register form: every call frame owns a window of doubles laid out as
// [slots | constants | globals]. Slots hold the function's locals and
// expression temporaries; the constant and global sections are filled when
// the frame is entered. An instruction operand is an index into that
// window, so one operand names a slot, a constant or a global alike.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "cod/ast.h"
#include "util/status.h"

namespace flexio::cod {

// Operand fields (a, b, c) index the current frame's window unless noted.
enum class Op : std::uint8_t {
  kMov,          // a = b
  kAdd, kSub, kMul, kDiv, kMod,  // a = b op c (kDiv/kMod trap on c == 0)
  kNeg,          // a = -b
  kNot,          // a = (b == 0)
  kBool,         // a = (b != 0)
  kEq, kNe, kLt, kLe, kGt, kGe,  // a = (b cmp c)
  kSqrt, kFabs, kFloor, kExp, kLog, kSin, kCos,  // a = f(b)
  kPow, kMin, kMax,                              // a = f(b, c)
  kIndex,        // a = env.array(b)[c]  (b is an array index, not an operand)
  kJmp,          // pc = c
  kJz,           // if (a == 0) pc = c
  kJnz,          // if (a != 0) pc = c
  kJzEq, kJzNe, kJzLt, kJzLe, kJzGt, kJzGe,  // if (!(a cmp b)) pc = c
  kCall,         // a = functions[b](slots c .. c+n-1)
  kBuiltin,      // a = env builtin b(window c .. c+n-1)
  kRet,          // return a
  kRetVoid,      // return 0.0
};

struct Instr {
  Op op = Op::kRetVoid;
  std::uint16_t n = 0;  // argument count (kCall, kBuiltin)
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
};

/// Host-side function callable from plug-in code.
using Builtin = std::function<StatusOr<double>(std::span<const double> args)>;

/// Names+values visible to a plug-in. The same construction order must be
/// used at compile time and at every execution (indices are baked into the
/// bytecode); run() cross-checks names to catch mismatches.
class Environment {
 public:
  /// Read-only scalar (e.g. n, rows, cols).
  void add_global(const std::string& name, double value);
  /// Read-only indexable array (e.g. input).
  void add_array(const std::string& name, std::span<const double> values);
  /// Host function; arity -1 accepts any argument count.
  void add_builtin(const std::string& name, int arity, Builtin fn);

  int global_index(std::string_view name) const;
  int array_index(std::string_view name) const;
  int builtin_index(std::string_view name) const;

  double global(int idx) const { return globals_[static_cast<std::size_t>(idx)].second; }
  std::span<const double> array(int idx) const {
    return arrays_[static_cast<std::size_t>(idx)].second;
  }
  const std::string& global_name(int idx) const {
    return globals_[static_cast<std::size_t>(idx)].first;
  }
  const std::string& array_name(int idx) const {
    return arrays_[static_cast<std::size_t>(idx)].first;
  }
  const std::string& builtin_name(int idx) const {
    return std::get<0>(builtins_[static_cast<std::size_t>(idx)]);
  }
  int builtin_arity(int idx) const {
    return std::get<1>(builtins_[static_cast<std::size_t>(idx)]);
  }
  StatusOr<double> call_builtin(int idx, std::span<const double> args) const {
    return std::get<2>(builtins_[static_cast<std::size_t>(idx)])(args);
  }

 private:
  std::vector<std::pair<std::string, double>> globals_;
  std::vector<std::pair<std::string, std::span<const double>>> arrays_;
  std::vector<std::tuple<std::string, int, Builtin>> builtins_;
};

struct CompiledFunction {
  std::string name;
  int num_params = 0;           // the first num_params slots
  int num_slots = 0;            // locals (params included) + temporaries
  std::vector<double> consts;   // window[num_slots + k]
  std::vector<Instr> code;
};

struct CompiledProgram {
  std::vector<CompiledFunction> functions;
  // Names referenced from the environment, for run-time cross-checking.
  // global_names.size() is also the size of each frame's global section
  // (window[num_slots + consts.size() + g] holds env.global(g)).
  std::vector<std::string> global_names;
  std::vector<std::string> array_names;
  std::vector<std::string> builtin_names;

  int function_index(std::string_view name) const;
};

/// Compile a parsed program against the *shape* of an environment (its
/// names and arities; values are ignored at compile time).
StatusOr<CompiledProgram> compile(const ProgramAst& ast,
                                  const Environment& env);

/// Execution limits for mobile code.
struct VmLimits {
  std::uint64_t max_instructions = 100'000'000;
  std::size_t max_stack = 4096;  // slots (locals + temporaries) per frame
  std::size_t max_call_depth = 128;
};

/// Run `function` with `args`, binding `env` for globals/arrays/builtins.
/// Returns the function's value (0.0 for void functions). The program is
/// only read, so one CompiledProgram may run on many threads at once.
StatusOr<double> run(const CompiledProgram& program, std::string_view function,
                     std::span<const double> args, const Environment& env,
                     const VmLimits& limits = {});

/// Human-readable bytecode listing (debugging aid for plug-in authors).
std::string disassemble(const CompiledProgram& program);

}  // namespace flexio::cod

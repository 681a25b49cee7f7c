#include <algorithm>
#include <cmath>

#include "cod/program.h"
#include "util/strings.h"

namespace flexio::cod {

namespace {

struct Frame {
  const CompiledFunction* fn = nullptr;
  const Instr* pc = nullptr;  // resume point (saved while a callee runs)
  std::size_t base = 0;       // window start in the register file
  std::int32_t ret_dst = 0;   // caller slot receiving this frame's result
};

Status vm_error(const std::string& what) {
  return make_error(ErrorCode::kInvalidArgument, "cod vm: " + what);
}

}  // namespace

StatusOr<double> run(const CompiledProgram& program, std::string_view function,
                     std::span<const double> args, const Environment& env,
                     const VmLimits& limits) {
  const int entry = program.function_index(function);
  if (entry < 0) {
    return vm_error("no function named " + std::string(function));
  }
  // Cross-check that the bound environment matches the compile-time shape.
  for (std::size_t i = 0; i < program.global_names.size(); ++i) {
    if (program.global_names[i].empty()) continue;
    if (env.global_index(program.global_names[i]) != static_cast<int>(i)) {
      return vm_error("environment mismatch: global " + program.global_names[i]);
    }
  }
  for (std::size_t i = 0; i < program.array_names.size(); ++i) {
    if (program.array_names[i].empty()) continue;
    if (env.array_index(program.array_names[i]) != static_cast<int>(i)) {
      return vm_error("environment mismatch: array " + program.array_names[i]);
    }
  }
  for (std::size_t i = 0; i < program.builtin_names.size(); ++i) {
    if (program.builtin_names[i].empty()) continue;
    if (env.builtin_index(program.builtin_names[i]) != static_cast<int>(i)) {
      return vm_error("environment mismatch: builtin " +
                      program.builtin_names[i]);
    }
  }

  const CompiledFunction& entry_fn =
      program.functions[static_cast<std::size_t>(entry)];
  if (args.size() != static_cast<std::size_t>(entry_fn.num_params)) {
    return vm_error(str_format("%s expects %d args, got %zu",
                               entry_fn.name.c_str(), entry_fn.num_params,
                               args.size()));
  }

  // Every global the program references, in environment order: the tail of
  // each frame's window.
  std::vector<double> globals(program.global_names.size());
  for (std::size_t g = 0; g < globals.size(); ++g) {
    globals[g] = env.global(static_cast<int>(g));
  }

  // One register file for the whole call chain; frame windows are stacked
  // in it. Growing it may move it, so R is re-derived after calls/returns.
  std::vector<double> regs;
  std::vector<Frame> frames;
  // Opens fn's window at the top of the register file: zeroed slots, then
  // its constants and the globals. Returns the window's start.
  auto enter = [&](const CompiledFunction& fn,
                   std::int32_t ret_dst) -> StatusOr<std::size_t> {
    if (static_cast<std::size_t>(fn.num_slots) > limits.max_stack) {
      return vm_error("value stack overflow");
    }
    const std::size_t base = regs.size();
    const std::size_t slots = static_cast<std::size_t>(fn.num_slots);
    regs.resize(base + slots + fn.consts.size() + globals.size(), 0.0);
    double* w = regs.data() + base;
    std::copy(fn.consts.begin(), fn.consts.end(), w + slots);
    std::copy(globals.begin(), globals.end(), w + slots + fn.consts.size());
    frames.push_back(Frame{&fn, fn.code.data(), base, ret_dst});
    return base;
  };
  {
    auto base = enter(entry_fn, 0);
    if (!base.is_ok()) return base.status();
    std::copy(args.begin(), args.end(), regs.begin());
  }

  std::uint64_t executed = 0;
  const Instr* code = entry_fn.code.data();  // the running function's
  const Instr* pc = code;
  double* R = regs.data();

  for (;;) {
    if (++executed > limits.max_instructions) {
      return vm_error("instruction budget exhausted (runaway plug-in?)");
    }
    const Instr& in = *pc++;
    switch (in.op) {
      case Op::kMov: R[in.a] = R[in.b]; break;
      case Op::kAdd: R[in.a] = R[in.b] + R[in.c]; break;
      case Op::kSub: R[in.a] = R[in.b] - R[in.c]; break;
      case Op::kMul: R[in.a] = R[in.b] * R[in.c]; break;
      case Op::kDiv:
        if (R[in.c] == 0.0) return vm_error("division by zero");
        R[in.a] = R[in.b] / R[in.c];
        break;
      case Op::kMod:
        if (R[in.c] == 0.0) return vm_error("modulo by zero");
        R[in.a] = std::fmod(R[in.b], R[in.c]);
        break;
      case Op::kNeg: R[in.a] = -R[in.b]; break;
      case Op::kNot: R[in.a] = R[in.b] == 0.0 ? 1.0 : 0.0; break;
      case Op::kBool: R[in.a] = R[in.b] != 0.0 ? 1.0 : 0.0; break;
      case Op::kEq: R[in.a] = R[in.b] == R[in.c] ? 1.0 : 0.0; break;
      case Op::kNe: R[in.a] = R[in.b] != R[in.c] ? 1.0 : 0.0; break;
      case Op::kLt: R[in.a] = R[in.b] < R[in.c] ? 1.0 : 0.0; break;
      case Op::kLe: R[in.a] = R[in.b] <= R[in.c] ? 1.0 : 0.0; break;
      case Op::kGt: R[in.a] = R[in.b] > R[in.c] ? 1.0 : 0.0; break;
      case Op::kGe: R[in.a] = R[in.b] >= R[in.c] ? 1.0 : 0.0; break;
      case Op::kSqrt: R[in.a] = std::sqrt(R[in.b]); break;
      case Op::kFabs: R[in.a] = std::fabs(R[in.b]); break;
      case Op::kFloor: R[in.a] = std::floor(R[in.b]); break;
      case Op::kExp: R[in.a] = std::exp(R[in.b]); break;
      case Op::kLog:
        if (R[in.b] <= 0) {
          return make_error(ErrorCode::kInvalidArgument, "log of non-positive");
        }
        R[in.a] = std::log(R[in.b]);
        break;
      case Op::kSin: R[in.a] = std::sin(R[in.b]); break;
      case Op::kCos: R[in.a] = std::cos(R[in.b]); break;
      case Op::kPow: R[in.a] = std::pow(R[in.b], R[in.c]); break;
      case Op::kMin: R[in.a] = std::min(R[in.b], R[in.c]); break;
      case Op::kMax: R[in.a] = std::max(R[in.b], R[in.c]); break;
      case Op::kIndex: {
        const std::span<const double> arr = env.array(in.b);
        const double idx = R[in.c];
        // Range-check the double before converting: the index truncates
        // toward zero, so (-1, size) of a non-empty array is exactly the
        // valid range, and NaN or a huge value never reaches the
        // (otherwise undefined) cast.
        if (!(idx > -1.0 && idx < static_cast<double>(arr.size())) ||
            arr.empty()) {
          return vm_error(str_format("index %g out of bounds for %s[%zu]", idx,
                                     env.array_name(in.b).c_str(),
                                     arr.size()));
        }
        R[in.a] = arr[static_cast<std::size_t>(idx)];
        break;
      }
      case Op::kJmp: pc = code + in.c; break;
      case Op::kJz:
        if (R[in.a] == 0.0) pc = code + in.c;
        break;
      case Op::kJnz:
        if (R[in.a] != 0.0) pc = code + in.c;
        break;
      case Op::kJzEq:
        if (!(R[in.a] == R[in.b])) pc = code + in.c;
        break;
      case Op::kJzNe:
        if (!(R[in.a] != R[in.b])) pc = code + in.c;
        break;
      case Op::kJzLt:
        if (!(R[in.a] < R[in.b])) pc = code + in.c;
        break;
      case Op::kJzLe:
        if (!(R[in.a] <= R[in.b])) pc = code + in.c;
        break;
      case Op::kJzGt:
        if (!(R[in.a] > R[in.b])) pc = code + in.c;
        break;
      case Op::kJzGe:
        if (!(R[in.a] >= R[in.b])) pc = code + in.c;
        break;
      case Op::kCall: {
        if (frames.size() >= limits.max_call_depth) {
          return vm_error("call depth exceeded");
        }
        frames.back().pc = pc;
        const std::size_t argv = frames.back().base +
                                 static_cast<std::size_t>(in.c);
        const CompiledFunction& callee =
            program.functions[static_cast<std::size_t>(in.b)];
        auto base = enter(callee, in.a);
        if (!base.is_ok()) return base.status();
        // Arguments move after the resize: the register file may have moved.
        std::copy_n(regs.begin() + static_cast<std::ptrdiff_t>(argv), in.n,
                    regs.begin() + static_cast<std::ptrdiff_t>(base.value()));
        code = pc = callee.code.data();
        R = regs.data() + base.value();
        break;
      }
      case Op::kBuiltin: {
        auto result = env.call_builtin(
            in.b, std::span<const double>(R + in.c, in.n));
        if (!result.is_ok()) return result.status();
        R[in.a] = result.value();
        break;
      }
      case Op::kRet:
      case Op::kRetVoid: {
        const double value = in.op == Op::kRet ? R[in.a] : 0.0;
        const Frame done = frames.back();
        frames.pop_back();
        if (frames.empty()) return value;
        regs.resize(done.base);
        code = frames.back().fn->code.data();
        pc = frames.back().pc;
        R = regs.data() + frames.back().base;
        R[done.ret_dst] = value;
        break;
      }
    }
  }
}

}  // namespace flexio::cod

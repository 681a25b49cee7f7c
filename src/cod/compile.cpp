#include <cstring>
#include <map>

#include "cod/program.h"
#include "util/strings.h"

namespace flexio::cod {

void Environment::add_global(const std::string& name, double value) {
  globals_.emplace_back(name, value);
}

void Environment::add_array(const std::string& name,
                            std::span<const double> values) {
  arrays_.emplace_back(name, values);
}

void Environment::add_builtin(const std::string& name, int arity, Builtin fn) {
  builtins_.emplace_back(name, arity, std::move(fn));
}

int Environment::global_index(std::string_view name) const {
  for (std::size_t i = 0; i < globals_.size(); ++i) {
    if (globals_[i].first == name) return static_cast<int>(i);
  }
  return -1;
}

int Environment::array_index(std::string_view name) const {
  for (std::size_t i = 0; i < arrays_.size(); ++i) {
    if (arrays_[i].first == name) return static_cast<int>(i);
  }
  return -1;
}

int Environment::builtin_index(std::string_view name) const {
  for (std::size_t i = 0; i < builtins_.size(); ++i) {
    if (std::get<0>(builtins_[i]) == name) return static_cast<int>(i);
  }
  return -1;
}

int CompiledProgram::function_index(std::string_view name) const {
  for (std::size_t i = 0; i < functions.size(); ++i) {
    if (functions[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

// Which of an instruction's a/b/c fields are window operands.
constexpr int kA = 1, kB = 2, kC = 4;

int operand_mask(Op op) {
  switch (op) {
    case Op::kMov:
    case Op::kNeg: case Op::kNot: case Op::kBool:
    case Op::kSqrt: case Op::kFabs: case Op::kFloor: case Op::kExp:
    case Op::kLog: case Op::kSin: case Op::kCos:
    case Op::kJzEq: case Op::kJzNe: case Op::kJzLt: case Op::kJzLe:
    case Op::kJzGt: case Op::kJzGe:
      return kA | kB;
    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv: case Op::kMod:
    case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe: case Op::kGt:
    case Op::kGe: case Op::kPow: case Op::kMin: case Op::kMax:
      return kA | kB | kC;
    case Op::kIndex:
    case Op::kBuiltin:
      return kA | kC;
    case Op::kJz: case Op::kJnz: case Op::kCall: case Op::kRet:
      return kA;
    case Op::kJmp: case Op::kRetVoid:
      return 0;
  }
  return 0;
}

// Pure math builtins compiled to opcodes (an environment builtin of the
// same name takes precedence).
struct Intrinsic {
  const char* name;
  int arity;
  Op op;
};
constexpr Intrinsic kIntrinsics[] = {
    {"sqrt", 1, Op::kSqrt}, {"fabs", 1, Op::kFabs}, {"floor", 1, Op::kFloor},
    {"exp", 1, Op::kExp},   {"log", 1, Op::kLog},   {"sin", 1, Op::kSin},
    {"cos", 1, Op::kCos},   {"pow", 2, Op::kPow},   {"min", 2, Op::kMin},
    {"max", 2, Op::kMax},
};

const Intrinsic* find_intrinsic(std::string_view name) {
  for (const Intrinsic& in : kIntrinsics) {
    if (name == in.name) return &in;
  }
  return nullptr;
}

bool comparison_op(Tok tok, Op* value, Op* jump_if_false) {
  switch (tok) {
    case Tok::kEq: *value = Op::kEq; *jump_if_false = Op::kJzEq; return true;
    case Tok::kNe: *value = Op::kNe; *jump_if_false = Op::kJzNe; return true;
    case Tok::kLt: *value = Op::kLt; *jump_if_false = Op::kJzLt; return true;
    case Tok::kLe: *value = Op::kLe; *jump_if_false = Op::kJzLe; return true;
    case Tok::kGt: *value = Op::kGt; *jump_if_false = Op::kJzGt; return true;
    case Tok::kGe: *value = Op::kGe; *jump_if_false = Op::kJzGe; return true;
    default: return false;
  }
}

// While a function compiles, constant and global operands carry a tag;
// resolve_operands() turns them into window indices once the function's
// slot count and the program's global count are known.
constexpr std::int32_t kConstTag = 1 << 29;
constexpr std::int32_t kGlobalTag = 1 << 30;
constexpr std::int32_t kIndexMask = kConstTag - 1;

/// Compiles one function's AST into register bytecode with scoped locals.
/// Locals and temporaries share the slot space: a declaration takes the
/// next free slot for its scope's lifetime, and an expression's
/// temporaries sit above every live local and are released (LIFO) as soon
/// as the instruction consuming them has been emitted.
class FunctionCompiler {
 public:
  FunctionCompiler(const ProgramAst& ast, const Environment& env)
      : ast_(ast), env_(env) {}

  StatusOr<CompiledFunction> compile_fn(const FunctionAst& fn) {
    out_ = CompiledFunction{};
    out_.name = fn.name;
    out_.num_params = static_cast<int>(fn.params.size());
    const_index_.clear();
    scopes_.clear();
    next_slot_ = 0;
    max_slot_ = 0;
    push_scope();
    for (const std::string& p : fn.params) {
      if (declare(p) < 0) return error(fn.line, "duplicate parameter: " + p);
    }
    FLEXIO_RETURN_IF_ERROR(compile_block(fn.body));
    pop_scope();
    emit(Op::kRetVoid);  // implicit return at end
    out_.num_slots = max_slot_;
    return std::move(out_);
  }

 private:
  Status error(int line, const std::string& what) const {
    return make_error(ErrorCode::kInvalidArgument,
                      str_format("cod line %d: %s", line, what.c_str()));
  }

  void push_scope() { scopes_.emplace_back(); }
  void pop_scope() {
    next_slot_ -= static_cast<int>(scopes_.back().size());
    scopes_.pop_back();
  }
  int declare(const std::string& name) {
    auto& scope = scopes_.back();
    if (scope.count(name)) return -1;
    const int slot = temp();
    scope[name] = slot;
    return slot;
  }
  int lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      const auto found = it->find(name);
      if (found != it->end()) return found->second;
    }
    return -1;
  }
  int temp() {
    const int slot = next_slot_++;
    max_slot_ = std::max(max_slot_, next_slot_);
    return slot;
  }
  std::int32_t constant(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    const auto next = static_cast<std::int32_t>(out_.consts.size());
    const auto [it, added] = const_index_.emplace(bits, next);
    if (added) out_.consts.push_back(value);
    return kConstTag | it->second;
  }

  int emit(Op op, std::int32_t a = 0, std::int32_t b = 0, std::int32_t c = 0,
           std::uint16_t n = 0) {
    out_.code.push_back(Instr{op, n, a, b, c});
    return static_cast<int>(out_.code.size() - 1);
  }
  // Every jump keeps its target in c.
  void patch(int at, int target) {
    out_.code[static_cast<std::size_t>(at)].c = target;
  }
  void patch_all(const std::vector<int>& jumps, int target) {
    for (const int at : jumps) patch(at, target);
  }
  int here() const { return static_cast<int>(out_.code.size()); }

  /// Evaluate into slot `dst`, copying only when the value landed elsewhere.
  Status compile_into(const Expr& expr, int dst) {
    auto v = compile_expr(expr, dst);
    if (!v.is_ok()) return v.status();
    if (v.value() != dst) emit(Op::kMov, dst, v.value());
    return Status::ok();
  }

  Status compile_block(const std::vector<StmtPtr>& body) {
    for (const StmtPtr& stmt : body) {
      FLEXIO_RETURN_IF_ERROR(compile_stmt(*stmt));
    }
    return Status::ok();
  }

  Status compile_stmt(const Stmt& stmt) {
    const int mark = next_slot_;
    switch (stmt.kind) {
      case Stmt::Kind::kDecl: {
        const int slot = declare(stmt.name);
        if (slot < 0) {
          return error(stmt.line, "redeclaration of " + stmt.name);
        }
        if (stmt.a) {
          FLEXIO_RETURN_IF_ERROR(compile_into(*stmt.a, slot));
        } else {
          emit(Op::kMov, slot, constant(0.0));
        }
        next_slot_ = slot + 1;
        return Status::ok();
      }
      case Stmt::Kind::kAssign: {
        const int slot = lookup(stmt.name);
        if (slot < 0) {
          return error(stmt.line, "assignment to undeclared " + stmt.name);
        }
        FLEXIO_RETURN_IF_ERROR(compile_into(*stmt.a, slot));
        next_slot_ = mark;
        return Status::ok();
      }
      case Stmt::Kind::kIf: {
        std::vector<int> to_else;
        FLEXIO_RETURN_IF_ERROR(jump_if_false(*stmt.a, &to_else));
        push_scope();
        FLEXIO_RETURN_IF_ERROR(compile_block(stmt.body));
        pop_scope();
        if (stmt.else_body.empty()) {
          patch_all(to_else, here());
        } else {
          const int jend = emit(Op::kJmp);
          patch_all(to_else, here());
          push_scope();
          FLEXIO_RETURN_IF_ERROR(compile_block(stmt.else_body));
          pop_scope();
          patch(jend, here());
        }
        return Status::ok();
      }
      case Stmt::Kind::kWhile: {
        const int top = here();
        std::vector<int> to_end;
        FLEXIO_RETURN_IF_ERROR(jump_if_false(*stmt.a, &to_end));
        push_scope();
        FLEXIO_RETURN_IF_ERROR(compile_block(stmt.body));
        pop_scope();
        emit(Op::kJmp, 0, 0, top);
        patch_all(to_end, here());
        return Status::ok();
      }
      case Stmt::Kind::kFor: {
        push_scope();
        if (stmt.init) FLEXIO_RETURN_IF_ERROR(compile_stmt(*stmt.init));
        const int top = here();
        std::vector<int> to_end;
        if (stmt.a) FLEXIO_RETURN_IF_ERROR(jump_if_false(*stmt.a, &to_end));
        push_scope();
        FLEXIO_RETURN_IF_ERROR(compile_block(stmt.body));
        pop_scope();
        if (stmt.step) FLEXIO_RETURN_IF_ERROR(compile_stmt(*stmt.step));
        emit(Op::kJmp, 0, 0, top);
        patch_all(to_end, here());
        pop_scope();
        return Status::ok();
      }
      case Stmt::Kind::kReturn:
        if (stmt.a) {
          auto v = compile_expr(*stmt.a);
          if (!v.is_ok()) return v.status();
          emit(Op::kRet, v.value());
        } else {
          emit(Op::kRetVoid);
        }
        next_slot_ = mark;
        return Status::ok();
      case Stmt::Kind::kExpr: {
        auto v = compile_expr(*stmt.a);
        if (!v.is_ok()) return v.status();
        next_slot_ = mark;
        return Status::ok();
      }
      case Stmt::Kind::kBlock:
        push_scope();
        FLEXIO_RETURN_IF_ERROR(compile_block(stmt.body));
        pop_scope();
        return Status::ok();
    }
    return error(stmt.line, "bad statement kind");
  }

  /// Emit jumps (appended to `jumps`, targets patched by the caller) that
  /// are taken exactly when `cond` is false. A comparison fuses with the
  /// branch; && and || short-circuit without materializing 0/1.
  Status jump_if_false(const Expr& cond, std::vector<int>* jumps) {
    const int mark = next_slot_;
    Op value_op, branch_op;
    if (cond.kind == Expr::Kind::kBinary &&
        comparison_op(cond.op, &value_op, &branch_op)) {
      auto l = compile_expr(*cond.args[0]);
      if (!l.is_ok()) return l.status();
      auto r = compile_expr(*cond.args[1]);
      if (!r.is_ok()) return r.status();
      jumps->push_back(emit(branch_op, l.value(), r.value()));
    } else if (cond.kind == Expr::Kind::kUnary && cond.op == Tok::kBang) {
      FLEXIO_RETURN_IF_ERROR(jump_if_true(*cond.args[0], jumps));
    } else if (cond.kind == Expr::Kind::kBinary && cond.op == Tok::kAndAnd) {
      FLEXIO_RETURN_IF_ERROR(jump_if_false(*cond.args[0], jumps));
      FLEXIO_RETURN_IF_ERROR(jump_if_false(*cond.args[1], jumps));
    } else if (cond.kind == Expr::Kind::kBinary && cond.op == Tok::kOrOr) {
      std::vector<int> to_true;
      FLEXIO_RETURN_IF_ERROR(jump_if_true(*cond.args[0], &to_true));
      FLEXIO_RETURN_IF_ERROR(jump_if_false(*cond.args[1], jumps));
      patch_all(to_true, here());
    } else {
      auto v = compile_expr(cond);
      if (!v.is_ok()) return v.status();
      jumps->push_back(emit(Op::kJz, v.value()));
    }
    next_slot_ = mark;
    return Status::ok();
  }

  /// Mirror of jump_if_false: jumps taken exactly when `cond` is true.
  Status jump_if_true(const Expr& cond, std::vector<int>* jumps) {
    const int mark = next_slot_;
    if (cond.kind == Expr::Kind::kUnary && cond.op == Tok::kBang) {
      FLEXIO_RETURN_IF_ERROR(jump_if_false(*cond.args[0], jumps));
    } else if (cond.kind == Expr::Kind::kBinary && cond.op == Tok::kOrOr) {
      FLEXIO_RETURN_IF_ERROR(jump_if_true(*cond.args[0], jumps));
      FLEXIO_RETURN_IF_ERROR(jump_if_true(*cond.args[1], jumps));
    } else if (cond.kind == Expr::Kind::kBinary && cond.op == Tok::kAndAnd) {
      std::vector<int> to_false;
      FLEXIO_RETURN_IF_ERROR(jump_if_false(*cond.args[0], &to_false));
      FLEXIO_RETURN_IF_ERROR(jump_if_true(*cond.args[1], jumps));
      patch_all(to_false, here());
    } else {
      auto v = compile_expr(cond);
      if (!v.is_ok()) return v.status();
      jumps->push_back(emit(Op::kJnz, v.value()));
    }
    next_slot_ = mark;
    return Status::ok();
  }

  /// Compile `expr` and return the operand holding its value. A value
  /// computed by one instruction is written to `dst` when the caller offers
  /// a slot (>= 0), else to a fresh temporary the caller releases by
  /// resetting next_slot_. Variables and literals emit nothing.
  StatusOr<std::int32_t> compile_expr(const Expr& expr, int dst = -1) {
    const int mark = next_slot_;
    // The destination is claimed only after the operands are evaluated, so
    // it may reuse an operand's temporary (operands are read before the
    // destination is written).
    auto target = [&]() -> std::int32_t {
      next_slot_ = mark;
      return dst >= 0 ? dst : temp();
    };
    switch (expr.kind) {
      case Expr::Kind::kNumber:
        return constant(expr.number);
      case Expr::Kind::kVar: {
        const int slot = lookup(expr.name);
        if (slot >= 0) return slot;
        const int global = env_.global_index(expr.name);
        if (global >= 0) return kGlobalTag | global;
        return error(expr.line, "unknown variable: " + expr.name);
      }
      case Expr::Kind::kUnary: {
        auto v = compile_expr(*expr.args[0]);
        if (!v.is_ok()) return v.status();
        const std::int32_t d = target();
        emit(expr.op == Tok::kMinus ? Op::kNeg : Op::kNot, d, v.value());
        return d;
      }
      case Expr::Kind::kBinary: {
        if (expr.op == Tok::kAndAnd || expr.op == Tok::kOrOr) {
          // Value of a short-circuit: 0/1 into a temporary (never straight
          // into `dst`, which the right side may still read).
          const int d = temp();
          std::vector<int> skip;
          if (expr.op == Tok::kAndAnd) {
            FLEXIO_RETURN_IF_ERROR(jump_if_false(*expr.args[0], &skip));
          } else {
            FLEXIO_RETURN_IF_ERROR(jump_if_true(*expr.args[0], &skip));
          }
          auto r = compile_expr(*expr.args[1]);
          if (!r.is_ok()) return r.status();
          emit(Op::kBool, d, r.value());
          const int jend = emit(Op::kJmp);
          patch_all(skip, here());
          emit(Op::kMov, d, constant(expr.op == Tok::kAndAnd ? 0.0 : 1.0));
          patch(jend, here());
          next_slot_ = d + 1;
          return d;
        }
        auto l = compile_expr(*expr.args[0]);
        if (!l.is_ok()) return l.status();
        auto r = compile_expr(*expr.args[1]);
        if (!r.is_ok()) return r.status();
        Op op = Op::kAdd, unused = Op::kJz;
        switch (expr.op) {
          case Tok::kPlus: op = Op::kAdd; break;
          case Tok::kMinus: op = Op::kSub; break;
          case Tok::kStar: op = Op::kMul; break;
          case Tok::kSlash: op = Op::kDiv; break;
          case Tok::kPercent: op = Op::kMod; break;
          default:
            if (!comparison_op(expr.op, &op, &unused)) {
              return error(expr.line, "bad binary operator");
            }
        }
        const std::int32_t d = target();
        emit(op, d, l.value(), r.value());
        return d;
      }
      case Expr::Kind::kCall:
        return compile_call(expr, dst);
      case Expr::Kind::kIndex: {
        const int array = env_.array_index(expr.name);
        if (array < 0) {
          return error(expr.line, "unknown array: " + expr.name);
        }
        auto i = compile_expr(*expr.args[0]);
        if (!i.is_ok()) return i.status();
        const std::int32_t d = target();
        emit(Op::kIndex, d, array, i.value());
        return d;
      }
    }
    return error(expr.line, "bad expression kind");
  }

  /// Evaluate call arguments into consecutive fresh slots; returns the
  /// first. A single argument of a builtin may stay wherever it lives.
  StatusOr<std::int32_t> compile_args(const Expr& call, bool any_operand) {
    if (any_operand && call.args.size() == 1) {
      return compile_expr(*call.args[0]);
    }
    const int base = next_slot_;
    for (const ExprPtr& arg : call.args) {
      const int slot = temp();
      FLEXIO_RETURN_IF_ERROR(compile_into(*arg, slot));
      next_slot_ = slot + 1;
    }
    return base;
  }

  StatusOr<std::int32_t> compile_call(const Expr& expr, int dst) {
    const int mark = next_slot_;
    if (expr.args.size() > UINT16_MAX) {
      return error(expr.line, "too many arguments to " + expr.name);
    }
    const auto nargs = static_cast<std::uint16_t>(expr.args.size());
    auto target = [&]() -> std::int32_t {
      next_slot_ = mark;
      return dst >= 0 ? dst : temp();
    };
    // User functions shadow builtins.
    const FunctionAst* fn = ast_.find(expr.name);
    if (fn != nullptr) {
      if (fn->params.size() != expr.args.size()) {
        return error(expr.line,
                     str_format("%s expects %zu args, got %zu",
                                expr.name.c_str(), fn->params.size(),
                                expr.args.size()));
      }
      auto base = compile_args(expr, /*any_operand=*/false);
      if (!base.is_ok()) return base.status();
      const auto idx = static_cast<std::int32_t>(fn - ast_.functions.data());
      const std::int32_t d = target();
      emit(Op::kCall, d, idx, base.value(), nargs);
      return d;
    }
    const int builtin = env_.builtin_index(expr.name);
    const Intrinsic* intrinsic =
        builtin < 0 ? find_intrinsic(expr.name) : nullptr;
    if (builtin < 0 && intrinsic == nullptr) {
      return error(expr.line, "unknown function: " + expr.name);
    }
    const int arity =
        intrinsic != nullptr ? intrinsic->arity : env_.builtin_arity(builtin);
    if (arity >= 0 && static_cast<std::size_t>(arity) != expr.args.size()) {
      return error(expr.line,
                   str_format("%s expects %d args, got %zu",
                              expr.name.c_str(), arity, expr.args.size()));
    }
    if (intrinsic != nullptr) {
      auto x = compile_expr(*expr.args[0]);
      if (!x.is_ok()) return x.status();
      std::int32_t y = 0;
      if (arity == 2) {
        auto v = compile_expr(*expr.args[1]);
        if (!v.is_ok()) return v.status();
        y = v.value();
      }
      const std::int32_t d = target();
      emit(intrinsic->op, d, x.value(), y);
      return d;
    }
    auto base = compile_args(expr, /*any_operand=*/true);
    if (!base.is_ok()) return base.status();
    const std::int32_t d = target();
    emit(Op::kBuiltin, d, builtin, base.value(), nargs);
    return d;
  }

  const ProgramAst& ast_;
  const Environment& env_;
  CompiledFunction out_;
  std::map<std::uint64_t, std::int32_t> const_index_;  // value bits -> k
  std::vector<std::map<std::string, int>> scopes_;
  int next_slot_ = 0;
  int max_slot_ = 0;
};

/// Turn tagged constant/global operands into window indices.
void resolve_operands(CompiledFunction* fn) {
  const std::int32_t const_base = fn->num_slots;
  const auto global_base =
      static_cast<std::int32_t>(fn->num_slots + fn->consts.size());
  auto resolve = [&](std::int32_t* x) {
    if (*x & kConstTag) {
      *x = const_base + (*x & kIndexMask);
    } else if (*x & kGlobalTag) {
      *x = global_base + (*x & kIndexMask);
    }
  };
  for (Instr& instr : fn->code) {
    const int mask = operand_mask(instr.op);
    if (mask & kA) resolve(&instr.a);
    if (mask & kB) resolve(&instr.b);
    if (mask & kC) resolve(&instr.c);
  }
}

}  // namespace

StatusOr<CompiledProgram> compile(const ProgramAst& ast,
                                  const Environment& env) {
  CompiledProgram program;
  FunctionCompiler compiler(ast, env);
  for (const FunctionAst& fn : ast.functions) {
    auto compiled = compiler.compile_fn(fn);
    if (!compiled.is_ok()) return compiled.status();
    program.functions.push_back(std::move(compiled).value());
  }
  // Record referenced environment names for run-time cross-checks.
  auto remember = [](std::vector<std::string>* names, int idx,
                     const std::string& name) {
    if (idx >= static_cast<int>(names->size())) {
      names->resize(static_cast<std::size_t>(idx) + 1);
    }
    (*names)[static_cast<std::size_t>(idx)] = name;
  };
  for (CompiledFunction& fn : program.functions) {
    for (const Instr& instr : fn.code) {
      const int mask = operand_mask(instr.op);
      const std::int32_t fields[3] = {instr.a, instr.b, instr.c};
      for (int f = 0; f < 3; ++f) {
        if ((mask & (1 << f)) && (fields[f] & kGlobalTag)) {
          const int g = fields[f] & kIndexMask;
          remember(&program.global_names, g, env.global_name(g));
        }
      }
      if (instr.op == Op::kIndex) {
        remember(&program.array_names, instr.b, env.array_name(instr.b));
      } else if (instr.op == Op::kBuiltin) {
        remember(&program.builtin_names, instr.b, env.builtin_name(instr.b));
      }
    }
  }
  for (CompiledFunction& fn : program.functions) resolve_operands(&fn);
  return program;
}

namespace {

const char* op_name(Op op) {
  switch (op) {
    case Op::kMov: return "mov";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kNeg: return "neg";
    case Op::kNot: return "not";
    case Op::kBool: return "bool";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kLt: return "lt";
    case Op::kLe: return "le";
    case Op::kGt: return "gt";
    case Op::kGe: return "ge";
    case Op::kSqrt: return "sqrt";
    case Op::kFabs: return "fabs";
    case Op::kFloor: return "floor";
    case Op::kExp: return "exp";
    case Op::kLog: return "log";
    case Op::kSin: return "sin";
    case Op::kCos: return "cos";
    case Op::kPow: return "pow";
    case Op::kMin: return "min";
    case Op::kMax: return "max";
    case Op::kIndex: return "index";
    case Op::kJmp: return "jmp";
    case Op::kJz: return "jz";
    case Op::kJnz: return "jnz";
    case Op::kJzEq: return "jz.eq";
    case Op::kJzNe: return "jz.ne";
    case Op::kJzLt: return "jz.lt";
    case Op::kJzLe: return "jz.le";
    case Op::kJzGt: return "jz.gt";
    case Op::kJzGe: return "jz.ge";
    case Op::kCall: return "call";
    case Op::kBuiltin: return "builtin";
    case Op::kRet: return "ret";
    case Op::kRetVoid: return "retv";
  }
  return "?";
}

/// One operand as r<slot>, a constant's value, or a global's name.
std::string operand_text(const CompiledProgram& program,
                         const CompiledFunction& fn, std::int32_t x) {
  if (x < fn.num_slots) return str_format("r%d", x);
  const auto k = static_cast<std::size_t>(x - fn.num_slots);
  if (k < fn.consts.size()) return str_format("%g", fn.consts[k]);
  const std::size_t g = k - fn.consts.size();
  return g < program.global_names.size() ? program.global_names[g] : "?";
}

}  // namespace

std::string disassemble(const CompiledProgram& program) {
  std::string out;
  for (const CompiledFunction& fn : program.functions) {
    out += str_format("%s (params=%d, slots=%d, consts=%zu):\n",
                      fn.name.c_str(), fn.num_params, fn.num_slots,
                      fn.consts.size());
    for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
      const Instr& in = fn.code[pc];
      auto opnd = [&](std::int32_t x) {
        return operand_text(program, fn, x);
      };
      std::string args;
      switch (in.op) {
        case Op::kIndex:
          args = opnd(in.a) + ", " +
                 (in.b < static_cast<int>(program.array_names.size())
                      ? program.array_names[static_cast<std::size_t>(in.b)]
                      : std::string("?")) +
                 "[" + opnd(in.c) + "]";
          break;
        case Op::kJmp:
          args = str_format("-> %d", in.c);
          break;
        case Op::kJz:
        case Op::kJnz:
          args = opnd(in.a) + str_format(" -> %d", in.c);
          break;
        case Op::kJzEq: case Op::kJzNe: case Op::kJzLt: case Op::kJzLe:
        case Op::kJzGt: case Op::kJzGe:
          args = opnd(in.a) + ", " + opnd(in.b) + str_format(" -> %d", in.c);
          break;
        case Op::kCall:
          args = opnd(in.a) + ", " +
                 program.functions[static_cast<std::size_t>(in.b)].name +
                 str_format("(r%d/%u)", in.c, in.n);
          break;
        case Op::kBuiltin:
          args = opnd(in.a) + ", " +
                 (in.b < static_cast<int>(program.builtin_names.size())
                      ? program.builtin_names[static_cast<std::size_t>(in.b)]
                      : std::string("?")) +
                 "(" + opnd(in.c) + str_format("/%u)", in.n);
          break;
        case Op::kRetVoid:
          break;
        default: {
          const int mask = operand_mask(in.op);
          if (mask & kA) args += opnd(in.a);
          if (mask & kB) args += ", " + opnd(in.b);
          if (mask & kC) args += ", " + opnd(in.c);
          break;
        }
      }
      out += str_format("  %4zu  %-8s %s\n", pc, op_name(in.op), args.c_str());
    }
  }
  return out;
}

}  // namespace flexio::cod

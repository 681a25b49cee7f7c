// Tests for CoD-mini: lexer, parser, compiler, VM, and the DC plug-in
// adapter over stream data pieces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "cod/lexer.h"
#include "cod/parser.h"
#include "cod/plugin.h"
#include "cod/program.h"
#include "core/stream_reader.h"
#include "core/stream_writer.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace flexio::cod {
namespace {

using serial::DataType;

// ---------------------------------------------------------------- lexer --

TEST(LexerTest, TokenizesOperatorsAndNumbers) {
  auto tokens = tokenize("x = 3.5e2 + 4 % 2; // comment\ny == x != 1");
  ASSERT_TRUE(tokens.is_ok()) << tokens.status().to_string();
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].kind, Tok::kIdent);
  EXPECT_EQ(t[1].kind, Tok::kAssign);
  EXPECT_EQ(t[2].kind, Tok::kNumber);
  EXPECT_DOUBLE_EQ(t[2].number, 350.0);
  EXPECT_EQ(t[3].kind, Tok::kPlus);
  EXPECT_EQ(t[5].kind, Tok::kPercent);
  EXPECT_EQ(t[7].kind, Tok::kSemicolon);
  EXPECT_EQ(t[9].kind, Tok::kEq);
  EXPECT_EQ(t[11].kind, Tok::kNe);
  EXPECT_EQ(t.back().kind, Tok::kEnd);
}

TEST(LexerTest, KeywordsAndComments) {
  auto tokens = tokenize("int double void if else while for return /* all\nof this skipped */ x");
  ASSERT_TRUE(tokens.is_ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].kind, Tok::kInt);
  EXPECT_EQ(t[2].kind, Tok::kVoid);
  EXPECT_EQ(t[7].kind, Tok::kReturn);
  EXPECT_EQ(t[8].kind, Tok::kIdent);
  EXPECT_EQ(t[8].line, 2);  // comment newline counted
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(tokenize("a @ b").is_ok());
  EXPECT_FALSE(tokenize("/* never closed").is_ok());
}

// --------------------------------------------------------------- parser --

TEST(ParserTest, ParsesFunctionShapes) {
  auto ast = parse(R"(
    double add(double a, double b) { return a + b; }
    void transform() { int i; i = 0; }
  )");
  ASSERT_TRUE(ast.is_ok()) << ast.status().to_string();
  ASSERT_EQ(ast.value().functions.size(), 2u);
  EXPECT_TRUE(ast.value().functions[0].returns_value);
  EXPECT_EQ(ast.value().functions[0].params.size(), 2u);
  EXPECT_FALSE(ast.value().functions[1].returns_value);
  EXPECT_NE(ast.value().find("add"), nullptr);
  EXPECT_EQ(ast.value().find("missing"), nullptr);
}

TEST(ParserTest, RejectsSyntaxErrors) {
  EXPECT_FALSE(parse("void f() { if }").is_ok());
  EXPECT_FALSE(parse("void f() { x = ; }").is_ok());
  EXPECT_FALSE(parse("void f() {").is_ok());
  EXPECT_FALSE(parse("void f(void x) {}").is_ok());
  EXPECT_FALSE(parse("double 3() {}").is_ok());
  EXPECT_FALSE(parse("void f() {} void f() {}").is_ok());  // duplicate
  EXPECT_FALSE(parse("x = 3;").is_ok());  // statements only inside functions
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto ast = parse("void f() {\n\n  x = ;\n}");
  ASSERT_FALSE(ast.is_ok());
  EXPECT_NE(ast.status().message().find("line 3"), std::string::npos);
}

// --------------------------------------------------------- compiler+vm --

/// Compile and run `source`'s function `fn` with args, with an optional
/// prepared environment.
StatusOr<double> eval(const std::string& source, const std::string& fn,
                      std::vector<double> args = {},
                      Environment* env_in = nullptr,
                      const VmLimits& limits = {}) {
  auto ast = parse(source);
  if (!ast.is_ok()) return ast.status();
  Environment local_env;
  Environment* env = env_in != nullptr ? env_in : &local_env;
  auto program = compile(ast.value(), *env);
  if (!program.is_ok()) return program.status();
  return run(program.value(), fn, std::span<const double>(args), *env, limits);
}

TEST(VmTest, ArithmeticAndPrecedence) {
  EXPECT_DOUBLE_EQ(eval("double f() { return 2 + 3 * 4; }", "f").value(), 14);
  EXPECT_DOUBLE_EQ(eval("double f() { return (2 + 3) * 4; }", "f").value(), 20);
  EXPECT_DOUBLE_EQ(eval("double f() { return -3 + 1; }", "f").value(), -2);
  EXPECT_DOUBLE_EQ(eval("double f() { return 7 % 3; }", "f").value(), 1);
  EXPECT_DOUBLE_EQ(eval("double f() { return 10 / 4; }", "f").value(), 2.5);
}

TEST(VmTest, ComparisonsAndLogic) {
  EXPECT_DOUBLE_EQ(eval("double f() { return 3 < 4 && 4 <= 4; }", "f").value(), 1);
  EXPECT_DOUBLE_EQ(eval("double f() { return 3 > 4 || 0; }", "f").value(), 0);
  EXPECT_DOUBLE_EQ(eval("double f() { return !(1 == 2); }", "f").value(), 1);
  EXPECT_DOUBLE_EQ(eval("double f() { return 5 >= 6; }", "f").value(), 0);
}

TEST(VmTest, ShortCircuitSkipsSideEffects) {
  // Division by zero on the right side must not run when short-circuited.
  EXPECT_DOUBLE_EQ(eval("double f() { return 0 && 1 / 0; }", "f").value(), 0);
  EXPECT_DOUBLE_EQ(eval("double f() { return 1 || 1 / 0; }", "f").value(), 1);
  // But it does run when reached.
  EXPECT_FALSE(eval("double f() { return 1 && 1 / 0; }", "f").is_ok());
}

TEST(VmTest, ControlFlow) {
  EXPECT_DOUBLE_EQ(
      eval("double f(double x) { if (x > 0) return 1; else return 2; }", "f",
           {5})
          .value(),
      1);
  EXPECT_DOUBLE_EQ(
      eval("double f(double x) { if (x > 0) return 1; else return 2; }", "f",
           {-5})
          .value(),
      2);
  EXPECT_DOUBLE_EQ(
      eval("double f() { int s = 0; int i; for (i = 1; i <= 10; i = i + 1) "
           "s = s + i; return s; }",
           "f")
          .value(),
      55);
  EXPECT_DOUBLE_EQ(
      eval("double f() { int s = 0; int i = 0; while (i < 5) { s = s + 2; "
           "i = i + 1; } return s; }",
           "f")
          .value(),
      10);
}

TEST(VmTest, FunctionsCallEachOther) {
  const std::string src = R"(
    double square(double x) { return x * x; }
    double f(double a, double b) { return square(a) + square(b); }
  )";
  EXPECT_DOUBLE_EQ(eval(src, "f", {3, 4}).value(), 25);
}

TEST(VmTest, RecursionWorks) {
  const std::string src =
      "double fact(double n) { if (n <= 1) return 1; return n * fact(n - 1); }";
  EXPECT_DOUBLE_EQ(eval(src, "fact", {6}).value(), 720);
}

TEST(VmTest, RecursionDepthBounded) {
  const std::string src = "double f(double n) { return f(n + 1); }";
  auto result = eval(src, "f", {0});
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("depth"), std::string::npos);
}

TEST(VmTest, InstructionBudgetStopsRunaways) {
  VmLimits limits;
  limits.max_instructions = 10000;
  auto result = eval("void f() { while (1) {} }", "f", {}, nullptr, limits);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("budget"), std::string::npos);
}

TEST(VmTest, ScopingShadowsAndExpires) {
  const std::string src = R"(
    double f() {
      int x = 1;
      { int x = 2; }
      return x;
    }
  )";
  EXPECT_DOUBLE_EQ(eval(src, "f").value(), 1);
  // Redeclaration in the same scope is an error.
  EXPECT_FALSE(eval("void f() { int x; int x; }", "f").is_ok());
  // Use of undeclared variables is a compile error.
  EXPECT_FALSE(eval("void f() { y = 3; }", "f").is_ok());
  EXPECT_FALSE(eval("double f() { return y; }", "f").is_ok());
}

TEST(VmTest, DisassemblerListsEveryFunction) {
  auto ast = parse(R"(
    double square(double x) { return x * x; }
    void transform() {
      int i;
      for (i = 0; i < 3; i = i + 1) square(i);
    }
  )");
  ASSERT_TRUE(ast.is_ok());
  Environment env;
  auto program = compile(ast.value(), env);
  ASSERT_TRUE(program.is_ok());
  const std::string listing = disassemble(program.value());
  EXPECT_NE(listing.find("square (params=1"), std::string::npos);
  EXPECT_NE(listing.find("transform (params=0"), std::string::npos);
  EXPECT_NE(listing.find("call"), std::string::npos);
  EXPECT_NE(listing.find("jz"), std::string::npos);
  EXPECT_NE(listing.find("mul"), std::string::npos);
}

TEST(VmTest, EnvironmentGlobalsArraysBuiltins) {
  Environment env;
  std::vector<double> data{10, 20, 30};
  double sum = 0;
  env.add_global("n", 3);
  env.add_array("input", std::span<const double>(data));
  env.add_builtin("accumulate", 1, [&sum](std::span<const double> a) {
    sum += a[0];
    return StatusOr<double>(sum);
  });
  const std::string src = R"(
    void transform() {
      int i;
      for (i = 0; i < n; i = i + 1) accumulate(input[i]);
    }
  )";
  ASSERT_TRUE(eval(src, "transform", {}, &env).is_ok());
  EXPECT_DOUBLE_EQ(sum, 60);
}

TEST(VmTest, ArrayBoundsChecked) {
  Environment env;
  std::vector<double> data{1, 2};
  env.add_array("input", std::span<const double>(data));
  EXPECT_FALSE(eval("double f() { return input[5]; }", "f", {}, &env).is_ok());
  EXPECT_FALSE(eval("double f() { return input[-1]; }", "f", {}, &env).is_ok());
}

TEST(VmTest, BuiltinArityChecked) {
  Environment env;
  env.add_builtin("two", 2, [](std::span<const double> a) {
    return StatusOr<double>(a[0] + a[1]);
  });
  EXPECT_FALSE(eval("double f() { return two(1); }", "f", {}, &env).is_ok());
  EXPECT_DOUBLE_EQ(eval("double f() { return two(1, 2); }", "f", {}, &env)
                       .value(),
                   3);
}

TEST(VmTest, DivisionByZeroReported) {
  EXPECT_FALSE(eval("double f() { return 1 / 0; }", "f").is_ok());
  EXPECT_FALSE(eval("double f() { return 1 % 0; }", "f").is_ok());
}

// ------------------------------------------------------------- plug-ins --

wire::DataPiece particle_piece(std::vector<double> values, std::uint64_t cols) {
  wire::DataPiece piece;
  const std::uint64_t rows = values.size() / cols;
  piece.meta = adios::local_array_var("zion", DataType::kDouble, {rows, cols});
  piece.region = piece.meta.block;
  const auto bytes = std::as_bytes(std::span<const double>(values));
  piece.payload.assign(bytes.begin(), bytes.end());
  return piece;
}

std::vector<double> piece_values(const wire::DataPiece& piece) {
  std::vector<double> out(piece.payload.size() / sizeof(double));
  std::memcpy(out.data(), piece.payload.data(), piece.payload.size());
  return out;
}

TEST(PluginTest, RangeQueryFilter) {
  // The paper's GTS example: keep particles whose velocity (attribute 1)
  // exceeds a threshold.
  auto plugin = compile_plugin(R"(
    void transform() {
      int r;
      for (r = 0; r < rows; r = r + 1) {
        if (input[r * cols + 1] > 10.0) keep_row(r);
      }
    }
  )");
  ASSERT_TRUE(plugin.is_ok()) << plugin.status().to_string();
  auto out = plugin.value()(particle_piece({1, 5,    // row 0: v=5 drop
                                            2, 15,   // row 1: v=15 keep
                                            3, 25},  // row 2: v=25 keep
                                           2));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().meta.block.count[0], 2u);
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{2, 15, 3, 25}));
}

TEST(PluginTest, SamplingEveryKth) {
  auto plugin = compile_plugin(R"(
    void transform() {
      int r;
      for (r = 0; r < rows; r = r + 4) keep_row(r);
    }
  )");
  ASSERT_TRUE(plugin.is_ok());
  std::vector<double> values;
  for (int i = 0; i < 16; ++i) values.push_back(i);
  auto out = plugin.value()(particle_piece(values, 1));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{0, 4, 8, 12}));
}

TEST(PluginTest, UnitConversionOnGlobalArray) {
  auto plugin = compile_plugin(R"(
    void transform() {
      int i;
      for (i = 0; i < n; i = i + 1) emit(input[i] * 1.5 + 1.0);
    }
  )");
  ASSERT_TRUE(plugin.is_ok());
  wire::DataPiece piece;
  piece.meta = adios::global_array_var("T", DataType::kDouble, {4},
                                       adios::Box{{0}, {4}});
  piece.region = adios::Box{{1}, {2}};
  std::vector<double> values{10, 20};
  piece.payload.resize(values.size() * sizeof(double));
  std::memcpy(piece.payload.data(), values.data(), piece.payload.size());
  auto out = plugin.value()(piece);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(out.value().region, piece.region);
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{16, 31}));
}

TEST(PluginTest, GlobalArraySizeChangeRejected) {
  auto plugin = compile_plugin("void transform() { emit(1.0); }");
  ASSERT_TRUE(plugin.is_ok());
  wire::DataPiece piece;
  piece.meta = adios::global_array_var("T", DataType::kDouble, {4},
                                       adios::Box{{0}, {4}});
  piece.region = piece.meta.block;
  piece.payload.resize(4 * sizeof(double));
  EXPECT_FALSE(plugin.value()(piece).is_ok());
}

TEST(PluginTest, BoundingBoxViaMinMax) {
  // Markup-style plug-in: emits a 2-value bounding box of attribute 0.
  auto plugin = compile_plugin(R"(
    void transform() {
      double lo = input[0];
      double hi = input[0];
      int r;
      for (r = 1; r < rows; r = r + 1) {
        lo = min(lo, input[r * cols]);
        hi = max(hi, input[r * cols]);
      }
      emit(lo);
      emit(hi);
    }
  )");
  ASSERT_TRUE(plugin.is_ok());
  auto out = plugin.value()(particle_piece({5, 0, -3, 0, 9, 0}, 2));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().meta.block.count[0], 1u);  // one 2-col row
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{-3, 9}));
}

TEST(PluginTest, AnnotationOnlyPassesThrough) {
  auto plugin = compile_plugin(R"(
    void transform() {
      int i;
      double s = 0;
      for (i = 0; i < n; i = i + 1) s = s + input[i];
    }
  )");
  ASSERT_TRUE(plugin.is_ok());
  const auto piece = particle_piece({1, 2, 3, 4}, 2);
  auto out = plugin.value()(piece);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().payload, piece.payload);
  EXPECT_EQ(out.value().meta, piece.meta);
}

TEST(PluginTest, PartialRowRejected) {
  auto plugin = compile_plugin("void transform() { emit(1.0); }");
  ASSERT_TRUE(plugin.is_ok());
  EXPECT_FALSE(plugin.value()(particle_piece({1, 2, 3, 4}, 2)).is_ok());
}

TEST(PluginTest, RequiresTransformEntryPoint) {
  EXPECT_FALSE(compile_plugin("void other() {}").is_ok());
  EXPECT_FALSE(compile_plugin("not even code").is_ok());
}

TEST(PluginTest, MathBuiltinsAvailable) {
  auto plugin = compile_plugin(R"(
    void transform() {
      emit(exp(0.0));
      emit(log(input[0]));
      emit(sin(0.0) + cos(0.0));
    })");
  ASSERT_TRUE(plugin.is_ok()) << plugin.status().to_string();
  auto out = plugin.value()(particle_piece({2.718281828459045}, 1));
  ASSERT_TRUE(out.is_ok());
  const auto vals = piece_values(out.value());
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_DOUBLE_EQ(vals[0], 1.0);
  EXPECT_NEAR(vals[1], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(vals[2], 1.0);
  // log of non-positive input is a runtime error, not a NaN.
  auto bad = plugin.value()(particle_piece({-1.0}, 1));
  EXPECT_FALSE(bad.is_ok());
}

TEST(PluginTest, IntPayloadsConvert) {
  auto plugin = compile_plugin(R"(
    void transform() {
      int i;
      for (i = 0; i < n; i = i + 1) emit(input[i] * 2);
    }
  )");
  ASSERT_TRUE(plugin.is_ok());
  wire::DataPiece piece;
  piece.meta = adios::local_array_var("ids", DataType::kInt32, {3});
  piece.region = piece.meta.block;
  const std::int32_t ids[3] = {1, 2, 3};
  piece.payload.resize(sizeof ids);
  std::memcpy(piece.payload.data(), ids, sizeof ids);
  auto out = plugin.value()(piece);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  const auto* vals =
      reinterpret_cast<const std::int32_t*>(out.value().payload.data());
  EXPECT_EQ(vals[0], 2);
  EXPECT_EQ(vals[2], 6);
}

TEST(PluginTest, EndToEndMobileCodeletOverStream) {
  // The full Section II.F story: the analytics side writes a CoD source
  // string; it travels to the simulation side with the read request, is
  // compiled there, and conditions the particle data before it ever
  // crosses the transport.
  Runtime rt;
  rt.set_plugin_compiler(make_plugin_compiler());
  Program sim("sim", 1);
  Program viz("viz", 1);

  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "codstream";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method.method = "FLEXIO";
    spec.method.timeout_ms = 20000;
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    std::vector<double> particles;
    for (int p = 0; p < 10; ++p) {
      particles.push_back(p);        // id
      particles.push_back(p * 2.0);  // velocity
    }
    for (int s = 0; s < 2; ++s) {
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(
          w.value()
              ->write(adios::local_array_var("zion", DataType::kDouble,
                                             {10, 2}),
                      as_bytes_view(std::span<const double>(particles)))
              .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
    EXPECT_EQ(w.value()->stats().plugin_pieces, 2u);
  });
  std::thread reader([&] {
    StreamSpec spec;
    spec.stream = "codstream";
    spec.endpoint = EndpointSpec{&viz, 0, evpath::Location{3, 0}};
    spec.method.method = "FLEXIO";
    spec.method.timeout_ms = 20000;
    auto r = rt.open_reader(spec);
    ASSERT_TRUE(r.is_ok());
    ASSERT_TRUE(r.value()
                    ->install_plugin("zion", R"(
                      void transform() {
                        int i;
                        for (i = 0; i < rows; i = i + 1) {
                          if (input[i * cols + 1] >= 10.0) keep_row(i);
                        }
                      })",
                                     /*run_at_writer=*/true)
                    .is_ok());
    int steps = 0;
    for (;;) {
      auto step = r.value()->begin_step();
      if (step.status().code() == ErrorCode::kEndOfStream) break;
      ASSERT_TRUE(step.is_ok()) << step.status().to_string();
      ASSERT_TRUE(r.value()->schedule_read_pg(0).is_ok());
      ASSERT_TRUE(r.value()->perform_reads().is_ok());
      ASSERT_EQ(r.value()->pg_blocks().size(), 1u);
      // Velocity >= 10 keeps particles 5..9.
      EXPECT_EQ(r.value()->pg_blocks()[0].meta.block.count[0], 5u);
      ASSERT_TRUE(r.value()->end_step().is_ok());
      ++steps;
    }
    EXPECT_EQ(steps, 2);
  });
  writer.join();
  reader.join();
}

TEST(PluginTest, CompilerFactoryMatchesRuntimeHook) {
  PluginCompiler compiler = make_plugin_compiler();
  auto fn = compiler("void transform() { keep_row(0); }");
  ASSERT_TRUE(fn.is_ok());
  auto out = fn.value()(particle_piece({7, 8, 9, 10}, 2));
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{7, 8}));
}

// --------------------------------------------------------------- guards --

/// The error message of a run expected to fail ("" if it succeeded).
std::string failure(const StatusOr<double>& result) {
  return result.is_ok() ? std::string() : result.status().message();
}
std::string failure(const StatusOr<wire::DataPiece>& result) {
  return result.is_ok() ? std::string() : result.status().message();
}

TEST(VmGuardTest, EveryGuardFiresWithItsMessage) {
  std::vector<double> data{1, 2};
  Environment env;
  env.add_array("input", std::span<const double>(data));
  auto run_env = [&env](const std::string& src,
                        const VmLimits& limits = {}) {
    return eval(src, "f", {}, &env, limits);
  };
  VmLimits budget;
  budget.max_instructions = 1000;
  EXPECT_EQ(failure(run_env("void f() { while (1) {} }", budget)),
            "cod vm: instruction budget exhausted (runaway plug-in?)");
  EXPECT_EQ(failure(run_env("double f() { return input[5]; }")),
            "cod vm: index 5 out of bounds for input[2]");
  EXPECT_EQ(failure(run_env("double f() { return input[-1]; }")),
            "cod vm: index -1 out of bounds for input[2]");
  EXPECT_EQ(failure(run_env("double f() { double z = 0; return 1 / z; }")),
            "cod vm: division by zero");
  EXPECT_EQ(failure(run_env("double f() { double z = 0; return 1 % z; }")),
            "cod vm: modulo by zero");
  EXPECT_EQ(failure(run_env("double f() { return log(0); }")),
            "log of non-positive");
  EXPECT_EQ(failure(run_env("double f() { return log(-2); }")),
            "log of non-positive");
  EXPECT_EQ(failure(run_env("double f() { return f(); }")),
            "cod vm: call depth exceeded");
  // In-range fractional indices truncate toward zero, as before.
  EXPECT_DOUBLE_EQ(run_env("double f() { return input[1.9]; }").value(), 2);
  EXPECT_DOUBLE_EQ(run_env("double f() { return input[-0.5]; }").value(), 1);
}

TEST(VmGuardTest, FrameSlotBoundStopsDeepExpressions) {
  // Each nesting level keeps its left operand live while the right side
  // evaluates, so the frame needs one slot per level.
  std::string expr = "a";
  for (int i = 0; i < 40; ++i) expr = "a * a + (" + expr + ")";
  const std::string src = "double f(double a) { return " + expr + "; }";
  VmLimits small;
  small.max_stack = 16;
  EXPECT_EQ(failure(eval(src, "f", {1}, nullptr, small)),
            "cod vm: value stack overflow");
  // The same program runs under the default bound.
  EXPECT_DOUBLE_EQ(eval(src, "f", {1}).value(), 41);
}

TEST(VmGuardTest, NonFiniteAndHugeIndicesAreOutOfBounds) {
  // The index is range-checked as a double: NaN and values far outside
  // int64 must be reported, never converted.
  std::vector<double> data{1, 2};
  Environment env;
  env.add_array("input", std::span<const double>(data));
  EXPECT_EQ(failure(eval("double f() { return input[sqrt(-1)]; }", "f", {},
                         &env)).find("cod vm: index"),
            0u);
  EXPECT_NE(failure(eval("double f() { return input[sqrt(-1)]; }", "f", {},
                         &env)).find("out of bounds for input[2]"),
            std::string::npos);
  EXPECT_EQ(failure(eval("double f() { return input[1e300]; }", "f", {},
                         &env)),
            "cod vm: index 1e+300 out of bounds for input[2]");
  EXPECT_EQ(failure(eval("double f() { return input[-1e300]; }", "f", {},
                         &env)),
            "cod vm: index -1e+300 out of bounds for input[2]");

  auto plugin = compile_plugin("void transform() { keep_row(1e300); }");
  ASSERT_TRUE(plugin.is_ok());
  EXPECT_EQ(failure(plugin.value()(particle_piece({1, 2, 3, 4}, 2))),
            "keep_row out of bounds");
  auto nan_row = compile_plugin("void transform() { keep_row(sqrt(-1)); }");
  ASSERT_TRUE(nan_row.is_ok());
  EXPECT_EQ(failure(nan_row.value()(particle_piece({1, 2, 3, 4}, 2))),
            "keep_row out of bounds");
  // A fraction just above -1 truncates to row 0, which an empty piece
  // does not have.
  auto near_zero = compile_plugin("void transform() { keep_row(-0.5); }");
  ASSERT_TRUE(near_zero.is_ok());
  EXPECT_EQ(failure(near_zero.value()(particle_piece({}, 2))),
            "keep_row out of bounds");
  EXPECT_EQ(piece_values(near_zero.value()(particle_piece({7, 8}, 2)).value()),
            (std::vector<double>{7, 8}));
  Environment empty_env;
  empty_env.add_array("input", std::span<const double>());
  EXPECT_EQ(failure(eval("double f() { return input[-0.5]; }", "f", {},
                         &empty_env)),
            "cod vm: index -0.5 out of bounds for input[0]");
  auto last_row = compile_plugin("void transform() { keep_row(rows); }");
  ASSERT_TRUE(last_row.is_ok());
  EXPECT_EQ(failure(last_row.value()(particle_piece({1, 2, 3, 4}, 2))),
            "keep_row out of bounds");
}

TEST(PluginGuardTest, ShapeErrorsStillFire) {
  auto one = compile_plugin("void transform() { emit(1.0); }");
  ASSERT_TRUE(one.is_ok());
  EXPECT_EQ(failure(one.value()(particle_piece({1, 2, 3, 4}, 2))),
            "plug-in emitted a partial row");
  wire::DataPiece global;
  global.meta = adios::global_array_var("T", DataType::kDouble, {4},
                                        adios::Box{{0}, {4}});
  global.region = global.meta.block;
  global.payload.resize(4 * sizeof(double));
  EXPECT_EQ(failure(one.value()(global)),
            "plug-ins on global arrays must preserve the element count");
}

// ------------------------------------------------------ payload binding --

const char* kThresholdFilter = R"(
  void transform() {
    int r;
    for (r = 0; r < rows; r = r + 1) {
      if (input[r * cols + 1] > 10.0) keep_row(r);
    }
  })";

TEST(PluginBindingTest, BorrowedPayloadIsReadInPlace) {
  auto plugin = compile_plugin(kThresholdFilter);
  ASSERT_TRUE(plugin.is_ok());
  const std::vector<double> values{1, 5, 2, 15, 3, 25};
  wire::DataPiece piece;
  piece.meta = adios::local_array_var("zion", DataType::kDouble, {3, 2});
  piece.region = piece.meta.block;
  piece.borrowed = as_bytes_view(std::span<const double>(values));
  auto out = plugin.value()(piece);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_TRUE(piece.payload.empty());  // never materialized
  EXPECT_TRUE(out.value().borrowed.empty());
  EXPECT_EQ(out.value().meta.block.count[0], 2u);
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{2, 15, 3, 25}));
}

TEST(PluginBindingTest, MisalignedDoublePayloadConverts) {
  auto plugin = compile_plugin(kThresholdFilter);
  ASSERT_TRUE(plugin.is_ok());
  const std::vector<double> values{1, 5, 2, 15, 3, 25};
  // The payload starts one byte into an aligned buffer.
  std::vector<std::byte> buffer(values.size() * sizeof(double) + 1);
  std::memcpy(buffer.data() + 1, values.data(), values.size() * sizeof(double));
  wire::DataPiece piece;
  piece.meta = adios::local_array_var("zion", DataType::kDouble, {3, 2});
  piece.region = piece.meta.block;
  piece.borrowed = ByteView(buffer.data() + 1, values.size() * sizeof(double));
  auto out = plugin.value()(piece);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(piece_values(out.value()), (std::vector<double>{2, 15, 3, 25}));
}

template <typename T>
wire::DataPiece typed_piece(const std::vector<T>& values, DataType type,
                            std::uint64_t cols) {
  wire::DataPiece piece;
  piece.meta = adios::local_array_var("v", type, {values.size() / cols, cols});
  piece.region = piece.meta.block;
  piece.payload.resize(values.size() * sizeof(T));
  std::memcpy(piece.payload.data(), values.data(), piece.payload.size());
  return piece;
}

template <typename T>
std::vector<T> typed_values(const wire::DataPiece& piece) {
  std::vector<T> out(piece.bytes().size() / sizeof(T));
  std::memcpy(out.data(), piece.bytes().data(), out.size() * sizeof(T));
  return out;
}

TEST(PluginBindingTest, FloatInt32Int64PayloadsRoundTrip) {
  auto filter = compile_plugin(kThresholdFilter);
  ASSERT_TRUE(filter.is_ok());
  auto doubled = compile_plugin(R"(
    void transform() {
      int i;
      for (i = 0; i < n; i = i + 1) emit(input[i] * 2);
    })");
  ASSERT_TRUE(doubled.is_ok());

  const std::vector<float> f{1.5f, 5, 2.25f, 15, 3.125f, 25};
  auto fo = filter.value()(typed_piece(f, DataType::kFloat, 2));
  ASSERT_TRUE(fo.is_ok()) << fo.status().to_string();
  EXPECT_EQ(fo.value().meta.type, DataType::kFloat);
  EXPECT_EQ(typed_values<float>(fo.value()),
            (std::vector<float>{2.25f, 15, 3.125f, 25}));

  const std::vector<std::int32_t> i32{1, 11, 2, 12, 3, 9};
  auto io = filter.value()(typed_piece(i32, DataType::kInt32, 2));
  ASSERT_TRUE(io.is_ok()) << io.status().to_string();
  EXPECT_EQ(typed_values<std::int32_t>(io.value()),
            (std::vector<std::int32_t>{1, 11, 2, 12}));

  const std::vector<std::int64_t> i64{-7, 0, 1LL << 40, 3};
  auto lo = doubled.value()(typed_piece(i64, DataType::kInt64, 1));
  ASSERT_TRUE(lo.is_ok()) << lo.status().to_string();
  EXPECT_EQ(typed_values<std::int64_t>(lo.value()),
            (std::vector<std::int64_t>{-14, 0, 1LL << 41, 6}));
  auto fd = doubled.value()(typed_piece(f, DataType::kFloat, 1));
  ASSERT_TRUE(fd.is_ok());
  EXPECT_EQ(typed_values<float>(fd.value()),
            (std::vector<float>{3, 10, 4.5f, 30, 6.25f, 50}));
}

// ---------------------------------------------- C++ reference, bytewise --

// The zion filter of the GTS helper pipeline (stepbench, gts_pipeline).
const char* kZionFilter = R"(
  void transform() {
    int r;
    for (r = 0; r < rows; r = r + 1) {
      double vpar = input[r * cols + 3];
      double vperp = input[r * cols + 4];
      if (sqrt(vpar*vpar + vperp*vperp) > 0.4)
        keep_row(r);
    }
  })";

std::vector<double> zion_reference(const std::vector<double>& table,
                                   std::size_t cols) {
  std::vector<double> kept;
  for (std::size_t r = 0; r + cols <= table.size(); r += cols) {
    const double vpar = table[r + 3];
    const double vperp = table[r + 4];
    if (std::sqrt(vpar * vpar + vperp * vperp) > 0.4) {
      kept.insert(kept.end(), table.begin() + static_cast<std::ptrdiff_t>(r),
                  table.begin() + static_cast<std::ptrdiff_t>(r + cols));
    }
  }
  return kept;
}

// Expressions whose rounding depends on operation order: the VM must
// evaluate them exactly as written (no reassociation, no contraction).
const char* kExpressions = R"(
  void transform() {
    int i;
    for (i = 0; i + 2 < n; i = i + 3) {
      double a = input[i];
      double b = input[i + 1];
      double c = input[i + 2];
      emit(a * b + c);
      emit(a + b + c - a * 1e-3);
      emit((a - b) / (fabs(c) + 1.5) % 0.7);
      emit(pow(fabs(a), 1.5) + sqrt(fabs(b)) * -c);
      emit(max(min(a, b), c) + floor(c * 10) + exp(b) * sin(a) - cos(c));
      if (a < b && !(c >= 0) || a == b) emit(log(fabs(a) + 1)); else emit(-b);
    }
  })";

std::vector<double> expressions_reference(const std::vector<double>& v) {
  std::vector<double> out;
  for (std::size_t i = 0; i + 2 < v.size(); i += 3) {
    const double a = v[i], b = v[i + 1], c = v[i + 2];
    out.push_back(a * b + c);
    out.push_back(a + b + c - a * 1e-3);
    out.push_back(std::fmod((a - b) / (std::fabs(c) + 1.5), 0.7));
    out.push_back(std::pow(std::fabs(a), 1.5) + std::sqrt(std::fabs(b)) * -c);
    out.push_back(std::max(std::min(a, b), c) + std::floor(c * 10) +
                  std::exp(b) * std::sin(a) - std::cos(c));
    if ((a < b && !(c >= 0)) || a == b) {
      out.push_back(std::log(std::fabs(a) + 1));
    } else {
      out.push_back(-b);
    }
  }
  return out;
}

std::vector<double> random_table(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = 2.0 * rng.next_double() - 1.0;
  return v;
}

std::vector<std::byte> bytes_of(const std::vector<double>& v) {
  std::vector<std::byte> out(v.size() * sizeof(double));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

TEST(CodReferenceTest, MatchesCppReplayByteForByte) {
  auto zion = compile_plugin(kZionFilter);
  ASSERT_TRUE(zion.is_ok()) << zion.status().to_string();
  auto exprs = compile_plugin(kExpressions);
  ASSERT_TRUE(exprs.is_ok()) << exprs.status().to_string();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    constexpr std::size_t kCols = 7;
    const std::vector<double> table = random_table(seed, 2000 * kCols);
    wire::DataPiece piece;
    piece.meta = adios::local_array_var("zion", DataType::kDouble,
                                        {table.size() / kCols, kCols});
    piece.region = piece.meta.block;
    piece.borrowed = as_bytes_view(std::span<const double>(table));
    auto kept = zion.value()(piece);
    ASSERT_TRUE(kept.is_ok()) << kept.status().to_string();
    const std::vector<double> want = zion_reference(table, kCols);
    ASSERT_GT(want.size(), 0u);
    EXPECT_EQ(kept.value().payload, bytes_of(want));
    EXPECT_EQ(kept.value().meta.block.count[0], want.size() / kCols);

    const std::vector<double> flat = random_table(seed + 100, 3 * 500);
    auto values = exprs.value()(particle_piece(flat, 1));
    ASSERT_TRUE(values.is_ok()) << values.status().to_string();
    EXPECT_EQ(values.value().payload, bytes_of(expressions_reference(flat)));
  }
}

// ---------------------------------------------------------- concurrency --

TEST(PluginConcurrencyTest, OneCompiledPluginRunsOnManyThreads) {
  // Pooled pack tasks share one compiled plug-in; each run must see only
  // its own piece. Four threads over distinct pieces must reproduce the
  // serial outputs exactly.
  auto plugin = compile_plugin(kZionFilter);
  ASSERT_TRUE(plugin.is_ok());
  constexpr int kThreads = 4;
  constexpr int kPiecesPerThread = 3;
  constexpr std::size_t kCols = 7;
  std::vector<std::vector<double>> tables;
  for (int i = 0; i < kThreads * kPiecesPerThread; ++i) {
    tables.push_back(
        random_table(static_cast<std::uint64_t>(i) + 40, 1000 * kCols));
  }
  auto piece_of = [&](std::size_t i) {
    wire::DataPiece piece;
    piece.meta = adios::local_array_var(
        "zion", DataType::kDouble, {tables[i].size() / kCols, kCols});
    piece.region = piece.meta.block;
    piece.borrowed = as_bytes_view(std::span<const double>(tables[i]));
    return piece;
  };
  std::vector<std::vector<std::byte>> serial(tables.size());
  for (std::size_t i = 0; i < tables.size(); ++i) {
    auto out = plugin.value()(piece_of(i));
    ASSERT_TRUE(out.is_ok());
    serial[i] = out.value().payload;
  }
  std::vector<std::vector<std::byte>> parallel(tables.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 4; ++rep) {
        for (int k = 0; k < kPiecesPerThread; ++k) {
          const auto i = static_cast<std::size_t>(t * kPiecesPerThread + k);
          auto out = plugin.value()(piece_of(i));
          if (out.is_ok()) parallel[i] = std::move(out.value().payload);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 0; i < tables.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "piece " << i;
  }
}

// ---------------------------------------------------------- attribution --

/// One writer rank streams `steps` steps of a 10x2 particle table to
/// `readers` reader ranks (each reads the writer's process group). The
/// coordinator reader installs kThresholdFilter-style filtering at the
/// writer or at the readers. Returns the flexio.step.plugin.ns delta.
metrics::HistogramSnapshot plugin_hist_delta(int pack_threads, int readers,
                                             int steps, bool run_at_writer) {
  const metrics::HistogramSnapshot before =
      metrics::histogram("flexio.step.plugin.ns").snapshot();
  Runtime rt;
  rt.set_plugin_compiler(make_plugin_compiler());
  Program sim("sim", 1);
  Program viz("viz", readers);
  std::thread writer([&] {
    StreamSpec spec;
    spec.stream = "attrib";
    spec.endpoint = EndpointSpec{&sim, 0, evpath::Location{0, 0}};
    spec.method.method = "FLEXIO";
    spec.method.timeout_ms = 20000;
    spec.method.pack_threads = pack_threads;
    auto w = rt.open_writer(spec);
    ASSERT_TRUE(w.is_ok());
    std::vector<double> particles;
    for (int p = 0; p < 10; ++p) {
      particles.push_back(p);
      particles.push_back(p * 2.0);
    }
    for (int s = 0; s < steps; ++s) {
      ASSERT_TRUE(w.value()->begin_step(s).is_ok());
      ASSERT_TRUE(
          w.value()
              ->write(adios::local_array_var("zion", DataType::kDouble,
                                             {10, 2}),
                      as_bytes_view(std::span<const double>(particles)))
              .is_ok());
      ASSERT_TRUE(w.value()->end_step().is_ok());
    }
    ASSERT_TRUE(w.value()->close().is_ok());
  });
  std::vector<std::thread> reader_threads;
  for (int rank = 0; rank < readers; ++rank) {
    reader_threads.emplace_back([&, rank] {
      StreamSpec spec;
      spec.stream = "attrib";
      spec.endpoint = EndpointSpec{&viz, rank, evpath::Location{3, rank}};
      spec.method.method = "FLEXIO";
      spec.method.timeout_ms = 20000;
      auto r = rt.open_reader(spec);
      ASSERT_TRUE(r.is_ok());
      if (rank == 0) {
        ASSERT_TRUE(
            r.value()->install_plugin("zion", kThresholdFilter, run_at_writer)
                .is_ok());
      }
      for (;;) {
        auto step = r.value()->begin_step();
        if (step.status().code() == ErrorCode::kEndOfStream) break;
        ASSERT_TRUE(step.is_ok()) << step.status().to_string();
        ASSERT_TRUE(r.value()->schedule_read_pg(0).is_ok());
        ASSERT_TRUE(r.value()->perform_reads().is_ok());
        ASSERT_EQ(r.value()->pg_blocks().size(), 1u);
        // Velocity > 10 keeps particles 6..9.
        EXPECT_EQ(r.value()->pg_blocks()[0].meta.block.count[0], 4u);
        ASSERT_TRUE(r.value()->end_step().is_ok());
      }
    });
  }
  writer.join();
  for (std::thread& t : reader_threads) t.join();
  const metrics::HistogramSnapshot after =
      metrics::histogram("flexio.step.plugin.ns").snapshot();
  metrics::HistogramSnapshot delta;
  delta.count = after.count - before.count;
  delta.sum = after.sum - before.sum;
  return delta;
}

class PluginAttributionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_ = metrics::enabled();
    metrics::set_enabled(true);
  }
  void TearDown() override { metrics::set_enabled(was_); }

 private:
  bool was_ = false;
};

TEST_F(PluginAttributionTest, WriterPluginTimeRecordedPerStep) {
  constexpr int kSteps = 3;
  // Two readers give the writer two pack tasks per step, so at 4 pack
  // threads they run on the pool.
  const auto serial = plugin_hist_delta(1, 2, kSteps, /*run_at_writer=*/true);
  const auto pooled = plugin_hist_delta(4, 2, kSteps, /*run_at_writer=*/true);
  EXPECT_EQ(serial.count, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(pooled.count, serial.count);
  EXPECT_GT(serial.sum, 0u);
  EXPECT_GT(pooled.sum, 0u);
}

TEST_F(PluginAttributionTest, ReaderPluginTimeRecordedPerStep) {
  constexpr int kSteps = 3;
  const auto reader = plugin_hist_delta(1, 2, kSteps, /*run_at_writer=*/false);
  // Each reader rank records its own placement-side plug-in time.
  EXPECT_EQ(reader.count, static_cast<std::uint64_t>(2 * kSteps));
  EXPECT_GT(reader.sum, 0u);
}

}  // namespace
}  // namespace flexio::cod

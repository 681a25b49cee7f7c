#include "cod/plugin.h"

#include <cstdint>
#include <cstring>
#include <memory>

#include "cod/parser.h"

namespace flexio::cod {

namespace {

using serial::DataType;

bool supported_type(DataType t) {
  switch (t) {
    case DataType::kDouble:
    case DataType::kFloat:
    case DataType::kInt32:
    case DataType::kInt64:
      return true;
    default:
      return false;
  }
}

/// The piece's payload as doubles. An aligned kDouble payload is viewed in
/// place (the piece's own bytes, borrowed or owned); other element types,
/// and doubles at a misaligned address, are converted into `storage`.
std::span<const double> bind_input(const wire::DataPiece& piece,
                                   std::vector<double>* storage) {
  const ByteView bytes = piece.bytes();
  const std::size_t elem = serial::size_of(piece.meta.type);
  const std::size_t n = bytes.size() / elem;
  const std::byte* p = bytes.data();
  if (piece.meta.type == DataType::kDouble &&
      reinterpret_cast<std::uintptr_t>(p) % alignof(double) == 0) {
    return {reinterpret_cast<const double*>(p), n};
  }
  storage->resize(n);
  double* out = storage->data();
  switch (piece.meta.type) {
    case DataType::kDouble:
      std::memcpy(out, p, n * sizeof(double));
      break;
    case DataType::kFloat:
      for (std::size_t i = 0; i < n; ++i) {
        float v;
        std::memcpy(&v, p + i * 4, 4);
        out[i] = static_cast<double>(v);
      }
      break;
    case DataType::kInt32:
      for (std::size_t i = 0; i < n; ++i) {
        std::int32_t v;
        std::memcpy(&v, p + i * 4, 4);
        out[i] = static_cast<double>(v);
      }
      break;
    case DataType::kInt64:
      for (std::size_t i = 0; i < n; ++i) {
        std::int64_t v;
        std::memcpy(&v, p + i * 8, 8);
        out[i] = static_cast<double>(v);
      }
      break;
    default:
      FLEXIO_CHECK(false);  // supported_type() filters the rest
  }
  return *storage;
}

/// What a plug-in emits, stored directly in the piece's element type so
/// the bytes become the output payload without another pass.
struct Output {
  DataType type = DataType::kDouble;
  std::vector<std::byte> bytes;
  bool used = false;  // emit/keep_row ran at least once

  std::size_t count() const { return bytes.size() / serial::size_of(type); }

  template <typename T>
  void put(T v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
  }
  void append(double v) {
    switch (type) {
      case DataType::kDouble: put(v); break;
      case DataType::kFloat: put(static_cast<float>(v)); break;
      case DataType::kInt32: put(static_cast<std::int32_t>(v)); break;
      case DataType::kInt64: put(static_cast<std::int64_t>(v)); break;
      default: FLEXIO_CHECK(false);
    }
  }
  void append_row(const double* row, std::size_t cols) {
    if (type == DataType::kDouble) {
      const auto* p = reinterpret_cast<const std::byte*>(row);
      bytes.insert(bytes.end(), p, p + cols * sizeof(double));
      return;
    }
    for (std::size_t c = 0; c < cols; ++c) append(row[c]);
  }
};

/// Build the per-execution environment. `out` is owned by the caller;
/// `input` must outlive the run.
void build_env(Environment* env, std::span<const double> input,
               std::uint64_t rows, std::uint64_t cols, Output* out) {
  env->add_global("n", static_cast<double>(input.size()));
  env->add_global("rows", static_cast<double>(rows));
  env->add_global("cols", static_cast<double>(cols));
  env->add_array("input", input);
  env->add_builtin("emit", 1, [out](std::span<const double> args) {
    out->used = true;
    out->append(args[0]);
    return StatusOr<double>(0.0);
  });
  env->add_builtin(
      "keep_row", 1,
      [out, input, cols](std::span<const double> args) -> StatusOr<double> {
        out->used = true;
        // Range-check the double first: the row truncates toward zero, so
        // (-1, rows) is the valid range when there is a whole row, and NaN
        // or a huge value never reaches the integer conversion. With
        // cols == 0 every row is empty and any non-negative row is kept.
        const double row = args[0];
        const std::size_t whole_rows = cols > 0 ? input.size() / cols : 0;
        if (!(row > -1.0) ||
            (cols > 0 && (!(row < static_cast<double>(whole_rows)) ||
                          whole_rows == 0))) {
          return make_error(ErrorCode::kOutOfRange, "keep_row out of bounds");
        }
        if (cols == 0) return 0.0;
        out->append_row(input.data() + static_cast<std::size_t>(row) * cols,
                        cols);
        return 0.0;
      });
}

/// Shape of the piece as (rows, cols): 2-D blocks expose their natural
/// shape; everything else is a flat row-major vector with cols == 1.
void piece_shape(const wire::DataPiece& piece, std::uint64_t n,
                 std::uint64_t* rows, std::uint64_t* cols) {
  const adios::Box& box = piece.meta.shape == adios::ShapeKind::kLocalArray
                              ? piece.meta.block
                              : piece.region;
  if (box.ndim() == 2) {
    *rows = box.count[0];
    *cols = box.count[1];
  } else {
    *rows = n;
    *cols = 1;
  }
}

}  // namespace

StatusOr<PluginFn> compile_plugin(const std::string& source,
                                  const VmLimits& limits) {
  auto ast = parse(source);
  if (!ast.is_ok()) return ast.status();
  if (ast.value().find("transform") == nullptr) {
    return make_error(ErrorCode::kInvalidArgument,
                      "plug-in must define void transform()");
  }
  // Compile against a prototype environment with the canonical shape; the
  // values are rebound per execution.
  Environment proto;
  Output proto_out;
  build_env(&proto, {}, 0, 1, &proto_out);
  auto compiled = compile(ast.value(), proto);
  if (!compiled.is_ok()) return compiled.status();

  // Shared, immutable: concurrent pack tasks run it against their own
  // pieces, each with its own environment and output.
  auto program =
      std::make_shared<const CompiledProgram>(std::move(compiled).value());
  return PluginFn([program, limits](const wire::DataPiece& piece)
                      -> StatusOr<wire::DataPiece> {
    if (!supported_type(piece.meta.type)) {
      return make_error(ErrorCode::kUnimplemented,
                        "unsupported payload type for plug-in");
    }
    std::vector<double> converted;
    const std::span<const double> input = bind_input(piece, &converted);
    std::uint64_t rows = 0, cols = 1;
    piece_shape(piece, input.size(), &rows, &cols);

    Output emitted;
    emitted.type = piece.meta.type;
    emitted.bytes.reserve(input.size() * serial::size_of(piece.meta.type));
    Environment env;
    build_env(&env, input, rows, cols, &emitted);
    auto result = run(*program, "transform", {}, env, limits);
    if (!result.is_ok()) return result.status();

    if (!emitted.used) return piece;  // annotation-only plug-in: pass through

    // The output piece takes the input's description, never its payload.
    wire::DataPiece out;
    out.meta = piece.meta;
    out.region = piece.region;
    const std::size_t count = emitted.count();
    if (piece.meta.shape == adios::ShapeKind::kLocalArray) {
      if (cols > 1 && count % cols != 0) {
        return make_error(ErrorCode::kInvalidArgument,
                          "plug-in emitted a partial row");
      }
      out.meta.block.count[0] = cols > 0 ? count / cols : 0;
      out.region = out.meta.block;
    } else if (count != input.size()) {
      return make_error(
          ErrorCode::kInvalidArgument,
          "plug-ins on global arrays must preserve the element count");
    }
    out.payload = std::move(emitted.bytes);
    return out;
  });
}

PluginCompiler make_plugin_compiler(const VmLimits& limits) {
  return [limits](const std::string& source) {
    return compile_plugin(source, limits);
  };
}

}  // namespace flexio::cod

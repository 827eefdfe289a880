// Seeded inputs of the three workloads: the operand catalog (written as
// Matrix-Market files), the expression pools, the per-connection request
// streams, and the benchmark's own reference algebra over non-zero patterns.
//
// The reference algebra (Pattern and Eval) deliberately shares no code with
// src/mnc/matrix: every generated value is a positive integer, so no sum or
// product of values can cancel to zero and the non-zero structure of any
// expression here is the boolean algebra over patterns.

#ifndef PERFBENCH_DRIVER_INPUTS_H_
#define PERFBENCH_DRIVER_INPUTS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// Row-major non-zero pattern with sorted, unique column indices per row.
struct Pattern {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> ptr;  // rows + 1 offsets into idx
  std::vector<int32_t> idx;

  int64_t nnz() const { return static_cast<int64_t>(idx.size()); }
};

Pattern TransposePattern(const Pattern& a);
Pattern ProductPattern(const Pattern& a, const Pattern& b);
Pattern UnionPattern(const Pattern& a, const Pattern& b);
Pattern IntersectPattern(const Pattern& a, const Pattern& b);

// Expression tree the generator builds; rendered to the serve language and
// evaluated by the reference algebra.
struct Ast;
using AstPtr = std::shared_ptr<const Ast>;
struct Ast {
  enum class Op { kLeaf, kMatMul, kTranspose, kAdd, kMul, kNotZero };
  Op op = Op::kLeaf;
  int operand = -1;  // kLeaf only
  AstPtr a, b;
};

AstPtr LeafAst(int operand);
AstPtr MakeAst(Ast::Op op, AstPtr a, AstPtr b = nullptr);

// Serve-language text, parenthesized for the parser's precedence (left-deep
// %*% chains print without parentheses).
std::string Render(const AstPtr& e, const std::vector<std::string>& names);

void CollectOperands(const AstPtr& e, std::vector<int>* out);

// Reference non-zero pattern of `e` with operand i bound to *leaves[i].
Pattern EvalPattern(const AstPtr& e, const std::vector<const Pattern*>& leaves);

enum class Verb : uint8_t { kEstimate = 0, kExec = 1, kRegister = 2 };
inline constexpr int kNumVerbs = 3;
const char* VerbName(Verb v);

struct Operand {
  std::string name;
  std::string kind;               // "uniform", "power-law", ...
  std::vector<Pattern> versions;  // content versions; [0] is registered first
  std::vector<std::string> files; // absolute .mtx path per version
};

// One pool expression whose output the benchmark checks and whose estimate
// accuracy it reports.
struct PoolExpr {
  std::string text;
  AstPtr ast;
};

struct Request {
  Verb verb = Verb::kEstimate;
  std::string line;       // full command line sent over the socket
  int64_t task = -1;      // >= 0: the request belongs to this task
  bool task_end = false;  // the last request of its task
};

// Per-connection request generator; deterministic for (seed, connection).
class RequestStream {
 public:
  virtual ~RequestStream() = default;
  virtual Request Next() = 0;
};

struct Workload {
  std::string name;
  int connections = 1;
  // Catalog registration: `register-path` (streaming, sketch-only leaves)
  // or `register` (materialized leaves that `exec` can evaluate).
  bool streaming_catalog = false;
  // Whether the request streams send `register`; the other workloads'
  // register latency comes from probes outside the timed phase.
  bool registers_in_load = false;
  std::vector<Operand> operands;
  // Expressions whose output nnz the reference computes: the exec pool on
  // exec-*, single products of catalog operands (matrix, and the scripts'
  // element-wise X * (X + Y)) on estimate-optimizer.
  std::vector<PoolExpr> accuracy_pool;
  // A task is what one caller waits for as a unit: one `exec` on exec-*,
  // one script's whole compile loop on estimate-optimizer.
  std::string task_name;
  std::function<std::unique_ptr<RequestStream>(int connection)> make_stream;

  std::vector<std::string> SetupCommands() const;
};

// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// Writes every operand version to `dir` and fills Operand::files. Returns
// an error message, empty on success.
std::string WriteOperandFiles(Workload* w, const std::string& dir,
                              uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_INPUTS_H_

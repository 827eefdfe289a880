#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "common.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Reference pattern algebra.

namespace {

Pattern FromRows(int64_t rows, int64_t cols,
                 std::vector<std::pair<int32_t, int32_t>> entries) {
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  Pattern p;
  p.rows = rows;
  p.cols = cols;
  p.ptr.assign(static_cast<size_t>(rows) + 1, 0);
  p.idx.reserve(entries.size());
  for (const auto& [r, c] : entries) {
    ++p.ptr[static_cast<size_t>(r) + 1];
    p.idx.push_back(c);
  }
  for (int64_t i = 0; i < rows; ++i) p.ptr[i + 1] += p.ptr[i];
  return p;
}

// Row-wise merge of two same-shaped patterns; `keep(in_a, in_b)` decides.
template <typename Keep>
Pattern MergePatterns(const Pattern& a, const Pattern& b, Keep keep) {
  Pattern out;
  out.rows = a.rows;
  out.cols = a.cols;
  out.ptr.assign(static_cast<size_t>(a.rows) + 1, 0);
  for (int64_t i = 0; i < a.rows; ++i) {
    int64_t p = a.ptr[i], q = b.ptr[i];
    const int64_t pe = a.ptr[i + 1], qe = b.ptr[i + 1];
    while (p < pe || q < qe) {
      int32_t col;
      bool in_a = false, in_b = false;
      if (q >= qe || (p < pe && a.idx[p] < b.idx[q])) {
        col = a.idx[p++];
        in_a = true;
      } else if (p >= pe || b.idx[q] < a.idx[p]) {
        col = b.idx[q++];
        in_b = true;
      } else {
        col = a.idx[p++];
        ++q;
        in_a = in_b = true;
      }
      if (keep(in_a, in_b)) out.idx.push_back(col);
    }
    out.ptr[i + 1] = static_cast<int64_t>(out.idx.size());
  }
  return out;
}

}  // namespace

Pattern TransposePattern(const Pattern& a) {
  Pattern t;
  t.rows = a.cols;
  t.cols = a.rows;
  t.ptr.assign(static_cast<size_t>(a.cols) + 1, 0);
  for (int32_t c : a.idx) ++t.ptr[static_cast<size_t>(c) + 1];
  for (int64_t i = 0; i < t.rows; ++i) t.ptr[i + 1] += t.ptr[i];
  t.idx.resize(a.idx.size());
  std::vector<int64_t> next(t.ptr.begin(), t.ptr.end() - 1);
  for (int64_t r = 0; r < a.rows; ++r) {
    for (int64_t k = a.ptr[r]; k < a.ptr[r + 1]; ++k) {
      t.idx[next[a.idx[k]]++] = static_cast<int32_t>(r);
    }
  }
  return t;
}

Pattern ProductPattern(const Pattern& a, const Pattern& b) {
  Pattern out;
  out.rows = a.rows;
  out.cols = b.cols;
  out.ptr.assign(static_cast<size_t>(a.rows) + 1, 0);
  // Sparse accumulator: a per-column stamp marks the columns hit in row i.
  std::vector<int64_t> stamp(static_cast<size_t>(b.cols), -1);
  std::vector<int32_t> row;
  for (int64_t i = 0; i < a.rows; ++i) {
    row.clear();
    for (int64_t p = a.ptr[i]; p < a.ptr[i + 1]; ++p) {
      const int32_t k = a.idx[p];
      for (int64_t q = b.ptr[k]; q < b.ptr[k + 1]; ++q) {
        const int32_t j = b.idx[q];
        if (stamp[j] != i) {
          stamp[j] = i;
          row.push_back(j);
        }
      }
      if (static_cast<int64_t>(row.size()) == b.cols) break;  // row is full
    }
    if (static_cast<int64_t>(row.size()) * 8 > b.cols) {
      // Dense-ish row: emit in order by scanning the stamps.
      for (int64_t j = 0; j < b.cols; ++j) {
        if (stamp[j] == i) out.idx.push_back(static_cast<int32_t>(j));
      }
    } else {
      std::sort(row.begin(), row.end());
      out.idx.insert(out.idx.end(), row.begin(), row.end());
    }
    out.ptr[i + 1] = static_cast<int64_t>(out.idx.size());
  }
  return out;
}

Pattern UnionPattern(const Pattern& a, const Pattern& b) {
  return MergePatterns(a, b, [](bool x, bool y) { return x || y; });
}

Pattern IntersectPattern(const Pattern& a, const Pattern& b) {
  return MergePatterns(a, b, [](bool x, bool y) { return x && y; });
}

// ---------------------------------------------------------------------------
// Expression trees.

AstPtr LeafAst(int operand) {
  auto e = std::make_shared<Ast>();
  e->op = Ast::Op::kLeaf;
  e->operand = operand;
  return e;
}

AstPtr MakeAst(Ast::Op op, AstPtr a, AstPtr b) {
  auto e = std::make_shared<Ast>();
  e->op = op;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

namespace {

bool IsAtom(const AstPtr& e) {
  return e->op == Ast::Op::kLeaf || e->op == Ast::Op::kTranspose;
}

std::string Wrapped(const AstPtr& e, const std::vector<std::string>& names) {
  return IsAtom(e) ? Render(e, names) : "(" + Render(e, names) + ")";
}

}  // namespace

std::string Render(const AstPtr& e, const std::vector<std::string>& names) {
  switch (e->op) {
    case Ast::Op::kLeaf:
      return names[static_cast<size_t>(e->operand)];
    case Ast::Op::kTranspose:
      return "t(" + Render(e->a, names) + ")";
    case Ast::Op::kMatMul: {
      // The parser's %*% is left-associative: a left-deep chain needs no
      // parentheses on its left spine.
      const std::string left = e->a->op == Ast::Op::kMatMul
                                    ? Render(e->a, names)
                                    : Wrapped(e->a, names);
      return left + " %*% " + Wrapped(e->b, names);
    }
    case Ast::Op::kAdd:
      return Wrapped(e->a, names) + " + " + Wrapped(e->b, names);
    case Ast::Op::kMul:
      return Wrapped(e->a, names) + " * " + Wrapped(e->b, names);
    case Ast::Op::kNotZero:
      return Wrapped(e->a, names) + " != 0";
  }
  return "";
}

void CollectOperands(const AstPtr& e, std::vector<int>* out) {
  if (e == nullptr) return;
  if (e->op == Ast::Op::kLeaf) {
    if (std::find(out->begin(), out->end(), e->operand) == out->end()) {
      out->push_back(e->operand);
    }
    return;
  }
  CollectOperands(e->a, out);
  CollectOperands(e->b, out);
}

Pattern EvalPattern(const AstPtr& e,
                    const std::vector<const Pattern*>& leaves) {
  switch (e->op) {
    case Ast::Op::kLeaf:
      return *leaves[static_cast<size_t>(e->operand)];
    case Ast::Op::kTranspose:
      return TransposePattern(EvalPattern(e->a, leaves));
    case Ast::Op::kMatMul:
      return ProductPattern(EvalPattern(e->a, leaves),
                            EvalPattern(e->b, leaves));
    case Ast::Op::kAdd:
      return UnionPattern(EvalPattern(e->a, leaves),
                          EvalPattern(e->b, leaves));
    case Ast::Op::kMul:
      return IntersectPattern(EvalPattern(e->a, leaves),
                              EvalPattern(e->b, leaves));
    case Ast::Op::kNotZero:
      return EvalPattern(e->a, leaves);  // values are never zero
  }
  return {};
}

const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kEstimate: return "estimate";
    case Verb::kExec: return "exec";
    case Verb::kRegister: return "register";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Operand generators. Every operand is square n x n.

namespace {

// Random permutation of 0..n-1 (Fisher-Yates).
std::vector<int32_t> Shuffled(int64_t n, Rng& rng) {
  std::vector<int32_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(v[i], v[rng.Below(static_cast<uint64_t>(i + 1))]);
  }
  return v;
}

// Draws (row, col) positions with `draw` until `nnz` distinct ones are held,
// in at most 64 rounds (the heaviest power-law rows can saturate).
template <typename Draw>
Pattern DistinctEntries(int64_t n, int64_t nnz, Draw draw) {
  std::vector<std::pair<int32_t, int32_t>> e;
  e.reserve(static_cast<size_t>(nnz));
  for (int round = 0; round < 64 && static_cast<int64_t>(e.size()) < nnz;
       ++round) {
    for (int64_t k = static_cast<int64_t>(e.size()); k < nnz; ++k) {
      e.push_back(draw());
    }
    std::sort(e.begin(), e.end());
    e.erase(std::unique(e.begin(), e.end()), e.end());
  }
  return FromRows(n, n, std::move(e));
}

Pattern UniformPattern(int64_t n, int64_t nnz, Rng& rng) {
  return DistinctEntries(n, nnz, [&] {
    const auto r = static_cast<int32_t>(rng.Below(n));
    return std::pair(r, static_cast<int32_t>(rng.Below(n)));
  });
}

// Rows and columns both follow a Zipf law (exponent `alpha`) over a random
// ranking, so a few rows and columns are heavy.
Pattern PowerLawPattern(int64_t n, int64_t nnz, double alpha, Rng& rng) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -alpha);
    cdf[i] = acc;
  }
  for (double& x : cdf) x /= acc;
  const std::vector<int32_t> rows = Shuffled(n, rng);
  const std::vector<int32_t> cols = Shuffled(n, rng);
  auto rank = [&] {
    const auto k = std::upper_bound(cdf.begin(), cdf.end(), rng.Uniform());
    return std::min<size_t>(static_cast<size_t>(k - cdf.begin()), n - 1);
  };
  return DistinctEntries(n, nnz, [&] {
    const int32_t r = rows[rank()];
    return std::pair(r, cols[rank()]);
  });
}

Pattern PermutationPattern(int64_t n, Rng& rng) {
  const std::vector<int32_t> perm = Shuffled(n, rng);
  std::vector<std::pair<int32_t, int32_t>> e;
  for (int64_t i = 0; i < n; ++i) {
    e.emplace_back(static_cast<int32_t>(i), perm[i]);
  }
  return FromRows(n, n, std::move(e));
}

Pattern DiagonalPattern(int64_t n) {
  std::vector<std::pair<int32_t, int32_t>> e;
  for (int64_t i = 0; i < n; ++i) {
    e.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(i));
  }
  return FromRows(n, n, std::move(e));
}

Pattern OnePerRowPattern(int64_t n, Rng& rng) {
  std::vector<std::pair<int32_t, int32_t>> e;
  for (int64_t i = 0; i < n; ++i) {
    e.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(rng.Below(n)));
  }
  return FromRows(n, n, std::move(e));
}

Pattern MakePattern(const std::string& kind, int64_t n, int64_t nnz,
                    Rng& rng) {
  if (kind == "uniform") return UniformPattern(n, nnz, rng);
  if (kind == "power-law") return PowerLawPattern(n, nnz, 0.7, rng);
  if (kind == "permutation") return PermutationPattern(n, rng);
  if (kind == "diagonal") return DiagonalPattern(n);
  return OnePerRowPattern(n, rng);  // "one-per-row"
}

Operand MakeOperand(std::string name, std::string kind, int64_t n,
                    int64_t nnz, int versions, Rng& rng) {
  Operand op;
  op.name = std::move(name);
  op.kind = std::move(kind);
  for (int v = 0; v < versions; ++v) {
    op.versions.push_back(MakePattern(op.kind, n, nnz, rng));
  }
  return op;
}

std::vector<std::string> Names(const std::vector<Operand>& ops) {
  std::vector<std::string> names;
  for (const Operand& op : ops) names.push_back(op.name);
  return names;
}

// Left-deep product of `factors`.
AstPtr Chain(const std::vector<AstPtr>& factors) {
  AstPtr e = factors.front();
  for (size_t i = 1; i < factors.size(); ++i) {
    e = MakeAst(Ast::Op::kMatMul, e, factors[i]);
  }
  return e;
}

// ---------------------------------------------------------------------------
// estimate-optimizer: an optimizer's compile loop over a sketch-only
// catalog. Each script is a chain of 4-10 square factors; the caller asks
// for every contiguous sub-chain of length >= 2 in increasing length, the
// order the dynamic program of the paper's App. C needs them in.

constexpr int64_t kOptN = 2048;
constexpr int64_t kOptCatalogNnz = 1'000'000;
constexpr int kOptPoolScripts = 24;
constexpr double kOptPoolZipf = 1.2;  // popularity skew of pool scripts
constexpr double kOptFreshShare = 0.10;
constexpr double kOptDecoratedShare = 0.20;

using Script = std::vector<AstPtr>;  // factors

Script DrawScript(int len, bool decorated, int num_operands, Rng& rng) {
  Script s;
  for (int i = 0; i < len; ++i) {
    s.push_back(LeafAst(static_cast<int>(rng.Below(num_operands))));
  }
  if (decorated) {
    // Decorate one or two factors with t(), !=, + or * nodes. X * (X + Y)
    // keeps X's pattern, so no factor is empty.
    const int count = static_cast<int>(rng.Range(1, 2));
    for (int c = 0; c < count; ++c) {
      const size_t pos = rng.Below(s.size());
      const AstPtr x = s[pos];
      const AstPtr y = LeafAst(static_cast<int>(rng.Below(num_operands)));
      switch (rng.Below(4)) {
        case 0: s[pos] = MakeAst(Ast::Op::kTranspose, x); break;
        case 1: s[pos] = MakeAst(Ast::Op::kNotZero, x); break;
        case 2: s[pos] = MakeAst(Ast::Op::kAdd, x, y); break;
        default:
          s[pos] = MakeAst(Ast::Op::kMul, x, MakeAst(Ast::Op::kAdd, x, y));
      }
    }
  }
  return s;
}

std::vector<std::string> SubChainTexts(const Script& s,
                                       const std::vector<std::string>& names) {
  std::vector<std::string> texts;
  for (size_t len = 2; len <= s.size(); ++len) {
    for (size_t i = 0; i + len <= s.size(); ++i) {
      texts.push_back(
          Render(Chain(Script(s.begin() + i, s.begin() + i + len)), names));
    }
  }
  return texts;
}

class OptimizerStream : public RequestStream {
 public:
  OptimizerStream(std::shared_ptr<const std::vector<std::vector<std::string>>>
                      pool,
                  std::vector<double> cdf, std::vector<std::string> names,
                  uint64_t seed, int connection)
      : pool_(std::move(pool)),
        cdf_(std::move(cdf)),
        names_(std::move(names)),
        rng_(seed, 1000 + connection) {}

  Request Next() override {
    if (pos_ >= current_.size()) {
      ++task_;
      pos_ = 0;
      if (rng_.Chance(kOptFreshShare)) {
        const int len = static_cast<int>(rng_.Range(4, 10));
        const bool decorated = rng_.Chance(kOptDecoratedShare);
        current_ = SubChainTexts(
            DrawScript(len, decorated, static_cast<int>(names_.size()), rng_),
            names_);
      } else {
        const double u = rng_.Uniform();
        size_t k = static_cast<size_t>(
            std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        current_ = (*pool_)[std::min(k, pool_->size() - 1)];
      }
    }
    const bool last = pos_ + 1 == current_.size();
    return {Verb::kEstimate, "estimate " + current_[pos_++], task_, last};
  }

 private:
  std::shared_ptr<const std::vector<std::vector<std::string>>> pool_;
  std::vector<double> cdf_;
  std::vector<std::string> names_;
  Rng rng_;
  std::vector<std::string> current_;
  size_t pos_ = 0;
  int64_t task_ = -1;
};

std::unique_ptr<Workload> MakeEstimateOptimizer(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "estimate-optimizer";
  w->connections = 3;
  w->streaming_catalog = true;
  w->task_name = "compile";
  Rng rng(seed, 1);
  // 11 operands with ~21 non-zeros per row share the bulk of the 1e6
  // non-zeros; the 5 structured ones hold n each.
  const std::vector<std::string> kinds = {
      "uniform",   "uniform",     "uniform",     "uniform",
      "uniform",   "uniform",     "power-law",   "power-law",
      "power-law", "power-law",   "power-law",   "permutation",
      "permutation", "diagonal",  "one-per-row", "one-per-row"};
  const int64_t bulk_nnz = (kOptCatalogNnz - 5 * kOptN) / 11;
  for (size_t i = 0; i < kinds.size(); ++i) {
    w->operands.push_back(MakeOperand("A" + std::to_string(i), kinds[i], kOptN,
                                      bulk_nnz, 1, rng));
  }
  const std::vector<std::string> names = Names(w->operands);
  auto pool = std::make_shared<std::vector<std::vector<std::string>>>();
  std::vector<double> cdf;
  double acc = 0;
  // A script's popularity rank fixes its length and whether it is
  // decorated, so every seed has the same work mix; the seed picks the
  // operands.
  for (int r = 0; r < kOptPoolScripts; ++r) {
    const Script script = DrawScript(4 + (3 * r) % 7, r % 5 == 3,
                                     static_cast<int>(names.size()), rng);
    pool->push_back(SubChainTexts(script, names));
    acc += std::pow(static_cast<double>(r + 1), -kOptPoolZipf);
    cdf.push_back(acc);
  }
  for (double& x : cdf) x /= acc;
  // Estimate accuracy over single products of the catalog: each operand
  // times the operands 1, 2, 3 and 5 places after it, and element-wise
  // times its sum with the operand 3 places after it (the X * (X + Y)
  // factor scripts carry), so every seed pairs the same kinds.
  const int n_ops = static_cast<int>(names.size());
  for (int i = 0; i < n_ops; ++i) {
    const AstPtr x = LeafAst(i);
    std::vector<AstPtr> products;
    for (int d : {1, 2, 3, 5}) {
      products.push_back(Chain({x, LeafAst((i + d) % n_ops)}));
    }
    products.push_back(MakeAst(
        Ast::Op::kMul, x, MakeAst(Ast::Op::kAdd, x, LeafAst((i + 3) % n_ops))));
    for (const AstPtr& p : products) {
      w->accuracy_pool.push_back({Render(p, names), p});
    }
  }
  w->make_stream = [pool, cdf, names, seed](int connection) {
    return std::make_unique<OptimizerStream>(pool, cdf, names, seed,
                                             connection);
  };
  return w;
}

// ---------------------------------------------------------------------------
// exec-hypersparse-churn: a runtime executing hypersparse chains, with an
// occasional re-registration of one operand to an alternate file.
//
// The pool is built from a few families, each a 9-factor chain whose
// prefixes (3-8 products) are the family's expressions, as scripts that
// reuse sub-expressions are. Prefixes share canonical nodes, so the estimate
// working set (both versions of the churned operand included) fits the
// default 8 MB memo: this is the "fits" workload beside estimate-optimizer.

constexpr int64_t kChurnN = 4096;
constexpr double kChurnDensity = 1e-4;
// Family templates, one letter per factor: U uniform (X0-X2), P
// permutation (X3, X4), D diagonal (X5), O one-per-row (X6), C the churned
// one-per-row X7; lower case is transposed. Fixed kinds keep the work mix
// the same for every seed; the seed picks U and P instances and contents.
constexpr const char* kChurnFamilies[] = {"UPoUDPCUP", "PUCDUOPUD",
                                          "UOPUCPDOU", "DUPOUPCDU"};
constexpr int kNumChurnFamilies = 4;
constexpr double kChurnRegisterShare = 0.05;
constexpr double kChurnEstimateShare = 0.10;

std::vector<AstPtr> Prefix(const std::vector<AstPtr>& f, int products) {
  return std::vector<AstPtr>(f.begin(), f.begin() + products + 1);
}

// Nine expressions of 3-8 products over family `f` (and the next family
// `g` for the element-wise forms): the six chain prefixes, one `!= 0`, one
// element-wise product and one sum. The product is P * (P + Q), which has
// P's pattern, so it is never empty; its two sides are correlated, so an
// estimate that assumes independence misses it by orders of magnitude. The
// per-operator error metrics keep that miss apart from the chains'.
std::vector<AstPtr> FamilyExprs(const std::vector<AstPtr>& f,
                                const std::vector<AstPtr>& g, bool first) {
  std::vector<AstPtr> out;
  for (int k = 3; k <= 8; ++k) out.push_back(Chain(Prefix(f, k)));
  out.push_back(MakeAst(Ast::Op::kNotZero, Chain(Prefix(f, 5))));
  const AstPtr p = Chain(Prefix(f, 2));
  out.push_back(
      MakeAst(Ast::Op::kMul, p, MakeAst(Ast::Op::kAdd, p, Chain(Prefix(g, 2)))));
  if (first) {
    out.push_back(MakeAst(Ast::Op::kAdd, Chain(Prefix(f, 2)),
                          Chain(Prefix(g, 4))));
  } else {
    out.push_back(MakeAst(
        Ast::Op::kAdd, MakeAst(Ast::Op::kNotZero, Chain(Prefix(f, 3))),
        Chain(Prefix(g, 3))));
  }
  return out;
}

class ChurnStream : public RequestStream {
 public:
  ChurnStream(std::shared_ptr<const std::vector<std::string>> pool,
              std::vector<std::pair<std::string, std::vector<std::string>>>
                  churn,
              uint64_t seed, int connection)
      : pool_(std::move(pool)),
        churn_(std::move(churn)),
        rng_(seed, 2000 + connection) {}

  Request Next() override {
    const double u = rng_.Uniform();
    if (u < kChurnRegisterShare) {
      const auto& [name, files] = churn_[rng_.Below(churn_.size())];
      return {Verb::kRegister,
              "register " + name + " " + files[rng_.Below(files.size())], -1,
              false};
    }
    const std::string& text = (*pool_)[rng_.Below(pool_->size())];
    if (u < kChurnRegisterShare + kChurnEstimateShare) {
      return {Verb::kEstimate, "estimate " + text, -1, false};
    }
    return {Verb::kExec, "exec " + text, ++task_, true};
  }

 private:
  std::shared_ptr<const std::vector<std::string>> pool_;
  std::vector<std::pair<std::string, std::vector<std::string>>> churn_;
  Rng rng_;
  int64_t task_ = -1;
};

std::unique_ptr<Workload> MakeExecChurn(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "exec-hypersparse-churn";
  w->connections = 3;
  w->registers_in_load = true;
  w->task_name = "exec";
  Rng rng(seed, 2);
  const int64_t nnz = static_cast<int64_t>(kChurnDensity * kChurnN * kChurnN);
  // X7 has an alternate version that `register` re-binds to.
  const std::vector<std::pair<std::string, int>> kinds = {
      {"uniform", 1},     {"uniform", 1},     {"uniform", 1},
      {"permutation", 1}, {"permutation", 1}, {"diagonal", 1},
      {"one-per-row", 1}, {"one-per-row", 2}};
  for (size_t i = 0; i < kinds.size(); ++i) {
    w->operands.push_back(MakeOperand("X" + std::to_string(i), kinds[i].first,
                                      kChurnN, nnz, kinds[i].second, rng));
  }
  const std::vector<std::string> names = Names(w->operands);
  std::vector<const Pattern*> base;
  for (const Operand& op : w->operands) base.push_back(&op.versions[0]);
  // The accuracy metric (max/min of estimated and true nnz) is undefined
  // for an empty output, so instances are drawn until a family's full chain
  // is non-empty; every prefix then is too.
  std::vector<std::vector<AstPtr>> families;
  for (const char* kinds_of : kChurnFamilies) {
    std::vector<AstPtr> f;
    do {
      f.clear();
      for (const char* k = kinds_of; *k != '\0'; ++k) {
        int op = 0;
        switch (*k | 0x20) {  // lower case
          case 'u': op = static_cast<int>(rng.Below(3)); break;
          case 'p': op = 3 + static_cast<int>(rng.Below(2)); break;
          case 'd': op = 5; break;
          case 'o': op = 6; break;
          default: op = 7;
        }
        f.push_back(*k >= 'a' ? MakeAst(Ast::Op::kTranspose, LeafAst(op))
                              : LeafAst(op));
      }
    } while (EvalPattern(Chain(f), base).nnz() == 0);
    families.push_back(f);
  }
  auto pool = std::make_shared<std::vector<std::string>>();
  for (int i = 0; i < kNumChurnFamilies; ++i) {
    for (const AstPtr& e : FamilyExprs(
             families[i], families[(i + 1) % kNumChurnFamilies], i % 2 == 0)) {
      const std::string text = Render(e, names);
      if (std::find(pool->begin(), pool->end(), text) != pool->end()) continue;
      pool->push_back(text);
      w->accuracy_pool.push_back({text, e});
    }
  }
  // Streams get paths only after WriteOperandFiles; capture the workload's
  // operands by pointer (the Workload outlives its streams).
  const Workload* self = w.get();
  w->make_stream = [pool, self, seed](int connection) {
    std::vector<std::pair<std::string, std::vector<std::string>>> churn;
    for (const Operand& op : self->operands) {
      if (op.files.size() > 1) churn.emplace_back(op.name, op.files);
    }
    return std::make_unique<ChurnStream>(pool, std::move(churn), seed,
                                         connection);
  };
  return w;
}

// ---------------------------------------------------------------------------
// exec-densify: chains whose intermediates cross the dense threshold, so
// the time goes to matrix products.

constexpr int64_t kDenseN = 1024;
constexpr double kDenseDensity = 0.004;
constexpr int kDensePool = 32;

class DensifyStream : public RequestStream {
 public:
  DensifyStream(std::shared_ptr<const std::vector<std::string>> pool,
                uint64_t seed, int connection)
      : pool_(std::move(pool)), rng_(seed, 3000 + connection) {}

  // Each exec is followed by one estimate of the same text.
  Request Next() override {
    if (pending_estimate_.empty()) {
      const std::string& text = (*pool_)[rng_.Below(pool_->size())];
      pending_estimate_ = "estimate " + text;
      return {Verb::kExec, "exec " + text, ++task_, true};
    }
    Request r{Verb::kEstimate, std::move(pending_estimate_), -1, false};
    pending_estimate_.clear();
    return r;
  }

 private:
  std::shared_ptr<const std::vector<std::string>> pool_;
  Rng rng_;
  std::string pending_estimate_;
  int64_t task_ = -1;
};

std::unique_ptr<Workload> MakeExecDensify(uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = "exec-densify";
  w->connections = 2;
  w->task_name = "exec";
  Rng rng(seed, 3);
  const int64_t nnz = static_cast<int64_t>(kDenseDensity * kDenseN * kDenseN);
  const std::vector<std::string> kinds = {"uniform",   "uniform",
                                          "uniform",   "uniform",
                                          "power-law", "power-law"};
  for (size_t i = 0; i < kinds.size(); ++i) {
    w->operands.push_back(MakeOperand("D" + std::to_string(i), kinds[i],
                                      kDenseN, nnz, 1, rng));
  }
  const std::vector<std::string> names = Names(w->operands);
  // Fixed templates keep the work mix the same for every seed: the product
  // count, and where the chain's one power-law factor sits (two power-law
  // factors in one chain make the cost hinge on how their heavy rows and
  // columns happen to align). The seed picks the operands and contents.
  auto pool = std::make_shared<std::vector<std::string>>();
  for (int i = 0; i < kDensePool;) {
    const int products = i < 10 ? 3 : i < 22 ? 4 : 5;
    std::vector<AstPtr> f;
    for (int k = 0; k <= products; ++k) {
      f.push_back(LeafAst(static_cast<int>(rng.Below(4))));
    }
    if (i % 3 != 2) {
      f[i % (products + 1)] = LeafAst(4 + static_cast<int>(rng.Below(2)));
    }
    const AstPtr e = Chain(f);
    const std::string text = Render(e, names);
    if (std::find(pool->begin(), pool->end(), text) != pool->end()) continue;
    pool->push_back(text);
    w->accuracy_pool.push_back({text, e});
    ++i;
  }
  w->make_stream = [pool, seed](int connection) {
    return std::make_unique<DensifyStream>(pool, seed, connection);
  };
  return w;
}

}  // namespace

std::vector<std::string> Workload::SetupCommands() const {
  std::vector<std::string> cmds;
  for (const Operand& op : operands) {
    cmds.push_back((streaming_catalog ? "register-path " : "register ") +
                   op.name + " " + op.files[0]);
  }
  return cmds;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "estimate-optimizer") return MakeEstimateOptimizer(seed);
  if (name == "exec-hypersparse-churn") return MakeExecChurn(seed);
  if (name == "exec-densify") return MakeExecDensify(seed);
  return nullptr;
}

std::string WriteOperandFiles(Workload* w, const std::string& dir,
                              uint64_t seed) {
  Rng values(seed, 4);
  std::string buf;
  for (Operand& op : w->operands) {
    op.files.clear();
    for (size_t v = 0; v < op.versions.size(); ++v) {
      const Pattern& p = op.versions[v];
      const std::string path =
          dir + "/" + op.name + "_v" + std::to_string(v) + ".mtx";
      buf.clear();
      buf += "%%MatrixMarket matrix coordinate real general\n";
      buf += std::to_string(p.rows) + " " + std::to_string(p.cols) + " " +
             std::to_string(p.nnz()) + "\n";
      char line[64];
      for (int64_t r = 0; r < p.rows; ++r) {
        for (int64_t k = p.ptr[r]; k < p.ptr[r + 1]; ++k) {
          // Positive integer values: no cancellation anywhere (see header).
          const int n = std::snprintf(line, sizeof(line), "%lld %d %d\n",
                                      static_cast<long long>(r + 1),
                                      p.idx[k] + 1,
                                      static_cast<int>(1 + values.Below(9)));
          buf.append(line, static_cast<size_t>(n));
        }
      }
      std::FILE* f = std::fopen(path.c_str(), "wb");
      if (f == nullptr) return "cannot create " + path;
      const bool ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
      if (std::fclose(f) != 0 || !ok) return "cannot write " + path;
      op.files.push_back(path);
    }
  }
  return "";
}

}  // namespace perfbench

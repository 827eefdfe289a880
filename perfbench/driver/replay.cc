#include "replay.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common.h"
#include "mnc/core/mnc_estimator.h"
#include "mnc/core/mnc_sketch.h"
#include "mnc/ingest/stream_sketch.h"
#include "mnc/ingest/triplet_source.h"
#include "mnc/ir/evaluator.h"
#include "mnc/ir/expr_hash.h"
#include "mnc/ir/sketch_propagator.h"
#include "mnc/lang/parser.h"
#include "mnc/matrix/io.h"
#include "mnc/matrix/matrix.h"
#include "mnc/matrix/ops_product.h"
#include "mnc/serve/frame.h"

namespace perfbench {

namespace {

// Times calls and records one span per call.
class Recorder {
 public:
  explicit Recorder(ReplayResult* out) : out_(out) {}

  int64_t NewSpanId() { return kReplayIdBase | next_id_++; }

  template <typename Fn>
  auto Time(const char* name, int64_t parent, int64_t request, double weight,
            Fn&& fn) {
    const int64_t start = NowNs();
    auto result = fn();
    const int64_t end = NowNs();
    Record(name, start, end, parent, request, weight);
    return result;
  }

  void Record(const char* name, int64_t start, int64_t end, int64_t parent,
              int64_t request, double weight) {
    out_->spans.push_back({name, start, end, NewSpanId(), parent, request});
    const double us = static_cast<double>(end - start) / 1e3;
    CallStats& c = out_->calls[name];
    ++c.calls;
    c.total_us += us;
    c.weighted_calls += weight;
    c.weighted_us += weight * us;
  }

 private:
  static constexpr int64_t kReplayIdBase = int64_t{1} << 56;
  ReplayResult* out_;
  int64_t next_id_ = 1;
};

// Multiply-add count of a b over the non-zero pairs: sum over k of
// nnz(column k of a) * nnz(row k of b).
double ProductFlops(const mnc::Matrix& a, const mnc::Matrix& b) {
  std::vector<double> col(static_cast<size_t>(a.cols()), 0);
  if (a.is_dense()) {
    const mnc::DenseMatrix& d = a.dense();
    for (int64_t i = 0; i < d.rows(); ++i) {
      for (int64_t j = 0; j < d.cols(); ++j) {
        if (d.data()[i * d.cols() + j] != 0) ++col[j];
      }
    }
  } else {
    for (int64_t c : a.csr().col_idx()) ++col[c];
  }
  double flops = 0;
  for (int64_t k = 0; k < b.rows(); ++k) {
    double row = 0;
    if (b.is_dense()) {
      const mnc::DenseMatrix& d = b.dense();
      for (int64_t j = 0; j < d.cols(); ++j) {
        if (d.data()[k * d.cols() + j] != 0) ++row;
      }
    } else {
      row = static_cast<double>(b.csr().RowNnz(k));
    }
    flops += col[k] * row;
  }
  return flops;
}

// Distinct nodes of a DAG, children before parents.
std::vector<mnc::ExprPtr> PostOrder(const mnc::ExprPtr& root) {
  std::vector<mnc::ExprPtr> order;
  std::unordered_set<const mnc::ExprNode*> seen;
  std::function<void(const mnc::ExprPtr&)> visit =
      [&](const mnc::ExprPtr& n) {
        if (n == nullptr || !seen.insert(n.get()).second) return;
        visit(n->left());
        visit(n->right());
        order.push_back(n);
      };
  visit(root);
  return order;
}

}  // namespace

ReplayResult ReplayLayers(const Workload& w, std::vector<ReplayItem> items,
                          double budget_ms) {
  ReplayResult out;
  Recorder rec(&out);

  // Twin catalog: every operand file is read, sketched and stream-sketched.
  std::map<std::string, mnc::ExprPtr> leaves;
  std::unordered_map<const mnc::ExprNode*, uint64_t> leaf_fp;
  using SketchMap = std::unordered_map<const mnc::ExprNode*,
                                       std::shared_ptr<const mnc::MncSketch>>;
  SketchMap leaf_sketch;
  const int64_t catalog_span = rec.NewSpanId();
  const int64_t catalog_start = NowNs();
  for (size_t i = 0; i < w.operands.size(); ++i) {
    const Operand& op = w.operands[i];
    for (size_t v = 0; v < op.files.size(); ++v) {
      const std::string& path = op.files[v];
      auto csr = rec.Time("matrix.mtx_read", catalog_span, 0, 0, [&] {
        return mnc::ReadMatrixMarketFile(path);
      });
      if (!csr.ok()) {
        out.errors.push_back(csr.status().ToString());
        continue;
      }
      auto sketch = rec.Time("core.sketch_build", catalog_span, 0, 0, [&] {
        return std::make_shared<const mnc::MncSketch>(
            mnc::MncSketch::FromCsr(*csr));
      });
      auto streamed = rec.Time("ingest.stream", catalog_span, 0, 0, [&] {
        auto src = mnc::ingest::OpenTripletSource(path);
        if (!src.ok()) return mnc::StatusOr<mnc::MncSketch>(src.status());
        return mnc::ingest::BuildSketchStreaming(
            **src, mnc::ingest::StreamSketchOptions{});
      });
      if (!streamed.ok()) {
        out.errors.push_back(streamed.status().ToString());
        continue;
      }
      if (v != 0) continue;  // the catalog binds version 0
      mnc::ExprPtr leaf;
      if (w.streaming_catalog) {
        leaf = mnc::ExprNode::SketchLeaf(op.name, csr->rows(), csr->cols(),
                                         i + 1);
        leaf_fp[leaf.get()] = i + 1;
        leaf_sketch[leaf.get()] =
            std::make_shared<const mnc::MncSketch>(std::move(*streamed));
      } else {
        leaf = mnc::ExprNode::Leaf(mnc::Matrix::AutoFromCsr(std::move(*csr)),
                                   op.name);
        leaf_fp[leaf.get()] = mnc::MatrixFingerprint(leaf->matrix());
        leaf_sketch[leaf.get()] = sketch;
      }
      leaves[op.name] = leaf;
    }
  }
  out.spans.push_back({"replay.catalog", catalog_start, NowNs(), catalog_span,
                       0, 0});

  const mnc::LeafFingerprintFn resolver = [&leaf_fp](const mnc::ExprNode& n) {
    if (auto it = leaf_fp.find(&n); it != leaf_fp.end()) return it->second;
    return n.has_matrix() ? mnc::MatrixFingerprint(n.matrix())
                          : n.leaf_fingerprint();
  };

  std::stable_sort(items.begin(), items.end(),
                   [](const ReplayItem& a, const ReplayItem& b) {
                     return a.weight > b.weight;
                   });
  for (const ReplayItem& item : items) {
    out.weight_total += static_cast<double>(item.weight);
  }
  const int64_t budget_end = NowNs() + static_cast<int64_t>(budget_ms * 1e6);
  const std::map<std::string, mnc::Matrix> no_matrices;
  for (size_t r = 0; r < items.size() && NowNs() < budget_end; ++r) {
    const ReplayItem& item = items[r];
    const double weight = static_cast<double>(item.weight);
    const int64_t request = static_cast<int64_t>(r) + 1;
    const int64_t parent = rec.NewSpanId();
    const int64_t request_start = NowNs();
    ++out.requests;
    out.weight_replayed += weight;

    // serve: encode and decode the request and its reply frame.
    out.frame_bytes += rec.Time("serve.frame", parent, request, weight, [&] {
      mnc::serve::FrameReader reader;
      const std::string req = mnc::serve::EncodeFrame(
          mnc::serve::MakeRequestFrame(request, item.line));
      reader.Append(req.data(), req.size());
      auto a = reader.Next();
      const std::string rep = mnc::serve::EncodeFrame(
          mnc::serve::MakeReplyFrame(request, item.served_by, false,
                                     item.body));
      reader.Append(rep.data(), rep.size());
      auto b = reader.Next();
      const bool ok = a.ok() && a->has_value() && b.ok() && b->has_value();
      return ok ? static_cast<int64_t>(req.size() + rep.size()) : int64_t{0};
    });

    if (item.verb != Verb::kRegister) {
      const std::string text = item.line.substr(item.line.find(' ') + 1);
      const mnc::ParseResult parsed =
          rec.Time("lang.parse", parent, request, weight, [&] {
            return mnc::ParseProgram(text, no_matrices, leaves);
          });
      if (!parsed.ok()) {
        out.errors.push_back("parse '" + text + "': " + parsed.error);
      } else if (item.verb == Verb::kEstimate) {
        const mnc::ExprPtr canonical =
            rec.Time("ir.canonicalize", parent, request, weight, [&] {
              return mnc::CanonicalizeExpr(parsed.expr, resolver);
            });
        mnc::ExprHasher hasher(resolver);
        rec.Time("ir.hash", parent, request, weight,
                 [&] { return hasher.Hash(canonical); });
        SketchMap sketches = leaf_sketch;
        for (const mnc::ExprPtr& node : PostOrder(canonical)) {
          ++out.canonical_nodes;
          if (node->is_leaf()) continue;
          const mnc::MncSketch& left = *sketches.at(node->left().get());
          const mnc::MncSketch* right =
              node->right() != nullptr ? sketches.at(node->right().get()).get()
                                       : nullptr;
          sketches[node.get()] =
              rec.Time("core.propagate", parent, request, weight, [&] {
                return std::make_shared<const mnc::MncSketch>(
                    mnc::PropagateNodeSketch(*node, left, right,
                                             hasher.Hash(node)));
              });
          if (node->op() == mnc::OpKind::kMatMul) {
            rec.Time("core.alg1", parent, request, weight, [&] {
              return mnc::EstimateProductNnz(left, *right);
            });
          }
        }
      } else {
        mnc::Evaluator evaluator;
        auto result = rec.Time("ir.evaluate", parent, request, weight, [&] {
          return evaluator.TryEvaluate(parsed.expr);
        });
        if (!result.ok()) {
          out.errors.push_back("evaluate '" + text +
                               "': " + result.status().ToString());
        } else {
          // Each product again on the operands the evaluator produced (its
          // cache returns them without recomputation).
          for (const mnc::ExprPtr& node : PostOrder(parsed.expr)) {
            if (node->is_leaf() || node->op() != mnc::OpKind::kMatMul) continue;
            const mnc::Matrix a = evaluator.Evaluate(node->left());
            const mnc::Matrix b = evaluator.Evaluate(node->right());
            const mnc::Matrix c =
                rec.Time("matrix.product", parent, request, weight,
                         [&] { return mnc::Multiply(a, b); });
            ++out.products;
            out.product_flops += ProductFlops(a, b);
            out.product_out_nnz += static_cast<double>(c.NumNonZeros());
            out.weighted_products += weight;
            if (c.is_dense()) out.weighted_dense_products += weight;
          }
        }
      }
    }
    out.spans.push_back(
        {"replay.request", request_start, NowNs(), parent, 0, request});
  }
  return out;
}

}  // namespace perfbench

#include "nn/infer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "obs/stages.h"
#include "obs/trace.h"

#if defined(DLACEP_HAVE_MVEC) && defined(__x86_64__)
#define DLACEP_VECTOR_CELL 1
#include <immintrin.h>
// glibc's AVX2 vector exp (libmvec, <= 4 ulp): five transcendentals per
// hidden unit per step make the scalar cell update as expensive as the
// GEMMs, so the fused cell processes four lanes per exp call where the
// CPU allows. Selected once at runtime; the scalar path remains the
// portable fallback.
extern "C" __m256d _ZGVdN4v_exp(__m256d);
extern "C" __m512d _ZGVeN8v_exp(__m512d);
#endif

namespace dlacep {

namespace {

inline double SigmoidScalar(double v) { return 1.0 / (1.0 + std::exp(-v)); }

#ifdef DLACEP_VECTOR_CELL

__attribute__((target("avx2,fma"))) inline __m256d VecSigmoid(__m256d v) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d e = _ZGVdN4v_exp(_mm256_sub_pd(_mm256_setzero_pd(), v));
  return _mm256_div_pd(one, _mm256_add_pd(one, e));
}

// tanh(x) = 1 - 2/(exp(2x) + 1); saturates to ±1 when exp over/underflows.
__attribute__((target("avx2,fma"))) inline __m256d VecTanh(__m256d v) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d e = _ZGVdN4v_exp(_mm256_mul_pd(two, v));
  return _mm256_sub_pd(one, _mm256_div_pd(two, _mm256_add_pd(e, one)));
}

/// One LSTM cell update over all H lanes: reads the fused gate row
/// g = [i|f|g|o] (1×4H pre-activations), advances c/h state in place,
/// and writes h_t to `orow`.
__attribute__((target("avx2,fma"))) void CellUpdateAvx2(const double* g,
                                                        size_t h, double* cs,
                                                        double* hs,
                                                        double* orow) {
  size_t j = 0;
  for (; j + 4 <= h; j += 4) {
    const __m256d i_gate = VecSigmoid(_mm256_loadu_pd(g + j));
    const __m256d f_gate = VecSigmoid(_mm256_loadu_pd(g + h + j));
    const __m256d g_gate = VecTanh(_mm256_loadu_pd(g + 2 * h + j));
    const __m256d o_gate = VecSigmoid(_mm256_loadu_pd(g + 3 * h + j));
    const __m256d c_t = _mm256_add_pd(
        _mm256_mul_pd(f_gate, _mm256_loadu_pd(cs + j)),
        _mm256_mul_pd(i_gate, g_gate));
    const __m256d h_t = _mm256_mul_pd(o_gate, VecTanh(c_t));
    _mm256_storeu_pd(cs + j, c_t);
    _mm256_storeu_pd(hs + j, h_t);
    _mm256_storeu_pd(orow + j, h_t);
  }
  for (; j < h; ++j) {
    const double i_gate = SigmoidScalar(g[j]);
    const double f_gate = SigmoidScalar(g[h + j]);
    const double g_gate = std::tanh(g[2 * h + j]);
    const double o_gate = SigmoidScalar(g[3 * h + j]);
    const double c_t = f_gate * cs[j] + i_gate * g_gate;
    const double h_t = o_gate * std::tanh(c_t);
    cs[j] = c_t;
    hs[j] = h_t;
    orow[j] = h_t;
  }
}

/// The recurrent gate update g += h_prev·Wh (1×H times H×4H) with the
/// 1×4H destination held in registers across the whole reduction: four
/// accumulators per 16-lane chunk, one broadcast + four FMAs per Wh
/// row segment. The generic GEMM path reloads the C row once per
/// k-block; at T calls per sequence that memory traffic dominates, so
/// the recurrence gets its own kernel.
__attribute__((target("avx2,fma"))) void RecurrentUpdateAvx2(
    const double* hs, const double* wh, double* g, size_t h, size_t n) {
  size_t j0 = 0;
  for (; j0 + 16 <= n; j0 += 16) {
    __m256d acc0 = _mm256_loadu_pd(g + j0);
    __m256d acc1 = _mm256_loadu_pd(g + j0 + 4);
    __m256d acc2 = _mm256_loadu_pd(g + j0 + 8);
    __m256d acc3 = _mm256_loadu_pd(g + j0 + 12);
    for (size_t k = 0; k < h; ++k) {
      const __m256d a = _mm256_set1_pd(hs[k]);
      const double* row = wh + k * n + j0;
      acc0 = _mm256_fmadd_pd(a, _mm256_loadu_pd(row), acc0);
      acc1 = _mm256_fmadd_pd(a, _mm256_loadu_pd(row + 4), acc1);
      acc2 = _mm256_fmadd_pd(a, _mm256_loadu_pd(row + 8), acc2);
      acc3 = _mm256_fmadd_pd(a, _mm256_loadu_pd(row + 12), acc3);
    }
    _mm256_storeu_pd(g + j0, acc0);
    _mm256_storeu_pd(g + j0 + 4, acc1);
    _mm256_storeu_pd(g + j0 + 8, acc2);
    _mm256_storeu_pd(g + j0 + 12, acc3);
  }
  for (; j0 + 4 <= n; j0 += 4) {
    __m256d acc = _mm256_loadu_pd(g + j0);
    for (size_t k = 0; k < h; ++k) {
      acc = _mm256_fmadd_pd(_mm256_set1_pd(hs[k]),
                            _mm256_loadu_pd(wh + k * n + j0), acc);
    }
    _mm256_storeu_pd(g + j0, acc);
  }
  for (; j0 < n; ++j0) {
    double sum = g[j0];
    for (size_t k = 0; k < h; ++k) sum += hs[k] * wh[k * n + j0];
    g[j0] = sum;
  }
}

// 512-bit twins of the two kernels above: same per-element operation
// order (the k reduction stays serial), twice the lanes and half the
// exp calls. Worth a separate clone pair because libmvec's zmm exp is
// a distinct symbol and can't be reached from the ymm code path.
__attribute__((target("avx512f"))) inline __m512d VecSigmoid512(__m512d v) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d e = _ZGVeN8v_exp(_mm512_sub_pd(_mm512_setzero_pd(), v));
  return _mm512_div_pd(one, _mm512_add_pd(one, e));
}

__attribute__((target("avx512f"))) inline __m512d VecTanh512(__m512d v) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d two = _mm512_set1_pd(2.0);
  const __m512d e = _ZGVeN8v_exp(_mm512_mul_pd(two, v));
  return _mm512_sub_pd(one, _mm512_div_pd(two, _mm512_add_pd(e, one)));
}

__attribute__((target("avx512f"))) void CellUpdateAvx512(const double* g,
                                                         size_t h, double* cs,
                                                         double* hs,
                                                         double* orow) {
  size_t j = 0;
  for (; j + 8 <= h; j += 8) {
    const __m512d i_gate = VecSigmoid512(_mm512_loadu_pd(g + j));
    const __m512d f_gate = VecSigmoid512(_mm512_loadu_pd(g + h + j));
    const __m512d g_gate = VecTanh512(_mm512_loadu_pd(g + 2 * h + j));
    const __m512d o_gate = VecSigmoid512(_mm512_loadu_pd(g + 3 * h + j));
    const __m512d c_t = _mm512_add_pd(
        _mm512_mul_pd(f_gate, _mm512_loadu_pd(cs + j)),
        _mm512_mul_pd(i_gate, g_gate));
    const __m512d h_t = _mm512_mul_pd(o_gate, VecTanh512(c_t));
    _mm512_storeu_pd(cs + j, c_t);
    _mm512_storeu_pd(hs + j, h_t);
    _mm512_storeu_pd(orow + j, h_t);
  }
  for (; j < h; ++j) {
    const double i_gate = SigmoidScalar(g[j]);
    const double f_gate = SigmoidScalar(g[h + j]);
    const double g_gate = std::tanh(g[2 * h + j]);
    const double o_gate = SigmoidScalar(g[3 * h + j]);
    const double c_t = f_gate * cs[j] + i_gate * g_gate;
    const double h_t = o_gate * std::tanh(c_t);
    cs[j] = c_t;
    hs[j] = h_t;
    orow[j] = h_t;
  }
}

__attribute__((target("avx512f"))) void RecurrentUpdateAvx512(
    const double* hs, const double* wh, double* g, size_t h, size_t n) {
  size_t j0 = 0;
  for (; j0 + 32 <= n; j0 += 32) {
    __m512d acc0 = _mm512_loadu_pd(g + j0);
    __m512d acc1 = _mm512_loadu_pd(g + j0 + 8);
    __m512d acc2 = _mm512_loadu_pd(g + j0 + 16);
    __m512d acc3 = _mm512_loadu_pd(g + j0 + 24);
    for (size_t k = 0; k < h; ++k) {
      const __m512d a = _mm512_set1_pd(hs[k]);
      const double* row = wh + k * n + j0;
      acc0 = _mm512_fmadd_pd(a, _mm512_loadu_pd(row), acc0);
      acc1 = _mm512_fmadd_pd(a, _mm512_loadu_pd(row + 8), acc1);
      acc2 = _mm512_fmadd_pd(a, _mm512_loadu_pd(row + 16), acc2);
      acc3 = _mm512_fmadd_pd(a, _mm512_loadu_pd(row + 24), acc3);
    }
    _mm512_storeu_pd(g + j0, acc0);
    _mm512_storeu_pd(g + j0 + 8, acc1);
    _mm512_storeu_pd(g + j0 + 16, acc2);
    _mm512_storeu_pd(g + j0 + 24, acc3);
  }
  for (; j0 + 8 <= n; j0 += 8) {
    __m512d acc = _mm512_loadu_pd(g + j0);
    for (size_t k = 0; k < h; ++k) {
      acc = _mm512_fmadd_pd(_mm512_set1_pd(hs[k]),
                            _mm512_loadu_pd(wh + k * n + j0), acc);
    }
    _mm512_storeu_pd(g + j0, acc);
  }
  for (; j0 < n; ++j0) {
    double sum = g[j0];
    for (size_t k = 0; k < h; ++k) sum += hs[k] * wh[k * n + j0];
    g[j0] = sum;
  }
}

bool CpuHasAvx2Fma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

bool CpuHasAvx512() {
  static const bool ok = __builtin_cpu_supports("avx512f") && CpuHasAvx2Fma();
  return ok;
}

#endif  // DLACEP_VECTOR_CELL

void CellUpdateScalar(const double* g, size_t h, double* cs, double* hs,
                      double* orow) {
  for (size_t j = 0; j < h; ++j) {
    const double i_gate = SigmoidScalar(g[j]);
    const double f_gate = SigmoidScalar(g[h + j]);
    const double g_gate = std::tanh(g[2 * h + j]);
    const double o_gate = SigmoidScalar(g[3 * h + j]);
    const double c_t = f_gate * cs[j] + i_gate * g_gate;
    const double h_t = o_gate * std::tanh(c_t);
    cs[j] = c_t;
    hs[j] = h_t;
    orow[j] = h_t;
  }
}

using CellUpdateFn = void (*)(const double*, size_t, double*, double*,
                              double*);

CellUpdateFn PickCellUpdate() {
#ifdef DLACEP_VECTOR_CELL
  if (CpuHasAvx512()) return CellUpdateAvx512;
  if (CpuHasAvx2Fma()) return CellUpdateAvx2;
#endif
  return CellUpdateScalar;
}

#ifdef DLACEP_VECTOR_CELL
using RecurrentFn = void (*)(const double*, const double*, double*, size_t,
                             size_t);

RecurrentFn PickRecurrentUpdate() {
  if (CpuHasAvx512()) return RecurrentUpdateAvx512;
  if (CpuHasAvx2Fma()) return RecurrentUpdateAvx2;
  return nullptr;  // fall back to the shared GEMM kernel
}
#endif

Matrix Transposed(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      out(j, i) = m(i, j);
    }
  }
  return out;
}

}  // namespace

namespace {

// Process-wide fault hook (fault-injection harness only). Both words are
// published/consumed with acquire/release so a hook installed on one
// thread is seen consistently by worker-thread Reset() calls.
std::atomic<bool (*)(void*)> g_fault_hook{nullptr};
std::atomic<void*> g_fault_hook_ctx{nullptr};

}  // namespace

void SetInferenceFaultHook(bool (*hook)(void* ctx), void* ctx) {
  g_fault_hook_ctx.store(ctx, std::memory_order_release);
  g_fault_hook.store(hook, std::memory_order_release);
}

void InferenceContext::Reset() {
  next_ = 0;
  poison_ = false;
  if (auto* hook = g_fault_hook.load(std::memory_order_acquire)) {
    poison_ = hook(g_fault_hook_ctx.load(std::memory_order_acquire));
  }
}

Matrix& InferenceContext::Acquire(size_t rows, size_t cols) {
  if (next_ == pool_.size()) pool_.emplace_back();
  Matrix& m = pool_[next_++];
  m.Resize(rows, cols);
  return m;
}

void DenseInfer::Forward(const Matrix& x, Matrix* out) const {
  MatMulTransBInto(x, wt, out, /*accumulate=*/false);
  const size_t n = out->cols();
  const double* bias = b.data();
  for (size_t i = 0; i < out->rows(); ++i) {
    double* row = out->data() + i * n;
    for (size_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void LstmInfer::ForwardBatchInto(InferenceContext* ctx, const Matrix& x_all,
                                 std::span<const size_t> offsets, bool reverse,
                                 Matrix* out_all, size_t col) const {
  DLACEP_CHECK_GE(offsets.size(), 2u);
  const size_t batch = offsets.size() - 1;
  const size_t total = offsets[batch];
  DLACEP_CHECK_EQ(offsets[0], 0u);
  DLACEP_CHECK_EQ(x_all.rows(), total);
  DLACEP_CHECK_EQ(x_all.cols(), in_dim);
  DLACEP_CHECK_EQ(out_all->rows(), total);
  DLACEP_CHECK_LE(col + hidden, out_all->cols());
  const size_t h = hidden;

  // One input projection for every window in the batch: ΣT rows through
  // the register-tiled GEMM instead of B matrix-vector-shaped calls.
  // Single-window passes keep their own stage so solo marking stays
  // visible next to batched marking.
  Matrix& xproj = ctx->Acquire(total, 4 * h);
  {
    obs::TraceSpan gemm_span(batch == 1 ? obs::StageNnGemm()
                                        : obs::StageNnGemmBatched());
    MatMulInto(x_all, wx, &xproj, /*accumulate=*/false);
  }

#ifdef DLACEP_VECTOR_CELL
  // With the specialized recurrent kernel available, the lockstep GEMM
  // below loses: the kernel's register-resident 1×4H destination beats
  // a B×H · H×4H MatMulInto at these hidden sizes, and lockstep pays
  // dead-row zero fills plus strided xproj walks on top. Run the batch
  // window-major instead: per step, one fused pass fills the reused
  // 1×4H gate row (bias + precomputed projection + h·Wh, an axpy over
  // Wh rows vectorized across the gate lanes) and the cell update
  // follows, fed by the one hoisted ΣT×in projection GEMM above, with
  // weights and scratch hot across all B windows. Windows are
  // independent here; only the projection rows can differ between
  // batch groupings, by GEMM tile-edge rounding — within the tested
  // 1e-9 envelope. One span covers the whole recurrence, not each
  // step: the per-step cell work is far below clock resolution.
  if (const RecurrentFn recurrent_fn = PickRecurrentUpdate()) {
    const double* bias_row = b.data();
    const size_t out_cols = out_all->cols();
    const CellUpdateFn cell_fn = PickCellUpdate();
    Matrix& gates1 = ctx->Acquire(1, 4 * h);
    Matrix& h1 = ctx->Acquire(1, h);
    Matrix& c1 = ctx->Acquire(1, h);
    double* g = gates1.data();
    double* hs = h1.data();
    double* cs = c1.data();
    obs::TraceSpan cell_span(obs::StageNnCell());
    for (size_t w = 0; w < batch; ++w) {
      DLACEP_CHECK_LT(offsets[w], offsets[w + 1]);  // no empty windows
      const size_t t_len = offsets[w + 1] - offsets[w];
      h1.Fill(0.0);
      c1.Fill(0.0);
      for (size_t step = 0; step < t_len; ++step) {
        const size_t t = reverse ? t_len - 1 - step : step;
        const double* xrow = xproj.data() + (offsets[w] + t) * 4 * h;
        for (size_t gi = 0; gi < 4 * h; ++gi) g[gi] = xrow[gi] + bias_row[gi];
        recurrent_fn(hs, wh.data(), g, h, 4 * h);
        cell_fn(g, h, cs, hs,
                out_all->data() + (offsets[w] + t) * out_cols + col);
      }
    }
    return;
  }
#endif

  // Lockstep recurrence: one B×H hidden/cell state pair advanced for
  // all windows at once, so the recurrent term becomes a single
  // B×H · H×4H GEMM per time step — matrix-matrix work even though
  // each window alone would only offer a 1×H row.
  Matrix& gates = ctx->Acquire(batch, 4 * h);
  Matrix& h_state = ctx->Acquire(batch, h);
  Matrix& c_state = ctx->Acquire(batch, h);
  h_state.Fill(0.0);
  c_state.Fill(0.0);

  size_t t_max = 0;
  for (size_t w = 0; w < batch; ++w) {
    DLACEP_CHECK_LT(offsets[w], offsets[w + 1]);  // no empty windows
    t_max = std::max(t_max, offsets[w + 1] - offsets[w]);
  }

  const double* bias = b.data();
  const size_t out_stride = out_all->cols();
  const CellUpdateFn cell_update = PickCellUpdate();

  obs::TraceSpan cell_span(obs::StageNnCell());
  for (size_t step = 0; step < t_max; ++step) {
    // Fill the fused gate rows: an active window gets bias + its
    // precomputed projection row; a window already past its last step
    // gets zeros so the shared recurrent GEMM below stays finite (the
    // garbage it accumulates there is never read — the cell update for
    // that row is skipped, leaving its h/c state untouched).
    for (size_t w = 0; w < batch; ++w) {
      double* g = gates.data() + w * 4 * h;
      const size_t t_len = offsets[w + 1] - offsets[w];
      if (step >= t_len) {
        for (size_t gi = 0; gi < 4 * h; ++gi) g[gi] = 0.0;
        continue;
      }
      const size_t t = reverse ? t_len - 1 - step : step;
      const double* xrow = xproj.data() + (offsets[w] + t) * 4 * h;
      for (size_t gi = 0; gi < 4 * h; ++gi) g[gi] = xrow[gi] + bias[gi];
    }
    MatMulInto(h_state, wh, &gates, /*accumulate=*/true);
    for (size_t w = 0; w < batch; ++w) {
      const size_t t_len = offsets[w + 1] - offsets[w];
      if (step >= t_len) continue;
      const size_t t = reverse ? t_len - 1 - step : step;
      cell_update(gates.data() + w * 4 * h, h, c_state.data() + w * h,
                  h_state.data() + w * h,
                  out_all->data() + (offsets[w] + t) * out_stride + col);
    }
  }
}

void BiLstmInfer::ForwardBatch(InferenceContext* ctx, const Matrix& x_all,
                               std::span<const size_t> offsets,
                               Matrix* out_all) const {
  fwd.ForwardBatchInto(ctx, x_all, offsets, /*reverse=*/false, out_all, 0);
  bwd.ForwardBatchInto(ctx, x_all, offsets, /*reverse=*/true, out_all,
                       fwd.hidden);
}

const Matrix& StackedBiLstmInfer::ForwardBatch(
    InferenceContext* ctx, const Matrix& x_all,
    std::span<const size_t> offsets) const {
  DLACEP_CHECK(!layers.empty());
  obs::NnBatchWindows()->Observe(static_cast<double>(offsets.size() - 1));
  const Matrix* cur = &x_all;
  Matrix* last = nullptr;
  for (const BiLstmInfer& layer : layers) {
    Matrix& out = ctx->Acquire(cur->rows(), 2 * layer.fwd.hidden);
    layer.ForwardBatch(ctx, *cur, offsets, &out);
    cur = &out;
    last = &out;
  }
  if (ctx->poisoned()) {
    // A poisoned pass invalidates the whole batch: every window in it
    // gets a NaN trunk activation and will be marked kInvalidMark.
    last->Fill(std::numeric_limits<double>::quiet_NaN());
  }
  return *last;
}

const Matrix& TcnInfer::ForwardBatch(InferenceContext* ctx,
                                     const Matrix& x_all,
                                     std::span<const size_t> offsets) const {
  DLACEP_CHECK(!layers.empty());
  const size_t batch = offsets.size() - 1;
  DLACEP_CHECK_GE(offsets.size(), 2u);
  DLACEP_CHECK_EQ(offsets[0], 0u);
  DLACEP_CHECK_EQ(x_all.rows(), offsets[batch]);
  obs::NnBatchWindows()->Observe(static_cast<double>(batch));
  // Loop-level fusion: the convolution is position-local, so the batch
  // win is keeping each layer's weights cache-warm across all B windows
  // in one pass. Boundary clamps stay window-local — row (offsets[w]+t)
  // below depends only on window w's rows, so the stacked result equals
  // B single-window passes bit for bit.
  const ptrdiff_t center = static_cast<ptrdiff_t>(kernel / 2);
  const Matrix* cur = &x_all;
  Matrix* last = nullptr;
  size_t dilation = 1;
  for (const Layer& layer : layers) {
    const size_t d_in = cur->cols();
    const size_t d_out = layer.b.cols();
    DLACEP_CHECK_EQ(layer.wt.cols(), kernel * d_in);
    Matrix& out = ctx->Acquire(x_all.rows(), d_out);
    const double* bias = layer.b.data();
    for (size_t w = 0; w < batch; ++w) {
      const size_t begin = offsets[w];
      const size_t t_steps = offsets[w + 1] - begin;
      for (size_t t = 0; t < t_steps; ++t) {
        double* orow = out.data() + (begin + t) * d_out;
        for (size_t o = 0; o < d_out; ++o) orow[o] = bias[o];
        for (size_t k = 0; k < kernel; ++k) {
          const ptrdiff_t src =
              static_cast<ptrdiff_t>(t) +
              (static_cast<ptrdiff_t>(k) - center) *
                  static_cast<ptrdiff_t>(dilation);
          if (src < 0 || src >= static_cast<ptrdiff_t>(t_steps)) continue;
          const double* xrow =
              cur->data() + (begin + static_cast<size_t>(src)) * d_in;
          for (size_t o = 0; o < d_out; ++o) {
            const double* wrow =
                layer.wt.data() + o * (kernel * d_in) + k * d_in;
            double sum = 0.0;
            for (size_t i = 0; i < d_in; ++i) sum += xrow[i] * wrow[i];
            orow[o] += sum;
          }
        }
        for (size_t o = 0; o < d_out; ++o) orow[o] = std::max(0.0, orow[o]);
      }
    }
    cur = &out;
    last = &out;
    dilation *= 2;
  }
  if (ctx->poisoned()) {
    last->Fill(std::numeric_limits<double>::quiet_NaN());
  }
  return *last;
}

DenseInfer Freeze(const Dense& layer) {
  DenseInfer frozen;
  frozen.wt = Transposed(layer.weight());
  frozen.b = layer.bias();
  return frozen;
}

LstmInfer Freeze(const Lstm& layer) {
  LstmInfer frozen;
  frozen.in_dim = layer.wx().rows();
  frozen.hidden = layer.hidden_dim();
  frozen.wx = layer.wx();
  frozen.wh = layer.wh();
  frozen.b = layer.bias();
  return frozen;
}

BiLstmInfer Freeze(const BiLstm& layer) {
  BiLstmInfer frozen;
  frozen.fwd = Freeze(layer.fwd());
  frozen.bwd = Freeze(layer.bwd());
  return frozen;
}

StackedBiLstmInfer Freeze(const StackedBiLstm& layer) {
  StackedBiLstmInfer frozen;
  frozen.layers.reserve(layer.num_layers());
  for (size_t i = 0; i < layer.num_layers(); ++i) {
    frozen.layers.push_back(Freeze(layer.layer(i)));
  }
  return frozen;
}

TcnInfer Freeze(const Tcn& layer) {
  TcnInfer frozen;
  frozen.kernel = layer.kernel();
  frozen.layers.reserve(layer.num_layers());
  for (size_t i = 0; i < layer.num_layers(); ++i) {
    TcnInfer::Layer l;
    l.wt = Transposed(layer.weight(i));
    l.b = layer.bias(i);
    frozen.layers.push_back(std::move(l));
  }
  return frozen;
}

}  // namespace dlacep

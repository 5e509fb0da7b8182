// Forward-only inference engine: the tape-free fast path of the nn
// library.
//
// The autograd Tape (tape.h) is built for training: every op allocates a
// node, a gradient matrix, and a backward closure. None of that is
// needed to *run* a trained network, yet the DLACEP filtration stage
// calls the forward pass once per assembler window — millions of times
// per stream at production scale. This header provides the inference
// counterpart of each layer in layers.h:
//
//  * Frozen cells (`DenseInfer`, `LstmInfer`, `BiLstmInfer`,
//    `StackedBiLstmInfer`, `TcnInfer`) hold the layer's weights repacked
//    at freeze time into the layout its forward kernel wants: Dense and
//    TCN weights transposed so every output entry is a dot product of
//    contiguous rows (the layout MatMulTransBInto runs on); LSTM weights
//    kept gate-concatenated so the whole-sequence input projection is
//    one register-tiled GEMM and one fused pass per step fills a single
//    reused 1×4H gate row. Freeze() snapshots the current parameter
//    values; a frozen cell does not track later parameter updates.
//
//  * `InferenceContext` is a reusable scratch arena. Activations and
//    gate rows are acquired from it in a deterministic per-model order,
//    so after the first window every buffer is already allocated at the
//    right capacity and subsequent windows run allocation-free. One
//    context per thread: contexts are not synchronized, the frozen
//    weights they read are shared and immutable.
//
//  * Every trunk cell has exactly one forward, `ForwardBatch`, which
//    runs B windows per call on one stacked batch-major feature slab:
//    the rows of window b occupy [offsets[b], offsets[b+1]) of an ΣT×D
//    input, `offsets` being the B+1 exclusive prefix sums of the window
//    lengths (offsets[0] = 0). A single window is the B = 1 case of the
//    same code: same input-projection GEMM, same fused cell loop.
//    Batching converts per-window matrix-vector work into matrix-matrix
//    calls on the same register-tiled kernels and amortizes the hoisted
//    input projection into a single ΣT-row GEMM. Dense and TCN forwards
//    are row-local, so their results do not depend on how windows are
//    grouped, bit for bit; the LSTM's projection GEMM may reassociate
//    additions across row-block boundaries, so activations of one
//    window batched with others match its B = 1 pass to <= 1e-9, not
//    bitwise — thresholded marks stay byte-identical (the same contract
//    the tape/fast split already relies on).
//
// The tape forward remains the golden reference: both paths must agree
// to <= 1e-9 elementwise (tests/infer_equivalence_test.cc).

#ifndef DLACEP_NN_INFER_H_
#define DLACEP_NN_INFER_H_

#include <deque>
#include <span>
#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"

namespace dlacep {

/// Reusable per-thread scratch arena for forward-only passes. Reset()
/// rewinds the cursor; Acquire() hands out the next buffer slot,
/// reshaped to the requested size with its previous contents
/// unspecified. Because a frozen model acquires buffers in the same
/// order on every call, slot i always serves the same activation and
/// its capacity converges after the first (largest) window.
class InferenceContext {
 public:
  InferenceContext() = default;
  InferenceContext(const InferenceContext&) = delete;
  InferenceContext& operator=(const InferenceContext&) = delete;

  /// Rewinds the arena; previously acquired references become free for
  /// reuse (call once at the top of each forward pass). Consults the
  /// process-wide inference fault hook (see SetInferenceFaultHook), which
  /// is how the fault-injection harness poisons a forward pass.
  void Reset();

  /// Next scratch buffer, reshaped to rows×cols. Contents unspecified —
  /// the producer must overwrite (or Fill) every entry. References stay
  /// valid until the slot is re-acquired after a Reset().
  Matrix& Acquire(size_t rows, size_t cols);

  size_t num_buffers() const { return pool_.size(); }

  /// True when the current forward pass was poisoned by the fault hook.
  /// The trunk ForwardBatch implementations consult this and NaN-fill their
  /// output activation, simulating a numeric blow-up.
  bool poisoned() const { return poison_; }

 private:
  // Deque, not vector: Acquire hands out references while later calls
  // keep appending slots — references must survive growth (same
  // reasoning as Tape's node store).
  std::deque<Matrix> pool_;
  size_t next_ = 0;
  // Set per forward pass by Reset() when the fault hook fires.
  bool poison_ = false;
};

/// Installs a process-wide fault hook consulted at every
/// InferenceContext::Reset(). When the hook returns true, that forward
/// pass is poisoned: the trunk's output activation is NaN-filled, which
/// propagates through heads/CRF into non-finite scores and the
/// kInvalidMark sentinel. Pass nullptr to clear. For fault-injection
/// tests only — not a production API. The hook must be thread-safe:
/// inference contexts reset concurrently on worker threads.
void SetInferenceFaultHook(bool (*hook)(void* ctx), void* ctx);

/// Frozen Dense: y = x·W + b with W stored transposed (out×in).
struct DenseInfer {
  Matrix wt;  ///< out×in
  Matrix b;   ///< 1×out
  /// out must be pre-shaped N×out_dim; fully overwritten. Row-local
  /// (every output row is a dot product of its own input row), so one
  /// call over a stacked slab equals per-window calls bit for bit.
  void Forward(const Matrix& x, Matrix* out) const;
};

/// Frozen LSTM cell. The input projection for the whole slab is
/// hoisted out of the recurrence and computed as one blocked GEMM
/// (ΣT×in · wx → ΣT×4H, all four gates [i|f|g|o] side by side); the
/// per-step work is then a single fused pass over a reused gate row:
/// bias + precomputed input projection + h·Wh followed by the
/// elementwise cell update.
struct LstmInfer {
  size_t in_dim = 0;
  size_t hidden = 0;
  Matrix wx;  ///< in×4H  (snapshot of Lstm's Wx: the hoisted ΣT×in·in×4H
              ///<         projection rides the register-tiled MatMulInto)
  Matrix wh;  ///< H×4H   (snapshot of Lstm's Wh: the recurrent update is
              ///<         an axpy over rows, vectorized across gates)
  Matrix b;   ///< 1×4H
  /// Runs the recurrence over B windows stacked in x_all (ΣT×in, window
  /// b at rows [offsets[b], offsets[b+1]), all lengths > 0) and writes
  /// hidden-state rows into columns [col, col+H) of `out_all` (ΣT×C,
  /// C >= col+H), rows aligned to input order (reverse=true scans each
  /// window right-to-left, like the tape path). Scratch comes from
  /// `ctx`. With the vectorized recurrent kernel available the windows
  /// run one after another on a 1×4H gate row; otherwise the B states
  /// advance in lockstep, so the recurrent term is one B×H·H×4H GEMM
  /// per step (windows shorter than the batch maximum stop
  /// participating: their gate rows are zeroed so the shared GEMM stays
  /// finite, and their cell update is skipped).
  void ForwardBatchInto(InferenceContext* ctx, const Matrix& x_all,
                        std::span<const size_t> offsets, bool reverse,
                        Matrix* out_all, size_t col) const;
};

/// Frozen BiLSTM: forward and backward cells writing the two halves of
/// one T×2H output slab — no concat op, no intermediate copies.
struct BiLstmInfer {
  LstmInfer fwd;
  LstmInfer bwd;
  /// out_all must be pre-shaped ΣT×2H; fully overwritten (see
  /// ForwardBatchInto).
  void ForwardBatch(InferenceContext* ctx, const Matrix& x_all,
                    std::span<const size_t> offsets, Matrix* out_all) const;
};

/// Frozen stacked BiLSTM.
struct StackedBiLstmInfer {
  std::vector<BiLstmInfer> layers;
  /// Forward over B windows stacked in x_all (batch-major, B+1
  /// prefix-sum `offsets`). Returns the last layer's ΣT×2H slab, which
  /// lives in `ctx` until the next Reset(); window b's activation
  /// occupies rows [offsets[b], offsets[b+1]). Observes the batch-size
  /// histogram (obs::NnBatchWindows), B = 1 included.
  const Matrix& ForwardBatch(InferenceContext* ctx, const Matrix& x_all,
                             std::span<const size_t> offsets) const;
};

/// Frozen TCN: centered dilated Conv1D + bias + ReLU per layer, with
/// each layer's (K·D_in)×hidden weight transposed to hidden×(K·D_in) so
/// tap k of output channel o is a contiguous row segment.
struct TcnInfer {
  struct Layer {
    Matrix wt;  ///< hidden×(K·D_in)
    Matrix b;   ///< 1×hidden
  };
  size_t kernel = 0;
  std::vector<Layer> layers;
  /// Forward over B stacked windows. Convolutions are position-local,
  /// so batching here is loop-level fusion over the slab with
  /// window-local boundary clamps: one pass keeps the layer weights
  /// cache-warm across all B windows, and every output row is the same
  /// arithmetic whatever the grouping. Returns the last layer's
  /// ΣT×hidden slab (lives in `ctx`). Observes the batch-size
  /// histogram, B = 1 included.
  const Matrix& ForwardBatch(InferenceContext* ctx, const Matrix& x_all,
                             std::span<const size_t> offsets) const;
};

// Freeze-time repacking: snapshot the layer's current parameter values
// into the transposed/fused inference layout. Call again after any
// parameter mutation (training step, LoadParameters) that should be
// visible to inference.
DenseInfer Freeze(const Dense& layer);
LstmInfer Freeze(const Lstm& layer);
BiLstmInfer Freeze(const BiLstm& layer);
StackedBiLstmInfer Freeze(const StackedBiLstm& layer);
TcnInfer Freeze(const Tcn& layer);

}  // namespace dlacep

#endif  // DLACEP_NN_INFER_H_

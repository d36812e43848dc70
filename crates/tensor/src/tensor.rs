//! The dense tensor type and its deterministic kernels.

use std::cell::Cell;

use crate::par;
use crate::pool;
use crate::rng::CounterRng;
use crate::shape::Shape;
use rayon::prelude::*;

/// A dense, row-major, `f32` tensor.
///
/// All operations are deterministic: given identical inputs they produce
/// bit-identical outputs regardless of thread count or scheduling. This is
/// the foundation for SWIFT's replay-based recovery.
///
/// Backing buffers come from [`crate::pool`] and return there on drop, so
/// steady-state training reuses a fixed working set instead of touching
/// the system allocator (pooled buffers are always fully overwritten
/// before they are readable — pooling never changes bits).
#[derive(PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Drop for Tensor {
    fn drop(&mut self) {
        pool::put_f32(std::mem::take(&mut self.data));
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape,
            data: pool::take_f32_copy(&self.data),
        }
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor(shape={}, numel={})", self.shape, self.numel())
    }
}

thread_local! {
    /// Set on a thread inside [`without_init_draws`].
    static SKIP_DRAWS: Cell<bool> = const { Cell::new(false) };
}

fn draws_skipped() -> bool {
    SKIP_DRAWS.with(Cell::get)
}

/// Runs `f` with random initialization switched off on the calling
/// thread: [`Tensor::uniform`] and [`Tensor::randn`] return pooled zeros of
/// the requested shape and leave their stream untouched. The previous mode
/// comes back when `f` returns or unwinds; other threads keep drawing
/// throughout.
///
/// This is for building a model whose every parameter is overwritten
/// before it is read — a replication replacement about to receive a
/// survivor's state, where the draws would only cost time. A model built
/// in here and then trained or evaluated silently starts from zeros, so
/// `cargo xtask verify` allows one call site outside tests.
pub fn without_init_draws<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SKIP_DRAWS.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SKIP_DRAWS.with(|s| s.replace(true)));
    f()
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor from raw data; `data.len()` must equal the shape's
    /// element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {shape} does not match data length {}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: pool::take_f32(shape.numel()),
            shape,
        }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let mut data = pool::take_f32_raw(n);
        data.resize(n, value);
        Tensor { shape, data }
    }

    /// Rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        let mut data = pool::take_f32_raw(1);
        data.push(value);
        Tensor {
            shape: Shape::scalar(),
            data,
        }
    }

    /// Uniform random tensor in `[lo, hi)` from a deterministic stream.
    /// Inside [`without_init_draws`] it is all zeros and draws nothing.
    pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut CounterRng) -> Self {
        if draws_skipped() {
            return Self::zeros(shape);
        }
        let shape = shape.into();
        let n = shape.numel();
        let mut data = pool::take_f32_raw(n);
        data.extend((0..n).map(|_| rng.uniform(lo, hi)));
        Tensor { shape, data }
    }

    /// Normal random tensor with the given mean and standard deviation.
    /// Inside [`without_init_draws`] it is all zeros and draws nothing.
    pub fn randn(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut CounterRng) -> Self {
        if draws_skipped() {
            return Self::zeros(shape);
        }
        let shape = shape.into();
        let n = shape.numel();
        let mut data = pool::take_f32_raw(n);
        data.extend((0..n).map(|_| mean + std * rng.normal()));
        Tensor { shape, data }
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size in bytes of the raw payload (excluding shape metadata).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Immutable view of the raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = v;
    }

    /// Value of a rank-0 or single-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor with {} elements",
            self.numel()
        );
        self.data[0]
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(shape.numel(), self.numel(), "reshape numel mismatch");
        Tensor {
            shape,
            data: pool::take_f32_copy(&self.data),
        }
    }

    /// True when the two tensors are bit-identical (shape and payload).
    pub fn bit_eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape
            && self.data.len() == other.data.len()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Maximum absolute elementwise difference; `inf` on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        if self.shape != other.shape {
            return f32::INFINITY;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    // -------------------------------------------------------- unary mapping

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync + Send) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync + Send) {
        if par::parallel_elements(self.data.len()) {
            self.data.par_iter_mut().for_each(|x| *x = f(*x));
        } else {
            self.data.iter_mut().for_each(|x| *x = f(*x));
        }
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(move |x| x * s)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(move |x| x + s)
    }

    // -------------------------------------------------------- binary zips

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync + Send) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let mut out = self.clone();
        out.zip_inplace(other, f);
        out
    }

    /// Applies `f(self, other)` elementwise in place on `self`.
    pub fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync + Send) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        if par::parallel_elements(self.data.len()) {
            self.data
                .par_iter_mut()
                .zip(other.data.par_iter())
                .for_each(|(a, &b)| *a = f(*a, b));
        } else {
            self.data
                .iter_mut()
                .zip(other.data.iter())
                .for_each(|(a, &b)| *a = f(*a, b));
        }
    }

    /// Applies `f(self, a, b)` elementwise in place on `self`.
    ///
    /// This is the fusion primitive for optimizer update/undo chains: a
    /// whole `scale → axpy → mul → div` sequence collapses into one pass
    /// over the data with zero intermediate allocations. Callers that need
    /// bit-compatibility with a previously unfused chain must replicate its
    /// exact rounding order inside `f`.
    pub fn zip2_inplace(
        &mut self,
        a: &Tensor,
        b: &Tensor,
        f: impl Fn(f32, f32, f32) -> f32 + Sync + Send,
    ) {
        assert_eq!(
            self.shape, a.shape,
            "shape mismatch: {} vs {}",
            self.shape, a.shape
        );
        assert_eq!(
            self.shape, b.shape,
            "shape mismatch: {} vs {}",
            self.shape, b.shape
        );
        if par::parallel_elements(self.data.len()) {
            self.data
                .par_iter_mut()
                .zip(a.data.par_iter().zip(b.data.par_iter()))
                .for_each(|(x, (&av, &bv))| *x = f(*x, av, bv));
        } else {
            self.data
                .iter_mut()
                .zip(a.data.iter().zip(b.data.iter()))
                .for_each(|(x, (&av, &bv))| *x = f(*x, av, bv));
        }
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise multiplication (Hadamard product).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise division.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a / b)
    }

    /// Elementwise maximum.
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, f32::max)
    }

    /// In-place `self += alpha * other` (the BLAS `axpy` primitive that
    /// underlies every optimizer update in the paper's Table 1).
    /// SIMD-dispatched; bit-identical on every tier and thread count.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        crate::simd::axpy(&mut self.data, &other.data, alpha);
    }

    /// In-place elementwise addition.
    pub fn add_inplace(&mut self, other: &Tensor) {
        self.zip_inplace(other, |a, b| a + b);
    }

    /// In-place scalar multiply.
    pub fn scale_inplace(&mut self, s: f32) {
        self.map_inplace(move |x| x * s);
    }

    // ---------------------------------------------------------- reductions

    /// Deterministic sum of all elements.
    ///
    /// Blocks of fixed extent are summed independently (possibly in
    /// parallel) and the block partials are combined in index order, so the
    /// result does not depend on the rayon schedule.
    pub fn sum(&self) -> f32 {
        deterministic_block_reduce(
            &self.data,
            |chunk| chunk.iter().sum::<f32>(),
            0.0,
            |a, b| a + b,
        )
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.sum() / self.data.len() as f32
    }

    /// Deterministic sum of squares.
    pub fn sum_sq(&self) -> f32 {
        deterministic_block_reduce(
            &self.data,
            |chunk| chunk.iter().map(|x| x * x).sum::<f32>(),
            0.0,
            |a, b| a + b,
        )
    }

    /// L2 norm (used by the LAMB optimizer's trust ratio; the paper saves
    /// this scalar to make LAMB undoable).
    pub fn l2_norm(&self) -> f32 {
        self.sum_sq().sqrt()
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        deterministic_block_reduce(
            &self.data,
            |chunk| chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max),
            f32::NEG_INFINITY,
            f32::max,
        )
    }

    /// Index of the maximum element along the last axis, per row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (rows, cols) = self.shape.as_matrix();
        (0..rows)
            .map(|r| {
                let row = &self.data[r * cols..(r + 1) * cols];
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    // -------------------------------------------------------- matrix views

    /// Sums over rows of the matrix view, producing a `[cols]` tensor
    /// (used for bias gradients).
    pub fn sum_rows(&self) -> Tensor {
        let (rows, cols) = self.shape.as_matrix();
        let mut out = pool::take_f32(cols);
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            for (o, &v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        Tensor::from_vec([cols], out)
    }

    /// Adds a `[cols]` vector to every row of the matrix view.
    pub fn add_row_vector(&self, bias: &Tensor) -> Tensor {
        let (rows, cols) = self.shape.as_matrix();
        assert_eq!(bias.numel(), cols, "bias length mismatch");
        let mut out = self.clone();
        for r in 0..rows {
            let row = &mut out.data[r * cols..(r + 1) * cols];
            for (o, &b) in row.iter_mut().zip(bias.data.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Row-wise softmax over the matrix view.
    pub fn softmax_rows(&self) -> Tensor {
        let (rows, cols) = self.shape.as_matrix();
        let mut out = self.clone();
        for r in 0..rows {
            let row = &mut out.data[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                z += *v;
            }
            let inv = 1.0 / z;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        out
    }

    /// Transposes the matrix view, returning a `[cols, rows]` tensor.
    pub fn transpose(&self) -> Tensor {
        let (rows, cols) = self.shape.as_matrix();
        let mut out = pool::take_f32(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec([cols, rows], out)
    }
}

/// Splits `data` into fixed-size blocks, reduces each block with `f`, and
/// left-folds the per-block partials in index order. Blocks may be reduced
/// in parallel; determinism follows because block boundaries are fixed and
/// the partials are always combined sequentially in index order. The
/// sequential path (small inputs, or a single rayon thread) folds as it
/// goes and allocates nothing.
fn deterministic_block_reduce<R: Send>(
    data: &[f32],
    f: impl Fn(&[f32]) -> R + Sync,
    init: R,
    fold: impl Fn(R, R) -> R,
) -> R {
    if par::parallel_elements(data.len()) && rayon::current_num_threads() > 1 {
        data.par_chunks(par::REDUCE_BLOCK)
            .map(&f)
            .collect::<Vec<R>>()
            .into_iter()
            .fold(init, fold)
    } else {
        data.chunks(par::REDUCE_BLOCK).map(f).fold(init, fold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Tensor {
        Tensor::from_vec([n], (0..n).map(|i| i as f32).collect())
    }

    #[test]
    fn ctors_shapes() {
        assert_eq!(Tensor::zeros([2, 3]).numel(), 6);
        assert_eq!(Tensor::ones([4]).sum(), 4.0);
        assert_eq!(Tensor::full([2, 2], 2.5).sum(), 10.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn from_vec_validates() {
        Tensor::from_vec([3], vec![1.0, 2.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec([3], vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).data(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.maximum(&b).data(), &[4.0, 5.0, 6.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn zip2_inplace_fuses_three_operands() {
        let mut x = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let a = Tensor::from_vec([3], vec![10.0, 20.0, 30.0]);
        let b = Tensor::from_vec([3], vec![0.5, 0.25, 0.1]);
        x.zip2_inplace(&a, &b, |x, a, b| x + a * b);
        assert_eq!(x.data(), &[6.0, 7.0, 6.0]);
    }

    #[test]
    fn zip2_inplace_parallel_matches_sequential() {
        // Same fused closure above and below the parallel threshold chunk —
        // split the same tensor so both paths run on identical data.
        let n = 100_000;
        let mut rng = CounterRng::new(3, 3);
        let x0 = Tensor::uniform([n], -1.0, 1.0, &mut rng);
        let a = Tensor::uniform([n], -1.0, 1.0, &mut rng);
        let b = Tensor::uniform([n], -1.0, 1.0, &mut rng);
        let f = |x: f32, a: f32, b: f32| 0.9 * x + 0.1 * (a * b);
        let mut par = x0.clone();
        par.zip2_inplace(&a, &b, f);
        let mut seq = x0.clone();
        for ((x, &av), &bv) in seq
            .data_mut()
            .iter_mut()
            .zip(a.data().iter())
            .zip(b.data().iter())
        {
            *x = f(*x, av, bv);
        }
        assert!(par.bit_eq(&seq));
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let g = Tensor::from_vec([3], vec![0.5, 0.5, 0.5]);
        a.axpy(-2.0, &g);
        assert_eq!(a.data(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let t = seq(5);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.sum_sq(), 0.0 + 1.0 + 4.0 + 9.0 + 16.0);
        assert!((Tensor::from_vec([2], vec![3.0, 4.0]).l2_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn large_reduction_deterministic_across_runs() {
        // Parallel path: result must be identical every evaluation.
        let t = Tensor::uniform([200_000], -1.0, 1.0, &mut CounterRng::new(1, 1));
        let s1 = t.sum();
        for _ in 0..5 {
            assert_eq!(s1.to_bits(), t.sum().to_bits());
        }
    }

    #[test]
    fn softmax_rows_normalizes() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tt = t.transpose();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.at(&[0, 1]), 4.0);
        assert!(tt.transpose().bit_eq(&t));
    }

    #[test]
    fn sum_rows_and_bias() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.sum_rows().data(), &[5.0, 7.0, 9.0]);
        let b = Tensor::from_vec([3], vec![10.0, 20.0, 30.0]);
        assert_eq!(
            t.add_row_vector(&b).data(),
            &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]
        );
    }

    #[test]
    fn argmax_rows_picks_max() {
        let t = Tensor::from_vec([2, 3], vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5]);
        assert_eq!(t.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn bit_eq_detects_payload_change() {
        let a = Tensor::ones([4]);
        let mut b = a.clone();
        assert!(a.bit_eq(&b));
        b.data_mut()[2] = 1.0 + f32::EPSILON;
        assert!(!a.bit_eq(&b));
        assert!(a.max_abs_diff(&b) > 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = seq(6);
        let r = t.reshape([2, 3]);
        assert_eq!(r.at(&[1, 2]), 5.0);
    }

    #[test]
    fn random_ctors_deterministic() {
        let a = Tensor::randn([100], 0.0, 1.0, &mut CounterRng::new(5, 0));
        let b = Tensor::randn([100], 0.0, 1.0, &mut CounterRng::new(5, 0));
        assert!(a.bit_eq(&b));
    }

    #[test]
    fn without_init_draws_hands_out_zeros_and_keeps_the_stream() {
        let mut rng = CounterRng::new(5, 0);
        let (u, n) = without_init_draws(|| {
            (
                Tensor::uniform([3, 4], -1.0, 1.0, &mut rng),
                Tensor::randn([7], 0.0, 1.0, &mut rng),
            )
        });
        assert_eq!(u.shape().dims(), &[3, 4]);
        assert_eq!(n.shape().dims(), &[7]);
        assert!(u.data().iter().chain(n.data()).all(|v| v.to_bits() == 0));
        // Nothing was drawn, and drawing resumes after the scope.
        let after = Tensor::randn([100], 0.0, 1.0, &mut rng);
        assert!(after.bit_eq(&Tensor::randn([100], 0.0, 1.0, &mut CounterRng::new(5, 0))));
    }
}

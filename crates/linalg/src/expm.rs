//! The ϕ-functions of the second-order exponential integrator.
//!
//! The partitioned stiff/non-stiff march advances its stiff partition — the
//! multiplier's rail-regularisation and storage-interface modes — with the
//! *exact* solution of the frozen-coupling linear system
//!
//! ```text
//! ẋ_s = A_ss·x_s + u,   u linear in t over one step
//! x_s(t + h) = x_s(t) + h·ϕ₁(h·A_ss)·ẋ_s(t) + h²·ϕ₂(h·A_ss)·u̇
//! ϕ₁(A) = A⁻¹·(e^A − I),   ϕ₂(A) = A⁻²·(e^A − I − A)
//! ```
//!
//! so the one primitive needed is the pair `(ϕ₁(A), ϕ₂(A))` for a small dense
//! `A` (dimension two on the assembled harvester). Both are entire in `A`, so
//! they are defined for singular and defective matrices, through the
//! three-block augmented-matrix identity
//!
//! ```text
//! exp( [A  I  0] )   [e^A  ϕ₁(A)  ϕ₂(A)]
//!      [0  0  I]   = [0      I      I  ]
//!      [0  0  0]     [0      0      I  ]
//! ```
//!
//! (the top row of `M^k` is `[A^k, A^{k−1}, A^{k−2}]`, so the exponential's
//! top blocks sum exactly the two ϕ series). The exponential is classic
//! scaling-and-squaring around a Taylor kernel: `M/2^s` is brought under an
//! ∞-norm of 1/2, where an 18-term Taylor series is accurate to well below
//! `f64` round-off (the 19th term of `e^{1/2}` is ≈ 8·10⁻²⁵), and the result
//! is squared `s` times.
//!
//! [`phi1_phi2_into`] never forms the `3n × 3n` matrix. Every power of the
//! scaled `M`, and so every Taylor partial sum and every square of one, keeps
//! the lower block rows `[0 I D]` and `[0 0 I]` with `D` a multiple of the
//! identity, so the kernel carries only the `n × 3n` top block row plus that
//! scalar, in stack scratch. It performs exactly the nonzero terms a dense
//! row-major product of the augmented matrices would, in the same order,
//! which makes it bit-identical to the dense evaluation (kept as the test
//! oracle below): every accumulator starts at `+0.0`, so a running sum is
//! never `−0.0`, and adding the skipped terms — exact zeros — would leave it
//! unchanged.

use crate::matrix::axpy_chunked;
use crate::{DMatrix, LinalgError};

/// Number of Taylor terms in the scaled kernel; with `‖B‖_∞ ≤ 1/2` the first
/// omitted term is bounded by `0.5¹⁹/19! ≈ 1.6·10⁻²³`.
const TAYLOR_TERMS: usize = 18;

/// ∞-norm threshold below which the Taylor kernel is applied directly.
const SCALING_TARGET: f64 = 0.5;

/// Both ϕ-functions of the second-order exponential integrator in one
/// pass: writes `ϕ₁(A) = A⁻¹·(e^A − I)` into `phi1` and
/// `ϕ₂(A) = A⁻²·(e^A − I − A)` into `phi2` (entire, with `ϕ₁(0) = I` and
/// `ϕ₂(0) = I/2`), valid for singular and defective `A`. Allocation-free up
/// to `4 × 4`; cost `O(n³·(18 + s))` for `s = ⌈log₂(2·(‖A‖_∞ + 1))⌉`
/// squarings.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for a non-square input,
/// [`LinalgError::DimensionMismatch`] when an output is not `n × n`, and
/// [`LinalgError::InvalidArgument`] when the input contains NaN/∞ entries (a
/// non-finite stiff sub-matrix means the linearisation upstream already
/// failed, and squaring would silently turn it into NaN soup) or its
/// ∞-norm overflows.
pub fn phi1_phi2_into(
    a: &DMatrix,
    phi1: &mut DMatrix,
    phi2: &mut DMatrix,
) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let n = a.rows();
    for out in [&*phi1, &*phi2] {
        if out.shape() != (n, n) {
            return Err(LinalgError::DimensionMismatch {
                operation: "phi output",
                left: (n, n),
                right: out.shape(),
            });
        }
    }
    if n == 0 {
        return Ok(());
    }
    if !a.is_finite() {
        return Err(LinalgError::InvalidArgument(
            "matrix exponential of a non-finite matrix".to_string(),
        ));
    }

    // Scaling: the augmented matrix's ∞-norm is its largest top-row sum
    // `Σ_j |a_ij| + 1` (the identity block adds the 1; the lower rows sum to
    // 1 and 0), always above the Taylor target.
    let norm =
        (0..n).map(|i| a.row(i).iter().map(|x| x.abs()).sum::<f64>() + 1.0).fold(0.0, f64::max);
    if !norm.is_finite() {
        return Err(LinalgError::InvalidArgument(
            "matrix exponential of a matrix whose norm overflows".to_string(),
        ));
    }
    let squarings = (norm / SCALING_TARGET).log2().ceil() as u32;

    // Scratch: the scaled `A` (n × n) and two n × 3n top block rows. The
    // dimensions the engine meets get monomorphic copies with stack scratch,
    // so the compiler sees `n` as a constant and unrolls the row kernels
    // (≈3.5× faster than a runtime `n` at n = 2).
    match n {
        1 => structured_phi(1, a, squarings, &mut [0.0; 7], phi1, phi2),
        2 => structured_phi(2, a, squarings, &mut [0.0; 28], phi1, phi2),
        3 => structured_phi(3, a, squarings, &mut [0.0; 63], phi1, phi2),
        4 => structured_phi(4, a, squarings, &mut [0.0; 112], phi1, phi2),
        _ => structured_phi(n, a, squarings, &mut vec![0.0; 7 * n * n], phi1, phi2),
    }
    Ok(())
}

/// The scaling-and-squaring evaluation on the top block row `[X Y Z]` of the
/// augmented matrix plus the scalar `D`, in `scratch` (`7·n²` zeros).
#[inline(always)]
fn structured_phi(
    n: usize,
    a: &DMatrix,
    squarings: u32,
    scratch: &mut [f64],
    phi1: &mut DMatrix,
    phi2: &mut DMatrix,
) {
    let c = 0.5_f64.powi(squarings as i32);
    let (scaled, rows) = scratch.split_at_mut(n * n);
    let (mut cur, mut next) = rows.split_at_mut(3 * n * n);
    let w = 3 * n;
    for (s, &x) in scaled.iter_mut().zip(a.as_slice()) {
        *s = c * x;
    }

    // Taylor kernel by Horner's rule, e^B ≈ I + B·(I + B/2·(… (I + B/18) …)),
    // starting from the identity: top row [I 0 0], D = 0. The product's top
    // row is `c·A·[X Y Z]` plus the scaled identity block's `c·[0 I D]`,
    // whose only nonzero terms land on Y's and Z's diagonals.
    for i in 0..n {
        cur[i * w + i] = 1.0;
    }
    let mut d = 0.0;
    for k in (1..=TAYLOR_TERMS).rev() {
        let inv_k = 1.0 / k as f64;
        for i in 0..n {
            let row = &mut next[i * w..(i + 1) * w];
            row.fill(0.0);
            for (m, &alpha) in scaled[i * n..(i + 1) * n].iter().enumerate() {
                if alpha != 0.0 {
                    axpy_chunked(row, alpha, &cur[m * w..(m + 1) * w]);
                }
            }
            row[n + i] += c;
            row[2 * n + i] += c * d;
            for v in row.iter_mut() {
                *v *= inv_k;
            }
            row[i] += 1.0;
        }
        d = c * inv_k;
        std::mem::swap(&mut cur, &mut next);
    }

    // Undo the scaling: [X Y Z]² keeps the lower rows [0 I 2D], [0 0 I] and
    // has top row [X·X, X·Y + Y, X·Z + Y·D + Z].
    for _ in 0..squarings {
        for i in 0..n {
            let left = &cur[i * w..(i + 1) * w];
            let row = &mut next[i * w..(i + 1) * w];
            row.fill(0.0);
            for (m, &alpha) in left[..n].iter().enumerate() {
                if alpha != 0.0 {
                    axpy_chunked(row, alpha, &cur[m * w..(m + 1) * w]);
                }
            }
            for (m, &alpha) in left[n..2 * n].iter().enumerate() {
                if alpha != 0.0 {
                    row[n + m] += alpha;
                    row[2 * n + m] += alpha * d;
                }
            }
            for (m, &alpha) in left[2 * n..].iter().enumerate() {
                if alpha != 0.0 {
                    row[2 * n + m] += alpha;
                }
            }
        }
        d += d;
        std::mem::swap(&mut cur, &mut next);
    }

    for i in 0..n {
        phi1.row_mut(i).copy_from_slice(&cur[i * w + n..i * w + 2 * n]);
        phi2.row_mut(i).copy_from_slice(&cur[i * w + 2 * n..(i + 1) * w]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DVector;

    /// The dense reference: `e^A` by scaling-and-squaring the Taylor kernel
    /// through full matrix products.
    fn expm(a: &DMatrix) -> Result<DMatrix, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        if n == 0 {
            return Ok(DMatrix::zeros(0, 0));
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidArgument("non-finite".to_string()));
        }
        let norm = a.norm_inf();
        let squarings =
            if norm > SCALING_TARGET { ((norm / SCALING_TARGET).log2().ceil()) as u32 } else { 0 };
        let scaled = a.scaled(0.5_f64.powi(squarings as i32));
        let mut result = DMatrix::identity(n);
        let mut product = DMatrix::zeros(n, n);
        for k in (1..=TAYLOR_TERMS).rev() {
            scaled.mul_matrix_into(&result, &mut product)?;
            product.scale_mut(1.0 / k as f64);
            result.copy_from(&product);
            for i in 0..n {
                result.add_to(i, i, 1.0);
            }
        }
        for _ in 0..squarings {
            result.mul_matrix_into(&result, &mut product)?;
            std::mem::swap(&mut result, &mut product);
        }
        Ok(result)
    }

    /// The oracle the structured kernel must match bit for bit: one dense
    /// `3n × 3n` [`expm`] of the augmented matrix and a block extraction.
    fn phi1_phi2_augmented(a: &DMatrix) -> Result<(DMatrix, DMatrix), LinalgError> {
        let n = a.rows();
        let mut augmented = DMatrix::zeros(3 * n, 3 * n);
        augmented.set_block(0, 0, a);
        for i in 0..n {
            augmented.set(i, n + i, 1.0);
            augmented.set(n + i, 2 * n + i, 1.0);
        }
        let exponential = expm(&augmented)?;
        Ok((exponential.block(0, n, n, n), exponential.block(0, 2 * n, n, n)))
    }

    /// The structured kernel with freshly allocated outputs.
    fn phis(a: &DMatrix) -> Result<(DMatrix, DMatrix), LinalgError> {
        let n = a.rows();
        let (mut p1, mut p2) = (DMatrix::zeros(n, n), DMatrix::zeros(n, n));
        phi1_phi2_into(a, &mut p1, &mut p2)?;
        Ok((p1, p2))
    }

    fn phi1(a: &DMatrix) -> DMatrix {
        phis(a).unwrap().0
    }

    #[test]
    fn scalar_exponential_matches_exp() {
        for &x in &[-30.0, -4.1e4 * 2e-4, -1.0, -1e-9, 0.0, 0.3, 2.0] {
            let a = DMatrix::from_rows(&[&[x]]).unwrap();
            let e = expm(&a).unwrap();
            assert!(
                (e[(0, 0)] - x.exp()).abs() <= 1e-14 * x.exp().max(1.0),
                "exp({x}) = {} vs {}",
                e[(0, 0)],
                x.exp()
            );
        }
    }

    #[test]
    fn diagonal_exponential_is_elementwise() {
        let a = DMatrix::from_diagonal(&DVector::from_slice(&[-2.0, 3.0]));
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - (-2.0f64).exp()).abs() < 1e-14);
        assert!((e[(1, 1)] - 3.0f64.exp()).abs() < 1e-13 * 3.0f64.exp());
        assert_eq!(e[(0, 1)], 0.0);
        assert_eq!(e[(1, 0)], 0.0);
    }

    #[test]
    fn rotation_generator_exponentiates_to_a_rotation() {
        let theta = 1.1_f64;
        let a = DMatrix::from_rows(&[&[0.0, -theta], &[theta, 0.0]]).unwrap();
        let e = expm(&a).unwrap();
        assert!((e[(0, 0)] - theta.cos()).abs() < 1e-14);
        assert!((e[(0, 1)] + theta.sin()).abs() < 1e-14);
        assert!((e[(1, 0)] - theta.sin()).abs() < 1e-14);
        assert!((e[(1, 1)] - theta.cos()).abs() < 1e-14);
    }

    #[test]
    fn nilpotent_exponential_truncates_exactly() {
        // exp([[0, 1], [0, 0]]) = [[1, 1], [0, 1]].
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let e = expm(&a).unwrap();
        assert_eq!(e[(0, 0)], 1.0);
        assert!((e[(0, 1)] - 1.0).abs() < 1e-15);
        assert_eq!(e[(1, 0)], 0.0);
        assert_eq!(e[(1, 1)], 1.0);
    }

    #[test]
    fn semigroup_property_under_heavy_scaling() {
        // exp(A) must equal exp(A/2)², exercising the squaring path on a
        // stiff-scale matrix (the rail pole magnitude at a large step).
        let a = DMatrix::from_rows(&[&[-35.0, 4.0], &[1.0, -20.0]]).unwrap();
        let whole = expm(&a).unwrap();
        let half = expm(&a.scaled(0.5)).unwrap();
        let squared = half.mul_matrix(&half).unwrap();
        let scale = whole.max_abs().max(1e-30);
        assert!(whole.max_abs_diff(&squared).unwrap() / scale < 1e-12);
    }

    #[test]
    fn phi1_of_zero_is_identity() {
        let p = phi1(&DMatrix::zeros(2, 2));
        assert!(p.max_abs_diff(&DMatrix::identity(2)).unwrap() < 1e-15);
    }

    #[test]
    fn phi1_scalar_matches_closed_form() {
        for &x in &[-8.0, -1.0, -1e-8, 0.5, 3.0] {
            let a = DMatrix::from_rows(&[&[x]]).unwrap();
            let p = phi1(&a);
            let exact = if x.abs() < 1e-6 { 1.0 + x / 2.0 + x * x / 6.0 } else { x.exp_m1() / x };
            assert!(
                (p[(0, 0)] - exact).abs() < 1e-13 * exact.abs().max(1.0),
                "phi1({x}) = {} vs {exact}",
                p[(0, 0)]
            );
        }
    }

    #[test]
    fn phi1_satisfies_its_defining_identity_on_invertible_input() {
        // A·ϕ₁(A) = e^A − I.
        let a = DMatrix::from_rows(&[&[-3.0, 1.0], &[0.5, -7.0]]).unwrap();
        let lhs = a.mul_matrix(&phi1(&a)).unwrap();
        let mut rhs = expm(&a).unwrap();
        for i in 0..2 {
            rhs.add_to(i, i, -1.0);
        }
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-13);
    }

    #[test]
    fn exact_linear_step_reproduces_the_analytic_solution() {
        // ẋ = a·x + u with constant u: x(h) = e^{ah}·x0 + (e^{ah} − 1)/a·u,
        // and the ϕ₁ update x0 + h·ϕ₁(ha)·(a·x0 + u) must match it exactly —
        // this is the update formula the stiff rail integrator applies.
        let (a, u, x0, h) = (-4.1e4_f64, 3.7e3_f64, 1.9_f64, 1.5e-4_f64);
        let p = phi1(&DMatrix::from_rows(&[&[a * h]]).unwrap());
        let stepped = x0 + h * p[(0, 0)] * (a * x0 + u);
        let analytic = (a * h).exp() * x0 + (a * h).exp_m1() / a * u;
        assert!(
            (stepped - analytic).abs() < 1e-12 * analytic.abs().max(1.0),
            "{stepped} vs {analytic}"
        );
    }

    #[test]
    fn phi2_matches_its_series_and_phi1_agrees() {
        // ϕ₂(0) = I/2.
        let (p1, p2) = phis(&DMatrix::zeros(2, 2)).unwrap();
        assert!(p1.max_abs_diff(&DMatrix::identity(2)).unwrap() < 1e-15);
        assert!(p2.max_abs_diff(&DMatrix::identity(2).scaled(0.5)).unwrap() < 1e-15);
        // Scalar closed forms, across the stiff-scale range.
        for &x in &[-9.0, -1.0, 0.7, 2.5] {
            let (p1, p2) = phis(&DMatrix::from_rows(&[&[x]]).unwrap()).unwrap();
            let exact1 = x.exp_m1() / x;
            let exact2 = (x.exp_m1() - x) / (x * x);
            assert!((p1[(0, 0)] - exact1).abs() < 1e-13 * exact1.abs().max(1.0));
            assert!(
                (p2[(0, 0)] - exact2).abs() < 1e-13 * exact2.abs().max(1.0),
                "phi2({x}) = {} vs {exact2}",
                p2[(0, 0)]
            );
        }
        // Defining identity A²·ϕ₂(A) = e^A − I − A.
        let a = DMatrix::from_rows(&[&[-3.0, 1.0], &[0.5, -7.0]]).unwrap();
        let (_, p2) = phis(&a).unwrap();
        let lhs = a.mul_matrix(&a.mul_matrix(&p2).unwrap()).unwrap();
        let mut rhs = expm(&a).unwrap();
        rhs -= &a;
        for i in 0..2 {
            rhs.add_to(i, i, -1.0);
        }
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-13);
    }

    /// xorshift64* — a deterministic source for the randomised oracle sweep.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in [0, 1).
        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn assert_bits_equal(kernel: &DMatrix, oracle: &DMatrix, what: &str, a: &DMatrix) {
        for (k, o) in kernel.as_slice().iter().zip(oracle.as_slice()) {
            assert_eq!(k.to_bits(), o.to_bits(), "{what} differs: {k:e} vs {o:e} for A = {a}");
        }
    }

    /// The structured kernel reproduces the dense augmented evaluation bit
    /// for bit on random stable sparse matrices of every dimension up to the
    /// stack limit: scales from 1e-3 to 1e4 (one to fifteen squarings),
    /// random zero patterns, signed zeros and exactly singular inputs.
    #[test]
    fn kernel_is_bit_identical_to_the_augmented_oracle() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut checked = 0;
        for case in 0..12_000 {
            let n = 1 + case % 4;
            let scale = 10f64.powf(-3.0 + 7.0 * rng.unit());
            let mut a = DMatrix::zeros(n, n);
            for i in 0..n {
                let mut off = 0.0;
                for j in (0..n).filter(|&j| j != i) {
                    let v = match rng.next_u64() % 4 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => (2.0 * rng.unit() - 1.0) * scale,
                    };
                    off += v.abs();
                    a.set(i, j, v);
                }
                // Strict row diagonal dominance with a negative diagonal keeps
                // the spectrum in the open left half-plane.
                a.set(i, i, -(off + scale * (0.05 + rng.unit())));
            }
            // One case in eight zeroes the last row: an exactly singular
            // input, on which ϕ stays defined.
            if rng.next_u64().is_multiple_of(8) {
                for j in 0..n {
                    a.set(n - 1, j, 0.0);
                }
            }
            let (p1, p2) = phis(&a).unwrap();
            let (o1, o2) = phi1_phi2_augmented(&a).unwrap();
            assert_bits_equal(&p1, &o1, "phi1", &a);
            assert_bits_equal(&p2, &o2, "phi2", &a);
            checked += 1;
        }
        assert!(checked >= 10_000);
    }

    /// Inputs whose exponential overflows stay non-finite: wherever the
    /// oracle reports a non-finite ϕ matrix the kernel does too, and where
    /// the oracle stays finite the bits agree.
    #[test]
    fn overflowing_inputs_stay_non_finite() {
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let mut overflowed = 0;
        for case in 0..400 {
            let n = 1 + case % 4;
            let mut a = DMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let magnitude = 10f64.powf(2.0 + 2.5 * rng.unit());
                    a.set(i, j, if i == j { magnitude } else { magnitude * (rng.unit() - 0.5) });
                }
            }
            let (p1, p2) = phis(&a).unwrap();
            let (o1, o2) = phi1_phi2_augmented(&a).unwrap();
            for (kernel, oracle, what) in [(&p1, &o1, "phi1"), (&p2, &o2, "phi2")] {
                if oracle.is_finite() {
                    assert_bits_equal(kernel, oracle, what, &a);
                } else {
                    overflowed += 1;
                    assert!(!kernel.is_finite(), "{what} became finite for A = {a}");
                }
            }
        }
        assert!(overflowed > 100, "the sweep must actually overflow ({overflowed})");
        // A norm beyond f64 range is rejected rather than squared forever.
        let mut huge = DMatrix::zeros(2, 2);
        huge.set(0, 0, f64::MAX);
        huge.set(0, 1, f64::MAX);
        assert!(phis(&huge).is_err());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let rect = DMatrix::zeros(2, 3);
        assert!(phis(&rect).is_err());
        let mut bad = DMatrix::zeros(2, 2);
        bad.set(0, 1, f64::NAN);
        assert!(phis(&bad).is_err());
        let (mut p1, mut p2) = (DMatrix::zeros(2, 2), DMatrix::zeros(3, 3));
        assert!(phi1_phi2_into(&DMatrix::zeros(2, 2), &mut p1, &mut p2).is_err());
        // Empty matrices pass through untouched.
        assert_eq!(phis(&DMatrix::zeros(0, 0)).unwrap().0.shape(), (0, 0));
        // Dimensions beyond the stack scratch take the heap path.
        let big = DMatrix::from_fn(6, 6, |i, j| if i == j { -2.0 } else { 0.1 });
        let (p1, p2) = phis(&big).unwrap();
        let (o1, o2) = phi1_phi2_augmented(&big).unwrap();
        assert_bits_equal(&p1, &o1, "phi1", &big);
        assert_bits_equal(&p2, &o2, "phi2", &big);
    }
}

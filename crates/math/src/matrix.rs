//! Dense complex matrices.
//!
//! The quantum substrate works with density matrices and operators over
//! registers of at most a handful of qubits (the paper's NV nodes have one
//! communication and one memory qubit each, plus two photonic qubits in
//! flight), so a simple dense row-major representation is both sufficient
//! and the fastest option at these dimensions (≤ 16×16 in practice).

use crate::complex::{Complex, ONE, ZERO};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl CMatrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = ONE;
        }
        m
    }

    /// Builds a matrix from a row-major slice of complex entries.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[Complex]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "CMatrix::from_rows: expected {} entries, got {}",
            rows * cols,
            data.len()
        );
        CMatrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds a matrix from a row-major slice of real entries.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_real(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "CMatrix::from_real: expected {} entries, got {}",
            rows * cols,
            data.len()
        );
        CMatrix {
            rows,
            cols,
            data: data.iter().map(|&x| Complex::real(x)).collect(),
        }
    }

    /// Builds a column vector from a slice of complex amplitudes.
    pub fn col_vector(data: &[Complex]) -> Self {
        CMatrix::from_rows(data.len(), 1, data)
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn diagonal(diag: &[Complex]) -> Self {
        let n = diag.len();
        let mut m = CMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Raw row-major data, writable in place.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// Conjugate transpose `A†`.
    pub fn adjoint(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)].conj();
            }
        }
        out
    }

    /// Trace `Tr A`.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert!(self.is_square(), "trace of a non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, k: Complex) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Scales every entry by a complex factor in place: [`CMatrix::scale`]
    /// without a second buffer.
    pub fn scale_in_place(&mut self, k: Complex) {
        for z in &mut self.data {
            *z *= k;
        }
    }

    /// Kronecker (tensor) product `self ⊗ other`.
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for ar in 0..self.rows {
            for ac in 0..self.cols {
                let a = self[(ar, ac)];
                if a == ZERO {
                    continue;
                }
                for br in 0..other.rows {
                    for bc in 0..other.cols {
                        out[(ar * other.rows + br, ac * other.cols + bc)] = a * other[(br, bc)];
                    }
                }
            }
        }
        out
    }

    /// `true` if every entry of `self - other` has modulus ≤ `tol`.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// `true` if `A ≈ A†` entry-wise with tolerance `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.approx_eq(&self.adjoint(), tol)
    }

    /// `true` if `A†A ≈ I` with tolerance `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.is_square()
            && (self.adjoint() * self.clone()).approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// The quadratic form `⟨v| A |v⟩` for a column vector `v`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn expectation(&self, v: &CMatrix) -> Complex {
        assert!(self.is_square() && v.cols == 1 && v.rows == self.rows);
        // `⟨v|(A|v⟩)`, each entry of `A|v⟩` summed as `A * v` sums it.
        (0..self.rows)
            .map(|i| {
                let mut av = ZERO;
                for (&a, &z) in self.data[i * self.cols..][..self.cols].iter().zip(&v.data) {
                    if a != ZERO {
                        av += a * z;
                    }
                }
                v.data[i].conj() * av
            })
            .sum()
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix add shape"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix sub shape"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix multiply shape: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl Mul for CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: CMatrix) -> CMatrix {
        &self * &rhs
    }
}

impl Mul<&CMatrix> for CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        &self * rhs
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:?}  ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::I;

    fn pauli_x() -> CMatrix {
        CMatrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_y() -> CMatrix {
        CMatrix::from_rows(2, 2, &[ZERO, -I, I, ZERO])
    }

    fn pauli_z() -> CMatrix {
        CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0])
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let x = pauli_x();
        let id = CMatrix::identity(2);
        assert!((&x * &id).approx_eq(&x, 0.0));
        assert!((&id * &x).approx_eq(&x, 0.0));
    }

    #[test]
    fn pauli_algebra() {
        // X² = Y² = Z² = I, XY = iZ
        let (x, y, z) = (pauli_x(), pauli_y(), pauli_z());
        let id = CMatrix::identity(2);
        assert!((&x * &x).approx_eq(&id, 1e-15));
        assert!((&y * &y).approx_eq(&id, 1e-15));
        assert!((&z * &z).approx_eq(&id, 1e-15));
        assert!((&x * &y).approx_eq(&z.scale(I), 1e-15));
    }

    #[test]
    fn paulis_are_hermitian_and_unitary() {
        for m in [pauli_x(), pauli_y(), pauli_z()] {
            assert!(m.is_hermitian(1e-15));
            assert!(m.is_unitary(1e-15));
        }
    }

    #[test]
    fn trace_linear() {
        let x = pauli_x();
        let z = pauli_z();
        assert!(x.trace().approx_eq(ZERO, 1e-15));
        assert!(z.trace().approx_eq(ZERO, 1e-15));
        assert!(CMatrix::identity(3)
            .trace()
            .approx_eq(Complex::real(3.0), 1e-15));
        assert!((&x + &z).trace().approx_eq(ZERO, 1e-15));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let id = CMatrix::identity(2);
        let k = x.kron(&id);
        assert_eq!(k.rows(), 4);
        assert_eq!(k.cols(), 4);
        // (X ⊗ I)|00> = |10>: column 0 should have a 1 in row 2.
        assert_eq!(k[(2, 0)], ONE);
        assert_eq!(k[(0, 0)], ZERO);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = pauli_x();
        let b = pauli_y();
        let c = pauli_z();
        let d = CMatrix::identity(2);
        let lhs = &a.kron(&b) * &c.kron(&d);
        let rhs = (&a * &c).kron(&(&b * &d));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn adjoint_of_product_reverses() {
        let a = pauli_x();
        let b = pauli_y();
        let lhs = (&a * &b).adjoint();
        let rhs = &b.adjoint() * &a.adjoint();
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn expectation_of_projector() {
        // ⟨0| Z |0⟩ = 1, ⟨1| Z |1⟩ = -1
        let z = pauli_z();
        let ket0 = CMatrix::col_vector(&[ONE, ZERO]);
        let ket1 = CMatrix::col_vector(&[ZERO, ONE]);
        assert!(z.expectation(&ket0).approx_eq(ONE, 1e-15));
        assert!(z.expectation(&ket1).approx_eq(Complex::real(-1.0), 1e-15));
    }

    #[test]
    fn diagonal_builder() {
        let d = CMatrix::diagonal(&[ONE, Complex::real(2.0)]);
        assert_eq!(d[(0, 0)], ONE);
        assert_eq!(d[(1, 1)], Complex::real(2.0));
        assert_eq!(d[(0, 1)], ZERO);
    }

    #[test]
    #[should_panic(expected = "matrix multiply shape")]
    fn mul_shape_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = &a * &b;
    }
}

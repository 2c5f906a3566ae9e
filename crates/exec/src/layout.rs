//! Affine data layouts: byte address functions for array elements.
//!
//! Every array `A` gets `addr(A[i₁,…,i_d]) = base_A + Σ strideₖ·(iₖ − 1)`
//! (1-based Fortran indexing). The default layout allocates arrays one
//! after another in column-major order (first dimension contiguous). Data
//! regrouping produces layouts whose strides interleave several arrays —
//! e.g. grouping `A` and `B` at the element level gives them strides twice
//! as large and adjacent bases — without any special cases downstream.

use gcr_ir::{ParamBinding, Program};

/// Size of one array element in bytes (all data is `f64`).
pub const ELEM_BYTES: usize = 8;

/// Address function for one array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayLayout {
    /// Byte offset of element (1, 1, …).
    pub base: usize,
    /// Byte stride per dimension, innermost first.
    pub strides: Vec<usize>,
    /// Concrete extent per dimension (for bounds checking).
    pub extents: Vec<i64>,
}

impl ArrayLayout {
    /// Byte address of an element (1-based indices).
    #[inline]
    pub fn addr(&self, idxs: &[i64]) -> usize {
        debug_assert_eq!(idxs.len(), self.strides.len());
        let mut a = self.base;
        for (k, &i) in idxs.iter().enumerate() {
            debug_assert!(
                i >= 1 && i <= self.extents[k],
                "index {i} out of bounds 1..={} in dim {k}",
                self.extents[k]
            );
            a += self.strides[k] * (i - 1) as usize;
        }
        a
    }

    /// Number of elements in the array.
    pub fn len(&self) -> usize {
        self.extents.iter().map(|&e| e as usize).product()
    }

    /// True for zero-element arrays (never produced in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A complete layout for a program's arrays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataLayout {
    /// One entry per `ArrayId` (scalars get rank-0 entries).
    pub arrays: Vec<ArrayLayout>,
    /// Total footprint in bytes.
    pub total_bytes: usize,
}

impl DataLayout {
    /// The default layout: arrays allocated sequentially in declaration
    /// order, each column-major, with `pad_bytes` of padding between
    /// consecutive arrays (0 for the plain layout; the SGI-like baseline
    /// uses inter-array padding to break conflict alignment).
    ///
    /// Sizes saturate at `usize::MAX` instead of wrapping, so for extents
    /// too large to address `total_bytes` over-reports and the byte cap of
    /// [`crate::Machine::capped`] refuses the layout.
    pub fn column_major(prog: &Program, binding: &ParamBinding, pad_bytes: usize) -> DataLayout {
        let mut arrays = Vec::with_capacity(prog.arrays.len());
        let mut cursor = 0usize;
        for decl in &prog.arrays {
            let extents: Vec<i64> = decl.dims.iter().map(|d| d.eval(binding)).collect();
            assert!(
                extents.iter().all(|&e| e >= 1),
                "array {} has non-positive extent {extents:?}",
                decl.name
            );
            let mut strides = Vec::with_capacity(extents.len());
            let mut s = ELEM_BYTES;
            for &e in &extents {
                strides.push(s);
                s = s.saturating_mul(e as usize);
            }
            arrays.push(ArrayLayout { base: cursor, strides, extents });
            // `s` is the total bytes of this array (ELEM_BYTES for scalars).
            cursor = cursor.saturating_add(s).saturating_add(pad_bytes);
        }
        DataLayout { arrays, total_bytes: cursor }
    }

    /// Address of an element of array `a`.
    #[inline]
    pub fn addr(&self, a: gcr_ir::ArrayId, idxs: &[i64]) -> usize {
        self.arrays[a.index()].addr(idxs)
    }

    /// Total footprint in elements.
    pub fn total_elems(&self) -> usize {
        self.total_bytes / ELEM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_ir::{LinExpr, ProgramBuilder};

    fn demo() -> (Program, ParamBinding) {
        let mut b = ProgramBuilder::new("t");
        let n = b.param("N");
        b.array("A", &[LinExpr::param(n), LinExpr::param(n)]);
        b.array("B", &[LinExpr::param(n)]);
        b.scalar("s");
        (b.finish(), ParamBinding::new(vec![4]))
    }

    #[test]
    fn column_major_strides() {
        let (p, bind) = demo();
        let l = DataLayout::column_major(&p, &bind, 0);
        let a = &l.arrays[0];
        assert_eq!(a.strides, vec![8, 32]);
        assert_eq!(a.extents, vec![4, 4]);
        // A occupies [0, 128), B [128, 160), s [160, 168)
        assert_eq!(l.arrays[1].base, 128);
        assert_eq!(l.arrays[2].base, 160);
        assert_eq!(l.total_bytes, 168);
    }

    #[test]
    fn addresses_are_one_based_column_major() {
        let (p, bind) = demo();
        let l = DataLayout::column_major(&p, &bind, 0);
        // A[1,1] at 0; A[2,1] contiguous; A[1,2] one column later.
        assert_eq!(l.arrays[0].addr(&[1, 1]), 0);
        assert_eq!(l.arrays[0].addr(&[2, 1]), 8);
        assert_eq!(l.arrays[0].addr(&[1, 2]), 32);
        assert_eq!(l.arrays[0].addr(&[4, 4]), 120);
        // scalar
        assert_eq!(l.arrays[2].addr(&[]), 160);
    }

    #[test]
    fn padding_shifts_bases() {
        let (p, bind) = demo();
        let l = DataLayout::column_major(&p, &bind, 64);
        assert_eq!(l.arrays[1].base, 128 + 64);
        assert_eq!(l.arrays[2].base, 128 + 64 + 32 + 64);
    }

    proptest::proptest! {
        /// Whatever the extents, the layout is built without a panic and
        /// `total_bytes` never under-reports: it is the exact size, or
        /// `usize::MAX` once the exact size no longer fits.
        #[test]
        fn sizes_saturate_instead_of_wrapping(
            extents in proptest::collection::vec(
                proptest::prop_oneof![1i64..64, 1i64 << 20..1i64 << 33, i64::MAX - 8..=i64::MAX],
                1..4,
            ),
            pad in 0usize..4096,
        ) {
            let mut b = ProgramBuilder::new("t");
            let dims: Vec<LinExpr> =
                (0..extents.len()).map(|k| LinExpr::param(b.param(format!("N{k}")))).collect();
            b.array("A", &dims);
            b.array("B", &dims[..1]);
            let l = DataLayout::column_major(&b.finish(), &ParamBinding::new(extents.clone()), pad);
            let a = extents.iter().fold(ELEM_BYTES as u128, |s, &e| s.saturating_mul(e as u128));
            let exact = a.saturating_add(ELEM_BYTES as u128 * extents[0] as u128 + 2 * pad as u128);
            proptest::prop_assert_eq!(l.total_bytes, usize::try_from(exact).unwrap_or(usize::MAX));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)]
    fn bounds_checked_in_debug() {
        let (p, bind) = demo();
        let l = DataLayout::column_major(&p, &bind, 0);
        let _ = l.arrays[0].addr(&[5, 1]);
    }
}

//! Compressed sparse rows: many short lists in two flat arrays.
//!
//! The batch's static structure — dependency lists, successor lists,
//! workflow member lists, each transaction's workflow list — is one short
//! list per transaction or workflow. A `Vec<Vec<T>>` pays one allocation
//! per list to build and one to free; a [`Csr`] pays two for all of them
//! and keeps every list contiguous with its neighbours.

use std::ops::Range;

/// `len` as a row offset.
///
/// # Panics
/// If `len` exceeds `u32::MAX`: offsets are `u32`, and a wrapped offset
/// would silently alias another row.
#[inline]
pub(crate) fn offset(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("CSR offset {len} overflows u32"))
}

/// Rows of `T` stored flat: row `i` is `items[off[i]..off[i + 1]]`.
///
/// Built either row by row ([`Csr::with_capacity`],
/// [`Csr::extend_from_slice`], [`Csr::close_row`]) or, when rows are filled out of order, from known
/// row lengths ([`Csr::from_counts`]) and scattered into through
/// [`Csr::items_mut`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr<T> {
    off: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// No rows yet, with room for `rows` rows of `items` items in total.
    pub(crate) fn with_capacity(rows: usize, items: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        Csr {
            off,
            items: Vec::with_capacity(items),
        }
    }

    /// Row `i` has `counts[i]` items, each `fill` until overwritten.
    pub(crate) fn from_counts(counts: &[u32], fill: T) -> Self {
        let mut off = Vec::with_capacity(counts.len() + 1);
        let mut total = 0usize;
        off.push(0);
        for &c in counts {
            total += c as usize;
            off.push(offset(total));
        }
        Csr {
            off,
            items: vec![fill; total],
        }
    }

    /// Append `items` to the open row (the one after the last closed row).
    #[inline]
    pub(crate) fn extend_from_slice(&mut self, items: &[T]) {
        self.items.extend_from_slice(items);
    }

    /// The open row's items so far.
    #[inline]
    pub(crate) fn open_row_mut(&mut self) -> &mut [T] {
        let start = *self.off.last().expect("offsets start with 0") as usize;
        &mut self.items[start..]
    }

    /// Close the open row; the next items start row `self.len()`.
    #[inline]
    pub(crate) fn close_row(&mut self) {
        self.off.push(offset(self.items.len()));
    }

    /// Number of closed rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Where row `i` lives in the flat item array.
    #[inline]
    pub(crate) fn range(&self, i: usize) -> Range<usize> {
        self.off[i] as usize..self.off[i + 1] as usize
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.items[self.range(i)]
    }

    /// Where each row starts: `starts()[i]` is row `i`'s first slot.
    #[inline]
    pub(crate) fn starts(&self) -> &[u32] {
        &self.off[..self.off.len() - 1]
    }

    /// Every row's items, back to back.
    #[inline]
    pub(crate) fn items_mut(&mut self) -> &mut [T] {
        &mut self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_built_in_order_read_back() {
        let mut c: Csr<u8> = Csr::with_capacity(3, 4);
        c.extend_from_slice(&[1, 2]);
        c.close_row();
        c.close_row();
        c.extend_from_slice(&[4, 3]);
        c.open_row_mut().sort_unstable();
        c.close_row();
        assert_eq!(c.len(), 3);
        assert_eq!(c.row(0), &[1, 2]);
        assert!(c.row(1).is_empty());
        assert_eq!(c.row(2), &[3, 4]);
        assert_eq!(c.starts(), &[0, 2, 2]);
    }

    #[test]
    fn rows_from_counts_scatter() {
        let mut c = Csr::from_counts(&[2, 0, 1], 0u8);
        assert_eq!(c.range(0), 0..2);
        assert_eq!(c.range(2), 2..3);
        c.items_mut()[2] = 9;
        assert_eq!(c.row(2), &[9]);
        assert_eq!(c.row(0), &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn offsets_past_u32_panic() {
        offset(u32::MAX as usize + 1);
    }
}

//! Simulated memory: device global memory, host memory, symmetric-heap
//! allocations.
//!
//! All buffers hold `f64` elements (the element type of every workload in
//! the paper). Data is real — `ExecMode::Full` runs actual arithmetic on it —
//! but *time* is charged separately through the cost model, so functional
//! content and performance accounting stay decoupled.

use crate::check::Checker;
use sim_des::lock::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Identifies a device within one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevId(pub usize);

impl fmt::Display for DevId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Where a buffer physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Place {
    /// Pageable/pinned host memory.
    Host,
    /// Ordinary device global memory.
    Device(DevId),
    /// Device global memory on the NVSHMEM symmetric heap (PGAS-addressable).
    Symmetric(DevId),
}

impl Place {
    /// The owning device, if any.
    pub fn device(self) -> Option<DevId> {
        match self {
            Place::Host => None,
            Place::Device(d) | Place::Symmetric(d) => Some(d),
        }
    }

    /// True for symmetric-heap storage.
    pub fn is_symmetric(self) -> bool {
        matches!(self, Place::Symmetric(_))
    }
}

struct BufInner {
    /// Process-unique allocation number (see [`Buf::raw_key`]).
    id: u64,
    place: Place,
    name: String,
    /// Element count (authoritative — `data` may be empty for virtual bufs).
    len: usize,
    /// `None` storage = a *virtual* buffer: sized and addressable for cost
    /// accounting, but without backing memory. All functional accesses are
    /// no-ops (reads yield 0). Used by `ExecMode::TimingOnly` so that
    /// paper-scale domains (tens of GB) can be swept without allocating.
    data: Option<Mutex<Vec<f64>>>,
    /// The checker recording accesses to this allocation; told when it is
    /// freed.
    checker: Option<Weak<Checker>>,
}

impl Drop for BufInner {
    fn drop(&mut self) {
        if let Some(checker) = self.checker.as_ref().and_then(Weak::upgrade) {
            checker.release(self.id);
        }
    }
}

/// A handle to a simulated memory buffer (cheaply clonable).
///
/// Direct `read`/`write` methods perform the *functional* access; virtual
/// time must be charged by the caller through the cost model. The layers
/// above (streams, NVSHMEM, the CPU-Free runtime) pair the two correctly.
#[derive(Clone)]
pub struct Buf {
    inner: Arc<BufInner>,
}

impl fmt::Debug for Buf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Buf({} @ {:?}, len {})",
            self.inner.name,
            self.inner.place,
            self.len()
        )
    }
}

impl Buf {
    /// Allocate a zero-initialized buffer.
    pub fn new(place: Place, name: impl Into<String>, len: usize) -> Buf {
        Buf::with_data(place, name.into(), len, Some(Mutex::new(vec![0.0; len])))
    }

    /// Allocate a *virtual* buffer: correct length and place for cost
    /// accounting, no backing storage, all functional accesses no-ops.
    pub fn new_virtual(place: Place, name: impl Into<String>, len: usize) -> Buf {
        Buf::with_data(place, name.into(), len, None)
    }

    fn with_data(place: Place, name: String, len: usize, data: Option<Mutex<Vec<f64>>>) -> Buf {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Buf {
            inner: Arc::new(BufInner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                place,
                name,
                len,
                data,
                checker: None,
            }),
        }
    }

    /// Tell `checker` when this (fresh) allocation is freed.
    pub(crate) fn watched_by(mut self, checker: &Arc<Checker>) -> Buf {
        Arc::get_mut(&mut self.inner)
            .expect("a fresh buffer is unshared")
            .checker = Some(Arc::downgrade(checker));
        self
    }

    /// True when this buffer has no backing storage.
    pub fn is_virtual(&self) -> bool {
        self.inner.data.is_none()
    }

    /// Where this buffer lives.
    pub fn place(&self) -> Place {
        self.inner.place
    }

    /// Debug name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Number of f64 elements.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<f64>()) as u64
    }

    /// Run a closure with shared access to the data.
    ///
    /// # Panics
    /// On virtual buffers — bulk data access implies functional execution,
    /// which virtual buffers cannot provide.
    pub fn with<R>(&self, f: impl FnOnce(&[f64]) -> R) -> R {
        let d = self
            .inner
            .data
            .as_ref()
            .unwrap_or_else(|| panic!("`{}` is virtual (timing-only)", self.inner.name));
        f(&d.lock())
    }

    /// Run a closure with exclusive access to the data.
    ///
    /// # Panics
    /// On virtual buffers (see [`Buf::with`]).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let d = self
            .inner
            .data
            .as_ref()
            .unwrap_or_else(|| panic!("`{}` is virtual (timing-only)", self.inner.name));
        f(&mut d.lock())
    }

    /// Read one element (0.0 on virtual buffers).
    pub fn get(&self, idx: usize) -> f64 {
        debug_assert!(idx < self.inner.len);
        match &self.inner.data {
            Some(d) => d.lock()[idx],
            None => 0.0,
        }
    }

    /// Write one element (no-op on virtual buffers).
    pub fn set(&self, idx: usize, value: f64) {
        debug_assert!(idx < self.inner.len);
        if let Some(d) = &self.inner.data {
            d.lock()[idx] = value;
        }
    }

    /// Copy a contiguous region out (left untouched on virtual buffers).
    pub fn read_slice(&self, offset: usize, out: &mut [f64]) {
        if let Some(d) = &self.inner.data {
            let d = d.lock();
            out.copy_from_slice(&d[offset..offset + out.len()]);
        }
    }

    /// Copy a contiguous region in (no-op on virtual buffers).
    pub fn write_slice(&self, offset: usize, src: &[f64]) {
        debug_assert!(offset + src.len() <= self.inner.len);
        if let Some(d) = &self.inner.data {
            let mut d = d.lock();
            d[offset..offset + src.len()].copy_from_slice(src);
        }
    }

    /// Copy `len` elements from `src[src_off..]` into `self[dst_off..]`.
    ///
    /// Handles `src` and `self` being the same buffer (uses `copy_within`).
    /// A no-op when either side is virtual.
    pub fn copy_from(&self, dst_off: usize, src: &Buf, src_off: usize, len: usize) {
        debug_assert!(dst_off + len <= self.inner.len);
        debug_assert!(src_off + len <= src.inner.len);
        if self.is_virtual() || src.is_virtual() {
            return;
        }
        if Arc::ptr_eq(&self.inner, &src.inner) {
            let mut d = self.inner.data.as_ref().unwrap().lock();
            d.copy_within(src_off..src_off + len, dst_off);
            return;
        }
        let s = src.inner.data.as_ref().unwrap().lock();
        let mut d = self.inner.data.as_ref().unwrap().lock();
        d[dst_off..dst_off + len].copy_from_slice(&s[src_off..src_off + len]);
    }

    /// Strided gather-copy: reads `count` elements from `src` starting at
    /// `src_off` with stride `src_stride`, writing them to `self` starting at
    /// `dst_off` with stride `dst_stride`. This is the functional core of
    /// `nvshmem_iput`/`iget` and `MPI_Type_vector`.
    pub fn copy_strided_from(
        &self,
        dst_off: usize,
        dst_stride: usize,
        src: &Buf,
        src_off: usize,
        src_stride: usize,
        count: usize,
    ) {
        assert!(
            !Arc::ptr_eq(&self.inner, &src.inner),
            "strided self-copy not supported"
        );
        if self.is_virtual() || src.is_virtual() {
            return;
        }
        let s = src.inner.data.as_ref().unwrap().lock();
        let mut d = self.inner.data.as_ref().unwrap().lock();
        for i in 0..count {
            d[dst_off + i * dst_stride] = s[src_off + i * src_stride];
        }
    }

    /// Fill with a value (no-op on virtual buffers).
    pub fn fill(&self, value: f64) {
        if let Some(d) = &self.inner.data {
            d.lock().fill(value);
        }
    }

    /// A deterministic checksum of the contents (0 for virtual buffers).
    pub fn checksum(&self) -> u64 {
        let Some(d) = &self.inner.data else { return 0 };
        let d = d.lock();
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for v in d.iter() {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Snapshot the contents into a `Vec` (zeros for virtual buffers).
    pub fn to_vec(&self) -> Vec<f64> {
        match &self.inner.data {
            Some(d) => d.lock().clone(),
            None => vec![0.0; self.inner.len],
        }
    }

    /// True if both handles refer to the same allocation.
    pub fn same_alloc(&self, other: &Buf) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Allocation identity as an opaque key: equal iff [`Buf::same_alloc`],
    /// and never reused by a later allocation, even at the same address.
    /// Used by the checker to key race-detection locations.
    pub fn raw_key(&self) -> u64 {
        self.inner.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zeroed() {
        let b = Buf::new(Place::Device(DevId(0)), "t", 16);
        assert_eq!(b.len(), 16);
        assert_eq!(b.bytes(), 128);
        assert!(b.with(|d| d.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn slice_round_trip() {
        let b = Buf::new(Place::Host, "t", 8);
        b.write_slice(2, &[1.0, 2.0, 3.0]);
        let mut out = [0.0; 3];
        b.read_slice(2, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        assert_eq!(b.get(2), 1.0);
    }

    #[test]
    fn copy_between_buffers() {
        let a = Buf::new(Place::Device(DevId(0)), "a", 8);
        let b = Buf::new(Place::Device(DevId(1)), "b", 8);
        a.write_slice(0, &[9.0; 8]);
        b.copy_from(4, &a, 0, 4);
        assert_eq!(b.get(3), 0.0);
        assert_eq!(b.get(4), 9.0);
    }

    #[test]
    fn copy_within_same_buffer() {
        let a = Buf::new(Place::Host, "a", 8);
        a.write_slice(0, &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
        a.copy_from(4, &a, 0, 4);
        assert_eq!(a.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn strided_copy_gathers_columns() {
        // A 3x4 row-major matrix; gather column 1 into a contiguous buffer.
        let m = Buf::new(Place::Device(DevId(0)), "m", 12);
        m.with_mut(|d| {
            for (i, v) in d.iter_mut().enumerate() {
                *v = i as f64;
            }
        });
        let col = Buf::new(Place::Device(DevId(1)), "col", 3);
        col.copy_strided_from(0, 1, &m, 1, 4, 3);
        assert_eq!(col.to_vec(), vec![1.0, 5.0, 9.0]);
    }

    #[test]
    fn checksum_detects_changes() {
        let a = Buf::new(Place::Host, "a", 4);
        let c0 = a.checksum();
        a.set(2, 1.0);
        assert_ne!(a.checksum(), c0);
        a.set(2, 0.0);
        assert_eq!(a.checksum(), c0);
    }

    #[test]
    fn place_accessors() {
        assert_eq!(Place::Device(DevId(3)).device(), Some(DevId(3)));
        assert_eq!(Place::Host.device(), None);
        assert!(Place::Symmetric(DevId(0)).is_symmetric());
        assert!(!Place::Device(DevId(0)).is_symmetric());
    }
}

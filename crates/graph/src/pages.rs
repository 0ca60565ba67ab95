//! Page-mapped arrays: the one container behind every per-node and
//! per-edge array the engine owns.
//!
//! [`Pages<T>`] is a `Vec`-like buffer of `Copy` values in its own
//! anonymous memory mapping. Fresh pages read as zero
//! and cost nothing until first written, so [`Pages::zeroed`] is free
//! and a generous [`Pages::with_capacity`] reservation only becomes
//! resident where it is used. Growth moves the mapping with
//! `mremap(MREMAP_MAYMOVE)` (no copy), [`Pages::shrink_to_fit`] unmaps
//! the unused tail, and dropping the buffer unmaps it: its pages go
//! back to the OS at once, whatever state the heap allocator is in.
//!
//! Why not the heap: glibc serves a block from `mmap` only above its
//! mmap threshold, and raises that threshold to the size of each mapped
//! block it frees (up to 32 MB). After the first engine has been built
//! and dropped, every array below the raised threshold comes from the
//! `brk` heap, and when freed stays resident as a hole the next build
//! may or may not fill. Mapping the arrays ourselves makes the resident
//! set track the data, without setting a process-wide allocator knob on
//! the host program.
//!
//! The calls go through our own `extern "C"` declarations of `mmap`,
//! `munmap` and `mremap` (the process links libc through `std`), so no
//! crate is needed. Off Linux x86-64/AArch64 the blocks come from the
//! global allocator, as a `Vec`'s do.
//!
//! Mappings bypass any counting global allocator a test installs, so
//! this module keeps its own process-global counters ([`stats`]):
//! bytes mapped now, their high-water mark and the number of map and
//! remap calls. Mappings are few (a handful per graph or index), so the
//! counters are always on.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use fui_taxonomy::TopicSet;

use crate::csr::NodeId;

/// Plain-old-data: a `Copy` value that the all-zero bit pattern
/// represents validly, so a fresh zero page is an array of such values
/// ([`Pages::zeroed`]). Any `Copy` value can live in a [`Pages`]; only
/// a zeroed start needs this.
///
/// # Safety
/// An implementor must accept the all-zero bit pattern as a valid
/// value of the type.
pub unsafe trait Pod: Copy {}

// SAFETY: zero is a valid value of every primitive integer and float
// (0, 0.0) and of `bool` (false).
unsafe impl Pod for u8 {}
// SAFETY: as above.
unsafe impl Pod for u16 {}
// SAFETY: as above.
unsafe impl Pod for u32 {}
// SAFETY: as above.
unsafe impl Pod for u64 {}
// SAFETY: as above.
unsafe impl Pod for f64 {}
// SAFETY: as above.
unsafe impl Pod for bool {}
// SAFETY: a `NodeId` is one `u32`; zero is node 0.
unsafe impl Pod for NodeId {}
// SAFETY: a `TopicSet` is one `u32` mask; zero is the empty set.
unsafe impl Pod for TopicSet {}
// SAFETY: a pair of zero-valid fields is zero-valid; padding, if any,
// is never read as a value.
unsafe impl<A: Pod, B: Pod> Pod for (A, B) {}

/// Granularity of a mapping's size: the 4 KiB base page. A kernel with
/// larger pages rounds the mapping further; the counters then
/// under-report by at most one page per buffer.
const PAGE: usize = 4096;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static MAPS: AtomicU64 = AtomicU64::new(0);

/// The process-wide mapping counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapStats {
    /// Bytes mapped by live buffers.
    pub live: usize,
    /// High-water mark of `live` since the last [`reset_peak`].
    pub peak: usize,
    /// Map and remap calls so far (the mapped analogue of allocations
    /// and reallocations).
    pub maps: u64,
}

/// Reads the mapping counters.
pub fn stats() -> MapStats {
    MapStats {
        live: LIVE.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
        maps: MAPS.load(Ordering::Relaxed),
    }
}

/// Restarts the high-water mark at the bytes mapped now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn on_map(grown: usize) {
    MAPS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_unmap(freed: usize) {
    LIVE.fetch_sub(freed, Ordering::Relaxed);
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::alloc::{handle_alloc_error, Layout};
    use std::os::raw::{c_int, c_void};

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 2;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MREMAP_MAYMOVE: c_int = 1;
    const MAP_FAILED: *mut c_void = !0 as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn mremap(
            addr: *mut c_void,
            old_len: usize,
            new_len: usize,
            flags: c_int,
            ...
        ) -> *mut c_void;
    }

    fn failed(bytes: usize) -> ! {
        handle_alloc_error(Layout::from_size_align(bytes, super::PAGE).expect("a page layout"))
    }

    /// A fresh zeroed private mapping of `bytes` (> 0) bytes.
    pub(super) fn map(bytes: usize) -> *mut u8 {
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing touches no existing memory.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if p == MAP_FAILED {
            failed(bytes);
        }
        p.cast()
    }

    /// Resizes the mapping at `p` from `old` to `new` bytes (both > 0),
    /// moving it if it cannot grow in place. New pages read as zero.
    ///
    /// # Safety
    /// `p` must be a live mapping of `old` bytes from [`map`] or
    /// [`remap`]; it is invalid afterwards unless returned.
    pub(super) unsafe fn remap(p: *mut u8, old: usize, new: usize) -> *mut u8 {
        // SAFETY: the caller hands over a mapping it owns whole.
        let q = unsafe { mremap(p.cast(), old, new, MREMAP_MAYMOVE) };
        if q == MAP_FAILED {
            failed(new);
        }
        q.cast()
    }

    /// Unmaps `bytes` bytes at `p`.
    ///
    /// # Safety
    /// `p` must be a live mapping of `bytes` bytes from [`map`] or
    /// [`remap`], not used afterwards.
    pub(super) unsafe fn unmap(p: *mut u8, bytes: usize) {
        // SAFETY: the caller hands over a mapping it owns whole.
        let rc = unsafe { munmap(p.cast(), bytes) };
        debug_assert_eq!(rc, 0, "munmap of an owned mapping failed");
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, realloc, Layout};

    fn layout(bytes: usize) -> Layout {
        Layout::from_size_align(bytes, super::PAGE).expect("a page layout")
    }

    /// A fresh zeroed block of `bytes` (> 0) bytes.
    pub(super) fn map(bytes: usize) -> *mut u8 {
        // SAFETY: the layout has a nonzero size.
        let p = unsafe { alloc_zeroed(layout(bytes)) };
        if p.is_null() {
            handle_alloc_error(layout(bytes));
        }
        p
    }

    /// Resizes the block at `p` from `old` to `new` bytes (both > 0);
    /// new bytes read as zero.
    ///
    /// # Safety
    /// `p` must be a live block of `old` bytes from [`map`] or
    /// [`remap`]; it is invalid afterwards unless returned.
    pub(super) unsafe fn remap(p: *mut u8, old: usize, new: usize) -> *mut u8 {
        // SAFETY: the caller hands over a block of this layout.
        let q = unsafe { realloc(p, layout(old), new) };
        if q.is_null() {
            handle_alloc_error(layout(new));
        }
        if new > old {
            // SAFETY: `old..new` lies inside the block just resized.
            unsafe { q.add(old).write_bytes(0, new - old) };
        }
        q
    }

    /// Frees the block of `bytes` bytes at `p`.
    ///
    /// # Safety
    /// `p` must be a live block of `bytes` bytes from [`map`] or
    /// [`remap`], not used afterwards.
    pub(super) unsafe fn unmap(p: *mut u8, bytes: usize) {
        // SAFETY: the caller hands over a block of this layout.
        unsafe { dealloc(p, layout(bytes)) };
    }
}

/// A growable array of `Copy` values in its own page mapping. Derefs
/// to `[T]`; see the [module docs](self).
pub struct Pages<T: Copy> {
    ptr: NonNull<T>,
    len: usize,
    /// Bytes mapped: a multiple of [`PAGE`], 0 when nothing is.
    bytes: usize,
    _owns: PhantomData<T>,
}

// SAFETY: a `Pages` owns its mapping and its values outright, like a
// `Vec`.
unsafe impl<T: Copy + Send> Send for Pages<T> {}
// SAFETY: shared access only reads; as above.
unsafe impl<T: Copy + Sync> Sync for Pages<T> {}

/// `count` values of `T` in whole pages.
fn bytes_for<T>(count: usize) -> usize {
    count
        .checked_mul(std::mem::size_of::<T>())
        .and_then(|b| b.checked_next_multiple_of(PAGE))
        .expect("Pages capacity overflows usize")
}

impl<T: Copy> Pages<T> {
    /// An empty buffer; maps nothing.
    pub const fn new() -> Pages<T> {
        assert!(std::mem::size_of::<T>() > 0, "Pages holds sized values");
        Pages {
            ptr: NonNull::dangling(),
            len: 0,
            bytes: 0,
            _owns: PhantomData,
        }
    }

    /// A buffer with room for at least `capacity` values; pages become
    /// resident only as values are written.
    pub fn with_capacity(capacity: usize) -> Pages<T> {
        let mut pages = Pages::new();
        pages.resize_mapping(bytes_for::<T>(capacity));
        pages
    }

    /// Values the mapping holds without growing.
    pub fn capacity(&self) -> usize {
        self.bytes / std::mem::size_of::<T>()
    }

    /// Appends `value`.
    #[inline]
    pub fn push(&mut self, value: T) {
        if self.len == self.capacity() {
            self.reserve(1);
        }
        // SAFETY: `len < capacity`, so the slot lies inside the mapping.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
    }

    /// Appends every value of `values`.
    pub fn extend_from_slice(&mut self, values: &[T]) {
        self.reserve(values.len());
        // SAFETY: `reserve` made room for `values.len()` more slots
        // past `len`; a slice cannot overlap a mapping this buffer owns
        // exclusively while it is borrowed mutably.
        unsafe {
            std::ptr::copy_nonoverlapping(
                values.as_ptr(),
                self.ptr.as_ptr().add(self.len),
                values.len(),
            );
        }
        self.len += values.len();
    }

    /// Makes room for at least `additional` more values, at least
    /// doubling the mapping when it grows.
    fn reserve(&mut self, additional: usize) {
        let need = self
            .len
            .checked_add(additional)
            .expect("Pages capacity overflows usize");
        if need > self.capacity() {
            let want = need.max(2 * self.capacity());
            self.resize_mapping(bytes_for::<T>(want));
        }
    }

    /// Unmaps the pages past the last value.
    pub fn shrink_to_fit(&mut self) {
        let fit = bytes_for::<T>(self.len);
        if fit < self.bytes {
            self.resize_mapping(fit);
        }
    }

    /// Maps, remaps or unmaps so the mapping is `bytes` long (a
    /// multiple of [`PAGE`] holding at least `len` values).
    fn resize_mapping(&mut self, bytes: usize) {
        debug_assert!(bytes % PAGE == 0 && bytes >= self.len * std::mem::size_of::<T>());
        let p = self.ptr.as_ptr().cast::<u8>();
        let q = match (self.bytes, bytes) {
            (old, new) if old == new => return,
            (0, new) => {
                on_map(new);
                sys::map(new)
            }
            (old, 0) => {
                // SAFETY: `p` is this buffer's live mapping of `old`
                // bytes, and no value lives in it (`len` is 0).
                unsafe { sys::unmap(p, old) };
                on_unmap(old);
                self.ptr = NonNull::dangling();
                self.bytes = 0;
                return;
            }
            (old, new) => {
                // SAFETY: `p` is this buffer's live mapping of `old`
                // bytes; the returned one replaces it.
                let q = unsafe { sys::remap(p, old, new) };
                if new > old {
                    on_map(new - old);
                } else {
                    MAPS.fetch_add(1, Ordering::Relaxed);
                    on_unmap(old - new);
                }
                q
            }
        };
        self.ptr = NonNull::new(q.cast()).expect("a mapping is never at address 0");
        self.bytes = bytes;
    }
}

impl<T: Pod> Pages<T> {
    /// `len` zero values — fresh pages, not written.
    pub fn zeroed(len: usize) -> Pages<T> {
        let mut pages = Pages::with_capacity(len);
        pages.len = len;
        pages
    }
}

impl<T: Copy> Drop for Pages<T> {
    fn drop(&mut self) {
        if self.bytes > 0 {
            // SAFETY: the buffer's own live mapping, dropped with it.
            unsafe { sys::unmap(self.ptr.as_ptr().cast(), self.bytes) };
            on_unmap(self.bytes);
        }
    }
}

impl<T: Copy> Deref for Pages<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: the first `len` slots are mapped and hold values
        // (written, or zero pages under `zeroed`, which `Pod` makes
        // valid); an empty buffer's dangling pointer is aligned and
        // nonnull.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> DerefMut for Pages<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as in `deref`, and `&mut self` makes the access
        // exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Copy> Clone for Pages<T> {
    fn clone(&self) -> Pages<T> {
        let mut copy = Pages::with_capacity(self.len);
        copy.extend_from_slice(self);
        copy
    }
}

impl<T: Copy> Default for Pages<T> {
    fn default() -> Pages<T> {
        Pages::new()
    }
}

impl<T: Copy + PartialEq> PartialEq for Pages<T> {
    fn eq(&self, other: &Pages<T>) -> bool {
        **self == **other
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Pages<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<'a, T: Copy> IntoIterator for &'a Pages<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_reads_zero_and_takes_whole_pages() {
        let p: Pages<u64> = Pages::zeroed(1000);
        assert_eq!(p.len(), 1000);
        assert!(p.iter().all(|&x| x == 0));
        assert_eq!(p.capacity(), 2 * PAGE / 8);
        let flags: Pages<bool> = Pages::zeroed(3);
        assert_eq!(&*flags, &[false; 3]);
    }

    #[test]
    fn clone_and_eq_compare_values() {
        let mut a: Pages<u32> = Pages::zeroed(5000);
        a[4999] = 7;
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.capacity(), a.len().next_multiple_of(PAGE / 4));
        let mut c = b.clone();
        c[0] = 1;
        assert_ne!(a, c);
        assert_ne!(a, Pages::zeroed(4999));
        assert_eq!(format!("{:?}", Pages::<u16>::zeroed(2)), "[0, 0]");
    }

    #[test]
    fn growth_and_shrink_keep_the_values() {
        let mut p: Pages<(NodeId, u32)> = Pages::new();
        for i in 0..100_000u32 {
            p.push((NodeId(i), i ^ 0x5A5A));
        }
        p.extend_from_slice(&[(NodeId(7), 7); 300]);
        let held = p.capacity();
        assert!(held >= p.len());
        p.shrink_to_fit();
        assert!(p.capacity() < held);
        assert_eq!(p.capacity(), bytes_for::<(NodeId, u32)>(p.len()) / 8);
        assert_eq!(p.len(), 100_300);
        assert!(p[..100_000]
            .iter()
            .enumerate()
            .all(|(i, &(v, x))| v.0 == i as u32 && x == i as u32 ^ 0x5A5A));
        assert!(p[100_000..].iter().all(|&e| e == (NodeId(7), 7)));
        // A shrunk mapping grows again, keeping what it held.
        let mut z: Pages<u8> = Pages::zeroed(10);
        z[9] = 9;
        z.shrink_to_fit();
        z.extend_from_slice(&[1; 2 * PAGE]);
        assert_eq!((z[9], z[10], z[9 + 2 * PAGE]), (9, 1, 1));
    }

    #[test]
    fn zero_length_maps_nothing() {
        let mut p: Pages<f64> = Pages::zeroed(0);
        assert!(p.is_empty());
        assert_eq!(p.capacity(), 0);
        assert_eq!(p, Pages::default());
        p.shrink_to_fit();
        assert_eq!(p.clone().capacity(), 0);
        let mut q: Pages<u32> = Pages::with_capacity(100);
        assert_eq!(q.capacity(), PAGE / 4);
        q.shrink_to_fit();
        assert_eq!(q.capacity(), 0);
        q.push(3);
        assert_eq!(&*q, &[3]);
    }

    #[test]
    fn drop_unmaps() {
        // The counters are process-global and other tests run
        // alongside, so a 64 MiB mapping is what the readings resolve.
        let size = 64 << 20;
        let before = stats();
        let p: Pages<u8> = Pages::zeroed(size);
        let held = stats();
        assert!(held.maps > before.maps);
        assert!(held.peak >= size);
        drop(p);
        assert!(stats().live + size / 2 < held.live);
    }
}

//! Peak heap of decoding the largest request lines the server reads. A
//! counting global allocator tracks the live bytes; a decode's peak above
//! what was live before it must stay within 8x the line's length.
//!
//! The vector fields of the hot ops (`classify`'s `x`, `run_stored`'s
//! `inputs`, `load_model`'s `prototypes`) are read straight into their
//! `Vec<u64>`s, so a line of `0,`s peaks at about the decoded vector: 8
//! bytes per 2-byte element, plus the old buffer while the vector grows.
//! A decoder that builds a `Json` tree first holds a 32-byte node per
//! element instead. `instrs` is decoded through a tree and is not bounded
//! here.

use bpimc_core::wire::{Request, RequestBody};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

/// The system allocator, counting live bytes and their peak.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrink(layout.size());
    }

    /// Counted as if the block moved: old and new are both live until the
    /// copy is done.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        let q = System.realloc(p, layout, new_size);
        shrink(if q.is_null() { new_size } else { layout.size() });
        q
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The longest line the server reads (its `MAX_LINE_BYTES`).
const LINE_BYTES: usize = 4 << 20;

/// `prefix` + `0,0,…,0` + `suffix`, with as many zeros as fit in
/// `LINE_BYTES`; also returns the zero count.
fn zeros_line(prefix: &str, suffix: &str) -> (String, usize) {
    let n = (LINE_BYTES - prefix.len() - suffix.len()).div_ceil(2);
    let mut line = String::with_capacity(LINE_BYTES);
    line.push_str(prefix);
    line.push('0');
    line.push_str(&",0".repeat(n - 1));
    line.push_str(suffix);
    (line, n)
}

/// Decodes `line`; also returns the decode's peak heap above what was live
/// before it.
fn decode(line: &str) -> (Request, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let req = Request::parse(line).expect("the line decodes");
    (req, PEAK.load(Relaxed) - before)
}

#[test]
fn hot_vector_fields_decode_within_8x_the_line() {
    for (prefix, suffix) in [
        (r#"{"id":1,"op":"classify","x":["#, "]}"),
        (r#"{"id":2,"op":"run_stored","pid":0,"inputs":[["#, "]]}"),
        (
            r#"{"id":3,"op":"load_model","precision":8,"prototypes":[["#,
            "]]}",
        ),
    ] {
        let (line, n) = zeros_line(prefix, suffix);
        assert!(line.len() <= LINE_BYTES);
        let (req, peak) = decode(&line);
        let decoded = match &req.body {
            RequestBody::Classify { x } => x,
            RequestBody::RunStored { inputs, .. } => inputs[0].as_ref().expect("a bound input"),
            RequestBody::LoadModel { prototypes, .. } => &prototypes[0],
            other => panic!("unexpected body {other:?}"),
        };
        assert_eq!(decoded.len(), n);
        assert!(decoded.iter().all(|&w| w == 0));
        let ratio = peak as f64 / line.len() as f64;
        eprintln!("{prefix}…: peak {peak} B, {ratio:.2}x the line");
        assert!(
            peak <= 8 * line.len(),
            "{prefix}…: peak {peak} B is {ratio:.2}x the {} B line",
            line.len()
        );
    }
}

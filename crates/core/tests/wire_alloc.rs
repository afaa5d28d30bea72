//! Peak heap of decoding the largest request lines the server reads. A
//! counting global allocator tracks the live bytes; a decode's peak above
//! what was live before it must stay within 8x the line's length.
//!
//! The vector fields of the hot ops (`classify`'s `x`, `run_stored`'s
//! `inputs`, `load_model`'s `prototypes`) are read straight into their
//! `Vec<u64>`s, each reserved once from a scan to its array's first `]`:
//! an element per comma, but never more than one per two bytes of the
//! scan. So a line peaks at about its decoded vector (a line of `0,`s at 8
//! bytes per 2-byte element), and at most 4 bytes per line byte whatever
//! it holds. A decoder that grows each vector from empty also holds the
//! old buffer while it grows, and one that builds a `Json` tree first
//! holds a 32-byte node per element.
//! `instrs` is decoded through a tree and is not bounded here.

use bpimc_core::wire::{Request, RequestBody, WireError};
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

/// `prefix` + `element,element,…,element` + `suffix`, with as many
/// elements as fit in `LINE_BYTES`; also returns the element count.
fn filled_line(prefix: &str, element: &str, suffix: &str) -> (String, usize) {
    let n = (LINE_BYTES - prefix.len() - suffix.len() + 1) / (element.len() + 1);
    let mut line = String::with_capacity(LINE_BYTES);
    line.push_str(prefix);
    line.push_str(element);
    line.push_str(&format!(",{element}").repeat(n - 1));
    line.push_str(suffix);
    (line, n)
}

/// Decodes `line`; also returns the decode's peak heap above what was live
/// before it.
fn decode(line: &str) -> (Result<Request, WireError>, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let req = Request::parse(line);
    (req, PEAK.load(Relaxed) - before)
}

#[test]
fn hot_vector_fields_decode_within_8x_the_line() {
    const CLASSIFY: &str = r#"{"id":1,"op":"classify","x":["#;
    for (prefix, element, suffix) in [
        (CLASSIFY, "0", "]}"),
        (
            r#"{"id":2,"op":"run_stored","pid":0,"inputs":[["#,
            "0",
            "]]}",
        ),
        (
            r#"{"id":3,"op":"load_model","precision":8,"prototypes":[["#,
            "0",
            "]]}",
        ),
        // The plain-array read reserves an element per comma before the
        // first `]`, so longer values take fewer bytes per line byte ...
        (CLASSIFY, "255", "]}"),
        (CLASSIFY, "18446744073709551615", "]}"),
        // ... and an array that breaks the plain form only at its end is
        // read again, from its `[`, into the room already reserved.
        (CLASSIFY, "0", " ]}"),
    ] {
        let (line, n) = filled_line(prefix, element, suffix);
        assert!(line.len() <= LINE_BYTES);
        let (req, peak) = decode(&line);
        let req = req.expect("the line decodes");
        let decoded = match &req.body {
            RequestBody::Classify { x } => x,
            RequestBody::RunStored { inputs, .. } => inputs[0].as_ref().expect("a bound input"),
            RequestBody::LoadModel { prototypes, .. } => &prototypes[0],
            other => panic!("unexpected body {other:?}"),
        };
        let value: u64 = element.parse().expect("an integer element");
        assert_eq!(decoded.len(), n);
        assert!(decoded.iter().all(|&w| w == value));
        let ratio = peak as f64 / line.len() as f64;
        eprintln!("{prefix}{element},…{suffix}: peak {peak} B, {ratio:.2}x the line");
        assert!(
            peak <= 8 * line.len(),
            "{prefix}{element},…{suffix}: peak {peak} B is {ratio:.2}x the {} B line",
            line.len()
        );
    }
    // Only commas before the `]`: an element per comma would be 8 bytes
    // per line byte, but the reservation never exceeds one element per
    // two bytes of the scan, so even this failing decode stays within 4x
    // (and 4 KiB for the decoder's other small allocations).
    let (line, _) = filled_line(CLASSIFY, "", "]}");
    let (req, peak) = decode(&line);
    assert!(req.is_err());
    let ratio = peak as f64 / line.len() as f64;
    eprintln!("{CLASSIFY},,…]}}: peak {peak} B, {ratio:.2}x the line");
    assert!(
        peak <= 4 * line.len() + 4096,
        "commas: peak {peak} B is {ratio:.2}x the line"
    );
}

//! The warm hit path allocates nothing: a counting global allocator
//! wraps the system allocator, and a window of repeat `Session::compile`
//! calls must perform zero heap allocations — the request's canonical
//! key bytes are written into a reused per-thread buffer, hashed, and
//! compared with the stored key (no owned key is built on a hit).

use asdf_ast::CaptureValue;
use asdf_core::{CompileRequest, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations made on this thread while the window is open.
struct CountingAllocator;

// SAFETY: defers to the system allocator; the bookkeeping uses only
// const-initialized thread-locals, which never allocate on access.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count() {
    // try_with: TLS may already be torn down during thread exit.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|allocations| allocations.set(allocations.get() + 1));
        }
    });
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with allocation counting enabled and returns how many heap
/// allocations it performed on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(|a| a.get())
}

const BV_SRC: &str = r"
    classical f[N](secret: bit[N], x: bit[N]) -> bit {
        (secret & x).xor_reduce()
    }
    qpu kernel[N](f: cfunc[N, 1]) -> bit[N] {
        'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
    }
";

#[test]
fn warm_artifact_hits_do_not_allocate() {
    let session = Session::new(BV_SRC).expect("parses");
    let request = CompileRequest::kernel("kernel").with_capture(CaptureValue::CFunc {
        name: "f".into(),
        captures: vec![CaptureValue::bits_from_str("110101")],
    });
    // Cold compile, then one warm-up hit (first-use lazy init anywhere in
    // the path happens here, outside the counted window).
    let cold = session.compile(&request).expect("compiles");
    let warm = session.compile(&request).expect("hits");
    assert!(std::sync::Arc::ptr_eq(&cold, &warm));
    drop((cold, warm));

    let allocations = allocations_in(|| {
        for _ in 0..100 {
            let artifact = session.compile(&request).expect("warm hit");
            drop(artifact);
        }
    });
    assert_eq!(allocations, 0, "100 warm hits must not touch the heap");
}

#[test]
fn warm_hits_with_explicit_dims_do_not_allocate() {
    // Dimension bindings exercise the sorted-dims comparison, which must
    // also run in place.
    let src = r"
        classical balanced[N](x: bit[N]) -> bit { x.xor_reduce() }
        qpu dj[N](f: cfunc[N, 1]) -> bit[N] {
            'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure
        }
    ";
    let session = Session::new(src).expect("parses");
    let request = CompileRequest::kernel("dj")
        .with_capture(CaptureValue::CFunc { name: "balanced".into(), captures: vec![] })
        .with_dim("N", 4);
    session.compile(&request).expect("compiles");
    session.compile(&request).expect("hits");

    let allocations = allocations_in(|| {
        for _ in 0..50 {
            let artifact = session.compile(&request).expect("warm hit");
            drop(artifact);
        }
    });
    assert_eq!(allocations, 0, "warm hits with dims must not touch the heap");
}

// A counting `#[global_allocator]` for the counted-work gates, std only.
// Each gate is a test binary of its own and brings this file in with
// `include!`, so every gate counts the same way:
//
// * an allocation is a fresh block or a reallocation (`dealloc` is not
//   one);
// * live bytes grow by what is allocated and shrink by what is freed
//   (a reallocation counts its size change);
// * both counters are thread-local, so tests running in parallel in one
//   binary never pollute each other's figures.
//
// Counts, not timings: they repeat exactly from run to run.

struct Counting;

thread_local! {
    static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static LIVE_BYTES: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
}

/// Count `allocations` allocations that grew the live heap by `grown`
/// bytes (negative: freed).
fn count(allocations: u64, grown: i64) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + allocations));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + grown));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are const-initialized thread-local `Cell`s, which never allocate.
unsafe impl std::alloc::GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a closure cost the calling thread's heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(dead_code)] // not every gate reads both counters
struct Counted {
    /// Fresh blocks and reallocations.
    allocations: u64,
    /// Bytes still live when it returned (negative: it freed more).
    live_bytes: i64,
}

/// Run `f` and return its result with what it allocated on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counted) {
    let (allocations, live_bytes) = (ALLOCATIONS.with(|c| c.get()), LIVE_BYTES.with(|c| c.get()));
    let out = f();
    let cost = Counted {
        allocations: ALLOCATIONS.with(|c| c.get()) - allocations,
        live_bytes: LIVE_BYTES.with(|c| c.get()) - live_bytes,
    };
    (out, cost)
}

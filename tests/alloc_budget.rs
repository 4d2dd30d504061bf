//! Heap-allocation budgets of the warm serving path, counted by a global allocator.
//!
//! A warm cache hit runs no optimizer, so its cost is the front end's: parsing and lowering
//! the `.jg` text, canonicalizing the spec, fingerprinting, the cache lookup and translating
//! the cached plan back to the caller's ids. Small heap allocations dominate that cost, so
//! their number is pinned here:
//!
//! * [`canonicalize`] allocates at most linearly in `n + e` — Weisfeiler–Leman refinement
//!   allocates nothing per round, only its scratch space and the canonical spec it returns;
//! * a warm `Service::plan_jg` hit on `job_03a` (5 relations) stays within a fixed budget.
//!
//! The counter is thread-local, so tests running in parallel on other threads never disturb
//! a measurement.

use dphyp::{canonicalize, QuerySpec};
use qo_service::{PlanSource, Service};
use qo_workloads::corpus::{corpus, CORPUS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations (including reallocations) made on each
/// thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown, after the slot is gone, go uncounted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Allocations of one warm `plan_jg` hit on `job_03a`, as measured when the serving path was
/// made allocation-light. A rise above it is a regression of the warm path.
const WARM_HIT_BUDGET: u64 = 73;

// Below half of the 244 allocations the hit made before the warm path was slimmed.
const _: () = assert!(WARM_HIT_BUDGET < 122);

#[test]
fn canonicalize_allocates_linearly_in_the_spec_size() {
    let chain = |n: usize| {
        let mut b = QuerySpec::builder(n);
        for i in 0..n - 1 {
            b.add_simple_edge(i, i + 1, 0.1);
        }
        b.build()
    };
    let mut specs: Vec<(String, QuerySpec)> =
        corpus().into_iter().map(|q| (q.name, q.spec)).collect();
    // Long symmetric chains refine for about n/2 rounds: per-round allocations would show.
    specs.extend([8, 40, 100].map(|n| (format!("chain_{n}"), chain(n))));
    for (name, spec) in &specs {
        let (n, e) = (spec.node_count(), spec.edge_count());
        let (count, canonical) = allocations(|| canonicalize(spec));
        let bound = 4 * (n + e) as u64 + 40;
        assert!(
            count <= bound,
            "{name}: canonicalize made {count} allocations, over the bound 4·(n+e)+40 = {bound}"
        );
        assert_eq!(canonical.to_original.len(), n);
    }
}

#[test]
fn warm_job_03a_hit_stays_within_its_allocation_budget() {
    let text = CORPUS
        .iter()
        .find(|e| e.name == "job_03a")
        .expect("corpus query job_03a")
        .source;
    let service = Service::default();
    // Serve 0 misses (and is rate-sampled). Serve 1 is a hit that the default sampler neither
    // rate-samples (1 in 1024) nor slow-arms (no arming in the first 32 serves).
    service.plan_jg(text).expect("cold serve");
    let (count, served) = allocations(|| service.plan_jg(text).expect("warm serve"));
    assert_eq!(served.len(), 1);
    assert_eq!(served[0].source, PlanSource::CacheHit);
    assert!(
        served[0].trace_id.is_none(),
        "the measured serve is unsampled"
    );
    assert!(
        count <= WARM_HIT_BUDGET,
        "a warm job_03a hit made {count} allocations, budget {WARM_HIT_BUDGET}"
    );
}

//! Allocation regression test for the arena-native warm paths.
//!
//! The warm-path invariant of the id-native engine: once the operands are
//! interned, a memo probe is one `Copy`-key map access and an idempotent
//! re-join returns an existing id — **no tree traversal, no `canon_id`
//! walk, and no allocation of any kind**. This binary installs a counting
//! global allocator and pins all three down. (Kept as its own
//! integration-test binary so the counter sees no unrelated traffic.)
//!
//! The count is **per thread**: the test harness runs these tests
//! concurrently, one thread each, and a process-wide counter would charge
//! each test with the others' allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const` initialisation with a destructor-free type: reading or
    // bumping the counter never allocates, even on a thread's first use.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` so an allocation during thread teardown is not a panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_id_paths_allocate_nothing() {
    use lambda_join_core::builder::*;
    use lambda_join_core::engine::IdBetaTable;
    use lambda_join_core::ideval::{beta_subst, join_results_id, result_leq_id, subst};
    use lambda_join_core::intern::{InternTable, Interner};

    let mut arena = Interner::new();
    let mut table = InternTable::new();

    // A realistic key shape: a recursive-function value and a symbol
    // argument (what the tabled engine probes at every β-step).
    let f = arena.canon_id(&lam("x", app(var("x"), add(var("x"), int(1)))));
    let a = arena.canon_id(&int(1_000));
    let r = arena.canon_id(&set(vec![int(1), int(2)]));

    // Miss, then store.
    assert!(table.lookup(f, a, 9).is_none());
    table.store(f, a, 9, r, false);
    assert_eq!(table.lookup(f, a, 9), Some((r, false)));

    // Warm-path joins: idempotent re-join, subset union, pointwise pair of
    // already-interned results. Run once to warm every node.
    let sub = arena.canon_id(&set(vec![int(2)]));
    let p1 = arena.canon_id(&pair(int(1), botv()));
    let p2 = arena.canon_id(&pair(int(1), int(2)));
    let _ = join_results_id(&mut arena, r, sub);
    let _ = join_results_id(&mut arena, p1, p2);
    // Warm the β-substitution path too: re-substituting the same argument
    // rebuilds only already-interned nodes.
    let _ = beta_subst(&mut arena, f, a);

    // The pinned invariant: warm memo probes (hit or miss), warm joins,
    // warm ordering checks, and warm β-substitution allocate *nothing* —
    // no tree nodes, no Arc clones, no scratch vectors that survive.
    let before = allocations();
    for fuel in [9usize, 9, 3, 9] {
        let _ = table.lookup(f, a, fuel);
    }
    assert_eq!(join_results_id(&mut arena, r, r), r, "idempotent join");
    assert_eq!(
        join_results_id(&mut arena, r, sub),
        r,
        "subset union returns the accumulator id"
    );
    assert!(result_leq_id(&arena, p1, p2));
    assert!(!result_leq_id(&arena, p2, p1));
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm id probes/joins must not allocate (counted {} allocations)",
        after - before
    );

    // β-substitution on the warm path allocates no *tree* nodes: every
    // node it produces is already interned, so the only traffic is the
    // substitution worklist itself. Pin that it stays within a small
    // constant (worklist vectors), far below one-allocation-per-node.
    let before = allocations();
    let inst = beta_subst(&mut arena, f, a);
    let after = allocations();
    assert!(inst.index() < arena.len());
    assert_eq!(subst(&mut arena, inst, &[]), inst, "arity-0 subst shares");
    assert!(
        after - before <= 8,
        "warm β-substitution should only touch the worklist ({} allocations)",
        after - before
    );
}

#[test]
fn post_snapshot_load_warm_probe_allocates_nothing() {
    use lambda_join_core::builder::*;
    use lambda_join_core::engine::IdBetaTable;
    use lambda_join_core::intern::{InternTable, Interner};
    use lambda_join_core::snap::{memo_from_bytes, memo_to_bytes};

    // Persist a warmed memo and restore it — the warm-boot path.
    let mut arena = Interner::new();
    let mut table = InternTable::new();
    let f = arena.canon_id(&lam("x", app(var("x"), add(var("x"), int(1)))));
    let a = arena.canon_id(&int(1_000));
    let r = arena.canon_id(&set(vec![int(1), int(2)]));
    table.store(f, a, 9, r, false);
    let bytes = memo_to_bytes(&arena, &table);
    let (_arena2, mut table2) = memo_from_bytes(&bytes).expect("roundtrip");

    // Replay preserves ids, so the *saved* ids probe the restored table
    // directly. The invariant: a warm probe against freshly loaded state
    // is one map access — zero allocations, exactly like a probe against
    // the table that was never serialized.
    assert_eq!(table2.lookup(f, a, 9), Some((r, false)), "entry restored");
    let before = allocations();
    for fuel in [9usize, 9, 3, 9] {
        let _ = table2.lookup(f, a, fuel);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "warm probe after snapshot load must not allocate (counted {})",
        after - before
    );
}

#[test]
fn post_collected_warm_probe_allocates_nothing() {
    use lambda_join_core::builder::*;
    use lambda_join_core::engine::IdBetaTable;
    use lambda_join_core::intern::{InternTable, Interner};

    // The seminaive-compact path: recency-filtered migration into a
    // fresh arena via `InternTable::collected`.
    let mut old = Interner::new();
    let mut table = InternTable::new();
    let f = old.canon_id(&lam("x", app(var("x"), add(var("x"), int(1)))));
    let a = old.canon_id(&int(1_000));
    let r = old.canon_id(&set(vec![int(1), int(2)]));
    table.begin_generation();
    table.store(f, a, 9, r, false);

    let mut fresh = Interner::new();
    let mut kept = table.collected(8, &mut old, &mut fresh);
    let (f2, a2) = (
        fresh.canon_id(&lam("x", app(var("x"), add(var("x"), int(1))))),
        fresh.canon_id(&int(1_000)),
    );
    assert!(kept.lookup(f2, a2, 9).is_some(), "recent entry survives");

    // The invariant `SeminaiveEngine::compact` relies on: re-probing a
    // retained entry right after a compact is a pure map access.
    let before = allocations();
    let hit = kept.lookup(f2, a2, 9);
    let after = allocations();
    assert!(hit.is_some());
    assert_eq!(
        after - before,
        0,
        "post-compact warm probe must not allocate (counted {})",
        after - before
    );
}

#[test]
fn post_gc_warm_shared_probe_allocates_nothing() {
    use lambda_join_core::builder::*;
    use lambda_join_core::engine::BetaTable;
    use lambda_join_core::sharded::SharedInternTable;

    let mut table = SharedInternTable::new();
    // Server-shaped keys: a recursive-function value and a set argument,
    // both comfortably larger than the interior pointer-cache threshold.
    let f = lam(
        "x",
        app(var("x"), add(add(var("x"), int(1)), add(var("x"), int(2)))),
    );
    let a = set((0..16).map(int).collect());
    let r = set(vec![int(1), int(2)]);

    table.begin_generation();
    table.store(&f, &a, 9, &r, false);
    assert!(table.lookup(&f, &a, 9).is_some());

    // Generation-tracked compaction into a fresh arena; the entry was
    // touched this generation, so it survives.
    let mut gc = table.collected(1);

    // First probe re-warms the compacted arena's pointer caches for these
    // allocations (the old arena's caches died with it).
    assert!(gc.lookup(&f, &a, 9).is_some(), "hot entry survives GC");

    // The invariant under test: after compaction, a warm probe is still
    // two pointer-cache hits + one map access — zero allocations.
    let before = allocations();
    let hit = gc.lookup(&f, &a, 9);
    let after = allocations();
    assert!(hit.is_some());
    assert_eq!(
        after - before,
        0,
        "post-GC warm shared probe must not allocate (counted {})",
        after - before
    );
}

//! The deterministic parallel scan engine's plumbing: the `Send + Sync`
//! audit of everything a shard worker touches. The thread count comes
//! from [`netbase::default_scan_threads`].
//!
//! # Determinism argument
//!
//! PR 1 made each domain scan a pure function of
//! `(world, domain, admitted instant, config)`: retry jitter forks off
//! `config.seed` and the domain name, transient-fault draws are keyed on
//! `(seed, scope, instant)`, and the world is immutable for the duration
//! of a snapshot: workers share it as `&World`, which the borrow checker
//! keeps free of writers, and every DNS answer is read straight from its
//! zones. The engine therefore only has to guarantee that
//!
//! 1. every domain is scanned at the **same admitted instant** regardless
//!    of thread count — [`netbase::TokenBucket::plan_admissions`] plans
//!    the whole throttled timeline on one logical bucket up front, and
//!    each shard consumes its contiguous slice of that plan; and
//! 2. results are merged back **in input order** —
//!    [`netbase::map_sharded`]'s contiguous stable shards concatenate to
//!    exactly the sequential output.
//!
//! Everything else (per-TLD counters, the entity classes, policy-IP
//! maps) is folded sequentially from that ordered vector, so a parallel
//! snapshot is byte-identical to a sequential one for any `K`.

// The Send + Sync audit, encoded as compile-time assertions: a shard
// worker holds `&World`, `&Ecosystem` and `&ScanConfig` across threads.
// None of these may grow thread-hostile interior mutability (`Rc`,
// `RefCell`, raw pointers) without this failing to compile.
#[allow(dead_code)]
fn static_assert_scan_inputs_are_shareable() {
    fn shareable<T: Send + Sync>() {}
    shareable::<simnet::World>();
    shareable::<ecosystem::Ecosystem>();
    shareable::<crate::scan::ScanConfig>();
    shareable::<crate::taxonomy::DomainScan>();
}

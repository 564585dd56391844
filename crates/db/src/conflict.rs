//! Conflict / commutativity relation over the action language — the
//! static analysis behind the engine's CURP-style commit fast path
//! (Park & Ousterhout, *Exploiting Commutativity For Practical Fast
//! Replication*, applied to the paper's red/green semantics).
//!
//! Two actions **conflict** when executing them in different orders can
//! produce different database states or different query answers. An
//! action that conflicts with no in-flight action can be acknowledged
//! before its global (green) position is settled: whatever total order
//! the group converges on yields the same state and the same reply. The
//! relation is deliberately conservative — anything statically unclear
//! is declared conflicting:
//!
//! * **write/write** overlap conflicts, unless both sides are fully
//!   commutative ([`Op::Incr`]/[`Op::Noop`]) or both fully timestamped
//!   ([`Op::TsPut`]/[`Op::Noop`]) — those classes are order-insensitive
//!   within themselves (§6 of the paper), but not across classes;
//! * **read/write** overlap (either direction) always conflicts — a
//!   query answer must reflect exactly the actions ordered before it;
//! * [`Footprint::all`] sides (stored procedures, scans, counts,
//!   digests) overlap every non-empty footprint, and an action with any
//!   unbounded side is never eligible for the fast path in the first
//!   place ([`ActionClass::unbounded`]).
//!
//! There is one relation over one form: an [`ActionClass`] holds its
//! rows as [`Footprint`]s of row fingerprints. The engine evaluates it
//! on the receipt of an own action; the engine exports the same class
//! in `ProtocolEvent::ActionFootprint`, and the todr-check oracle
//! rebuilds it from there and replays exactly this relation. Rows that
//! share a fingerprint count as one row, so a collision can only add a
//! conflict: the check stays conservative.

use crate::keys::{read_set, write_set, Footprint};
use crate::op::{Op, Query};

/// The conflict-relevant classification of one action: what it writes,
/// what its query part reads, and which order-insensitive class (if
/// any) its update belongs to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActionClass {
    /// Rows the update writes (guard reads of [`Op::Checked`] count as
    /// writes, matching [`write_set`]).
    pub writes: Footprint,
    /// Rows the query part reads (empty when there is no query).
    pub reads: Footprint,
    /// The update consists only of commutative ops.
    pub commutative: bool,
    /// The update consists only of timestamped (last-writer-wins) ops.
    pub timestamped: bool,
}

impl ActionClass {
    /// Whether either side of the footprint is statically unbounded: an
    /// action of such a class never takes the fast path.
    pub fn unbounded(&self) -> bool {
        self.writes.is_all() || self.reads.is_all()
    }
}

/// Classifies one action from its update and optional query part.
pub fn classify(update: &Op, query: Option<&Query>) -> ActionClass {
    ActionClass {
        writes: write_set(update),
        reads: query.map(read_set).unwrap_or_default(),
        commutative: update.is_commutative(),
        timestamped: update.is_timestamped(),
    }
}

/// Whether two classified actions conflict (see the module docs for the
/// exact relation). Symmetric.
pub fn conflicts(a: &ActionClass, b: &ActionClass) -> bool {
    let order_insensitive = (a.commutative && b.commutative) || (a.timestamped && b.timestamped);
    (a.writes.intersects(&b.writes) && !order_insensitive)
        || a.reads.intersects(&b.writes)
        || a.writes.intersects(&b.reads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cl(update: &Op) -> ActionClass {
        classify(update, None)
    }

    fn clq(update: &Op, query: &Query) -> ActionClass {
        classify(update, Some(query))
    }

    #[test]
    fn disjoint_writes_commute() {
        let a = cl(&Op::put("t", "a", 1i64));
        let b = cl(&Op::put("t", "b", 2i64));
        assert!(!conflicts(&a, &b));
        assert!(!conflicts(&b, &a));
    }

    #[test]
    fn same_row_blind_writes_conflict() {
        let a = cl(&Op::put("t", "k", 1i64));
        let b = cl(&Op::put("t", "k", 2i64));
        assert!(conflicts(&a, &b));
        let d = cl(&Op::delete("t", "k"));
        assert!(conflicts(&a, &d));
    }

    #[test]
    fn increments_commute_even_on_the_same_row() {
        let a = cl(&Op::incr("t", "k", 1));
        let b = cl(&Op::incr("t", "k", -3));
        assert!(!conflicts(&a, &b));
        // ...but an increment against a plain put does not.
        let p = cl(&Op::put("t", "k", 9i64));
        assert!(conflicts(&a, &p));
        assert!(conflicts(&p, &a));
    }

    #[test]
    fn timestamped_puts_commute_within_their_class_only() {
        let a = cl(&Op::ts_put("t", "k", 1i64, 5));
        let b = cl(&Op::ts_put("t", "k", 2i64, 7));
        assert!(!conflicts(&a, &b));
        let i = cl(&Op::incr("t", "k", 1));
        assert!(conflicts(&a, &i), "LWW and increments do not mix");
    }

    #[test]
    fn reads_conflict_with_overlapping_writes() {
        // Read-your-writes: a query must see exactly the prefix ordered
        // before it, so any overlapping in-flight write conflicts —
        // even a commutative one.
        let reader = clq(&Op::Noop, &Query::get("t", "k"));
        let writer = cl(&Op::incr("t", "k", 1));
        assert!(conflicts(&reader, &writer));
        assert!(conflicts(&writer, &reader));
        let elsewhere = cl(&Op::incr("t", "other", 1));
        assert!(!conflicts(&reader, &elsewhere));
    }

    #[test]
    fn unbounded_sides_conflict_with_any_overlapping_action() {
        let proc = cl(&Op::proc("transfer", vec![]));
        let put = cl(&Op::put("t", "k", 1i64));
        assert!(conflicts(&proc, &put));
        let scan = clq(&Op::Noop, &Query::scan("t", ""));
        assert!(conflicts(&scan, &put));
        // A pure no-op touches nothing: even All finds no overlap.
        let noop = cl(&Op::Noop);
        assert!(!conflicts(&proc, &noop));
        assert!(!conflicts(&scan, &noop));
    }

    #[test]
    fn checked_guard_rows_count_as_writes() {
        let checked = cl(&Op::Checked {
            expect: vec![("g".into(), "guard".into(), None)],
            then: vec![Op::put("t", "x", 1i64)],
        });
        let touches_guard = cl(&Op::put("g", "guard", 2i64));
        assert!(conflicts(&checked, &touches_guard));
    }

    #[test]
    fn eligibility_requires_bounded_footprints() {
        assert!(!cl(&Op::put("t", "k", 1i64)).unbounded());
        assert!(!clq(&Op::incr("t", "k", 1), &Query::get("t", "k")).unbounded());
        assert!(cl(&Op::proc("p", vec![])).unbounded());
        assert!(clq(&Op::Noop, &Query::Digest).unbounded());
        assert!(clq(&Op::Noop, &Query::scan("t", "")).unbounded());
    }
}

//! What one replica knows, and the colouring rules that change it.
//!
//! [`Knowledge`] is the paper's persistent data (Appendix A: `serverSet`,
//! `actionIndex`, the red cut, `primComponent`, `attemptIndex`,
//! `vulnerable`, `yellow`, `actionsQueue`, `ongoingQueue`, `greenLines`)
//! together with the green database those actions build. It is plain
//! data plus rules — no simulator context, no storage handle, no
//! metrics. The engine calls the rules from its handlers and does the
//! logging and event emission around them; [`crate::persist::load`]
//! folds the *same* rules over the persisted log, so the state recovery
//! rebuilds is by construction the state the live path built.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use todr_db::Database;
use todr_net::NodeId;

use crate::action::{ActionId, ActionKind, Body};
use crate::quorum::{PrimComponent, VulnerableRecord, YellowRecord};
use crate::types::GreenBase;

/// The verdict of [`Knowledge::accept_red`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Accept {
    /// The creator's next action: now red.
    New,
    /// At or below the creator's red cut: already known.
    Duplicate,
    /// Beyond the creator's next index: not acceptable until the gap
    /// fills (the engine stashes it).
    Ahead,
}

/// What a replica knows of one creator's actions. Appendix A keeps
/// `redCut` per creator, and per-creator FIFO (an action is accepted
/// only as its creator's next, and greened in creator order) makes the
/// rest follow from two cuts:
///
/// * the creator's red actions are exactly `(green, red]`;
/// * its retained bodies are one contiguous run of indices ending at
///   `red` — the reds, below them the greens not yet discarded;
/// * discarding white actions pops the run's front, in green order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CreatorRecord {
    /// The highest contiguously accepted index (`redCut`).
    red: u64,
    /// The highest green index.
    green: u64,
    /// Whether a green mark, an adopted base or a load has put `green`
    /// on record: only such creators appear in [`Knowledge::green_cuts`].
    green_on_record: bool,
    /// The retained bodies, the last one at index `red`.
    bodies: VecDeque<Rc<Body>>,
}

impl CreatorRecord {
    /// The retained body at `index`.
    fn body(&self, index: u64) -> Option<&Rc<Body>> {
        let first = self.red + 1 - self.bodies.len() as u64;
        self.bodies
            .get(usize::try_from(index.checked_sub(first)?).ok()?)
    }

    /// The red bodies, `(green, red]`, in index order.
    fn reds(&self) -> impl Iterator<Item = &Rc<Body>> {
        let reds = (self.red - self.green) as usize;
        self.bodies.range(self.bodies.len() - reds..)
    }
}

/// Everything a replica mirrors on stable storage; what `recover`
/// reloads and a crash cannot take away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Knowledge {
    /// Per creator: the red and green cuts and the retained bodies (the
    /// paper's `actionsQueue`).
    creators: BTreeMap<NodeId, CreatorRecord>,
    /// Bodies retained over all creators.
    retained: usize,
    /// Number of green actions: the position of this server's green
    /// line.
    pub green_count: u64,
    /// Lowest green position a body is still retained for; everything
    /// below was white and has been discarded.
    pub green_floor: u64,
    /// Green action ids from `green_floor` on, in global order
    /// (position `green_floor + i`).
    pub green_tail: Vec<ActionId>,
    /// The green database: every green `App` action applied in order. A
    /// shared version: replicas that greened the same actions from the
    /// same version hold one.
    pub db: Database,
    /// The last known primary component (`primComponent`).
    pub prim_component: PrimComponent,
    /// Installation attempts since that primary (`attemptIndex`).
    pub attempt_index: u64,
    /// The installation this server voted for and cannot yet prove the
    /// outcome of (`vulnerable`).
    pub vulnerable: VulnerableRecord,
    /// Actions delivered in a transitional configuration of a primary
    /// (`yellow`).
    pub yellow: YellowRecord,
    /// Per server, the last green count it is known to have reached
    /// (`greenLines`); their minimum is the white line.
    pub green_lines: BTreeMap<NodeId, u64>,
    /// The current replica set (`serverSet`).
    pub server_set: BTreeSet<NodeId>,
    /// This server's creator counter (`actionIndex`).
    pub action_index: u64,
    /// Own created-but-not-yet-red actions by creator-local index (the
    /// paper's `ongoingQueue`, persisted as a `Vec` in index order).
    pub ongoing: BTreeMap<u64, Rc<Body>>,
}

impl Knowledge {
    /// What a server that has seen nothing knows: the configured
    /// replica set as the initial primary component, everything else
    /// empty.
    pub(crate) fn new(server_set: impl IntoIterator<Item = NodeId>) -> Self {
        let server_set: BTreeSet<NodeId> = server_set.into_iter().collect();
        Knowledge {
            creators: BTreeMap::new(),
            retained: 0,
            green_count: 0,
            green_floor: 0,
            green_tail: Vec::new(),
            db: Database::new(),
            prim_component: PrimComponent::initial(server_set.iter().copied()),
            attempt_index: 0,
            vulnerable: VulnerableRecord::invalid(),
            yellow: YellowRecord::invalid(),
            green_lines: BTreeMap::new(),
            server_set,
            action_index: 0,
            ongoing: BTreeMap::new(),
        }
    }

    /// The white line: every action at a green position below it is
    /// known green everywhere and can be discarded (§3).
    pub(crate) fn white_line(&self) -> u64 {
        self.server_set
            .iter()
            .map(|s| self.green_lines.get(s).copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
    }

    /// Raises `server`'s known green line to `line`; it never falls.
    pub(crate) fn raise_green_line(&mut self, server: NodeId, line: u64) {
        let known = self.green_lines.entry(server).or_insert(0);
        *known = (*known).max(line);
    }

    /// `creator`'s red cut: its highest contiguously accepted index.
    pub(crate) fn red_cut(&self, creator: NodeId) -> u64 {
        self.creators.get(&creator).map_or(0, |c| c.red)
    }

    /// Whether `id` is green here.
    pub(crate) fn is_green(&self, id: &ActionId) -> bool {
        self.creators
            .get(&id.server)
            .is_some_and(|c| id.index <= c.green)
    }

    /// Whether every action of `creator` accepted here is green.
    pub(crate) fn all_green(&self, creator: NodeId) -> bool {
        self.creators.get(&creator).is_none_or(|c| c.red == c.green)
    }

    /// Every creator this server has heard of, with its red cut — as a
    /// state message carries them. A creator first heard of out of
    /// order, or as a joiner, is present at 0.
    pub(crate) fn red_cuts(&self) -> BTreeMap<NodeId, u64> {
        self.creators.iter().map(|(&s, c)| (s, c.red)).collect()
    }

    /// The green cuts on record, as a base record or snapshot carries
    /// them.
    pub(crate) fn green_cuts(&self) -> BTreeMap<NodeId, u64> {
        self.creators
            .iter()
            .filter(|(_, c)| c.green_on_record)
            .map(|(&s, c)| (s, c.green))
            .collect()
    }

    /// The green state, for another replica to adopt.
    pub(crate) fn green_base(&self) -> GreenBase {
        GreenBase {
            db: self.db.snapshot(),
            green_count: self.green_count,
            green_cut: self.green_cuts(),
            green_lines: self.green_lines.clone(),
        }
    }

    /// Makes `creator` known at red cut 0 (a joiner, before it creates
    /// anything).
    pub(crate) fn note_creator(&mut self, creator: NodeId) {
        self.creators.entry(creator).or_default();
    }

    /// Number of retained bodies, red and not-yet-discarded green.
    pub(crate) fn retained(&self) -> usize {
        self.retained
    }

    /// A retained body.
    pub(crate) fn body(&self, id: &ActionId) -> Option<&Rc<Body>> {
        self.creators.get(&id.server)?.body(id.index)
    }

    /// `id`'s body, if `id` is red here.
    pub(crate) fn red_body(&self, id: &ActionId) -> Option<&Rc<Body>> {
        let creator = self.creators.get(&id.server)?;
        if id.index <= creator.green {
            return None;
        }
        creator.body(id.index)
    }

    /// The red set's bodies, in `ActionId` order: per creator,
    /// `(green, red]`.
    pub(crate) fn red_bodies(&self) -> impl Iterator<Item = &Rc<Body>> {
        self.creators.values().flat_map(CreatorRecord::reds)
    }

    /// Actions whose order is fixed here but not yet green — the red
    /// set, then the yellow set — with their body (`None`: not held).
    pub(crate) fn in_flight(&self) -> impl Iterator<Item = (ActionId, Option<&Body>)> {
        let red = self.red_bodies().map(|b| (b.id, Some(&**b)));
        let yellow = self
            .yellow
            .set
            .iter()
            .map(|id| (*id, self.body(id).map(|b| &**b)));
        red.chain(yellow)
    }

    /// The green database with the red actions replayed over it (the §6
    /// dirty view). Plain applies: a red replay neither reads nor fills
    /// a body's green memo.
    pub(crate) fn dirty_db(&self) -> Database {
        let mut dirty = self.db.snapshot();
        for body in self.red_bodies() {
            if let ActionKind::App { update, .. } = &body.kind {
                dirty.apply(update);
            }
        }
        dirty
    }

    /// `MarkRed` (CodeSegment A.14): accepts the action if it is its
    /// creator's next, keeping the red cut contiguous. Any other verdict
    /// leaves the colouring untouched.
    pub(crate) fn accept_red(&mut self, action: &Rc<Body>) -> Accept {
        let id = action.id;
        let creator = self.creators.entry(id.server).or_default();
        if id.index > creator.red + 1 {
            return Accept::Ahead;
        }
        if id.index != creator.red + 1 {
            return Accept::Duplicate;
        }
        creator.red = id.index;
        creator.bodies.push_back(Rc::clone(action));
        self.retained += 1;
        Accept::New
    }

    /// `MarkGreen`: places an accepted action on top of the green order
    /// and applies it to the database, through the body's memo
    /// ([`Body::apply_green`]). Returns `false` (and changes nothing) if
    /// it is already green.
    ///
    /// # Panics
    ///
    /// If the action was never accepted: green streams respect
    /// per-creator FIFO, so a contiguity gap here is a protocol bug,
    /// not a benign race.
    pub(crate) fn mark_green(&mut self, action: &Body) -> bool {
        let id = action.id;
        let creator = self.creators.get_mut(&id.server);
        let (green, red) = creator.as_ref().map_or((0, 0), |c| (c.green, c.red));
        if green >= id.index {
            return false;
        }
        assert!(red >= id.index, "green mark for unaccepted action {id}");
        debug_assert_eq!(id.index, green + 1, "green mark out of creator order");
        if let Some(creator) = creator {
            creator.green = id.index;
            creator.green_on_record = true;
        }
        self.green_tail.push(id);
        self.green_count += 1;
        action.apply_green(&mut self.db, self.server_set.len());
        true
    }

    /// Replaces the green prefix with an inherited database state (§5.1
    /// transfer / exchange snapshot fallback). Red actions the snapshot
    /// already incorporates are dropped, from the red set and from the
    /// yellow record, and so is every retained green body: the green
    /// tail restarts empty.
    ///
    /// Returns the creators whose green cut the base raises, with the
    /// new cut: the actions (red, yellow or never seen here) it greens
    /// without a green mark.
    pub(crate) fn adopt_base(
        &mut self,
        db: Database,
        green_count: u64,
        green_cuts: &BTreeMap<NodeId, u64>,
    ) -> Vec<(NodeId, u64)> {
        self.db = db;
        self.green_count = green_count;
        self.green_floor = green_count;
        self.green_tail.clear();
        // Merge cuts: the snapshot may know creators we do not and vice
        // versa.
        let mut raised = Vec::new();
        for (server, &cut) in green_cuts {
            let creator = self.creators.entry(*server).or_default();
            if cut > creator.green {
                raised.push((*server, cut));
            }
            creator.green = creator.green.max(cut);
            creator.green_on_record = true;
            creator.red = creator.red.max(cut);
        }
        for creator in self.creators.values_mut() {
            let keep = (creator.red - creator.green) as usize;
            let drop = creator.bodies.len().saturating_sub(keep);
            creator.bodies.drain(..drop);
            self.retained -= drop;
        }
        let creators = &self.creators;
        self.yellow
            .set
            .retain(|id| creators.get(&id.server).is_none_or(|c| id.index > c.green));
        raised
    }

    /// `Install` (A.10), between the yellow and the red conversion: the
    /// attempt this server voted for becomes the primary component. A
    /// member whose leave went green during this very installation is
    /// still a view member, so it lands in `servers` — but it exits the
    /// moment the install completes and must not count toward future
    /// quorums. Every member greens the identical sets, so all bake the
    /// identical discount from `departed`.
    pub(crate) fn install_prim(&mut self, departed: &BTreeSet<NodeId>) {
        self.yellow = YellowRecord::invalid();
        let prim = &mut self.prim_component;
        prim.prim_index += 1;
        prim.attempt_index = self.attempt_index;
        prim.servers = self.vulnerable.set.clone();
        prim.departed = prim.servers.intersection(departed).copied().collect();
        self.attempt_index = 0;
    }

    /// Sets the green line of every member of the just-installed
    /// primary but the `departed` to this server's green count: each one
    /// greened the identical sets, so its line lands at the same count.
    pub(crate) fn level_green_lines(&mut self, departed: &BTreeSet<NodeId>) {
        for &m in self.prim_component.servers.difference(departed) {
            self.green_lines.insert(m, self.green_count);
        }
    }

    /// Discards the bodies of **white** actions (§3). Returns how many
    /// were discarded, or `None` if the white line is not above the
    /// floor and nothing changed.
    pub(crate) fn prune_white(&mut self) -> Option<u64> {
        let white = self.white_line();
        if white <= self.green_floor {
            return None;
        }
        // The prune window is bounded by what we actually retain, and
        // the floor advances by the number of tail entries *dropped* —
        // never re-based to `white` directly. Re-basing silently breaks
        // `green_floor + green_tail.len() == green_count` whenever the
        // window exceeds the tail (the two quantities then disagree
        // with the retained bodies, and the green retransmission
        // indexes the tail with a phantom offset). The debug asserts pin
        // the invariant: the white line never runs ahead of our own
        // green count, so the window is always fully covered by the
        // tail.
        let want = (white - self.green_floor) as usize;
        let k = want.min(self.green_tail.len());
        debug_assert_eq!(
            want,
            k,
            "white line {white} beyond the retained green tail (floor {}, tail {})",
            self.green_floor,
            self.green_tail.len()
        );
        let mut pruned = 0;
        for id in self.green_tail.drain(..k) {
            // Greens come in creator order, so the oldest retained body
            // of the creator is this one.
            let front = self
                .creators
                .get_mut(&id.server)
                .and_then(|c| c.bodies.pop_front());
            if let Some(body) = front {
                debug_assert_eq!(body.id, id, "pruned body out of green order");
                pruned += 1;
            }
        }
        self.retained -= pruned;
        self.green_floor += k as u64;
        debug_assert_eq!(
            self.green_floor + self.green_tail.len() as u64,
            self.green_count,
            "green floor/tail disagree with the green count"
        );
        Some(pruned as u64)
    }

    /// What a crashed server still holds in memory of its coloured
    /// state: nothing. The named membership records stay readable (a
    /// `Down` replica answers inspection calls with them) until recovery
    /// replaces the whole `Knowledge` with what storage holds.
    pub(crate) fn forget_colours(&mut self) {
        let held = std::mem::replace(self, Knowledge::new([]));
        self.prim_component = held.prim_component;
        self.attempt_index = held.attempt_index;
        self.vulnerable = held.vulnerable;
        self.yellow = held.yellow;
        self.server_set = held.server_set;
        self.action_index = held.action_index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ClientId};
    use crate::persist;
    use todr_db::Op;
    use todr_sim::SimRng;
    use todr_storage::StorageHandle;

    const CREATORS: u32 = 4;
    const ME: u32 = 0;

    /// The one body `(server, index)` can have; a few rows, so later
    /// actions overwrite earlier ones and the apply order shows.
    fn action(server: u32, index: u64) -> Rc<Body> {
        Body::new(Action {
            id: ActionId {
                server: NodeId::new(server),
                index,
            },
            green_line: 0,
            client: ClientId(1),
            kind: ActionKind::App {
                query: None,
                update: Op::put(
                    "t",
                    format!("k{}", index % 5),
                    (server as i64) << 32 | index as i64,
                ),
            },
            size_bytes: 200,
        })
    }

    fn red(k: &Knowledge, server: u32) -> u64 {
        k.red_cut(NodeId::new(server))
    }

    fn green(k: &Knowledge, server: u32) -> u64 {
        k.creators.get(&NodeId::new(server)).map_or(0, |c| c.green)
    }

    /// An adopted base greens what it covers without a green mark: the
    /// subsumed reds leave the red set and the yellow record, and every
    /// creator whose cut it raises is reported, held or not.
    #[test]
    fn adopt_base_reports_raised_cuts_and_drops_subsumed_yellows() {
        let mut k = Knowledge::new((0..CREATORS).map(NodeId::new));
        for index in 1..=3 {
            assert_eq!(k.accept_red(&action(1, index)), Accept::New);
        }
        assert!(k.mark_green(&action(1, 1)));
        k.yellow = YellowRecord {
            valid: true,
            set: (2..=3).map(|index| action(1, index).id).collect(),
        };
        let cuts = BTreeMap::from([(NodeId::new(1), 2), (NodeId::new(2), 4)]);
        let raised = k.adopt_base(Database::new(), 6, &cuts);
        assert_eq!(raised, vec![(NodeId::new(1), 2), (NodeId::new(2), 4)]);
        assert!(k.yellow.valid);
        assert_eq!(k.yellow.set, vec![action(1, 3).id]);
        assert_eq!(
            k.red_bodies().map(|b| b.id).collect::<Vec<_>>(),
            k.yellow.set
        );
        assert!(k.is_green(&action(1, 2).id) && !k.is_green(&action(1, 3).id));
        assert_eq!(k.retained(), 1);
        // A base at or below what is held raises nothing.
        assert!(k.adopt_base(Database::new(), 6, &cuts).is_empty());
    }

    /// A replica's knowledge and store, driven the way the engine's
    /// handlers drive them: the rule first, then the log entry or record
    /// the handler writes when the rule says something changed.
    struct Replica {
        k: Knowledge,
        store: StorageHandle,
        /// Green count the last base record absorbed.
        based_at: u64,
    }

    impl Replica {
        fn new() -> Self {
            Replica {
                k: Knowledge::new((0..CREATORS).map(NodeId::new)),
                store: StorageHandle::sim(),
                based_at: 0,
            }
        }

        fn accept(&mut self, action: &Rc<Body>) -> Accept {
            let verdict = self.k.accept_red(action);
            if verdict == Accept::New {
                self.store.append_shared(action.accepted_entry());
            }
            verdict
        }

        fn green(&mut self, action: &Body) -> bool {
            let newly = self.k.mark_green(action);
            if newly {
                let count = self.k.green_count;
                self.k.green_lines.insert(NodeId::new(ME), count);
                self.store.append_shared(action.green_entry());
            }
            newly
        }

        fn rebase(&mut self) {
            self.k.save_base(&mut self.store);
            self.based_at = self.k.green_count;
        }

        /// A forced write completes, the process dies, recovery reads
        /// the store back.
        fn sync_crash_load(&mut self) -> Knowledge {
            self.k.save_records(&mut self.store);
            self.k.save_ongoing(&mut self.store);
            self.store.commit_staged().expect("sim store cannot fail");
            self.store.crash();
            persist::load(&self.store, &Knowledge::new([])).expect("clean store loads")
        }

        /// The live knowledge as a crash leaves it: the bodies of green
        /// actions the last base record absorbed are gone (the base
        /// holds their effect, the log restarted above them), and a
        /// creator only ever seen out of order is not known at all.
        fn as_recovered(&self) -> Knowledge {
            let mut k = self.k.clone();
            let absorbed = (self.based_at - k.green_floor) as usize;
            for id in k.green_tail.drain(..absorbed) {
                let front = k
                    .creators
                    .get_mut(&id.server)
                    .and_then(|c| c.bodies.pop_front());
                assert_eq!(front.map(|b| b.id), Some(id));
                k.retained -= 1;
            }
            k.green_floor = self.based_at;
            k.creators.retain(|_, c| c.red > 0 || c.green_on_record);
            k
        }
    }

    /// The rules exist once: for random interleavings of accept / green
    /// / prune / adopt-base over several creators, what `persist::load`
    /// folds out of the log and records the live path wrote equals what
    /// the live path holds.
    #[test]
    fn live_and_replayed_knowledge_agree() {
        for seed in 0..150u64 {
            let mut rng = SimRng::new(seed);
            let mut r = Replica::new();
            for _ in 0..120 {
                let creator = rng.gen_range(CREATORS as u64) as u32;
                match rng.gen_range(16) {
                    // Accept: the creator's next, a duplicate, or ahead.
                    0..=6 => {
                        let next = red(&r.k, creator) + 1;
                        let index = (next + rng.gen_range(4)).saturating_sub(2).max(1);
                        let verdict = r.accept(&action(creator, index));
                        assert_eq!(verdict == Accept::New, index == next);
                    }
                    // Green the creator's oldest red (per-creator FIFO),
                    // or an already green action (a no-op).
                    7..=10 => {
                        let next = green(&r.k, creator) + 1;
                        if next <= red(&r.k, creator) {
                            assert!(r.green(&action(creator, next)));
                        }
                        let done = green(&r.k, creator);
                        assert!(done == 0 || !r.green(&action(creator, done)));
                    }
                    // Peers' green lines move up; prune below the white line.
                    11 | 12 => {
                        for peer in 1..CREATORS {
                            let line = r.k.green_lines.entry(NodeId::new(peer)).or_insert(0);
                            let room = r.k.green_count - *line;
                            *line += rng.gen_range(room + 1);
                        }
                        if r.k.prune_white().is_some() {
                            r.rebase();
                        }
                    }
                    // Adopt the base of a peer that is ahead: it has
                    // greened some of what we hold red, and more.
                    13 => {
                        let mut donor = r.k.clone();
                        for _ in 0..rng.gen_range(6) {
                            let c = rng.gen_range(CREATORS as u64) as u32;
                            let a = action(c, green(&donor, c) + 1);
                            donor.accept_red(&a);
                            assert!(donor.mark_green(&a));
                        }
                        if donor.green_count > r.k.green_count {
                            r.k.adopt_base(
                                donor.db.snapshot(),
                                donor.green_count,
                                &donor.green_cuts(),
                            );
                            r.rebase();
                        }
                    }
                    // The named records move.
                    14 => {
                        r.k.attempt_index += 1;
                        r.k.action_index += 1;
                        let own = action(ME, 1_000 + r.k.action_index);
                        r.k.yellow.set.push(own.id);
                        r.k.ongoing.insert(own.id.index, own);
                    }
                    _ => assert_eq!(r.sync_crash_load(), r.as_recovered(), "seed {seed}"),
                }
            }
            assert_eq!(r.sync_crash_load(), r.as_recovered(), "seed {seed}");
            assert_eq!(
                r.k.green_floor + r.k.green_tail.len() as u64,
                r.k.green_count
            );
        }
    }

    /// The representation `Knowledge` had before it kept one record per
    /// creator — retained bodies, red set, red cut and green cut as four
    /// maps, each rule written directly against them — as the reference
    /// the derived views must equal.
    #[derive(Default)]
    struct FourMaps {
        bodies: BTreeMap<ActionId, Rc<Body>>,
        reds: BTreeSet<ActionId>,
        red_cuts: BTreeMap<NodeId, u64>,
        green_cuts: BTreeMap<NodeId, u64>,
    }

    impl FourMaps {
        fn accept_red(&mut self, action: &Rc<Body>) -> Accept {
            let id = action.id;
            let cut = self.red_cuts.entry(id.server).or_insert(0);
            if id.index > *cut + 1 {
                return Accept::Ahead;
            }
            if id.index != *cut + 1 {
                return Accept::Duplicate;
            }
            *cut = id.index;
            self.bodies.insert(id, Rc::clone(action));
            self.reds.insert(id);
            Accept::New
        }

        fn mark_green(&mut self, id: ActionId) -> bool {
            if self.green_cuts.get(&id.server).copied().unwrap_or(0) >= id.index {
                return false;
            }
            self.reds.remove(&id);
            self.green_cuts.insert(id.server, id.index);
            true
        }

        fn adopt_base(&mut self, green_cuts: &BTreeMap<NodeId, u64>) {
            for (server, cut) in green_cuts {
                let green = self.green_cuts.entry(*server).or_insert(0);
                *green = (*green).max(*cut);
                let red = self.red_cuts.entry(*server).or_insert(0);
                *red = (*red).max(*cut);
            }
            let cuts = &self.green_cuts;
            let above = |id: &ActionId| id.index > cuts.get(&id.server).copied().unwrap_or(0);
            self.reds.retain(|id| above(id));
            self.bodies.retain(|id, _| above(id));
        }

        fn assert_equals(&self, k: &Knowledge, context: &str) {
            let reds: Vec<ActionId> = self.reds.iter().copied().collect();
            let red_bodies: Vec<ActionId> = k.red_bodies().map(|b| b.id).collect();
            assert_eq!(red_bodies, reds, "{context}");
            for server in (0..CREATORS).map(NodeId::new) {
                let top = self.red_cuts.get(&server).copied().unwrap_or(0) + 2;
                for index in 0..=top {
                    let id = ActionId { server, index };
                    let want = self.bodies.get(&id).map(|b| b.id);
                    assert_eq!(k.body(&id).map(|b| b.id), want, "{context}: {id}");
                    let want_red = want.filter(|id| self.reds.contains(id));
                    assert_eq!(k.red_body(&id).map(|b| b.id), want_red, "{context}: {id}");
                }
            }
            assert_eq!(k.red_cuts(), self.red_cuts, "{context}");
            assert_eq!(k.green_cuts(), self.green_cuts, "{context}");
            assert_eq!(k.retained(), self.bodies.len(), "{context}");
        }
    }

    /// One record per creator derives the same red set, bodies, cut maps
    /// (0-valued entries included) and retained count as the four maps
    /// did, over random accept (next, duplicate, ahead) / green / prune /
    /// adopt-base / crash sequences.
    #[test]
    fn creator_records_equal_the_four_map_model() {
        for seed in 0..200u64 {
            let mut rng = SimRng::new(seed);
            let mut k = Knowledge::new((0..CREATORS).map(NodeId::new));
            let mut model = FourMaps::default();
            for step in 0..150 {
                let creator = rng.gen_range(CREATORS as u64) as u32;
                let context = format!("seed {seed} step {step}");
                match rng.gen_range(20) {
                    0..=7 => {
                        let next = red(&k, creator) + 1;
                        let a = action(creator, (next + rng.gen_range(4)).saturating_sub(2));
                        assert_eq!(k.accept_red(&a), model.accept_red(&a), "{context}");
                    }
                    8..=12 => {
                        let next = green(&k, creator) + 1;
                        let index = if rng.gen_range(4) == 0 {
                            next - 1
                        } else {
                            next
                        };
                        if index <= red(&k, creator) {
                            let a = action(creator, index);
                            assert_eq!(k.mark_green(&a), model.mark_green(a.id), "{context}");
                            let count = k.green_count;
                            k.green_lines.insert(NodeId::new(ME), count);
                        }
                    }
                    13..=15 => {
                        for peer in 1..CREATORS {
                            let line = k.green_lines.entry(NodeId::new(peer)).or_insert(0);
                            *line += rng.gen_range(k.green_count - *line + 1);
                        }
                        let (tail, floor) = (k.green_tail.clone(), k.green_floor);
                        let pruned = k.prune_white().unwrap_or(0);
                        let dropped = &tail[..(k.green_floor - floor) as usize];
                        for id in dropped {
                            model.bodies.remove(id);
                        }
                        assert_eq!(pruned, dropped.len() as u64, "{context}");
                    }
                    16..=18 => {
                        // A donor's cuts: any creator, below, at or above
                        // ours, 0 included.
                        let mut cuts = BTreeMap::new();
                        for c in 0..CREATORS {
                            if rng.gen_range(2) == 0 {
                                let reach = red(&k, c) + 3;
                                cuts.insert(NodeId::new(c), rng.gen_range(reach));
                            }
                        }
                        let count = k.green_count + rng.gen_range(4);
                        k.adopt_base(Database::new(), count, &cuts);
                        k.green_lines.insert(NodeId::new(ME), count);
                        model.adopt_base(&cuts);
                    }
                    _ => {
                        k.forget_colours();
                        model = FourMaps::default();
                    }
                }
                model.assert_equals(&k, &context);
            }
        }
    }

    /// Out-of-order and duplicate acceptance say so and colour nothing.
    #[test]
    fn only_the_creators_next_action_is_accepted() {
        let mut k = Knowledge::new((0..CREATORS).map(NodeId::new));
        assert_eq!(k.accept_red(&action(0, 1)), Accept::New);
        let before = k.clone();
        assert_eq!(k.accept_red(&action(0, 1)), Accept::Duplicate);
        assert_eq!(k.accept_red(&action(0, 3)), Accept::Ahead);
        assert_eq!(k, before);
        // A creator first heard of out of order is known, at cut 0.
        assert_eq!(k.accept_red(&action(1, 2)), Accept::Ahead);
        assert_eq!(k.red_cuts().get(&NodeId::new(1)), Some(&0));
        assert_eq!((k.retained(), k.red_bodies().count()), (1, 1));

        assert_eq!(k.accept_red(&action(0, 2)), Accept::New);
        assert_eq!(k.accept_red(&action(0, 3)), Accept::New);
        assert_eq!(red(&k, 0), 3);

        assert!(k.mark_green(&action(0, 1)));
        let before = k.clone();
        assert!(!k.mark_green(&action(0, 1)), "already green");
        assert_eq!(k, before);
        assert_eq!((k.green_count, green(&k, 0)), (1, 1));
        assert_eq!(k.green_cuts(), [(NodeId::new(0), 1)].into());
        assert_eq!(k.green_tail, vec![action(0, 1).id]);
        assert_eq!(k.red_bodies().count(), 2);
    }

    #[test]
    #[should_panic(expected = "green mark for unaccepted action")]
    fn greening_an_unaccepted_action_is_a_protocol_bug() {
        Knowledge::new((0..CREATORS).map(NodeId::new)).mark_green(&action(0, 1));
    }
}

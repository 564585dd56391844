//! What one replica knows, and the colouring rules that change it.
//!
//! [`Knowledge`] is the paper's persistent data (Appendix A: `serverSet`,
//! `actionIndex`, the red cut, `primComponent`, `attemptIndex`,
//! `vulnerable`, `yellow`, `actionsQueue`, `ongoingQueue`, `greenLines`)
//! together with the green database those actions build. It is plain
//! data plus rules — no simulator context, no metrics; a rule that
//! changes what storage mirrors stages its own records. The engine
//! writes no field itself: it calls the rules from its handlers and
//! does the syncs, sends, events and metrics around them;
//! [`crate::persist::load`] folds the *same* rules over the persisted
//! log, so the state recovery rebuilds is by construction the state the
//! live path built.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use todr_db::Database;
use todr_net::{NodeId, NodeMap};
use todr_storage::StorageHandle;

use crate::action::{Action, ActionId, ActionKind, Body, ClientId};
use crate::engine::EngineState;
use crate::persist;
use crate::quorum::{PrimComponent, VulnerableRecord, YellowRecord};
use crate::types::GreenBase;

/// Where a [`Knowledge::gc_step`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GcAt {
    /// After a green mark, in the regular primary or not.
    Green { regular_prim: bool },
    /// At the end of an install.
    Install,
    /// At an own action's creation: the action carries the green line.
    Created,
    /// At recovery: the reloaded line counts as advertised.
    Recovered,
}

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
    /// This server, whose line in `green_lines` is `green_count`.
    pub me: NodeId,
    /// Per creator: the red and green cuts and the retained bodies (the
    /// paper's `actionsQueue`).
    creators: NodeMap<CreatorRecord>,
    /// Bodies retained over all creators.
    retained: usize,
    /// Number of green actions: the position of this server's green
    /// line.
    pub green_count: u64,
    /// The last green action ids, in global order: position
    /// `green_floor() + i`.
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
    /// (`greenLines`); their minimum is the white line. This server's
    /// own entry is its green count, kept by the rules that move it.
    pub green_lines: NodeMap<u64>,
    /// The current replica set (`serverSet`).
    pub server_set: BTreeSet<NodeId>,
    /// This server's created-but-not-yet-red actions by index (the
    /// paper's `ongoingQueue`), all above its red cut: each rule that
    /// moves the cut drops what it covers (`trim_ongoing`).
    ongoing: BTreeMap<u64, Rc<Body>>,
    /// The highest index this server created (`actionIndex`), staged
    /// with each creation: a recovered log can end below an action
    /// already sent (a faulty final record is cut as a torn write).
    pub(crate) action_index: u64,
}

impl Knowledge {
    /// What server `me` knows before it has seen anything: the
    /// configured replica set as the initial primary component,
    /// everything else empty.
    pub(crate) fn new(me: NodeId, server_set: impl IntoIterator<Item = NodeId>) -> Self {
        let server_set: BTreeSet<NodeId> = server_set.into_iter().collect();
        // Both tables get a row per member: sized once, they never grow
        // while the server set holds.
        let members = server_set.len();
        Knowledge {
            me,
            creators: NodeMap::with_capacity(members),
            retained: 0,
            green_count: 0,
            green_tail: Vec::new(),
            db: Database::new(),
            prim_component: PrimComponent::initial(server_set.iter().copied()),
            attempt_index: 0,
            vulnerable: VulnerableRecord::invalid(),
            yellow: YellowRecord::invalid(),
            green_lines: NodeMap::with_capacity(members),
            server_set,
            ongoing: BTreeMap::new(),
            action_index: 0,
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

    /// Lowest green position a body is still retained for; everything
    /// below was white and has been discarded.
    pub(crate) fn green_floor(&self) -> u64 {
        self.green_count - self.green_tail.len() as u64
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

    /// Whether every action this server created is green here, where a
    /// strict query waits for it (§6; a fast commit answers while red).
    pub(crate) fn own_actions_green(&self) -> bool {
        let own = self.creators.get(&self.me);
        self.ongoing.is_empty() && own.is_none_or(|c| c.red == c.green)
    }

    /// Creates this server's next action, carrying its green line,
    /// queues it until it is red here, and stages its `Accepted` entry
    /// and the counter. Its index is above every index this server used:
    /// a crash can lose the counter's last commit or the log's last
    /// record, never both.
    pub(crate) fn create_action(
        &mut self,
        store: &mut StorageHandle,
        client: ClientId,
        kind: ActionKind,
        size_bytes: u32,
    ) -> Rc<Body> {
        let queued = self.ongoing.last_key_value().map_or(0, |(&index, _)| index);
        let server = self.me;
        let index = self.action_index.max(self.red_cut(server)).max(queued) + 1;
        self.action_index = index;
        let action = Body::new(Action {
            id: ActionId { server, index },
            green_line: self.green_count,
            client,
            kind,
            size_bytes,
        });
        self.queue_own(Rc::clone(&action));
        crate::persist::stage_created(store, &action);
        action
    }

    /// Queues one of this server's actions until it is red here (the
    /// creation's rule, and recovery's for a logged own body); `false`,
    /// changing nothing, for another's, one red here, or one queued.
    pub(crate) fn queue_own(&mut self, action: Rc<Body>) -> bool {
        let id = action.id;
        let queued = self.ongoing.contains_key(&id.index);
        if id.server != self.me || id.index <= self.red_cut(self.me) || queued {
            return false;
        }
        self.ongoing.insert(id.index, action);
        true
    }

    /// The queued own action `id`.
    pub(crate) fn queued(&self, id: &ActionId) -> Option<&Rc<Body>> {
        (id.server == self.me).then(|| self.ongoing.get(&id.index))?
    }

    /// The queued own actions, in index order.
    pub(crate) fn own_queue(&self) -> impl Iterator<Item = &Rc<Body>> {
        self.ongoing.values()
    }

    /// Restores the queue's invariant after this server's red cut moved.
    fn trim_ongoing(&mut self) {
        let red = self.red_cut(self.me);
        while let Some(entry) = self.ongoing.first_entry().filter(|e| *e.key() <= red) {
            entry.remove();
        }
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

    /// The green state, for another replica (or recovery) to adopt.
    pub(crate) fn green_base(&self) -> GreenBase {
        GreenBase {
            db: self.db.snapshot(),
            green_count: self.green_count,
            green_cut: self.green_cuts(),
        }
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

    /// `creator`'s oldest red body: the next of its actions to green.
    pub(crate) fn next_green(&self, creator: NodeId) -> Option<&Rc<Body>> {
        self.creators.get(&creator)?.reds().next()
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
        if id.server == self.me {
            self.trim_ongoing();
        }
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
        self.green_lines.insert(self.me, self.green_count);
        action.apply_green(&mut self.db, self.server_set.len());
        true
    }

    /// Takes a green base (§5.1 transfer, exchange snapshot fallback or
    /// recovery's base record). Red actions it already incorporates leave
    /// the red set, the yellow record and the own-action queue, and every
    /// retained green body is dropped: the green tail restarts empty.
    /// `green_lines` raise the known lines; this server's own line lands
    /// at the base's count.
    ///
    /// Returns the creators whose green cut the base raises, with the
    /// new cut: the actions (red, yellow or never seen here) it greens
    /// without a green mark.
    pub(crate) fn adopt_base(
        &mut self,
        base: GreenBase,
        green_lines: &NodeMap<u64>,
    ) -> Vec<(NodeId, u64)> {
        self.db = base.db;
        self.green_count = base.green_count;
        self.green_tail.clear();
        // Merge cuts: the base may know creators we do not and vice
        // versa.
        let mut raised = Vec::new();
        for (&server, &cut) in &base.green_cut {
            let creator = self.creators.entry(server).or_default();
            if cut > creator.green {
                raised.push((server, cut));
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
        for (&server, &line) in green_lines {
            self.raise_green_line(server, line);
        }
        self.green_lines.insert(self.me, self.green_count);
        self.trim_ongoing();
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

    /// Sets the green line of every server of the attempt being
    /// installed but the `departed` to this server's green count: each
    /// greened the identical sets (A.9, and again at the install's end).
    pub(crate) fn level_green_lines(&mut self, departed: &BTreeSet<NodeId>) {
        for &m in self.vulnerable.set.difference(departed) {
            self.green_lines.insert(m, self.green_count);
        }
    }

    /// The yellow set, if it is valid, taken for the install to green
    /// first (A.10, OR-1.2): the bodies of those not green yet (a green
    /// retransmission may have greened one, and GC dropped its body).
    /// `install_prim` then invalidates the record.
    pub(crate) fn take_yellows(&mut self) -> Vec<Rc<Body>> {
        let ids = std::mem::take(&mut self.yellow.set);
        let ids = ids
            .into_iter()
            .filter(|id| self.yellow.valid && !self.is_green(id));
        let body = |id| Rc::clone(self.body(&id).expect("yellow body present after exchange"));
        ids.map(body).collect()
    }

    /// `MarkYellow`, staged: red action `id` joins the yellow set, unless
    /// its body is not held or it is there already (`false`).
    pub(crate) fn mark_yellow(&mut self, store: &mut StorageHandle, id: ActionId) -> bool {
        let fresh = self.body(&id).is_some() && !self.yellow.set.contains(&id);
        if fresh {
            self.yellow.set.push(id);
            store.put_record(persist::K_YELLOW, &self.yellow);
        }
        fresh
    }

    /// A regular configuration met in `from` (A.5), staged with the
    /// records. After the primary's transitional one (A.3) every message
    /// of the primary up to the cut arrived: the vote is settled and the
    /// yellow set valid. After an interrupted vote nobody installed
    /// (A.11). Otherwise the vulnerability stays (A.12, A.1: Figure 4's `?`).
    pub(crate) fn shift_to_exchange(&mut self, store: &mut StorageHandle, from: EngineState) {
        if matches!(from, EngineState::TransPrim | EngineState::No) {
            self.vulnerable.valid = false;
        }
        self.yellow.valid |= from == EngineState::TransPrim;
        self.save_records(store);
    }

    /// A green `PERSISTENT_JOIN` (CodeSegment 5.1), staged: `joiner`
    /// enters the server set, as a creator at red cut 0, its green line at
    /// the join itself. `false`, changing nothing, for a member.
    pub(crate) fn join_green(&mut self, store: &mut StorageHandle, joiner: NodeId) -> bool {
        let new = self.server_set.insert(joiner);
        if new {
            self.creators.entry(joiner).or_default();
            self.green_lines.insert(joiner, self.green_count);
            self.save_records(store);
        }
        new
    }

    /// A green `PERSISTENT_LEAVE` (CodeSegment 5.1), staged: `leaver`
    /// leaves the server set and the green lines, and the quorum base
    /// ([`PrimComponent::note_departure`]). `false`, changing nothing,
    /// for a non-member.
    pub(crate) fn leave_green(&mut self, store: &mut StorageHandle, leaver: NodeId) -> bool {
        let member = self.server_set.remove(&leaver);
        if member {
            self.green_lines.remove(&leaver);
            self.prim_component.note_departure(leaver);
            self.save_records(store);
        }
        member
    }

    /// A joiner's bootstrap (CodeSegment 5.2): the representative's server
    /// set, with this server in it, and primary component. The base that
    /// came with them is adopted next.
    pub(crate) fn bootstrap(&mut self, servers: &BTreeSet<NodeId>, prim: &PrimComponent) {
        self.server_set = servers.iter().copied().chain([self.me]).collect();
        self.prim_component = prim.clone();
    }

    /// White-line GC (§3), one step: a checkpoint at every `interval`-th
    /// green and at an install's end, and, in the regular primary, this
    /// server's line advertised once no created action has carried it for
    /// an interval (`advertised` is the last line advertised or carried):
    /// a replica that creates nothing would pin the white line, and every
    /// body, forever. Nothing happens with GC off (`interval` 0). Returns
    /// what a checkpoint discarded, if one ran, and the line to advertise.
    pub(crate) fn gc_step(
        &mut self,
        store: &mut StorageHandle,
        (interval, advertised): (u64, &mut u64),
        at: GcAt,
    ) -> (Option<u64>, Option<u64>) {
        let (on, line) = (interval > 0, self.green_count);
        match at {
            GcAt::Created => *advertised = line.max(*advertised),
            GcAt::Recovered => *advertised = line,
            GcAt::Green { .. } | GcAt::Install => {}
        }
        let advertise =
            on && at == GcAt::Green { regular_prim: true } && line >= *advertised + interval;
        if advertise {
            *advertised = line;
        }
        let every = matches!(at, GcAt::Green { .. }) && line.is_multiple_of(interval.max(1));
        let checkpoint = on && (every || at == GcAt::Install);
        let pruned = checkpoint.then(|| self.checkpoint(store));
        (pruned, advertise.then_some(line))
    }

    /// `SwapReloadedGreens`: the reloaded green order's last two ids
    /// swapped. The database was replayed in log order, so only the green
    /// tail (what retransmission serves) is wrong.
    #[cfg(feature = "chaos-mutations")]
    pub(crate) fn swap_last_greens(&mut self) {
        if let [.., a, b] = &mut self.green_tail[..] {
            std::mem::swap(a, b);
        }
    }

    /// Discards the bodies of **white** actions (§3) and, if the white
    /// line is above the floor, compacts the log to a checkpoint of the
    /// green state ([`Knowledge::save_base`]). Returns how many bodies
    /// went. Safe: the white line is the minimum green line over the
    /// server set, so every potential exchange peer has those actions
    /// green, and the exchange plan never asks for a position below a
    /// member's green count.
    pub(crate) fn checkpoint(&mut self, store: &mut StorageHandle) -> u64 {
        let (white, floor) = (self.white_line(), self.green_floor());
        if white <= floor {
            return 0;
        }
        // The prune window is bounded by what we actually retain, and
        // the floor, derived from the tail, rises by exactly the entries
        // dropped. The white line never runs ahead of our own green
        // count, so the window is always fully covered by the tail.
        let want = (white - floor) as usize;
        let k = want.min(self.green_tail.len());
        debug_assert_eq!(
            want,
            k,
            "white line {white} beyond the retained green tail (floor {floor}, tail {})",
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
        self.save_base(store);
        pruned as u64
    }

    /// What a crashed server still holds in memory of its coloured
    /// state: nothing. The named membership records stay readable (a
    /// `Down` replica answers inspection calls with them) until recovery
    /// replaces the whole `Knowledge` with what storage holds.
    pub(crate) fn forget_colours(&mut self) {
        let held = std::mem::replace(self, Knowledge::new(self.me, []));
        self.prim_component = held.prim_component;
        self.attempt_index = held.attempt_index;
        self.vulnerable = held.vulnerable;
        self.yellow = held.yellow;
        self.server_set = held.server_set;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use todr_db::Op;
    use todr_sim::SimRng;

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

    /// An empty database at `green_count` with `green_cut`.
    fn base(green_count: u64, green_cut: &BTreeMap<NodeId, u64>) -> GreenBase {
        let green_cut = green_cut.clone();
        let db = Database::new();
        GreenBase {
            db,
            green_count,
            green_cut,
        }
    }

    /// An adopted base greens what it covers without a green mark: the
    /// subsumed reds leave the red set and the yellow record, and every
    /// creator whose cut it raises is reported, held or not. The known
    /// green lines only rise, and this server's lands at the base's
    /// count.
    #[test]
    fn adopt_base_reports_raised_cuts_and_drops_subsumed_yellows() {
        let mut k = Knowledge::new(NodeId::new(ME), (0..CREATORS).map(NodeId::new));
        for index in 1..=3 {
            assert_eq!(k.accept_red(&action(1, index)), Accept::New);
        }
        assert!(k.mark_green(&action(1, 1)));
        k.yellow = YellowRecord {
            valid: true,
            set: (2..=3).map(|index| action(1, index).id).collect(),
        };
        assert_eq!(k.green_lines, [(NodeId::new(ME), 1)].into());
        k.raise_green_line(NodeId::new(2), 9);
        let cuts = BTreeMap::from([(NodeId::new(1), 2), (NodeId::new(2), 4)]);
        let lines = NodeMap::from([
            (NodeId::new(ME), 8),
            (NodeId::new(1), 5),
            (NodeId::new(2), 3),
        ]);
        let raised = k.adopt_base(base(6, &cuts), &lines);
        assert_eq!(raised, vec![(NodeId::new(1), 2), (NodeId::new(2), 4)]);
        let lines = [
            (NodeId::new(ME), 6),
            (NodeId::new(1), 5),
            (NodeId::new(2), 9),
        ];
        assert_eq!(k.green_lines, lines.into());
        assert!(k.yellow.valid);
        assert_eq!(k.yellow.set, vec![action(1, 3).id]);
        assert_eq!(
            k.red_bodies().map(|b| b.id).collect::<Vec<_>>(),
            k.yellow.set
        );
        assert!(k.is_green(&action(1, 2).id) && !k.is_green(&action(1, 3).id));
        assert_eq!(k.retained(), 1);
        // A base at or below what is held raises nothing.
        assert!(k.adopt_base(base(6, &cuts), &NodeMap::new()).is_empty());
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
        /// An initial member, its records saved as the engine's
        /// constructor saves them.
        fn new() -> Self {
            let mut r = Replica {
                k: Knowledge::new(NodeId::new(ME), (0..CREATORS).map(NodeId::new)),
                store: StorageHandle::sim(),
                based_at: 0,
            };
            r.k.save_records(&mut r.store);
            r
        }

        fn accept(&mut self, action: &Rc<Body>) -> Accept {
            self.k.accept_staged(&mut self.store, action)
        }

        fn green(&mut self, action: &Body) -> bool {
            let newly = self.k.mark_green(action);
            if newly {
                self.store.append_shared(action.green_entry());
            }
            newly
        }

        fn rebase(&mut self) {
            self.k.save_base(&mut self.store);
            self.based_at = self.k.green_count;
        }

        /// The records are saved, a forced write completes, the process
        /// dies, recovery reads the store back.
        fn sync_crash_load(&mut self) -> Knowledge {
            self.k.save_records(&mut self.store);
            reload(&mut self.store)
        }

        /// The live knowledge as a crash leaves it: the bodies of green
        /// actions the last base record absorbed are gone (the base
        /// holds their effect, the log restarted above them), a
        /// creator only ever seen out of order is not known at all, and
        /// the own green line is on record even before a first green
        /// (recovery adopts its base record like any other).
        fn as_recovered(&self) -> Knowledge {
            let mut k = self.k.clone();
            k.green_lines.insert(k.me, k.green_count);
            let absorbed = (self.based_at - k.green_floor()) as usize;
            for id in k.green_tail.drain(..absorbed) {
                let front = k
                    .creators
                    .get_mut(&id.server)
                    .and_then(|c| c.bodies.pop_front());
                assert_eq!(front.map(|b| b.id), Some(id));
                k.retained -= 1;
            }
            k.creators.retain(|_, c| c.red > 0 || c.green_on_record);
            k
        }
    }

    /// What recovery reads back once a forced write completes and the
    /// process dies.
    fn reload(store: &mut StorageHandle) -> Knowledge {
        store.commit_staged().expect("sim store cannot fail");
        store.crash();
        persist::load(store, &Knowledge::new(NodeId::new(ME), []), true).expect("clean store loads")
    }

    /// `k` with `n` more actions of creators `1..CREATORS` green.
    fn greened(mut k: Knowledge, rng: &mut SimRng, n: u64) -> Knowledge {
        for _ in 0..n {
            let c = 1 + rng.gen_range(CREATORS as u64 - 1) as u32;
            let a = action(c, green(&k, c) + 1);
            k.accept_red(&a);
            assert!(k.mark_green(&a));
        }
        k
    }

    /// The rules exist once: for random interleavings of create / accept
    /// (own queued actions included) / green / yellow / prune /
    /// adopt-base / join and leave greens over several creators, from the
    /// initial set or after a joiner's bootstrap, what `persist::load`
    /// folds out of the log and records the live path wrote equals what
    /// the live path holds. A join or leave green stages its records
    /// itself: what recovery reads right after one has its membership.
    #[test]
    fn live_and_replayed_knowledge_agree() {
        for seed in 0..150u64 {
            let mut rng = SimRng::new(seed);
            let mut r = Replica::new();
            if seed % 3 == 0 {
                // This server joins online: a representative's base.
                let members = (1..CREATORS).map(NodeId::new);
                let mut donor = Knowledge::new(NodeId::new(1), members);
                donor = greened(donor, &mut rng, 8);
                assert!(donor.join_green(&mut StorageHandle::sim(), NodeId::new(ME)));
                r.k = Knowledge::new(NodeId::new(ME), []);
                r.k.bootstrap(&donor.server_set, &donor.prim_component);
                r.k.adopt_base(donor.green_base(), &donor.green_lines);
                r.rebase();
                r.k.save_records(&mut r.store);
            }
            for _ in 0..120 {
                let creator = rng.gen_range(CREATORS as u64) as u32;
                // A server id beyond the creators can join, and leave.
                let server = NodeId::new(1 + rng.gen_range(CREATORS as u64 + 1) as u32);
                match rng.gen_range(19) {
                    // Accept: the creator's next, a duplicate, or ahead;
                    // an own action is its queued body if it has one.
                    0..=6 => {
                        let next = red(&r.k, creator) + 1;
                        let index = (next + rng.gen_range(4)).saturating_sub(2).max(1);
                        let body = action(creator, index);
                        let body = r.k.queued(&body.id).cloned().unwrap_or(body);
                        let verdict = r.accept(&body);
                        assert_eq!(verdict == Accept::New, index == next);
                    }
                    // Green the creator's oldest red (per-creator FIFO),
                    // or an already green action (a no-op).
                    7..=10 => {
                        if let Some(body) = r.k.next_green(NodeId::new(creator)).cloned() {
                            assert!(r.green(&body));
                        }
                        let done = green(&r.k, creator);
                        assert!(done == 0 || !r.green(&action(creator, done)));
                    }
                    // Members' green lines move up; prune below the white
                    // line.
                    11 | 12 => {
                        for peer in r.k.server_set.clone() {
                            let line = r.k.green_lines.get(&peer).copied().unwrap_or(0);
                            let room = r.k.green_count - line;
                            r.k.raise_green_line(peer, line + rng.gen_range(room + 1));
                        }
                        if r.k.checkpoint(&mut r.store) > 0 {
                            r.based_at = r.k.green_count;
                        }
                    }
                    // Adopt the base of a peer that is ahead: it has
                    // greened some of what we hold red, and more.
                    13 => {
                        let n = rng.gen_range(6);
                        let donor = greened(r.k.clone(), &mut rng, n);
                        if donor.green_count > r.k.green_count {
                            r.k.adopt_base(donor.green_base(), &donor.green_lines);
                            r.rebase();
                        }
                    }
                    // The named records move, a red action turns yellow,
                    // and this server creates an action: queued until an
                    // accept of its index.
                    14 => {
                        r.k.attempt_index += 1;
                        let red = r.k.red_bodies().next().map(|b| b.id);
                        if let Some(id) = red {
                            let fresh = !r.k.yellow.set.contains(&id);
                            assert_eq!(r.k.mark_yellow(&mut r.store, id), fresh);
                        }
                        let kind = action(ME, 0).kind.clone();
                        r.k.create_action(&mut r.store, ClientId(1), kind, 200);
                    }
                    // A join or leave goes green: a no-op for a member
                    // joining or a non-member leaving.
                    15 | 16 => {
                        let member = r.k.server_set.contains(&server);
                        let join = rng.gen_range(2) == 0;
                        let changed = match join {
                            true => r.k.join_green(&mut r.store, server),
                            false => r.k.leave_green(&mut r.store, server),
                        };
                        assert_eq!(changed, join != member);
                        let loaded = reload(&mut r.store);
                        assert_eq!(loaded.server_set, r.k.server_set, "seed {seed}");
                        assert_eq!(loaded.prim_component, r.k.prim_component);
                        let line = |k: &Knowledge| k.green_lines.get(&server).copied();
                        assert!(!changed || line(&loaded) == line(&r.k), "seed {seed}");
                    }
                    _ => assert_eq!(r.sync_crash_load(), r.as_recovered(), "seed {seed}"),
                }
            }
            assert_eq!(r.sync_crash_load(), r.as_recovered(), "seed {seed}");
        }
    }

    /// This server's queued actions, by index.
    fn queued(k: &Knowledge) -> Vec<u64> {
        k.own_queue().map(|b| b.id.index).collect()
    }

    /// The queue is the own bodies the log holds above their red marks:
    /// recovery drops what the replayed log shows red, so an action
    /// cannot stay queued (blocking every strict query) forever, and the
    /// next action takes the index after the queue.
    #[test]
    fn load_drops_a_queued_own_action_its_log_shows_red() {
        let mut r = Replica::new();
        let kind = action(ME, 0).kind.clone();
        let first =
            r.k.create_action(&mut r.store, ClientId(1), kind.clone(), 200);
        r.k.create_action(&mut r.store, ClientId(1), kind.clone(), 200);
        assert_eq!(r.accept(&first), Accept::New);
        assert!(r.store.commit_staged().is_ok());
        let held = Knowledge::new(NodeId::new(ME), []);
        let Ok(mut k) = persist::load(&r.store, &held, true) else {
            panic!("clean store loads");
        };
        assert_eq!((red(&k, ME), queued(&k)), (1, vec![2]));
        let own = k.create_action(&mut r.store, ClientId(1), kind, 200);
        assert_eq!(own.id.index, 3);
    }

    /// A base whose cut covers queued own actions (they went green
    /// elsewhere before they were red here) drops them from the queue;
    /// the counter stays above the cut.
    #[test]
    fn adopt_base_drops_queued_own_actions_its_cut_covers() {
        let mut k = Knowledge::new(NodeId::new(ME), (0..CREATORS).map(NodeId::new));
        let (kind, mut store) = (action(ME, 0).kind.clone(), StorageHandle::sim());
        for _ in 0..3 {
            k.create_action(&mut store, ClientId(1), kind.clone(), 200);
        }
        assert_eq!(queued(&k), vec![1, 2, 3]);
        k.adopt_base(base(2, &[(NodeId::new(ME), 2)].into()), &NodeMap::new());
        assert_eq!(queued(&k), vec![3]);
        assert!(!k.own_actions_green());
        let own = k.create_action(&mut store, ClientId(1), kind, 200);
        assert_eq!(own.id.index, 4);
        assert_eq!(k.accept_red(&action(ME, 3)), Accept::New);
        assert_eq!(queued(&k), vec![4]);
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
            let mut k = Knowledge::new(NodeId::new(ME), (0..CREATORS).map(NodeId::new));
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
                        }
                    }
                    13..=15 => {
                        for peer in 1..CREATORS {
                            let line = k.green_lines.entry(NodeId::new(peer)).or_insert(0);
                            *line += rng.gen_range(k.green_count - *line + 1);
                        }
                        let (tail, floor) = (k.green_tail.clone(), k.green_floor());
                        let pruned = k.checkpoint(&mut StorageHandle::sim());
                        let dropped = &tail[..(k.green_floor() - floor) as usize];
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
                        k.adopt_base(base(count, &cuts), &NodeMap::new());
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
        let mut k = Knowledge::new(NodeId::new(ME), (0..CREATORS).map(NodeId::new));
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

    /// Greens creator 1's next action with server 1's line at the new
    /// count, so every green body is white at once, then takes one GC
    /// step `at`.
    fn green_then_gc(
        k: &mut Knowledge,
        gc: (u64, &mut u64),
        at: GcAt,
    ) -> (Option<u64>, Option<u64>) {
        let a = action(1, green(k, 1) + 1);
        k.accept_red(&a);
        assert!(k.mark_green(&a));
        k.raise_green_line(NodeId::new(1), k.green_count);
        k.gc_step(&mut StorageHandle::sim(), gc, at)
    }

    /// A checkpoint runs at every `interval`-th green and at an install,
    /// and discards what is white; with GC off, never.
    #[test]
    fn the_gc_step_prunes_only_at_interval_multiples_and_at_install() {
        let mut k = Knowledge::new(NodeId::new(ME), [NodeId::new(ME), NodeId::new(1)]);
        let mut advertised = 0;
        for count in 1..=9u64 {
            let (pruned, _) = green_then_gc(
                &mut k,
                (4, &mut advertised),
                GcAt::Green {
                    regular_prim: false,
                },
            );
            assert_eq!(pruned, count.is_multiple_of(4).then_some(4), "at {count}");
        }
        assert_eq!(k.retained(), 1);
        for at in [GcAt::Created, GcAt::Recovered] {
            assert_eq!(
                k.gc_step(&mut StorageHandle::sim(), (4, &mut advertised), at)
                    .0,
                None
            );
        }
        assert_eq!(
            k.gc_step(
                &mut StorageHandle::sim(),
                (4, &mut advertised),
                GcAt::Install
            )
            .0,
            Some(1)
        );
        assert_eq!((k.retained(), k.green_floor()), (0, 9));
        for at in [GcAt::Green { regular_prim: true }, GcAt::Install] {
            assert_eq!(green_then_gc(&mut k, (0, &mut advertised), at).0, None);
        }
        assert_eq!(k.retained(), 2);
    }

    /// The line is advertised in the regular primary once it passes the
    /// last advertised or carried line by an interval: never outside it,
    /// never with GC off. A created action carries the line, and
    /// recovery takes the reloaded line as advertised.
    #[test]
    fn the_gc_step_advertises_only_in_the_regular_primary_once_an_interval_passes() {
        let mut k = Knowledge::new(NodeId::new(ME), [NodeId::new(ME), NodeId::new(1)]);
        let (prim, mut advertised) = (GcAt::Green { regular_prim: true }, 0);
        let mut lines = Vec::new();
        for _ in 0..12 {
            lines.extend(green_then_gc(&mut k, (4, &mut advertised), prim).1);
        }
        assert_eq!((lines, advertised), (vec![4, 8, 12], 12));
        for _ in 0..8 {
            let outside = green_then_gc(
                &mut k,
                (4, &mut advertised),
                GcAt::Green {
                    regular_prim: false,
                },
            );
            assert_eq!(outside.1, None);
            assert_eq!(green_then_gc(&mut k, (0, &mut advertised), prim).1, None);
        }
        assert_eq!(
            green_then_gc(&mut k, (4, &mut advertised), prim).1,
            Some(29)
        );
        k.gc_step(
            &mut StorageHandle::sim(),
            (4, &mut advertised),
            GcAt::Created,
        );
        let mut advertised = 0; // a crash loses it
        k.gc_step(
            &mut StorageHandle::sim(),
            (4, &mut advertised),
            GcAt::Recovered,
        );
        assert_eq!(advertised, 29);
        let lines: Vec<u64> = (0..4)
            .filter_map(|_| green_then_gc(&mut k, (4, &mut advertised), prim).1)
            .collect();
        assert_eq!(lines, [33]);
        for _ in 0..2 {
            green_then_gc(
                &mut k,
                (4, &mut advertised),
                GcAt::Green {
                    regular_prim: false,
                },
            );
        }
        k.gc_step(
            &mut StorageHandle::sim(),
            (4, &mut advertised),
            GcAt::Created,
        );
        assert_eq!(advertised, 35);
        assert_eq!(green_then_gc(&mut k, (4, &mut advertised), prim).1, None);
    }

    /// A green join adds the joiner, known as a creator at red cut 0,
    /// its line at the join, and stages the records; a second green join
    /// of it (a later duplicate announcement) changes nothing.
    #[test]
    fn a_second_join_green_is_a_no_op() {
        let mut r = Replica::new();
        let joiner = NodeId::new(7);
        green_then_gc(&mut r.k, (0, &mut 0), GcAt::Install);
        assert!(r.k.join_green(&mut r.store, joiner));
        assert_eq!(r.k.red_cuts().get(&joiner), Some(&0));
        assert_eq!(r.k.green_lines.get(&joiner), Some(&1));
        green_then_gc(&mut r.k, (0, &mut 0), GcAt::Install);
        let joined = r.k.clone();
        assert!(!r.k.join_green(&mut r.store, joiner));
        assert_eq!(r.k, joined);
        let loaded = reload(&mut r.store);
        assert!(loaded.server_set.contains(&joiner));
        assert_eq!(loaded.green_lines.get(&joiner), Some(&1));
    }

    /// A green leave of a non-member changes nothing; a member's leaves
    /// the server set, the green lines and the quorum base, staged.
    #[test]
    fn a_leave_of_a_non_member_is_a_no_op() {
        let mut r = Replica::new();
        let (leaver, before) = (NodeId::new(3), r.k.clone());
        assert!(!r.k.leave_green(&mut r.store, NodeId::new(7)));
        assert_eq!(r.k, before);
        r.k.raise_green_line(leaver, 0);
        assert!(r.k.leave_green(&mut r.store, leaver));
        let left = r.k.clone();
        assert!(!r.k.leave_green(&mut r.store, leaver));
        assert_eq!(r.k, left);
        let loaded = reload(&mut r.store);
        for k in [&r.k, &loaded] {
            assert!(!k.server_set.contains(&leaver) && !k.green_lines.contains_key(&leaver));
            assert_eq!(k.prim_component.departed, [leaver].into());
        }
    }

    /// Levelling sets the line of every server of the attempt to this
    /// server's green count but a departed one's, which stays out; A.9
    /// levels them all.
    #[test]
    fn levelling_skips_departed_members() {
        let mut r = Replica::new();
        let members = (0..CREATORS).map(NodeId::new);
        r.k.vulnerable = VulnerableRecord::new_attempt(0, 1, members);
        for _ in 0..3 {
            green_then_gc(&mut r.k, (0, &mut 0), GcAt::Install);
        }
        let departed = NodeId::new(2);
        assert!(r.k.leave_green(&mut r.store, departed));
        r.k.level_green_lines(&[departed].into());
        let level = |ids: &[u32]| ids.iter().map(|&i| (NodeId::new(i), 3)).collect();
        assert_eq!(r.k.green_lines, level(&[0, 1, 3]));
        r.k.level_green_lines(&BTreeSet::new());
        assert_eq!(r.k.green_lines, level(&[0, 1, 2, 3]));
    }

    /// A regular configuration after the primary's transitional one
    /// settles the vote and validates the yellow set (A.3); after an
    /// interrupted vote it settles the vote (A.11); otherwise nothing
    /// moves (A.12, A.1). Each stages the records.
    #[test]
    fn a_regular_configuration_settles_the_vote_by_the_state_it_meets() {
        for (from, vulnerable, yellow) in [
            (EngineState::TransPrim, false, true),
            (EngineState::No, false, false),
            (EngineState::Un, true, false),
            (EngineState::NonPrim, true, false),
        ] {
            let mut r = Replica::new();
            r.k.vulnerable = VulnerableRecord::new_attempt(0, 1, [NodeId::new(ME)]);
            r.k.shift_to_exchange(&mut r.store, from);
            let loaded = reload(&mut r.store);
            for k in [&r.k, &loaded] {
                assert_eq!(
                    (k.vulnerable.valid, k.yellow.valid),
                    (vulnerable, yellow),
                    "{from:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "green mark for unaccepted action")]
    fn greening_an_unaccepted_action_is_a_protocol_bug() {
        Knowledge::new(NodeId::new(ME), (0..CREATORS).map(NodeId::new)).mark_green(&action(0, 1));
    }
}

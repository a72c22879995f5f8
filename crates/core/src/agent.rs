//! Agent records and the struct-of-arrays agent pool.
//!
//! The paper's agent `a = ⟨oid, s, e⟩` (Appendix A) appears in two
//! physical layouts:
//!
//! * [`Agent`] — the row-oriented *serialization record*: one id, one
//!   position, one `Vec<f64>` of state slots, one of effect slots. This is
//!   what checkpoints, worker-to-worker transfers and model constructors
//!   speak, because `serde` on `Vec<Agent>` is the stable wire format.
//! * [`AgentPool`] — the **struct-of-arrays working representation** the
//!   executor actually runs on. Every attribute is its own flat column:
//!   `ids`, `xs`, `ys`, `alive`, one `Vec<f64>` per state field, and one
//!   effect column per effect field (owned by the pool's embedded
//!   [`EffectTable`]). The per-tick query phase — by far the hot path —
//!   touches positions and a couple of state fields for millions of
//!   neighbor visits; with the pool those reads are cache-linear column
//!   scans instead of two pointer chases (`Vec<Agent>` → `Agent.state`
//!   heap block) per field access, and the effect accumulator is the
//!   pool's own columns rather than a separate allocation that must be
//!   copied back (`EffectTable::write_into`) each tick.
//!
//! Conversion between the two lives at the serialization boundary only
//! ([`AgentPool::from_agents`] / [`AgentPool::to_agents`]): checkpoints
//! stay byte-compatible, and the executor never materializes row records
//! in its hot loops. During the query phase behaviors see rows through the
//! read-only [`AgentRef`] view; the update phase gathers one row at a time
//! into a reused scratch [`Agent`] (updates are O(fields) per agent and
//! touch every column anyway, so the gather adds no asymptotic cost while
//! keeping `Behavior::update`'s `&mut Agent` contract stable).

use crate::effect::EffectTable;
use crate::schema::AgentSchema;
use brace_common::{AgentId, FieldId, Vec2};
use serde::{Deserialize, Serialize};

/// One simulated agent, row layout.
///
/// Serializable so that checkpoints and worker-to-worker transfers are just
/// `serde` on `Vec<Agent>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Agent {
    /// Stable identity (`oid`). Replicas carry the owner's id.
    pub id: AgentId,
    /// Spatial location `ℓ(s)` — a distinguished pair of state attributes.
    pub pos: Vec2,
    /// Non-spatial state attributes, indexed by the schema's state fields.
    pub state: Vec<f64>,
    /// Effect attributes, indexed by the schema's effect fields. Reset to
    /// the combinator identities θ at every tick boundary.
    pub effects: Vec<f64>,
    /// Liveness flag: update rules may kill an agent (predator model); dead
    /// agents are removed by the executor at the end of the tick.
    pub alive: bool,
}

impl Agent {
    /// A new agent shaped by `schema`, with all state zeroed and effects at
    /// their identities.
    pub fn new(id: AgentId, pos: Vec2, schema: &AgentSchema) -> Self {
        Agent { id, pos, state: vec![0.0; schema.num_states()], effects: schema.effect_identities(), alive: true }
    }

    /// A new agent with explicit initial state values (length-checked by
    /// debug assertion; release builds trust the caller).
    pub fn with_state(id: AgentId, pos: Vec2, state: Vec<f64>, schema: &AgentSchema) -> Self {
        debug_assert_eq!(state.len(), schema.num_states(), "state vector shape mismatch");
        Agent { id, pos, state, effects: schema.effect_identities(), alive: true }
    }

    /// Read a state field.
    #[inline]
    pub fn get(&self, f: FieldId) -> f64 {
        self.state[f.index()]
    }

    /// Write a state field (update phase only — the executor enforces the
    /// discipline by never handing out `&mut Agent` during queries).
    #[inline]
    pub fn set(&mut self, f: FieldId, v: f64) {
        self.state[f.index()] = v;
    }

    /// Read an aggregated effect field (update phase).
    #[inline]
    pub fn effect(&self, f: FieldId) -> f64 {
        self.effects[f.index()]
    }

    /// Reset every effect slot to its combinator identity; called by the
    /// serial reference executor after the update phase consumed them (the
    /// pool path resets whole columns instead).
    pub fn reset_effects(&mut self, schema: &AgentSchema) {
        for (slot, def) in self.effects.iter_mut().zip(schema.effect_defs()) {
            *slot = def.combinator.identity();
        }
    }

    /// Clamp a proposed new position to the agent's reachable region around
    /// `from` (the position at the start of the tick). BRASIL guarantees
    /// "the update rule is guaranteed to crop any changes to the x
    /// coordinate to at most one unit" — this is that crop.
    pub fn clamp_move(from: Vec2, proposed: Vec2, reachability: f64) -> Vec2 {
        if !reachability.is_finite() {
            return proposed;
        }
        Vec2::new(
            proposed.x.clamp(from.x - reachability, from.x + reachability),
            proposed.y.clamp(from.y - reachability, from.y + reachability),
        )
    }
}

/// Read-only access to an agent's identity, position and state — the
/// common surface of the row record ([`Agent`]) and the pool row view
/// ([`AgentRef`]). Interpreters that must run against both layouts (the
/// BRASIL executor evaluates expressions over the querying agent in the
/// query phase and over a snapshot record in the update phase) are generic
/// over this trait.
pub trait AgentRead {
    fn id(&self) -> AgentId;
    fn pos(&self) -> Vec2;
    /// Read state slot `slot` (schema order).
    fn state(&self, slot: u16) -> f64;
}

impl<T: AgentRead + ?Sized> AgentRead for &T {
    #[inline]
    fn id(&self) -> AgentId {
        (**self).id()
    }
    #[inline]
    fn pos(&self) -> Vec2 {
        (**self).pos()
    }
    #[inline]
    fn state(&self, slot: u16) -> f64 {
        (**self).state(slot)
    }
}

impl AgentRead for Agent {
    #[inline]
    fn id(&self) -> AgentId {
        self.id
    }
    #[inline]
    fn pos(&self) -> Vec2 {
        self.pos
    }
    #[inline]
    fn state(&self, slot: u16) -> f64 {
        self.state[slot as usize]
    }
}

/// The struct-of-arrays agent pool: the executor's working representation.
/// See the module docs for the layout rationale.
#[derive(Debug, Clone)]
pub struct AgentPool {
    ids: Vec<AgentId>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    alive: Vec<bool>,
    /// One flat column per state field (schema order).
    states: Vec<Vec<f64>>,
    /// Effect columns: the per-tick accumulator *is* the pool's storage —
    /// the sharded query phase merges straight into these columns and the
    /// update phase reads them back without any copy.
    effects: EffectTable,
}

impl AgentPool {
    /// An empty pool shaped by `schema`.
    pub fn new(schema: &AgentSchema) -> Self {
        AgentPool {
            ids: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            alive: Vec::new(),
            states: vec![Vec::new(); schema.num_states()],
            effects: EffectTable::new(schema),
        }
    }

    /// Convert row records into the columnar layout (the serialization
    /// boundary: checkpoints, worker transfers, model constructors).
    pub fn from_agents(schema: &AgentSchema, agents: &[Agent]) -> Self {
        let mut pool = AgentPool::new(schema);
        pool.extend_from_agents(agents);
        pool
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Drop every row, keeping the column allocations.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.xs.clear();
        self.ys.clear();
        self.alive.clear();
        for col in &mut self.states {
            col.clear();
        }
        self.effects.reset(0);
    }

    /// Append one row record (shape-checked in debug builds).
    pub fn push_agent(&mut self, a: &Agent) {
        debug_assert_eq!(a.state.len(), self.states.len(), "state shape mismatch");
        debug_assert_eq!(a.effects.len(), self.effects.width(), "effect shape mismatch");
        self.ids.push(a.id);
        self.xs.push(a.pos.x);
        self.ys.push(a.pos.y);
        self.alive.push(a.alive);
        for (col, &v) in self.states.iter_mut().zip(&a.state) {
            col.push(v);
        }
        self.effects.push_row(&a.effects);
    }

    /// Append a batch of row records.
    pub fn extend_from_agents(&mut self, agents: &[Agent]) {
        for a in agents {
            self.push_agent(a);
        }
    }

    /// Append a freshly spawned agent: given state, effects at their
    /// identities, alive.
    pub fn push_spawn(&mut self, id: AgentId, pos: Vec2, state: &[f64]) {
        debug_assert_eq!(state.len(), self.states.len(), "state shape mismatch");
        self.ids.push(id);
        self.xs.push(pos.x);
        self.ys.push(pos.y);
        self.alive.push(true);
        for (col, &v) in self.states.iter_mut().zip(state) {
            col.push(v);
        }
        self.effects.push_identity_row();
    }

    /// Overwrite row `dst` with row `src` (all columns, effects included).
    ///
    /// One of the **stable-row mutation primitives** the distributed
    /// runtime's persistent pool is built on: removal is "copy the last row
    /// into the hole, then pop", so every surviving row keeps its index and
    /// only one row moves. Callers maintaining an id ↔ row map (the worker)
    /// re-point the moved id after the copy.
    #[inline]
    pub fn copy_row_within(&mut self, src: u32, dst: u32) {
        let (s, d) = (src as usize, dst as usize);
        self.ids[d] = self.ids[s];
        self.xs[d] = self.xs[s];
        self.ys[d] = self.ys[s];
        self.alive[d] = self.alive[s];
        for col in &mut self.states {
            col[d] = col[s];
        }
        self.effects.copy_row_within(src, dst);
    }

    /// Append a copy of row `src` at the end (the persistent pool's
    /// owned-region insertion relocates the first replica-tail row here).
    pub fn push_row_copy(&mut self, src: u32) {
        let s = src as usize;
        self.ids.push(self.ids[s]);
        self.xs.push(self.xs[s]);
        self.ys.push(self.ys[s]);
        self.alive.push(self.alive[s]);
        for col in &mut self.states {
            let v = col[s];
            col.push(v);
        }
        self.effects.push_row_copy(src);
    }

    /// Remove the last row.
    pub fn pop_row(&mut self) {
        debug_assert!(!self.is_empty(), "pop from empty pool");
        self.ids.pop();
        self.xs.pop();
        self.ys.pop();
        self.alive.pop();
        for col in &mut self.states {
            col.pop();
        }
        self.effects.pop_row();
    }

    /// Overwrite row `r` in place from a row record (replica refresh,
    /// owned-region insertion into a relocated slot).
    pub fn overwrite_row(&mut self, r: u32, a: &Agent) {
        debug_assert_eq!(a.state.len(), self.states.len(), "state shape mismatch");
        debug_assert_eq!(a.effects.len(), self.effects.width(), "effect shape mismatch");
        let i = r as usize;
        self.ids[i] = a.id;
        self.xs[i] = a.pos.x;
        self.ys[i] = a.pos.y;
        self.alive[i] = a.alive;
        for (col, &v) in self.states.iter_mut().zip(&a.state) {
            col[i] = v;
        }
        self.effects.set_row(r, &a.effects);
    }

    /// Number of state fields per row (the schema's state width).
    #[inline]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Keep only rows `0..n` (drops replica rows after the query phase).
    pub fn truncate(&mut self, n: usize) {
        self.ids.truncate(n);
        self.xs.truncate(n);
        self.ys.truncate(n);
        self.alive.truncate(n);
        for col in &mut self.states {
            col.truncate(n);
        }
        self.effects.truncate_rows(n);
    }

    #[inline]
    pub fn id(&self, row: u32) -> AgentId {
        self.ids[row as usize]
    }

    #[inline]
    pub fn pos(&self, row: u32) -> Vec2 {
        Vec2::new(self.xs[row as usize], self.ys[row as usize])
    }

    #[inline]
    pub fn set_pos(&mut self, row: u32, p: Vec2) {
        self.xs[row as usize] = p.x;
        self.ys[row as usize] = p.y;
    }

    #[inline]
    pub fn state(&self, row: u32, f: FieldId) -> f64 {
        self.states[f.index()][row as usize]
    }

    #[inline]
    pub fn set_state(&mut self, row: u32, f: FieldId, v: f64) {
        self.states[f.index()][row as usize] = v;
    }

    #[inline]
    pub fn alive(&self, row: u32) -> bool {
        self.alive[row as usize]
    }

    /// The x-position column (index construction, partitioning sweeps).
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y-position column.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The id column.
    #[inline]
    pub fn ids(&self) -> &[AgentId] {
        &self.ids
    }

    /// The effect columns (post-query aggregates, pre-update reads).
    #[inline]
    pub fn effects(&self) -> &EffectTable {
        &self.effects
    }

    /// Mutable effect columns (the distributed runtime ⊕-merges shipped
    /// partial rows into them between the query and update phases).
    #[inline]
    pub fn effects_mut(&mut self) -> &mut EffectTable {
        &mut self.effects
    }

    /// Reset every effect column to its identity — one `fill` per column.
    pub fn reset_effects(&mut self) {
        let n = self.len();
        self.effects.reset(n);
    }

    /// Read-only view of the identity/position/state columns (what the
    /// query phase sees).
    #[inline]
    pub fn view(&self) -> PoolView<'_> {
        PoolView { ids: &self.ids, xs: &self.xs, ys: &self.ys, alive: &self.alive, states: &self.states }
    }

    /// Split the pool for the query phase: a frozen state view for the
    /// probe loops plus the mutable effect columns the shard results merge
    /// into. The borrow split is what enforces "states read-only, effects
    /// write-only" at zero cost.
    #[inline]
    pub fn split_query(&mut self) -> (PoolView<'_>, &mut EffectTable) {
        (
            PoolView { ids: &self.ids, xs: &self.xs, ys: &self.ys, alive: &self.alive, states: &self.states },
            &mut self.effects,
        )
    }

    /// Compact away rows whose `alive` flag is false, preserving order.
    /// Returns the number of removed rows. Effect columns are *not*
    /// compacted — callers reset them for the next tick right after (the
    /// update phase consumed them already).
    pub fn retain_alive(&mut self) -> usize {
        let before = self.len();
        if self.alive.iter().all(|&a| a) {
            return 0;
        }
        let mut w = 0usize;
        for r in 0..before {
            if self.alive[r] {
                if w != r {
                    self.ids[w] = self.ids[r];
                    self.xs[w] = self.xs[r];
                    self.ys[w] = self.ys[r];
                    for col in &mut self.states {
                        col[w] = col[r];
                    }
                }
                w += 1;
            }
        }
        self.ids.truncate(w);
        self.xs.truncate(w);
        self.ys.truncate(w);
        for col in &mut self.states {
            col.truncate(w);
        }
        self.alive.clear();
        self.alive.resize(w, true);
        before - w
    }

    /// Materialize row records (the serialization boundary out).
    pub fn to_agents(&self) -> Vec<Agent> {
        let mut out = Vec::new();
        self.write_agents_into(&mut out);
        out
    }

    /// [`AgentPool::to_agents`] into a reused buffer.
    pub fn write_agents_into(&self, out: &mut Vec<Agent>) {
        self.write_agents_prefix_into(self.len(), out);
    }

    /// Materialize rows `0..n` as row records (the distributed worker's
    /// snapshot boundary: owned rows only, replica tail excluded).
    pub fn write_agents_prefix_into(&self, n: usize, out: &mut Vec<Agent>) {
        debug_assert!(n <= self.len());
        out.clear();
        out.reserve(n);
        for r in 0..n {
            out.push(Agent {
                id: self.ids[r],
                pos: Vec2::new(self.xs[r], self.ys[r]),
                state: self.states.iter().map(|col| col[r]).collect(),
                effects: (0..self.effects.width())
                    .map(|f| self.effects.get(r as u32, FieldId::new(f as u16)))
                    .collect(),
                alive: self.alive[r],
            });
        }
    }

    /// Split rows `0..counts.sum()` into disjoint mutable chunks of
    /// `counts` rows each, sharing the effect columns read-only — the
    /// parallel update phase's entry point. Rows past the plan (the
    /// distributed worker's persistent replica tail) stay untouched and
    /// unborrowed.
    pub fn update_chunks(&mut self, counts: &[usize]) -> Vec<UpdateChunk<'_>> {
        debug_assert!(counts.iter().sum::<usize>() <= self.len(), "chunk plan exceeds the pool");
        let effects = &self.effects;
        let mut ids: &[AgentId] = &self.ids;
        let mut xs: &mut [f64] = &mut self.xs;
        let mut ys: &mut [f64] = &mut self.ys;
        let mut alive: &mut [bool] = &mut self.alive;
        let mut states: Vec<&mut [f64]> = self.states.iter_mut().map(|c| c.as_mut_slice()).collect();
        let mut out = Vec::with_capacity(counts.len());
        let mut base = 0usize;
        for &count in counts {
            let (id_head, id_tail) = ids.split_at(count);
            ids = id_tail;
            let (x_head, x_tail) = std::mem::take(&mut xs).split_at_mut(count);
            xs = x_tail;
            let (y_head, y_tail) = std::mem::take(&mut ys).split_at_mut(count);
            ys = y_tail;
            let (a_head, a_tail) = std::mem::take(&mut alive).split_at_mut(count);
            alive = a_tail;
            let mut s_heads = Vec::with_capacity(states.len());
            for s in states.iter_mut() {
                let (head, tail) = std::mem::take(s).split_at_mut(count);
                s_heads.push(head);
                *s = tail;
            }
            out.push(UpdateChunk {
                ids: id_head,
                xs: x_head,
                ys: y_head,
                alive: a_head,
                states: s_heads,
                effects,
                base,
            });
            base += count;
        }
        out
    }
}

/// Copyable read-only view of a pool's identity/position/state columns.
#[derive(Clone, Copy)]
pub struct PoolView<'a> {
    pub(crate) ids: &'a [AgentId],
    pub(crate) xs: &'a [f64],
    pub(crate) ys: &'a [f64],
    pub(crate) alive: &'a [bool],
    pub(crate) states: &'a [Vec<f64>],
}

impl<'a> PoolView<'a> {
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    #[inline]
    pub fn pos(&self, row: u32) -> Vec2 {
        Vec2::new(self.xs[row as usize], self.ys[row as usize])
    }

    #[inline]
    pub fn id(&self, row: u32) -> AgentId {
        self.ids[row as usize]
    }

    #[inline]
    pub fn alive(&self, row: u32) -> bool {
        self.alive[row as usize]
    }

    /// Row view handed to behaviors.
    #[inline]
    pub fn agent(&self, row: u32) -> AgentRef<'a> {
        AgentRef { view: *self, row }
    }
}

/// Read-only view of one pool row — what `Behavior::query` receives for
/// the querying agent and each neighbor. Copy-cheap (two words).
#[derive(Clone, Copy)]
pub struct AgentRef<'a> {
    pub(crate) view: PoolView<'a>,
    /// Row in the tick's visible set / effect table.
    pub row: u32,
}

impl AgentRef<'_> {
    /// Read a state field by resolved id.
    #[inline]
    pub fn get(&self, f: FieldId) -> f64 {
        self.view.states[f.index()][self.row as usize]
    }

    #[inline]
    pub fn alive(&self) -> bool {
        self.view.alive[self.row as usize]
    }
}

impl AgentRead for AgentRef<'_> {
    #[inline]
    fn id(&self) -> AgentId {
        AgentRef::id(self)
    }
    #[inline]
    fn pos(&self) -> Vec2 {
        AgentRef::pos(self)
    }
    #[inline]
    fn state(&self, slot: u16) -> f64 {
        AgentRef::state(self, slot)
    }
}

impl AgentRef<'_> {
    /// Identity (`oid`) of this row.
    #[inline]
    pub fn id(&self) -> AgentId {
        self.view.ids[self.row as usize]
    }

    /// Position `ℓ(s)` of this row.
    #[inline]
    pub fn pos(&self) -> Vec2 {
        Vec2::new(self.view.xs[self.row as usize], self.view.ys[self.row as usize])
    }

    /// Read state slot `slot` (schema order) — mirrors the model crates'
    /// `state::FOO` slot constants.
    #[inline]
    pub fn state(&self, slot: u16) -> f64 {
        self.view.states[slot as usize][self.row as usize]
    }
}

/// One contiguous mutable slice of the pool for the parallel update phase:
/// exclusive access to the id/position/state/alive columns of its rows,
/// shared read access to the aggregated effect columns.
pub struct UpdateChunk<'a> {
    ids: &'a [AgentId],
    xs: &'a mut [f64],
    ys: &'a mut [f64],
    alive: &'a mut [bool],
    states: Vec<&'a mut [f64]>,
    effects: &'a EffectTable,
    /// Global row index of this chunk's first row (effects addressing).
    base: usize,
}

impl UpdateChunk<'_> {
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Gather local row `i` into a reused scratch record.
    pub fn load(&self, i: usize, into: &mut Agent) {
        into.id = self.ids[i];
        into.pos = Vec2::new(self.xs[i], self.ys[i]);
        into.alive = self.alive[i];
        into.state.clear();
        into.state.extend(self.states.iter().map(|col| col[i]));
        into.effects.clear();
        into.effects.extend(
            (0..self.effects.width()).map(|f| self.effects.get((self.base + i) as u32, FieldId::new(f as u16))),
        );
    }

    /// Scatter the updated position/state/liveness of local row `i` back
    /// into the columns (effects are reset wholesale afterwards).
    pub fn store(&mut self, i: usize, from: &Agent) {
        self.xs[i] = from.pos.x;
        self.ys[i] = from.pos.y;
        self.alive[i] = from.alive;
        for (col, &v) in self.states.iter_mut().zip(&from.state) {
            col[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinator::Combinator;

    fn schema() -> AgentSchema {
        AgentSchema::builder("T")
            .state("v")
            .state("w")
            .effect("acc", Combinator::Sum)
            .effect("closest", Combinator::Min)
            .visibility(2.0)
            .reachability(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn new_agent_shape() {
        let s = schema();
        let a = Agent::new(AgentId::new(1), Vec2::new(1.0, 2.0), &s);
        assert_eq!(a.state, vec![0.0, 0.0]);
        assert_eq!(a.effects, vec![0.0, f64::INFINITY]);
        assert!(a.alive);
    }

    #[test]
    fn field_access_round_trip() {
        let s = schema();
        let mut a = Agent::new(AgentId::new(1), Vec2::ZERO, &s);
        let v = s.state_field("v").unwrap();
        a.set(v, 3.5);
        assert_eq!(a.get(v), 3.5);
    }

    #[test]
    fn reset_effects_restores_identities() {
        let s = schema();
        let mut a = Agent::new(AgentId::new(1), Vec2::ZERO, &s);
        a.effects = vec![5.0, -2.0];
        a.reset_effects(&s);
        assert_eq!(a.effects, vec![0.0, f64::INFINITY]);
    }

    #[test]
    fn clamp_move_crops_to_reachable_region() {
        let from = Vec2::new(10.0, 10.0);
        let out = Agent::clamp_move(from, Vec2::new(15.0, 10.4), 1.0);
        assert_eq!(out, Vec2::new(11.0, 10.4));
        // Infinite reachability is a no-op.
        let free = Agent::clamp_move(from, Vec2::new(1e9, -1e9), f64::INFINITY);
        assert_eq!(free, Vec2::new(1e9, -1e9));
    }

    #[test]
    fn with_state_uses_given_values() {
        let s = schema();
        let a = Agent::with_state(AgentId::new(2), Vec2::ZERO, vec![1.0, 2.0], &s);
        assert_eq!(a.state, vec![1.0, 2.0]);
    }

    #[test]
    fn pool_round_trips_agents() {
        let s = schema();
        let mut agents: Vec<Agent> = (0..7)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i), Vec2::new(i as f64, -(i as f64)), &s);
                a.state[0] = i as f64 * 0.5;
                a.state[1] = -1.0;
                a
            })
            .collect();
        agents[3].effects = vec![2.5, 0.25];
        let pool = AgentPool::from_agents(&s, &agents);
        assert_eq!(pool.len(), 7);
        assert_eq!(pool.to_agents(), agents);
        assert_eq!(pool.pos(3), agents[3].pos);
        assert_eq!(pool.state(3, FieldId::new(0)), 1.5);
        assert_eq!(pool.effects().get(3, FieldId::new(0)), 2.5);
    }

    #[test]
    fn pool_view_and_agent_ref_read_columns() {
        let s = schema();
        let mut a = Agent::new(AgentId::new(9), Vec2::new(4.0, 5.0), &s);
        a.state[1] = 7.0;
        let pool = AgentPool::from_agents(&s, &[a]);
        let view = pool.view();
        let r = view.agent(0);
        assert_eq!(r.id(), AgentId::new(9));
        assert_eq!(r.pos(), Vec2::new(4.0, 5.0));
        assert_eq!(r.state(1), 7.0);
        assert_eq!(r.get(FieldId::new(1)), 7.0);
        assert!(r.alive());
    }

    #[test]
    fn retain_alive_compacts_in_order() {
        let s = schema();
        let agents: Vec<Agent> = (0..6)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &s);
                a.alive = i % 2 == 0;
                a
            })
            .collect();
        let mut pool = AgentPool::from_agents(&s, &agents);
        let killed = pool.retain_alive();
        assert_eq!(killed, 3);
        assert_eq!(pool.len(), 3);
        let ids: Vec<u64> = (0..3).map(|r| pool.id(r).raw()).collect();
        assert_eq!(ids, vec![0, 2, 4]);
        assert_eq!(pool.pos(2), Vec2::new(4.0, 0.0));
    }

    #[test]
    fn spawn_rows_get_identity_effects() {
        let s = schema();
        let mut pool = AgentPool::new(&s);
        pool.push_spawn(AgentId::new(1), Vec2::new(1.0, 2.0), &[0.5, 0.6]);
        pool.reset_effects();
        let agents = pool.to_agents();
        assert_eq!(agents[0].effects, vec![0.0, f64::INFINITY]);
        assert_eq!(agents[0].state, vec![0.5, 0.6]);
    }

    #[test]
    fn stable_row_ops_compose_into_swap_removal() {
        let s = schema();
        let agents: Vec<Agent> = (0..5)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &s);
                a.state[0] = 10.0 + i as f64;
                a.effects[0] = i as f64;
                a
            })
            .collect();
        let mut pool = AgentPool::from_agents(&s, &agents);
        // Swap-removal of row 1: copy last row in, pop.
        pool.copy_row_within(4, 1);
        pool.pop_row();
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.id(1), AgentId::new(4));
        assert_eq!(pool.state(1, FieldId::new(0)), 14.0);
        assert_eq!(pool.effects().get(1, FieldId::new(0)), 4.0);
        // Rows 0, 2, 3 kept their indices.
        assert_eq!(pool.id(0), AgentId::new(0));
        assert_eq!(pool.id(2), AgentId::new(2));
        assert_eq!(pool.id(3), AgentId::new(3));
        // Append a copy of row 0, then overwrite it in place.
        pool.push_row_copy(0);
        assert_eq!(pool.id(4), AgentId::new(0));
        let replacement = Agent::with_state(AgentId::new(9), Vec2::new(-1.0, -2.0), vec![7.0, 8.0], &s);
        pool.overwrite_row(4, &replacement);
        assert_eq!(pool.id(4), AgentId::new(9));
        assert_eq!(pool.pos(4), Vec2::new(-1.0, -2.0));
        assert_eq!(pool.state(4, FieldId::new(1)), 8.0);
    }

    #[test]
    fn write_agents_prefix_excludes_tail() {
        let s = schema();
        let agents: Vec<Agent> = (0..4).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &s)).collect();
        let pool = AgentPool::from_agents(&s, &agents);
        let mut out = Vec::new();
        pool.write_agents_prefix_into(2, &mut out);
        assert_eq!(out, &agents[..2]);
    }

    #[test]
    fn update_chunks_prefix_leaves_tail_unborrowed() {
        let s = schema();
        let agents: Vec<Agent> = (0..6).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &s)).collect();
        let mut pool = AgentPool::from_agents(&s, &agents);
        let chunks = pool.update_chunks(&[2, 2]);
        assert_eq!(chunks.len(), 2);
        let mut scratch = Agent::new(AgentId::new(0), Vec2::ZERO, &s);
        chunks[1].load(1, &mut scratch);
        assert_eq!(scratch.id, AgentId::new(3));
        drop(chunks);
        assert_eq!(pool.id(5), AgentId::new(5), "tail untouched");
    }

    #[test]
    fn update_chunks_split_disjointly() {
        let s = schema();
        let agents: Vec<Agent> = (0..10).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &s)).collect();
        let mut pool = AgentPool::from_agents(&s, &agents);
        let mut chunks = pool.update_chunks(&[4, 6]);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), 4);
        assert_eq!(chunks[1].len(), 6);
        let mut scratch = Agent::new(AgentId::new(0), Vec2::ZERO, &s);
        chunks[1].load(0, &mut scratch);
        assert_eq!(scratch.id, AgentId::new(4));
        scratch.pos.y = 9.0;
        chunks[1].store(0, &scratch);
        drop(chunks);
        assert_eq!(pool.pos(4), Vec2::new(4.0, 9.0));
    }
}

//! The discrete-event core: a hierarchical timer wheel over
//! [`SimClock`](crate::SimClock) microseconds.
//!
//! The old simulator advanced a polling clock in fixed millisecond hops
//! and re-scanned every subscriber on each hop — O(population) per
//! step, regardless of how much was actually happening. City-scale
//! campaigns need the opposite: time jumps straight to the next event
//! and dispatch is O(1) per event, no matter how many cells and
//! subscribers are idle. The wheel here has fixed slots on two
//! hierarchical levels over simulated (not wall-clock) time:
//!
//! - **Fine level** — 256 slots of 1024 µs each (one slot ≈ one fifth
//!   of a GSM paging multiframe). Events within ~262 ms land directly
//!   in their slot: insert is a shift, a mask and a push.
//! - **Coarse level** — 256 slots of 262 ms each (~67 s horizon).
//!   Events beyond the fine lap wait here; when the cursor enters a
//!   coarse block, the block cascades into the fine slots it spans.
//! - **Overflow** — events beyond the coarse horizon sit in an
//!   unordered spill vector, reconsidered once per coarse lap. A
//!   campaign schedules each recurring event's *next* occurrence only,
//!   so the spill stays near-empty in practice.
//!
//! Slot occupancy is tracked in bitmasks (four `u64` words per level),
//! so an idle stretch is skipped with a handful of trailing-zero
//! scans instead of slot-by-slot polling — the wheel is O(1) per event
//! even when consecutive events are far apart.
//!
//! Ordering contract: events pop in slot order; **within one 1024 µs
//! tick, insertion order**. Two events scheduled in the same tick are
//! therefore processed FIFO, which is what makes campaign runs
//! byte-identical across runs and shard counts. Events scheduled at or
//! before the cursor are delivered on the next pop (the wheel never
//! drops or reorders them behind later ticks).

use std::collections::VecDeque;

/// Microseconds covered by one fine slot (2^10, so the slot index is a
/// shift and a mask).
pub const FINE_TICK_US: u64 = 1 << FINE_SHIFT;

/// log2 of [`FINE_TICK_US`].
pub const FINE_SHIFT: u32 = 10;

/// Slots per level (fine and coarse alike): 2^8.
pub const SLOTS: usize = 1 << SLOT_BITS;

const SLOT_BITS: u32 = 8;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Fine ticks covered by one full coarse lap (2^16).
const HORIZON_TICKS: u64 = (SLOTS * SLOTS) as u64;
const OCC_WORDS: usize = SLOTS / 64;

/// Outcome of draining a wheel under an iteration budget — what
/// [`crate::network::GsmNetwork::run_until_idle`] returns instead of
/// silently spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Events dispatched during this drain.
    pub events_processed: u64,
    /// Events still queued when the drain stopped.
    pub residual: usize,
    /// `true` when the iteration budget ran out before the queue did —
    /// the caller should treat the simulation as still busy (e.g. a
    /// self-rescheduling event chain) rather than idle.
    pub exhausted: bool,
    /// Simulated time of the last dispatched event, in microseconds.
    pub end_us: u64,
}

/// A two-level hierarchical timer wheel holding events of type `E`.
///
/// See the [module docs](self) for the slotting scheme.
#[derive(Debug)]
pub struct EventWheel<E> {
    fine: Vec<VecDeque<(u64, E)>>,
    coarse: Vec<Vec<(u64, E)>>,
    overflow: Vec<(u64, E)>,
    fine_occ: [u64; OCC_WORDS],
    coarse_occ: [u64; OCC_WORDS],
    /// Current fine tick: all earlier ticks are fully consumed.
    cursor: u64,
    len: usize,
    now_us: u64,
}

impl<E> Default for EventWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventWheel<E> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        Self {
            fine: (0..SLOTS).map(|_| VecDeque::new()).collect(),
            coarse: (0..SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            fine_occ: [0; OCC_WORDS],
            coarse_occ: [0; OCC_WORDS],
            cursor: 0,
            len: 0,
            now_us: 0,
        }
    }

    /// Queued events (all levels).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Simulated time of the most recently popped event (monotonic).
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Schedules `event` at absolute simulated time `at_us`. Times at
    /// or before the cursor are delivered on the next pop.
    pub fn schedule(&mut self, at_us: u64, event: E) {
        let tick = (at_us >> FINE_SHIFT).max(self.cursor);
        let delta = tick - self.cursor;
        if delta < SLOTS as u64 {
            let slot = (tick & SLOT_MASK) as usize;
            self.fine[slot].push_back((at_us, event));
            set_bit(&mut self.fine_occ, slot);
        } else if delta < HORIZON_TICKS {
            let slot = ((tick >> SLOT_BITS) & SLOT_MASK) as usize;
            self.coarse[slot].push((at_us, event));
            set_bit(&mut self.coarse_occ, slot);
        } else {
            self.overflow.push((at_us, event));
        }
        self.len += 1;
    }

    /// Pops the next event in slot order (FIFO within a tick), or
    /// `None` when the wheel is empty.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let slot = (self.cursor & SLOT_MASK) as usize;
            if let Some((at, event)) = self.fine[slot].pop_front() {
                self.len -= 1;
                self.now_us = self.now_us.max(at);
                return Some((at, event));
            }
            clear_bit(&mut self.fine_occ, slot);
            // Jump to the next occupied fine slot in this lap, if any.
            let lap_base = self.cursor & !SLOT_MASK;
            if let Some(next) = next_occupied(&self.fine_occ, slot + 1) {
                self.cursor = lap_base | next as u64;
                continue;
            }
            // Lap exhausted: advance to the next occupied lap.
            self.advance_lap(lap_base + SLOTS as u64);
        }
    }

    /// Moves the cursor to `from` (a lap boundary) or beyond, landing
    /// it on the next occupied fine slot. On entering a lap its coarse
    /// block is cascaded FIRST, so block entries and wrapped
    /// direct-scheduled fine entries interleave on the fine level —
    /// checking fine occupancy before cascading would skip the block
    /// and deliver its events a full coarse lap late. Only called with
    /// `len > 0`, so one of the three levels is guaranteed to hold an
    /// event.
    fn advance_lap(&mut self, from: u64) {
        let mut base = from;
        loop {
            self.cursor = base;
            self.rehome_overflow();
            // This lap's coarse block joins the lap's fine slots, where
            // entries scheduled <256 ticks ahead from late in the
            // previous lap have already wrapped in.
            let block = ((base >> SLOT_BITS) & SLOT_MASK) as usize;
            if test_bit(&self.coarse_occ, block) {
                self.cascade(block);
            }
            if let Some(next) = next_occupied(&self.fine_occ, 0) {
                self.cursor = base | next as u64;
                return;
            }
            // Lap empty: jump to the nearest occupied coarse block,
            // scanning the occupancy cyclically from the next one.
            let mut found = None;
            if let Some(next) = next_occupied(&self.coarse_occ, block + 1) {
                found = Some(next as u64 - block as u64);
            } else if let Some(next) = next_occupied(&self.coarse_occ, 0) {
                found = Some(next as u64 + SLOTS as u64 - block as u64);
            }
            if let Some(dist) = found {
                let target = base + (dist << SLOT_BITS);
                let slot = ((target >> SLOT_BITS) & SLOT_MASK) as usize;
                self.cursor = target;
                self.cascade(slot);
                let min_slot = next_occupied(&self.fine_occ, 0)
                    .expect("cascaded coarse block produced no fine entries");
                self.cursor = target | min_slot as u64;
                return;
            }
            // Nothing within the horizon: everything left sits in the
            // spill. Jump the lap boundary to the earliest spill entry
            // and loop — re-homing will land it on the fine level.
            debug_assert!(!self.overflow.is_empty(), "len > 0 with empty levels");
            let min_tick = self
                .overflow
                .iter()
                .map(|(at, _)| at >> FINE_SHIFT)
                .min()
                .expect("overflow non-empty");
            base = (min_tick & !SLOT_MASK).max(base);
        }
    }

    /// Moves every entry of coarse slot `slot` onto the fine level.
    /// The cursor must sit at the base of the block the slot belongs
    /// to, so each entry's fine slot is just its low tick bits.
    fn cascade(&mut self, slot: usize) {
        let entries = std::mem::take(&mut self.coarse[slot]);
        clear_bit(&mut self.coarse_occ, slot);
        debug_assert!(!entries.is_empty(), "occupied coarse slot was empty");
        for (at, event) in entries {
            let tick = (at >> FINE_SHIFT).max(self.cursor);
            debug_assert!(tick - self.cursor < SLOTS as u64, "coarse entry outside its block");
            let fine_slot = (tick & SLOT_MASK) as usize;
            self.fine[fine_slot].push_back((at, event));
            set_bit(&mut self.fine_occ, fine_slot);
        }
    }

    /// Pulls spill entries now within the wheel horizon back onto the
    /// fine/coarse levels. Called at every lap boundary, so a spill
    /// entry is re-homed at least a full coarse lap before it is due
    /// even while earlier events keep both wheel levels busy.
    fn rehome_overflow(&mut self) {
        if self.overflow.is_empty() {
            return;
        }
        let limit = self.cursor + HORIZON_TICKS;
        let mut i = 0;
        while i < self.overflow.len() {
            if (self.overflow[i].0 >> FINE_SHIFT) < limit {
                let (at, event) = self.overflow.swap_remove(i);
                self.len -= 1;
                self.schedule(at, event);
            } else {
                i += 1;
            }
        }
    }

    /// Drains up to `budget` events through `handler`, which receives
    /// each event plus a scheduler handle for follow-ups. Returns a
    /// [`DrainReport`]; `exhausted` is set when the budget ran out
    /// first, so a self-rescheduling event chain cannot hang the caller.
    pub fn drain(&mut self, budget: u64, mut handler: impl FnMut(u64, E, &mut Followups<E>)) -> DrainReport {
        let mut report = DrainReport::default();
        let mut followups = Followups { queue: Vec::new() };
        while report.events_processed < budget {
            let Some((at, event)) = self.pop() else { break };
            report.events_processed += 1;
            report.end_us = self.now_us;
            handler(at, event, &mut followups);
            for (t, e) in followups.queue.drain(..) {
                self.schedule(t, e);
            }
        }
        report.residual = self.len;
        report.exhausted = report.events_processed == budget && self.len > 0;
        report
    }
}

/// Handle passed to [`EventWheel::drain`] handlers for scheduling
/// follow-up events (the wheel itself is mutably borrowed by the
/// drain loop).
pub struct Followups<E> {
    queue: Vec<(u64, E)>,
}

impl<E> Followups<E> {
    /// Schedules `event` at absolute time `at_us` once the current
    /// dispatch returns.
    pub fn schedule(&mut self, at_us: u64, event: E) {
        self.queue.push((at_us, event));
    }
}

#[inline]
fn set_bit(occ: &mut [u64; OCC_WORDS], slot: usize) {
    occ[slot >> 6] |= 1 << (slot & 63);
}

#[inline]
fn clear_bit(occ: &mut [u64; OCC_WORDS], slot: usize) {
    occ[slot >> 6] &= !(1 << (slot & 63));
}

#[inline]
fn test_bit(occ: &[u64; OCC_WORDS], slot: usize) -> bool {
    occ[slot >> 6] & (1 << (slot & 63)) != 0
}

/// First occupied slot at or after `from`, or `None` (non-cyclic).
#[inline]
fn next_occupied(occ: &[u64; OCC_WORDS], from: usize) -> Option<usize> {
    if from >= SLOTS {
        return None;
    }
    let mut word = from >> 6;
    let mut bits = occ[word] & (!0u64 << (from & 63));
    loop {
        if bits != 0 {
            return Some((word << 6) + bits.trailing_zeros() as usize);
        }
        word += 1;
        if word >= OCC_WORDS {
            return None;
        }
        bits = occ[word];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = EventWheel::new();
        // Overflow (beyond 67 s), coarse (1 s), fine (2 ms), immediate.
        w.schedule(100_000_000, 'o');
        w.schedule(1_000_000, 'c');
        w.schedule(2_000, 'f');
        w.schedule(0, 'i');
        assert_eq!(w.len(), 4);
        let order: Vec<char> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['i', 'f', 'c', 'o']);
        assert!(w.is_empty());
        assert_eq!(w.now_us(), 100_000_000);
    }

    #[test]
    fn same_tick_events_pop_fifo() {
        // All times fall inside the single 1024 µs tick starting at
        // 4096 µs, so slot order cannot help — insertion order must.
        let mut w = EventWheel::new();
        for i in 0..10u32 {
            w.schedule(4_096 + u64::from(i) * 10, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_fire_on_next_pop() {
        let mut w = EventWheel::new();
        w.schedule(10_000_000, 'a');
        assert_eq!(w.pop().unwrap().1, 'a');
        // The cursor now sits at ~10 s; scheduling in the past clamps.
        w.schedule(5, 'p');
        let (at, e) = w.pop().unwrap();
        assert_eq!(e, 'p');
        assert_eq!(at, 5, "original timestamp preserved");
        assert_eq!(w.now_us(), 10_000_000, "now is monotonic");
    }

    #[test]
    fn handler_rescheduling_advances_through_laps() {
        // A self-perpetuating event hopping 100 ms at a time must cross
        // fine-lap and coarse-lap boundaries without loss.
        let mut w = EventWheel::new();
        w.schedule(0, ());
        let mut fired = 0u64;
        while let Some((at, ())) = w.pop() {
            fired += 1;
            if fired < 2_000 {
                w.schedule(at + 100_000, ());
            }
        }
        assert_eq!(fired, 2_000, "200 s of 100 ms hops crosses the 67 s horizon twice");
    }

    #[test]
    fn drain_budget_stops_self_rescheduling_chains() {
        let mut w = EventWheel::new();
        w.schedule(0, ());
        let report = w.drain(50, |at, (), followups| {
            followups.schedule(at + 1_000, ());
        });
        assert_eq!(report.events_processed, 50);
        assert!(report.exhausted, "budget ran out with work still queued");
        assert_eq!(report.residual, 1);
        // A later drain continues from where the first stopped.
        let report = w.drain(10, |_, (), _| {});
        assert_eq!(report.events_processed, 1);
        assert!(!report.exhausted);
        assert_eq!(report.residual, 0);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut w = EventWheel::new();
        w.schedule(1_000_000, 1u32);
        assert_eq!(w.pop().unwrap().1, 1);
        w.schedule(2_000_000, 2);
        w.schedule(1_500_000, 3);
        assert_eq!(w.pop().unwrap().1, 3);
        w.schedule(1_600_000, 4); // in the past relative to nothing — 1.6 s is after 1.5 s cursor
        assert_eq!(w.pop().unwrap().1, 4);
        assert_eq!(w.pop().unwrap().1, 2);
        assert!(w.pop().is_none());
    }

    #[test]
    fn lap_coarse_block_is_not_skipped_by_wrapped_fine_entries() {
        // Regression: a lap holding both a wrapped direct-fine entry
        // and a coarse block must cascade the block on lap entry, or
        // the block's events pop a full coarse lap late — after later
        // events from other blocks.
        let mut w = EventWheel::new();
        let tick = |t: u64| t * FINE_TICK_US;
        w.schedule(tick(250), 'p'); // late in lap 0, fine
        w.schedule(tick(356), 'b'); // lap 1: coarse at schedule time
        w.schedule(tick(600), 'c'); // lap 2: coarse
        assert_eq!(w.pop().unwrap().1, 'p'); // cursor now at slot 250
        w.schedule(tick(260), 'a'); // wraps into lap 1's fine slot 4
        let order: Vec<char> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c'], "tick order across lap entry");
    }

    #[test]
    fn dense_and_sparse_mixes_survive_a_shuffle() {
        // Deterministic pseudo-shuffle over a wide time range, then pop
        // everything and verify global slot-order monotonicity.
        let mut w = EventWheel::new();
        let mut t = 0x9e3779b97f4a7c15u64;
        let mut times = Vec::new();
        for _ in 0..10_000 {
            t ^= t << 13;
            t ^= t >> 7;
            t ^= t << 17;
            let at = t % 200_000_000; // up to 200 s
            times.push(at);
            w.schedule(at, at);
        }
        let mut last_tick = 0u64;
        let mut popped = 0;
        while let Some((at, v)) = w.pop() {
            assert_eq!(at, v);
            let tick = at >> FINE_SHIFT;
            assert!(tick >= last_tick, "tick order violated: {tick} after {last_tick}");
            last_tick = tick;
            popped += 1;
        }
        assert_eq!(popped, 10_000);
    }
}

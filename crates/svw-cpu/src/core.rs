//! The cycle-level pipeline model.
//!
//! All growable machine state (ROB ring, event wheels, queues, predictor and cache
//! tables, SSBF, …) lives in a [`Pipeline`] owned by a [`SimArena`]. A sweep worker
//! keeps one arena and calls [`Cpu::recycle`] per cell: the pipeline is cleared *in
//! place* with every heap allocation retained, so cell startup is a reset rather than
//! a rebuild and the steady-state simulation loop performs no allocation at all.
//! [`Cpu::new`] remains the one-shot entry point (it boxes a private pipeline).

use std::sync::Arc;

use svw_core::{Ssn, SvwConfig, SvwFilter, SvwUpdatePolicy, VulnWindow};
use svw_isa::{
    Addr, ArchReg, DynInst, InstSeq, MemWidth, OpClass, Pc, Program, Value, NUM_ARCH_REGS,
};
use svw_lsq::{ForwardResult, ForwardingBuffer, Fsq, LoadQueue, StoreQueue};
use svw_mem::{AccessKind, BankedPorts, CommittedMemory, MemoryHierarchy, SharedPort};
use svw_predictors::{Btb, HybridPredictor, Spct, SteeringPredictor, StoreSets};
use svw_rle::{IntegrationTable, ItEntry, ItSignature, RleKind};

use crate::observe::{CommitObserver, CommitRecord, FwdOrigin};
use crate::rob::{HasSeq, RobRing};
use crate::{CpuStats, LsqOrganization, MachineConfig, ReexecMode};

/// Re-execution state of a marked load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RexState {
    /// The re-execution pipeline has not reached this instruction yet.
    Idle,
    /// The SVW filter proved re-execution unnecessary.
    Filtered,
    /// A re-execution cache access is outstanding; it finishes at the given cycle.
    InFlight(u64),
    /// Verified: the re-executed value matched.
    Done,
    /// Mis-speculation detected: the re-executed value differed.
    Failed,
}

#[derive(Clone, Debug)]
struct RobEntry {
    seq: InstSeq,
    pc: Pc,
    cls: OpClass,
    /// Source operands' producers as renamed at dispatch. Only the test-only
    /// brute-force readiness check reads them; the pipeline itself tracks
    /// readiness through `pending` and the producers' consumer lists.
    #[cfg(test)]
    src_producers: [Option<InstSeq>; 2],
    /// Wakeups this IQ entry still waits for: one per source operand whose producer
    /// had not completed at dispatch, plus one for an unresolved store-set store.
    /// The entry is in the ready set exactly while it is unissued and this is 0.
    pending: u8,
    /// The renamed destination and the binding it replaced, restored if this entry
    /// is squashed.
    rename_undo: Option<(ArchReg, RegBinding)>,
    issued: bool,
    completed: bool,
    complete_cycle: u64,
    // Memory state.
    addr: Option<Addr>,
    width: Option<MemWidth>,
    exec_value: Option<Value>,
    oracle_value: Option<Value>,
    marked: bool,
    window: VulnWindow,
    ssn: Option<Ssn>,
    /// The load's FSQ steering bit, read once at dispatch (set only for loads that
    /// enter the IQ under SSQ). It cannot go stale before the load issues: the
    /// steering predictor trains only in `handle_reexec_failure`, which flushes from
    /// the ROB head and so squashes every in-flight instruction.
    used_fsq: bool,
    /// The forwarding-buffer version this load last probed at, and the SSN and
    /// value that probe found: a later attempt at an unchanged version counts the
    /// same outcome again instead of searching the buffer.
    fwd_probe: Option<(u64, Option<(Ssn, Value)>)>,
    fwd: FwdOrigin,
    eliminated: Option<RleKind>,
    elim_squash: bool,
    elim_signature: Option<ItSignature>,
    wait_store: Option<InstSeq>,
    rex: RexState,
    rex_used_cache: bool,
    // Branch state.
    mispredicted: bool,
}

impl HasSeq for RobEntry {
    #[inline]
    fn seq(&self) -> InstSeq {
        self.seq
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RegBinding {
    producer: Option<InstSeq>,
    version: u64,
}

/// The register rename state: per architectural register, the current producer and a
/// monotonically increasing version number (the "physical register" identity used by
/// register integration). Undo state lives in the ROB: each entry that renames a
/// destination keeps the binding it replaced, and [`Pipeline::flush_from`] restores
/// those youngest-first as it pops the squashed entries.
#[derive(Clone, Debug)]
struct RenameMap {
    current: [RegBinding; NUM_ARCH_REGS],
    next_version: u64,
}

impl RenameMap {
    fn new() -> Self {
        RenameMap {
            current: std::array::from_fn(|i| RegBinding {
                producer: None,
                version: i as u64,
            }),
            next_version: NUM_ARCH_REGS as u64,
        }
    }

    fn producer(&self, r: ArchReg) -> Option<InstSeq> {
        self.current[r.index()].producer
    }

    fn version(&self, r: ArchReg) -> u64 {
        self.current[r.index()].version
    }

    /// Binds `r` to `producer` and returns the binding it replaces.
    fn bind(&mut self, r: ArchReg, producer: InstSeq) -> RegBinding {
        let old = std::mem::replace(
            &mut self.current[r.index()],
            RegBinding {
                producer: Some(producer),
                version: self.next_version,
            },
        );
        self.next_version += 1;
        old
    }
}

/// Completion events bucketed by due cycle: a timing wheel with a power-of-two
/// number of buckets, sized at reset to cover every latency the configuration can
/// produce. An event is a sequence number in its cycle's bucket; a bucket drains in
/// push order.
#[derive(Debug, Default)]
struct EventWheel {
    buckets: Vec<Vec<InstSeq>>,
    /// The cycle the next [`EventWheel::take`] drains. Every queued event is due in
    /// `[next, next + buckets.len())`.
    next: u64,
}

impl EventWheel {
    /// Empties the wheel, keeping bucket capacity, and sizes it for events up to
    /// `horizon` cycles after the cycle being drained.
    fn reset(&mut self, horizon: u64) {
        let slots = (horizon + 1).next_power_of_two() as usize;
        self.buckets.iter_mut().for_each(Vec::clear);
        self.buckets.resize_with(slots, Vec::new);
        self.next = 0;
    }

    fn push(&mut self, cycle: u64, seq: InstSeq) {
        let slots = self.buckets.len() as u64;
        assert!(
            cycle >= self.next && cycle - self.next < slots,
            "completion event for seq {seq} at cycle {cycle} is outside the event wheel \
             ({slots} cycles from cycle {})",
            self.next
        );
        self.buckets[(cycle & (slots - 1)) as usize].push(seq);
    }

    /// Removes the events due at `cycle`, the next undrained cycle, in push order.
    /// Hand the list back with [`EventWheel::put_back`] to keep its capacity.
    fn take(&mut self, cycle: u64) -> Vec<InstSeq> {
        debug_assert_eq!(cycle, self.next, "the wheel drains every cycle in order");
        self.next = cycle + 1;
        let slot = (cycle & (self.buckets.len() as u64 - 1)) as usize;
        std::mem::take(&mut self.buckets[slot])
    }

    fn put_back(&mut self, cycle: u64, mut events: Vec<InstSeq>) {
        events.clear();
        let slot = (cycle & (self.buckets.len() as u64 - 1)) as usize;
        self.buckets[slot] = events;
    }
}

/// The longest latency of any completion event under `config`, in cycles after the
/// cycle that schedules it: a load that misses to memory behind the slowest
/// organisation, or an RLE re-execution's two register-file cycles on top of one.
fn event_horizon(config: &MachineConfig) -> u64 {
    let h = &config.hierarchy;
    let slowest_op = OpClass::IntMul
        .exec_latency()
        .max(OpClass::FpAlu.exec_latency());
    let miss = h.l1d.hit_latency + h.l2.hit_latency + h.memory_latency;
    config.issue_to_execute + slowest_op.max(miss) + config.lsq.extra_load_latency() + 2
}

/// The SVW configuration the machine actually runs with: the configured one, or — for
/// non-SVW re-execution modes — a neutral infinite-SSN stand-in whose clock never
/// wraps and never filters anything away.
fn effective_svw_config(config: &MachineConfig) -> SvwConfig {
    config.reexec.svw_config().unwrap_or(SvwConfig {
        ssn_width: svw_core::SsnWidth::Infinite,
        update_policy: SvwUpdatePolicy::NoForwardUpdate,
        ..SvwConfig::paper_default()
    })
}

/// Every piece of mutable machine state — substrates, queues, the ROB ring, the
/// event wheels, and the per-run scalars. Owned by a [`SimArena`] (recycled across
/// cells) or privately by a one-shot [`Cpu`].
struct Pipeline {
    // Substrates.
    hierarchy: MemoryHierarchy,
    committed_mem: CommittedMemory,
    branch_pred: HybridPredictor,
    btb: Btb,
    store_sets: StoreSets,
    steering: SteeringPredictor,
    spct: Spct,
    svw: SvwFilter,
    it: Option<IntegrationTable>,

    // Queues and ports.
    lq: LoadQueue,
    sq: StoreQueue,
    fsq: Option<Fsq>,
    fwd_buf: Option<ForwardingBuffer>,
    exec_ports: BankedPorts,
    dcache_rw_port: SharedPort,

    // Pipeline state.
    rob: RobRing<RobEntry>,
    rename: RenameMap,
    iq_count: usize,
    inflight_dsts: usize,
    fetch_index: usize,
    fetch_stall_until: u64,
    fetch_blocked_on_branch: Option<InstSeq>,
    wrap_drain_pending: bool,
    rex_next_seq: InstSeq,
    rex_inflight: usize,
    now: u64,
    stats: CpuStats,

    // Completion events: instead of scanning the whole ROB every cycle for entries
    // whose latency has elapsed, `complete` visits exactly the due events. A cycle's
    // events fire in push order, not age order; every completion effect (pending
    // counts and ready bits, `rex_inflight`, and the fetch unblock of the one
    // unresolved mispredicted branch — fetch stops behind it) is order-independent.
    // Events stranded by a squash are detected (the entry's state no longer
    // matches) and dropped.
    exec_events: EventWheel,
    /// Pending re-execution cache-access completions, same discipline.
    rex_events: EventWheel,

    // Wakeup-driven issue: a consumer registers on its in-flight producers at
    // dispatch, and each producer wakes it (on completion, or for a store-set wait,
    // on the store's address resolution).
    /// Per-ROB-slot consumer lists (`RobRing::slot`): the younger entries to wake
    /// when this slot's instruction produces its value, in dispatch (= sequence)
    /// order. Capacity is retained across cells.
    consumers: Vec<Vec<InstSeq>>,
    /// The ready set: one bit per ROB slot, set while that slot's entry is an
    /// unissued IQ entry with nothing pending. Walked oldest-first from the head.
    ready: Vec<u64>,

    /// Test-only reference for flush recovery: per ROB slot, the rename map as it
    /// stood just before that slot's instruction renamed its destination.
    #[cfg(test)]
    rename_snapshots: Vec<[RegBinding; NUM_ARCH_REGS]>,
}

impl Pipeline {
    /// Builds a pipeline for `config`. The field initializers only establish the
    /// *shape*; `reset` is the single source of truth for the initial state, so the
    /// recycled path can never drift from fresh construction.
    fn new(config: &MachineConfig) -> Self {
        let mut p = Pipeline {
            hierarchy: MemoryHierarchy::new(config.hierarchy),
            committed_mem: CommittedMemory::new(),
            branch_pred: HybridPredictor::new(config.branch),
            btb: Btb::new(config.branch.btb_entries, config.branch.btb_assoc),
            store_sets: StoreSets::new(config.store_sets),
            steering: SteeringPredictor::new(),
            spct: Spct::paper_default(),
            svw: SvwFilter::new(effective_svw_config(config)),
            it: None,
            lq: LoadQueue::new(config.lq_size),
            sq: StoreQueue::new(config.sq_size),
            fsq: None,
            fwd_buf: None,
            exec_ports: BankedPorts::new(2, 64),
            dcache_rw_port: SharedPort::new(),
            rob: RobRing::with_capacity(config.rob_size),
            rename: RenameMap::new(),
            iq_count: 0,
            inflight_dsts: 0,
            fetch_index: 0,
            fetch_stall_until: 0,
            fetch_blocked_on_branch: None,
            wrap_drain_pending: false,
            rex_next_seq: 0,
            rex_inflight: 0,
            now: 0,
            stats: CpuStats::default(),
            exec_events: EventWheel::default(),
            rex_events: EventWheel::default(),
            consumers: Vec::new(),
            ready: Vec::new(),
            #[cfg(test)]
            rename_snapshots: Vec::new(),
        };
        p.reset(config);
        p
    }

    /// Restores the initial state for `config` in place. Observationally identical to
    /// [`Pipeline::new`] — a unit test and the scheduler determinism tests enforce
    /// byte-identical simulation results — but every table, queue, wheel, and ring
    /// keeps its heap allocation, so per-cell startup cost is a memset-shaped reset
    /// instead of a rebuild.
    fn reset(&mut self, config: &MachineConfig) {
        self.hierarchy.reset(config.hierarchy);
        self.committed_mem.reset();
        self.branch_pred.reset(config.branch);
        self.btb
            .reset(config.branch.btb_entries, config.branch.btb_assoc);
        self.store_sets.reset(config.store_sets);
        self.steering.reset();
        self.spct.reset();
        self.svw.reset(effective_svw_config(config));
        match (config.rle, &mut self.it) {
            (Some(cfg), Some(it)) => it.reset(cfg),
            (Some(cfg), it @ None) => *it = Some(IntegrationTable::new(cfg)),
            (None, it) => *it = None,
        }
        self.lq.reset(config.lq_size);
        self.sq.reset(config.sq_size);
        match config.lsq {
            LsqOrganization::Ssq {
                fsq_entries,
                fwd_buffer_entries,
                ..
            } => {
                match &mut self.fsq {
                    Some(fsq) => fsq.reset(fsq_entries),
                    fsq @ None => *fsq = Some(Fsq::new(fsq_entries)),
                }
                match &mut self.fwd_buf {
                    Some(buf) => buf.reset(2, fwd_buffer_entries, 64),
                    buf @ None => *buf = Some(ForwardingBuffer::new(2, fwd_buffer_entries, 64)),
                }
            }
            _ => {
                self.fsq = None;
                self.fwd_buf = None;
            }
        }
        self.exec_ports.reset(2, 64);
        self.dcache_rw_port.reset();
        self.rob.reset(config.rob_size);
        self.rename = RenameMap::new();
        self.iq_count = 0;
        self.inflight_dsts = 0;
        self.fetch_index = 0;
        self.fetch_stall_until = 0;
        self.fetch_blocked_on_branch = None;
        self.wrap_drain_pending = false;
        self.rex_next_seq = 0;
        self.rex_inflight = 0;
        self.now = 0;
        self.stats = CpuStats::default();
        let horizon = event_horizon(config);
        self.exec_events.reset(horizon);
        self.rex_events.reset(horizon);
        let slots = self.rob.table_size();
        self.consumers.resize_with(slots, Vec::new);
        self.consumers.iter_mut().for_each(Vec::clear);
        self.ready.clear();
        self.ready.resize(slots.div_ceil(64), 0);
        #[cfg(test)]
        {
            let initial = RenameMap::new().current;
            self.rename_snapshots.clear();
            self.rename_snapshots.resize(slots, initial);
        }
    }

    /// Advances the machine by one cycle.
    fn step(
        &mut self,
        config: &MachineConfig,
        source: &[DynInst],
        obs: &mut Option<&mut dyn CommitObserver>,
    ) {
        self.commit(config, obs);
        self.reexecute(config);
        self.complete(config);
        self.issue(config, source);
        #[cfg(test)]
        self.check_ready_set(config);
        self.dispatch(config, source);
        self.now += 1;
    }

    // ----------------------------------------------------------- wakeup/select

    fn set_ready(&mut self, seq: InstSeq) {
        let slot = self.rob.slot(seq);
        self.ready[slot / 64] |= 1 << (slot % 64);
    }

    fn clear_ready(&mut self, seq: InstSeq) {
        let slot = self.rob.slot(seq);
        self.ready[slot / 64] &= !(1 << (slot % 64));
    }

    /// Registers `consumer` to be woken when `producer` produces its value.
    fn add_consumer(&mut self, producer: InstSeq, consumer: InstSeq) {
        let slot = self.rob.slot(producer);
        self.consumers[slot].push(consumer);
    }

    /// Delivers `producer`'s wakeup to every registered consumer; a consumer with
    /// nothing left pending joins the ready set. The list is emptied (capacity kept).
    fn wake_consumers(&mut self, producer: InstSeq) {
        let slot = self.rob.slot(producer);
        let mut list = std::mem::take(&mut self.consumers[slot]);
        for &consumer in &list {
            let e = self
                .rob
                .get_mut(consumer)
                .expect("a registered consumer is in flight until its producer wakes it");
            e.pending -= 1;
            if e.pending == 0 {
                self.set_ready(consumer);
            }
        }
        list.clear();
        self.consumers[slot] = list;
    }

    /// Test-only reference check, run after every issue stage: recomputes each
    /// in-flight entry's readiness by brute force — an operand is ready once its
    /// renamed producer has committed or completed, a store-set wait once the
    /// store queue holds the store's address — and requires the wakeup state
    /// (`pending` counts, the ready bitmap, `iq_count`) to agree with it exactly.
    #[cfg(test)]
    fn check_ready_set(&self, config: &MachineConfig) {
        let now = self.now;
        let operand_ready = |producer: Option<InstSeq>| match producer {
            None => true,
            Some(p) => self
                .rob
                .get(p)
                .is_none_or(|e| e.completed && e.complete_cycle <= now),
        };
        let is_ready = |seq: InstSeq| {
            let slot = self.rob.slot(seq);
            (self.ready[slot / 64] >> (slot % 64)) & 1 == 1
        };
        let mut unissued = 0usize;
        let mut ready = 0u32;
        for e in self.rob.iter() {
            if e.eliminated.is_some() || e.issued {
                assert!(
                    !is_ready(e.seq),
                    "cycle {now}: seq {} is outside the IQ but ready",
                    e.seq
                );
                continue;
            }
            unissued += 1;
            let unmet_operands = e
                .src_producers
                .iter()
                .filter(|&&p| !operand_ready(p))
                .count();
            let store_wait = e
                .wait_store
                .is_some_and(|ws| matches!(self.sq.get(ws), Some(st) if st.addr.is_none()));
            let unmet = unmet_operands + usize::from(store_wait);
            assert_eq!(
                usize::from(e.pending),
                unmet,
                "cycle {now}: seq {} ({}) pending count disagrees with its operands and \
                 store-set wait",
                e.seq,
                e.cls
            );
            assert_eq!(
                is_ready(e.seq),
                unmet == 0,
                "cycle {now}: seq {} ({}) ready bit disagrees with brute-force readiness",
                e.seq,
                e.cls
            );
            ready += u32::from(unmet == 0);
        }
        assert_eq!(
            unissued, self.iq_count,
            "cycle {now}: unissued entries vs iq_count"
        );
        assert!(self.iq_count <= config.iq_size);
        let bits: u32 = self.ready.iter().map(|w| w.count_ones()).sum();
        assert_eq!(
            bits, ready,
            "cycle {now}: ready bits set for slots outside the ROB"
        );
    }

    /// Test-only reference check, run for every load that select reaches: the FSQ
    /// steering bit read at dispatch must equal the predictor's bit now.
    #[cfg(test)]
    fn check_steering_bit(&self, config: &MachineConfig, seq: InstSeq) {
        let e = self.rob.get(seq).expect("ready entries are in the ROB");
        assert_eq!(
            e.used_fsq,
            config.lsq.is_ssq() && self.steering.uses_fsq(e.pc),
            "cycle {}: load seq {seq} (pc {:#x}) was steered at dispatch against the \
             predictor's current bit",
            self.now,
            e.pc
        );
    }

    /// Test-only reference check, run after every flush: the rename map must be
    /// exactly what it was before `flush_seq` dispatched.
    #[cfg(test)]
    fn check_rename_restored(&self, flush_seq: InstSeq) {
        let before = &self.rename_snapshots[self.rob.slot(flush_seq)];
        for (i, (now, then)) in self.rename.current.iter().zip(before).enumerate() {
            assert_eq!(
                now, then,
                "cycle {}: after the flush from seq {flush_seq}, r{i} is bound to {now:?} \
                 but was {then:?} before seq {flush_seq} dispatched",
                self.now
            );
        }
    }

    /// Describes where the machine is stuck, for the forward-progress failure: the
    /// ROB head — its state and everything it waits on — or, with an empty ROB,
    /// the front end.
    fn stall_report(&self, trace_len: usize) -> String {
        let progress = format!(
            "cycle {}, {} of {trace_len} instructions committed",
            self.now, self.stats.committed
        );
        let Some(head) = self.rob.front() else {
            return format!(
                "{progress}; ROB empty: fetch index {}, fetch stalled until cycle {}, \
                 blocked on branch {:?}, wrap drain pending {}",
                self.fetch_index,
                self.fetch_stall_until,
                self.fetch_blocked_on_branch,
                self.wrap_drain_pending
            );
        };
        // In-flight entries still holding a wakeup for the head. Producers are
        // older than their consumers, so for the head this is empty unless a
        // wakeup was lost.
        let holders: Vec<InstSeq> = self
            .rob
            .iter()
            .map(|e| e.seq)
            .filter(|&p| self.consumers[self.rob.slot(p)].contains(&head.seq))
            .collect();
        format!(
            "{progress}; ROB head seq {} ({} at pc {:#x}): issued={} completed={} \
             complete_cycle={:?} pending={} held by producers {holders:?} wait_store={:?} \
             rex={:?}; {} in ROB, {} in IQ, re-execution at seq {}",
            head.seq,
            head.cls,
            head.pc,
            head.issued,
            head.completed,
            head.issued.then_some(head.complete_cycle),
            head.pending,
            head.wait_store,
            head.rex,
            self.rob.len(),
            self.iq_count,
            self.rex_next_seq
        )
    }

    /// The oldest ready entry with a sequence number in `[from, end)`, found by
    /// walking the ready bitmap in ring order from `from`'s slot.
    fn next_ready(&self, from: InstSeq, end: InstSeq) -> Option<InstSeq> {
        let slots = self.rob.table_size();
        let mut seq = from;
        while seq < end {
            let slot = self.rob.slot(seq);
            let bits = self.ready[slot / 64] >> (slot % 64);
            if bits != 0 {
                // Set bits belong to in-flight entries, and every slot of a sequence
                // number at or past `end` aliases an entry older than `from`.
                let found = seq + u64::from(bits.trailing_zeros());
                return (found < end).then_some(found);
            }
            // On to the next bitmap word, or across the ring's wrap point.
            seq += (64 - slot % 64).min(slots - slot) as u64;
        }
        None
    }

    // ----------------------------------------------------------------- commit

    fn commit(&mut self, config: &MachineConfig, obs: &mut Option<&mut dyn CommitObserver>) {
        let mut committed = 0usize;
        let mut stores_this_cycle = 0usize;
        while committed < config.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.completed || head.complete_cycle > self.now {
                break;
            }
            // When a re-execution engine is present, the re-execution pipeline sits
            // between completion and commit: nothing commits before rex-head has
            // passed it (this is also what guarantees that every store performs its
            // SSBF update before any younger load's filter test).
            if config.reexec.verifies() && head.seq >= self.rex_next_seq {
                break;
            }
            // Copy the scalar fields commit needs; the entry itself stays in place (a
            // full `RobEntry` clone here dominated the commit path).
            let (seq, pc, cls, has_dst) = (head.seq, head.pc, head.cls, head.rename_undo.is_some());
            let (addr, width, exec_value, oracle_value) =
                (head.addr, head.width, head.exec_value, head.oracle_value);
            let (marked, ssn, used_fsq) = (head.marked, head.ssn, head.used_fsq);
            let (fwd, window) = (head.fwd, head.window);
            let (eliminated, elim_squash, elim_signature) =
                (head.eliminated, head.elim_squash, head.elim_signature);
            let (rex, rex_used_cache) = (head.rex, head.rex_used_cache);

            // Marked loads must be verified (or filtered) before they may commit; this
            // is also what makes younger stores wait for older loads' re-execution.
            if cls == OpClass::Load && marked && config.reexec.verifies() {
                match rex {
                    RexState::Idle => {
                        self.stats.commit_stalled_on_reexec += 1;
                        break;
                    }
                    RexState::InFlight(done) if done > self.now => {
                        self.stats.commit_stalled_on_reexec += 1;
                        break;
                    }
                    RexState::InFlight(_) => {
                        // The access has finished: resolve it now.
                        self.rex_inflight = self.rex_inflight.saturating_sub(1);
                        let ok = exec_value == oracle_value;
                        let front = self.rob.front_mut().expect("head is in the ROB");
                        front.rex = if ok { RexState::Done } else { RexState::Failed };
                        continue;
                    }
                    RexState::Failed => {
                        self.handle_reexec_failure(
                            config,
                            seq,
                            pc,
                            addr,
                            eliminated,
                            elim_signature,
                        );
                        break;
                    }
                    RexState::Filtered | RexState::Done => {}
                }
            }

            if cls == OpClass::Store {
                if stores_this_cycle >= config.store_commit_ports
                    || !self.dcache_rw_port.try_acquire(self.now)
                {
                    break;
                }
                let addr = addr.expect("completed store has an address");
                let width = width.expect("completed store has a width");
                let value = oracle_value.expect("store has a value");
                self.committed_mem.commit_store(addr, width, value);
                let _ = self.hierarchy.access(AccessKind::DataWrite, addr);
                self.spct.record_store(addr, pc);
                self.svw.store_retired(ssn.expect("store has an SSN"));
                self.sq.pop_commit(seq);
                if let Some(fsq) = &mut self.fsq {
                    fsq.release(seq);
                }
                self.stats.stores_retired += 1;
                stores_this_cycle += 1;
            }

            if cls == OpClass::Load {
                self.lq.pop_commit(seq);
                self.stats.loads_retired += 1;
                if marked {
                    self.stats.loads_marked += 1;
                }
                match rex {
                    RexState::Filtered => self.stats.loads_filtered += 1,
                    RexState::Done if rex_used_cache => {
                        self.stats.loads_reexecuted += 1;
                        if used_fsq {
                            self.stats.reexecuted_fsq_loads += 1;
                        }
                        match eliminated {
                            Some(RleKind::LoadReuse) => self.stats.reexecuted_reuse_loads += 1,
                            Some(RleKind::MemoryBypass) => self.stats.reexecuted_bypass_loads += 1,
                            None => {}
                        }
                    }
                    _ => {}
                }
                if let Some(kind) = eliminated {
                    self.stats.loads_eliminated += 1;
                    match kind {
                        RleKind::LoadReuse => self.stats.eliminations_reuse += 1,
                        RleKind::MemoryBypass => self.stats.eliminations_bypass += 1,
                    }
                    if elim_squash {
                        self.stats.eliminations_squash += 1;
                    }
                }
                // The fundamental soundness check: by the time it retires, every load
                // must hold the architecturally correct value.
                assert_eq!(
                    exec_value, oracle_value,
                    "load seq {seq} (pc {pc:#x}) retired with a wrong value — a \
                     verification mechanism is unsound"
                );
            }

            if let Some(obs) = obs.as_deref_mut() {
                obs.on_commit(&CommitRecord {
                    seq,
                    pc,
                    cls,
                    addr,
                    width,
                    // A load's architectural value is what its consumers saw
                    // (exec_value); a store's is the data it wrote to committed
                    // memory (the trace-resolved oracle_value, as used above).
                    value: if cls == OpClass::Store {
                        oracle_value
                    } else if cls == OpClass::Load {
                        exec_value
                    } else {
                        None
                    },
                    ssn,
                    marked,
                    filtered: rex == RexState::Filtered,
                    reexecuted: rex == RexState::Done && rex_used_cache,
                    fwd,
                    used_fsq,
                    eliminated: eliminated.is_some(),
                    window_boundary: (cls == OpClass::Load).then(|| window.boundary()),
                });
            }

            if has_dst {
                self.inflight_dsts -= 1;
            }
            self.rob.pop_front();
            self.stats.committed += 1;
            committed += 1;
            if self.rex_next_seq <= seq {
                self.rex_next_seq = seq + 1;
            }
        }
    }

    fn handle_reexec_failure(
        &mut self,
        config: &MachineConfig,
        seq: InstSeq,
        pc: Pc,
        addr: Option<Addr>,
        eliminated: Option<RleKind>,
        elim_signature: Option<ItSignature>,
    ) {
        self.stats.reexec_flushes += 1;
        let addr = addr.expect("failed load has an address");
        // Train the appropriate predictor so the mis-speculation does not recur:
        // the SPCT supplies the identity of the last store to the colliding address,
        // enabling store-load pair (store-sets) training under NLQ/SSQ; for RLE the
        // stale integration-table entry is removed.
        if let Some(store_pc) = self.spct.lookup(addr) {
            self.store_sets.train_violation(pc, store_pc);
        } else {
            self.store_sets.train_violation_blind(pc);
        }
        if config.lsq.is_ssq() {
            self.steering.mark(pc);
            if let Some(store_pc) = self.spct.lookup(addr) {
                self.steering.mark(store_pc);
            }
        }
        if let (Some(it), Some(sig)) = (self.it.as_mut(), elim_signature) {
            if eliminated.is_some() {
                it.invalidate_base_preg(sig.base_preg);
            }
        }
        let penalty = config.frontend_depth + config.reexec_stages;
        self.flush_from(seq, penalty);
    }

    // ------------------------------------------------------------ re-execution

    fn reexecute(&mut self, config: &MachineConfig) {
        if !config.reexec.verifies() {
            return;
        }
        let svw_enabled = config.reexec.is_svw();
        let mut mem_ops_processed = 0usize;
        let mut entries_scanned = 0usize;
        let mut cache_access_started = false;
        while mem_ops_processed < config.commit_width && entries_scanned < 4 * config.commit_width {
            entries_scanned += 1;
            let Some(e) = self.rob.get(self.rex_next_seq) else {
                break;
            };
            // Copy the scalar fields this stage reads; cloning the whole entry per
            // scanned instruction was a measurable share of the simulation loop.
            let (cls, completed, addr, width, ssn) = (e.cls, e.completed, e.addr, e.width, e.ssn);
            let (marked, elim_squash, eliminated, window) =
                (e.marked, e.elim_squash, e.eliminated, e.window);
            let (exec_value, oracle_value) = (e.exec_value, e.oracle_value);
            match cls {
                OpClass::Store => {
                    if !completed {
                        break; // in-order re-execution stalls at an unexecuted store
                    }
                    if svw_enabled {
                        if !self.svw.speculative_ssbf_updates() && self.rex_inflight > 0 {
                            // Atomic SSBF updates: the store may not update the filter
                            // until every older re-execution has finished.
                            break;
                        }
                        self.svw.store_svw_stage(
                            addr.expect("completed store has an address"),
                            width.expect("completed store has a width").bytes(),
                            ssn.expect("store has an SSN"),
                        );
                    }
                    mem_ops_processed += 1;
                    self.rex_next_seq += 1;
                }
                OpClass::Load => {
                    if !completed {
                        break;
                    }
                    if !marked {
                        self.rex_next_seq += 1;
                        continue;
                    }
                    let addr = addr.expect("completed load has an address");
                    let bytes = width.expect("completed load has a width").bytes();
                    let decision = match config.reexec {
                        ReexecMode::Perfect => {
                            // Idealised: instantaneous verification, no port usage.
                            let ok = exec_value == oracle_value;
                            let e = self
                                .rob
                                .get_mut(self.rex_next_seq)
                                .expect("entry is in the ROB");
                            e.rex = if ok { RexState::Done } else { RexState::Failed };
                            e.rex_used_cache = true;
                            mem_ops_processed += 1;
                            self.rex_next_seq += 1;
                            continue;
                        }
                        ReexecMode::Full => true,
                        ReexecMode::Svw(_) => {
                            if elim_squash {
                                // SVW is disabled for squash reuse (§4.3): the SSBF
                                // cannot capture stores on the squashed path.
                                self.svw.stats_mut().marked_loads += 1;
                                self.svw.stats_mut().reexecuted_loads += 1;
                                true
                            } else {
                                self.svw.filter_marked_load(addr, bytes, window)
                            }
                        }
                        ReexecMode::None => unreachable!("verifies() checked above"),
                    };
                    if !decision {
                        self.rob
                            .get_mut(self.rex_next_seq)
                            .expect("entry is in the ROB")
                            .rex = RexState::Filtered;
                        mem_ops_processed += 1;
                        self.rex_next_seq += 1;
                        continue;
                    }
                    // The load must access the data cache: it needs the shared
                    // retirement port (store commit had first claim this cycle).
                    if cache_access_started || !self.dcache_rw_port.try_acquire(self.now) {
                        self.stats.reexec_port_conflicts += 1;
                        break;
                    }
                    cache_access_started = true;
                    let mut latency = self.hierarchy.access(AccessKind::DataRead, addr);
                    if eliminated.is_some() {
                        // RLE re-execution reads address and value from the register
                        // file (2-cycle read) through the elongated pipeline.
                        latency += 2;
                    }
                    let done = self.now + latency;
                    let seq = self.rex_next_seq;
                    let e = self.rob.get_mut(seq).expect("entry is in the ROB");
                    e.rex = RexState::InFlight(done);
                    e.rex_used_cache = true;
                    self.rex_events.push(done, seq);
                    self.rex_inflight += 1;
                    mem_ops_processed += 1;
                    self.rex_next_seq += 1;
                }
                _ => {
                    self.rex_next_seq += 1;
                }
            }
        }
    }

    // ---------------------------------------------------------------- complete

    fn complete(&mut self, config: &MachineConfig) {
        // Mark newly finished instructions and resolve re-execution accesses whose
        // cache access has finished (so younger stores' commit is unblocked promptly).
        // Only the due events are visited; a stale event (its entry was squashed, or
        // squashed and re-issued with a different latency) no longer matches the
        // entry's recorded state and is dropped.
        let now = self.now;
        let mut unblock_branch: Option<InstSeq> = None;
        let due = self.exec_events.take(now);
        for &seq in &due {
            let Some(e) = self.rob.get_mut(seq) else {
                continue;
            };
            if e.issued && !e.completed && e.complete_cycle == now {
                e.completed = true;
                if e.cls == OpClass::Branch && e.mispredicted {
                    unblock_branch = Some(e.seq);
                }
                self.wake_consumers(seq);
            }
        }
        self.exec_events.put_back(now, due);
        let due = self.rex_events.take(now);
        for &seq in &due {
            if let Some(e) = self.rob.get_mut(seq) {
                if e.rex == RexState::InFlight(now) {
                    e.rex = if e.exec_value == e.oracle_value {
                        RexState::Done
                    } else {
                        RexState::Failed
                    };
                    self.rex_inflight = self.rex_inflight.saturating_sub(1);
                }
            }
        }
        self.rex_events.put_back(now, due);
        if let Some(seq) = unblock_branch {
            if self.fetch_blocked_on_branch == Some(seq) {
                self.fetch_blocked_on_branch = None;
                self.fetch_stall_until = self.fetch_stall_until.max(now + config.frontend_depth);
            }
        }
    }

    // ------------------------------------------------------------------- issue

    /// Select: walks the ready set oldest-first, issuing within the per-class
    /// budgets. Only entries whose operands (and store-set wait) are satisfied are
    /// visited; a store that issues may wake a younger load that this same walk
    /// then reaches, exactly as an age-ordered scan of the whole IQ would.
    fn issue(&mut self, config: &MachineConfig, source: &[DynInst]) {
        // Unissued IQ entries number exactly `iq_count`, which dispatch bounds.
        debug_assert!(self.iq_count <= config.iq_size);
        let mut budget_int = config.issue_int;
        let mut budget_fp = config.issue_fp;
        let mut budget_load = config.issue_load;
        let mut budget_store = config.issue_store.min(config.lsq.store_exec_bandwidth());
        let mut budget_branch = config.issue_branch;
        let mut fsq_port_used = false;
        let mut pending_ordering_flush: Option<InstSeq> = None;

        let Some(front) = self.rob.front().map(|e| e.seq) else {
            return;
        };
        let end = self.rob.end_seq();
        let mut cursor = front;
        while let Some(seq) = self.next_ready(cursor, end) {
            cursor = seq + 1;
            // Model v1 quirk, preserved for byte-identity: the early exit ignores
            // `budget_fp`, so once the other classes are exhausted a ready FP op
            // waits a cycle even if FP slots remain. Model v2 keeps selecting
            // while FP bandwidth is left.
            if budget_int == 0
                && budget_load == 0
                && budget_store == 0
                && budget_branch == 0
                && (config.model_version < 2 || budget_fp == 0)
            {
                break;
            }
            let (cls, uses_fsq, addr, width) = {
                let e = self.rob.get(seq).expect("ready entries are in the ROB");
                (e.cls, e.used_fsq, e.addr, e.width)
            };
            match cls {
                OpClass::IntAlu | OpClass::IntMul | OpClass::Nop => {
                    if budget_int == 0 {
                        continue;
                    }
                    budget_int -= 1;
                    self.do_issue_simple(config, seq, cls);
                }
                OpClass::FpAlu => {
                    if budget_fp == 0 {
                        continue;
                    }
                    budget_fp -= 1;
                    self.do_issue_simple(config, seq, cls);
                }
                OpClass::Branch => {
                    if budget_branch == 0 {
                        continue;
                    }
                    budget_branch -= 1;
                    self.do_issue_simple(config, seq, cls);
                }
                OpClass::Store => {
                    if budget_store == 0 {
                        continue;
                    }
                    budget_store -= 1;
                    if let Some(victim) = self.do_issue_store(config, source, seq) {
                        pending_ordering_flush = Some(victim);
                        break;
                    }
                }
                OpClass::Load => {
                    if budget_load == 0 {
                        continue;
                    }
                    // A load that fails here (FSQ port taken, forwarding replay,
                    // cache bank busy) stays ready and retries next cycle.
                    #[cfg(test)]
                    self.check_steering_bit(config, seq);
                    if uses_fsq && fsq_port_used {
                        continue;
                    }
                    let addr = addr.expect("a load has an address");
                    let width = width.expect("a load has a width");
                    if self.do_issue_load(config, seq, uses_fsq, addr, width) {
                        budget_load -= 1;
                        if uses_fsq {
                            fsq_port_used = true;
                        }
                    }
                }
            }
        }
        if let Some(seq) = pending_ordering_flush {
            self.stats.ordering_flushes += 1;
            self.flush_from(seq, config.frontend_depth);
        }
    }

    fn do_issue_simple(&mut self, config: &MachineConfig, seq: InstSeq, cls: OpClass) {
        let latency = config.issue_to_execute + cls.exec_latency();
        let done = self.now + latency;
        let e = self
            .rob
            .get_mut(seq)
            .expect("issuing an instruction that is in the ROB");
        e.issued = true;
        e.complete_cycle = done;
        self.exec_events.push(done, seq);
        self.leave_iq(seq);
    }

    /// Removes an issuing entry from the IQ and the ready set.
    fn leave_iq(&mut self, seq: InstSeq) {
        self.iq_count -= 1;
        self.clear_ready(seq);
    }

    /// Issues a store (address + data generation). Returns the sequence number of the
    /// oldest prematurely issued younger load if the conventional LQ ordering search
    /// finds one (an ordering-violation flush request).
    fn do_issue_store(
        &mut self,
        config: &MachineConfig,
        source: &[DynInst],
        seq: InstSeq,
    ) -> Option<InstSeq> {
        let inst = &source[seq as usize];
        let acc = *inst.mem_access();
        let pc = inst.pc;
        self.sq.resolve(seq, acc.addr, acc.width, acc.value);
        // Loads predicted (store-sets) to depend on this store wait for exactly this
        // address resolution.
        self.wake_consumers(seq);
        self.store_sets.store_resolved(pc, seq);
        if let Some(fsq) = &mut self.fsq {
            fsq.resolve(seq, acc.addr, acc.width, acc.value);
        }
        if let Some(buf) = &mut self.fwd_buf {
            let ssn = self
                .rob
                .get(seq)
                .expect("store is in the ROB")
                .ssn
                .expect("store has an SSN");
            buf.record_store(seq, pc, ssn, acc.addr, acc.width, acc.value);
        }
        let latency = config.issue_to_execute + OpClass::Store.exec_latency();
        let done = self.now + latency;
        let e = self.rob.get_mut(seq).expect("store is in the ROB");
        e.issued = true;
        e.complete_cycle = done;
        self.exec_events.push(done, seq);
        self.leave_iq(seq);

        // The conventional LQ's associative ordering search (removed in the NLQ and
        // unnecessary under SSQ, whose re-execution of every load subsumes it).
        if config.lsq.is_conventional() {
            if let Some(victim) =
                self.lq
                    .search_violations(seq, acc.addr, acc.width, Some(acc.value))
            {
                // Train store-sets on the violating pair so the load learns to wait
                // for this store in the future.
                let load_pc = source[victim as usize].pc;
                self.store_sets.train_violation(load_pc, pc);
                return Some(victim);
            }
        }
        None
    }

    /// Attempts to issue a load. Returns `false` if it could not issue this cycle
    /// (conflicting store data not ready, cache bank busy, …).
    fn do_issue_load(
        &mut self,
        config: &MachineConfig,
        seq: InstSeq,
        uses_fsq: bool,
        addr: Addr,
        bytes: MemWidth,
    ) -> bool {
        // Cache bank structural port (address-interleaved execution ports). A load
        // whose bank is taken cannot issue whatever it would observe, and a
        // forwarding replay never takes the bank, so fail it before the search. The
        // forwarding-buffer probe still counts, as when the search came first.
        if !self.exec_ports.is_free(addr, self.now) {
            if config.lsq.is_ssq() && !uses_fsq {
                self.probe_fwd_buffer(seq, addr, bytes);
            }
            return false;
        }

        // Determine the value the load observes and where it comes from. A forwarding
        // source is either an in-flight queue entry (whose SSN can only shrink the
        // window, under `+UPD`) or a best-effort buffer entry (whose SSN must also
        // *bound* the window: the entry may belong to an already-retired store whose
        // value younger retired stores have overwritten). The origin is persisted on
        // the ROB entry for the commit-stream observer.
        let (exec_value, fwd_source, replay) = if config.lsq.is_ssq() {
            if uses_fsq {
                match self
                    .fsq
                    .as_mut()
                    .expect("SSQ configuration has an FSQ")
                    .search(seq, addr, bytes)
                {
                    ForwardResult::Forward { ssn, value, .. } => {
                        (value, FwdOrigin::Queue(ssn), false)
                    }
                    ForwardResult::Conflict { .. } | ForwardResult::None => (
                        self.committed_mem.read(addr, bytes),
                        FwdOrigin::Memory,
                        false,
                    ),
                }
            } else {
                match self.probe_fwd_buffer(seq, addr, bytes) {
                    Some((ssn, value)) => (value, FwdOrigin::Buffer(ssn), false),
                    None => (
                        self.committed_mem.read(addr, bytes),
                        FwdOrigin::Memory,
                        false,
                    ),
                }
            }
        } else {
            match self.sq.search_forward(seq, addr, bytes) {
                ForwardResult::Forward { ssn, value, .. } => (value, FwdOrigin::Queue(ssn), false),
                ForwardResult::None => (
                    self.committed_mem.read(addr, bytes),
                    FwdOrigin::Memory,
                    false,
                ),
                ForwardResult::Conflict { .. } => (0, FwdOrigin::Memory, true),
            }
        };
        if replay {
            // The youngest older matching store cannot forward yet: retry next cycle.
            return false;
        }
        let bank_taken = self.exec_ports.try_use(addr, self.now);
        debug_assert!(bank_taken, "the bank was free before the search");

        // Under NLQ, loads issuing past unresolved older store addresses are marked by
        // the scheduler for re-execution.
        let nlq_marked = matches!(config.lsq, LsqOrganization::Nlq { .. })
            && self.sq.has_unresolved_older_than(seq);

        let latency = if matches!(fwd_source, FwdOrigin::Queue(_) | FwdOrigin::Buffer(_)) {
            config.issue_to_execute
                + self.hierarchy.l1d_hit_latency()
                + config.lsq.extra_load_latency()
        } else {
            config.issue_to_execute
                + self.hierarchy.access(AccessKind::DataRead, addr)
                + config.lsq.extra_load_latency()
        };

        if config.lsq.is_conventional() {
            // Only the conventional LQ's ordering search reads resolved entries.
            self.lq.resolve(seq, addr, bytes, exec_value);
        }
        let window = self.rob.get(seq).expect("load is in the ROB").window;
        let svw_window = match fwd_source {
            FwdOrigin::Queue(ssn) => self.svw.forward_update(window, ssn),
            FwdOrigin::Buffer(ssn) => {
                // The value reflects memory exactly as of store `ssn`, which may be
                // older than the dispatch-time retire pointer: bound the window first
                // (soundness), then apply the `+UPD` shrink (filtering efficiency).
                let bounded = window.compose(VulnWindow::from_best_effort_source(ssn));
                self.svw.forward_update(bounded, ssn)
            }
            FwdOrigin::Memory => window,
        };
        let done = self.now + latency;
        let e = self.rob.get_mut(seq).expect("load is in the ROB");
        e.issued = true;
        e.complete_cycle = done;
        self.exec_events.push(done, seq);
        e.exec_value = Some(exec_value);
        e.window = svw_window;
        e.fwd = fwd_source;
        if nlq_marked {
            e.marked = true;
        }
        self.leave_iq(seq);
        true
    }

    /// The forwarding-buffer probe of SSQ load `seq`: the SSN and value of the
    /// covering store it finds, counted as one lookup. While the buffer is
    /// unchanged since this load's last probe (its version says so), that probe's
    /// outcome is counted again instead of searching.
    fn probe_fwd_buffer(
        &mut self,
        seq: InstSeq,
        addr: Addr,
        width: MemWidth,
    ) -> Option<(Ssn, Value)> {
        let buf = self
            .fwd_buf
            .as_mut()
            .expect("SSQ configuration has forwarding buffers");
        let version = buf.version(addr);
        let e = self.rob.get_mut(seq).expect("load is in the ROB");
        match e.fwd_probe {
            Some((v, found)) if v == version => {
                #[cfg(test)]
                assert_eq!(
                    found,
                    buf.find(seq, addr, width)
                        .map(|(_, _, ssn, value)| (ssn, value)),
                    "cycle {}: load seq {seq} reused a stale forwarding-buffer outcome \
                     at version {version}",
                    self.now
                );
                buf.count_lookup(found.is_some());
                found
            }
            _ => {
                let found = buf
                    .lookup(seq, addr, width)
                    .map(|(_, _, ssn, value)| (ssn, value));
                e.fwd_probe = Some((version, found));
                found
            }
        }
    }

    // ---------------------------------------------------------------- dispatch

    fn dispatch(&mut self, config: &MachineConfig, source: &[DynInst]) {
        if self.now < self.fetch_stall_until || self.fetch_blocked_on_branch.is_some() {
            return;
        }
        if self.wrap_drain_pending {
            if self.rob.is_empty() {
                self.svw.on_wrap_drain();
                if let Some(it) = &mut self.it {
                    it.flash_clear();
                }
                self.stats.wrap_drains += 1;
                self.wrap_drain_pending = false;
            } else {
                return;
            }
        }
        let trace_len = source.len();
        let mut dispatched = 0usize;
        while dispatched < config.fetch_width && self.fetch_index < trace_len {
            let seq = self.fetch_index as InstSeq;
            // Borrowed straight out of the trace: `source` is disjoint from the
            // pipeline state, so no clone is needed.
            let inst = &source[seq as usize];
            let cls = inst.class();
            let is_load = cls == OpClass::Load;
            let is_store = cls == OpClass::Store;
            let dst = inst.dst();

            // Structural resources.
            if self.rob.len() >= config.rob_size
                || self.iq_count >= config.iq_size
                || (is_load && !self.lq.has_space())
                || (is_store && !self.sq.has_space())
                || (dst.is_some() && self.inflight_dsts >= config.phys_regs)
            {
                break;
            }
            if is_store && self.svw.wrap_drain_needed() {
                self.wrap_drain_pending = true;
                break;
            }

            let srcs = inst.srcs();
            let src_producers = [
                srcs[0].and_then(|r| self.rename.producer(r)),
                srcs[1].and_then(|r| self.rename.producer(r)),
            ];

            let mut entry = RobEntry {
                seq,
                pc: inst.pc,
                cls,
                #[cfg(test)]
                src_producers,
                pending: 0,
                rename_undo: None,
                issued: false,
                completed: false,
                complete_cycle: u64::MAX,
                addr: inst.addr(),
                width: inst.mem.as_ref().map(|m| m.width),
                exec_value: None,
                oracle_value: inst.mem.as_ref().map(|m| m.value),
                marked: false,
                window: VulnWindow::FULLY_VULNERABLE,
                ssn: None,
                used_fsq: false,
                fwd_probe: None,
                fwd: FwdOrigin::Memory,
                eliminated: None,
                elim_squash: false,
                elim_signature: None,
                wait_store: None,
                rex: RexState::Idle,
                rex_used_cache: false,
                mispredicted: false,
            };
            let mut enters_iq = true;
            let mut stop_fetch_after = false;
            // Completion event for entries that dispatch pre-issued (eliminated
            // loads), pushed once the entry is in the ROB.
            let mut exec_event: Option<u64> = None;

            match cls {
                OpClass::Branch => {
                    let (kind, info) = inst.branch_info().expect("branch has branch info");
                    let predicted_taken = if kind.is_unconditional() {
                        true
                    } else {
                        self.branch_pred.predict(inst.pc)
                    };
                    let btb_target = self.btb.lookup(inst.pc);
                    let direction_wrong = if kind.is_unconditional() {
                        false
                    } else {
                        self.branch_pred.update(inst.pc, info.taken)
                    };
                    let target_wrong =
                        info.taken && predicted_taken && btb_target != Some(info.target);
                    entry.mispredicted = direction_wrong || target_wrong;
                    self.btb.update(inst.pc, info.target);
                    if entry.mispredicted {
                        self.stats.branch_mispredictions += 1;
                        stop_fetch_after = true;
                    }
                }
                OpClass::Load => {
                    entry.window = self.svw.load_dispatch_window();
                    entry.wait_store = self.store_sets.load_dependence(inst.pc);
                    if entry.wait_store.is_some() {
                        self.stats.store_set_squashes += 1;
                    }
                    if config.lsq.is_ssq() {
                        // The speculative SQ has no natural filter: every load must be
                        // (potentially) re-executed.
                        entry.marked = true;
                    }
                    // Redundant load elimination at rename.
                    if let Some(it) = &mut self.it {
                        let (base, offset) = inst
                            .base_and_offset()
                            .expect("loads have a base register and offset");
                        let sig = ItSignature {
                            base_preg: (self.rename.version(base) & 0xFFFF_FFFF) as u32,
                            offset,
                            width: inst.mem_access().width,
                        };
                        entry.elim_signature = Some(sig);
                        if let Some(hit) = it.lookup(&sig) {
                            entry.eliminated = Some(hit.kind);
                            entry.elim_squash = hit.from_squashed;
                            entry.marked = true;
                            entry.issued = true;
                            entry.completed = false;
                            entry.complete_cycle = self.now + 1;
                            exec_event = Some(self.now + 1);
                            entry.exec_value = Some(hit.value);
                            entry.window = if hit.from_squashed {
                                VulnWindow::FULLY_VULNERABLE
                            } else {
                                VulnWindow::from_integration_entry(hit.ssn)
                            };
                            enters_iq = false;
                        } else {
                            it.insert(ItEntry {
                                signature: sig,
                                value: inst.mem_access().value,
                                ssn: self.svw.ssn_rename(),
                                producer_seq: seq,
                                kind: RleKind::LoadReuse,
                                from_squashed: false,
                            });
                        }
                    }
                    entry.used_fsq =
                        enters_iq && config.lsq.is_ssq() && self.steering.uses_fsq(inst.pc);
                    self.lq.allocate(seq);
                }
                OpClass::Store => {
                    let ssn = self.svw.assign_store_ssn();
                    entry.ssn = Some(ssn);
                    self.sq.allocate(seq, inst.pc, ssn);
                    let _ = self.store_sets.store_renamed(inst.pc, seq);
                    if config.lsq.is_ssq() && self.steering.uses_fsq(inst.pc) {
                        if let Some(fsq) = &mut self.fsq {
                            let _ = fsq.try_allocate(seq, inst.pc, ssn);
                        }
                    }
                    if let Some(it) = &mut self.it {
                        let (base, offset) = inst
                            .base_and_offset()
                            .expect("stores have a base register and offset");
                        let sig = ItSignature {
                            base_preg: (self.rename.version(base) & 0xFFFF_FFFF) as u32,
                            offset,
                            width: inst.mem_access().width,
                        };
                        it.insert(ItEntry {
                            signature: sig,
                            value: inst.mem_access().value,
                            ssn: self.svw.ssn_rename(),
                            producer_seq: seq,
                            kind: RleKind::MemoryBypass,
                            from_squashed: false,
                        });
                    }
                }
                _ => {}
            }

            // Rename the destination. Nothing breaks out of this iteration between
            // here and `push_back`, so every binding belongs to an entry in the ROB
            // and a flush can undo it from there.
            #[cfg(test)]
            {
                let slot = self.rob.slot(seq);
                self.rename_snapshots[slot] = self.rename.current;
            }
            if let Some(dst) = dst {
                entry.rename_undo = Some((dst, self.rename.bind(dst, seq)));
                self.inflight_dsts += 1;
            }

            if entry.mispredicted {
                self.fetch_blocked_on_branch = Some(seq);
            }
            if enters_iq {
                self.iq_count += 1;
                // Wakeup registration: one pending wakeup per operand whose producer
                // is still in flight and incomplete, plus one for a predicted store
                // dependence whose store has not resolved its address yet.
                for producer in src_producers.into_iter().flatten() {
                    if self.rob.get(producer).is_some_and(|p| !p.completed) {
                        self.add_consumer(producer, seq);
                        entry.pending += 1;
                    }
                }
                if let Some(ws) = entry.wait_store {
                    if matches!(self.sq.get(ws), Some(st) if st.addr.is_none()) {
                        self.add_consumer(ws, seq);
                        entry.pending += 1;
                    }
                }
            }
            let ready = enters_iq && entry.pending == 0;
            self.rob.push_back(entry);
            if ready {
                self.set_ready(seq);
            }
            if let Some(done) = exec_event {
                self.exec_events.push(done, seq);
            }
            self.fetch_index += 1;
            dispatched += 1;
            if stop_fetch_after {
                break;
            }
        }
    }

    // ------------------------------------------------------------------- flush

    /// Squashes every instruction with `seq >= flush_seq`, restores rename and queue
    /// state, and redirects fetch to `flush_seq` after `penalty` cycles.
    fn flush_from(&mut self, flush_seq: InstSeq, penalty: u64) {
        while matches!(self.rob.back(), Some(e) if e.seq >= flush_seq) {
            let e = self.rob.back().expect("checked non-empty");
            let (seq, rename_undo, eliminated, issued, rex) =
                (e.seq, e.rename_undo, e.eliminated, e.issued, e.rex);
            self.rob.pop_back();
            // Youngest first, so each register ends at the binding it had before
            // its oldest squashed writer dispatched.
            if let Some((dst, old)) = rename_undo {
                self.rename.current[dst.index()] = old;
                self.inflight_dsts -= 1;
            }
            if eliminated.is_none() && !issued {
                self.iq_count -= 1;
            }
            self.clear_ready(seq);
            let slot = self.rob.slot(seq);
            self.consumers[slot].clear();
            if matches!(rex, RexState::InFlight(_)) {
                self.rex_inflight = self.rex_inflight.saturating_sub(1);
            }
        }
        // Survivors forget their squashed consumers (lists are in sequence order), so
        // a consumer re-dispatched under the same sequence number registers afresh
        // instead of being woken twice.
        if let Some(front) = self.rob.front().map(|e| e.seq) {
            for seq in front..self.rob.end_seq() {
                let list = &mut self.consumers[self.rob.slot(seq)];
                while list.last().is_some_and(|&c| c >= flush_seq) {
                    list.pop();
                }
            }
        }
        let survivor = self.rob.back().map(|e| e.seq);
        self.lq.flush_after(survivor);
        let surviving_ssn = self.sq.flush_after(survivor);
        if let Some(fsq) = &mut self.fsq {
            fsq.flush_after(survivor);
        }
        if let Some(buf) = &mut self.fwd_buf {
            buf.flush_after(survivor);
        }
        if let Some(it) = &mut self.it {
            it.flush_after(survivor);
        }
        self.store_sets.flush_inflight();
        self.svw.flush(surviving_ssn);
        #[cfg(test)]
        self.check_rename_restored(flush_seq);
        self.rex_next_seq = self.rex_next_seq.min(flush_seq);
        self.fetch_index = flush_seq as usize;
        self.fetch_stall_until = self.now + penalty;
        if matches!(self.fetch_blocked_on_branch, Some(b) if b >= flush_seq) {
            self.fetch_blocked_on_branch = None;
        }
        self.rex_inflight = self
            .rob
            .iter()
            .filter(|e| matches!(e.rex, RexState::InFlight(_)))
            .count();
    }
}

/// A reusable simulation arena: owns one pipeline and hands it to successive
/// [`Cpu::recycle`] calls. The first cell builds the pipeline; every later cell
/// clears it in place with all heap allocations (ROB ring, event wheels, predictor
/// and cache tables, queues, SSBF) retained, making cell startup a reset instead of
/// a rebuild and the steady-state loop allocation-free.
///
/// Results are byte-identical to fresh [`Cpu::new`] construction — the scheduler
/// determinism tests compare the two paths across worker counts.
#[derive(Default)]
pub struct SimArena {
    pipeline: Option<Pipeline>,
}

impl SimArena {
    /// Creates an empty arena (no pipeline is built until the first recycle).
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Whether the arena already holds a pipeline — i.e. the next [`Cpu::recycle`]
    /// will be an in-place reset rather than a fresh build. Sweep workers use this to
    /// report their reset-vs-rebuild counts.
    pub fn is_warm(&self) -> bool {
        self.pipeline.is_some()
    }
}

/// How a [`Cpu`] holds its pipeline: privately boxed (one-shot construction) or
/// borrowed from a caller-owned [`SimArena`] (recycled across cells).
enum State<'a> {
    Owned(Box<Pipeline>),
    Borrowed(&'a mut Pipeline),
}

impl State<'_> {
    fn get_mut(&mut self) -> &mut Pipeline {
        match self {
            State::Owned(p) => p,
            State::Borrowed(p) => p,
        }
    }

    fn get(&self) -> &Pipeline {
        match self {
            State::Owned(p) => p,
            State::Borrowed(p) => p,
        }
    }
}

/// The out-of-order processor model. Construct one per (configuration, program) pair
/// — via [`Cpu::new`] for a one-shot run or [`Cpu::recycle`] to reuse a worker's
/// [`SimArena`] — and call [`Cpu::run`].
pub struct Cpu<'a> {
    config: Arc<MachineConfig>,
    source: &'a [DynInst],
    state: State<'a>,
}

impl<'a> Cpu<'a> {
    /// Builds a processor for `config` that will replay `program`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MachineConfig::validate`]).
    pub fn new(config: MachineConfig, program: &'a Program) -> Self {
        config.validate();
        let pipeline = Box::new(Pipeline::new(&config));
        Cpu {
            config: Arc::new(config),
            source: program.instructions(),
            state: State::Owned(pipeline),
        }
    }

    /// Builds a processor that replays `program` using `arena`'s pipeline, cleared in
    /// place with all capacity retained (built fresh only on the arena's first use).
    /// The configuration is shared by reference counting — no per-cell
    /// `MachineConfig` clone.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MachineConfig::validate`]).
    pub fn recycle(
        arena: &'a mut SimArena,
        config: &Arc<MachineConfig>,
        program: &'a Program,
    ) -> Self {
        config.validate();
        let pipeline = match &mut arena.pipeline {
            Some(p) => {
                p.reset(config);
                p
            }
            empty => empty.insert(Pipeline::new(config)),
        };
        Cpu {
            config: Arc::clone(config),
            source: program.instructions(),
            state: State::Borrowed(pipeline),
        }
    }

    /// Runs the program to completion and returns the collected statistics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation stops making forward progress (an internal invariant
    /// violation) or if a retired load's value disagrees with the sequential oracle
    /// (which would mean a verification mechanism — e.g. the SVW filter — was unsound).
    pub fn run(self) -> CpuStats {
        self.run_inner(None)
    }

    /// Runs the program to completion like [`Cpu::run`], reporting every committed
    /// instruction (and the final committed-memory image) to `obs`. The observer is
    /// read-only evidence plumbing: an observed run is cycle-for-cycle and
    /// byte-for-byte identical to an unobserved one.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Cpu::run`].
    pub fn run_observed(self, obs: &mut dyn CommitObserver) -> CpuStats {
        self.run_inner(Some(obs))
    }

    fn run_inner(mut self, mut obs: Option<&mut dyn CommitObserver>) -> CpuStats {
        let trace_len = self.source.len();
        let cycle_cap = 1_000 + trace_len as u64 * 300;
        let (config, source) = (&*self.config, self.source);
        let p = self.state.get_mut();
        while p.fetch_index < trace_len || !p.rob.is_empty() {
            p.step(config, source, &mut obs);
            if p.now >= cycle_cap {
                panic!(
                    "simulation exceeded {cycle_cap} cycles — forward-progress failure at {}",
                    p.stall_report(trace_len)
                );
            }
        }
        if let Some(obs) = obs {
            obs.on_finish(&p.committed_mem);
        }
        p.stats.cycles = p.now;
        p.stats.branch_predictor = *p.branch_pred.stats();
        p.stats.hierarchy = p.hierarchy.stats();
        p.stats.svw = *p.svw.stats();
        if let Some(buf) = &p.fwd_buf {
            p.stats.fwd_buffer_lookups = buf.lookups();
            p.stats.fwd_buffer_hits = buf.hits();
        }
        std::mem::take(&mut p.stats)
    }

    /// The collected statistics so far (useful for inspecting a partially run model in
    /// tests; [`Cpu::run`] returns the finalised statistics).
    pub fn stats(&self) -> &CpuStats {
        &self.state.get().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svw_core::SvwConfig;
    use svw_rle::ItConfig;
    use svw_workloads::WorkloadProfile;

    fn small_program(n: usize, seed: u64) -> Program {
        WorkloadProfile::quicktest().generate(n, seed)
    }

    fn conventional_baseline(name: &str) -> MachineConfig {
        MachineConfig::eight_wide(
            name,
            LsqOrganization::Conventional {
                extra_load_latency: 0,
                store_exec_bandwidth: 1,
            },
            ReexecMode::None,
        )
    }

    #[test]
    fn baseline_runs_to_completion_and_is_plausible() {
        let program = small_program(8_000, 1);
        let stats = Cpu::new(conventional_baseline("base"), &program).run();
        assert_eq!(stats.committed, program.len() as u64);
        assert!(stats.ipc() > 0.25, "ipc {}", stats.ipc());
        assert!(stats.ipc() <= 8.0);
        assert!(stats.loads_retired > 0);
        assert!(stats.stores_retired > 0);
        assert_eq!(stats.loads_marked, 0);
        assert_eq!(stats.loads_reexecuted, 0);
    }

    #[test]
    fn nlq_marks_only_a_subset_of_loads() {
        let program = small_program(8_000, 2);
        let cfg = MachineConfig::eight_wide(
            "nlq",
            LsqOrganization::Nlq {
                store_exec_bandwidth: 2,
            },
            ReexecMode::Full,
        );
        let stats = Cpu::new(cfg, &program).run();
        assert_eq!(stats.committed, program.len() as u64);
        assert!(stats.loads_marked > 0);
        assert!(
            stats.loads_marked < stats.loads_retired,
            "NLQ has a natural filter"
        );
        assert_eq!(stats.loads_reexecuted, stats.loads_marked);
    }

    #[test]
    fn svw_filters_most_nlq_reexecutions_and_preserves_correctness() {
        let program = small_program(8_000, 3);
        let full = Cpu::new(
            MachineConfig::eight_wide(
                "nlq-full",
                LsqOrganization::Nlq {
                    store_exec_bandwidth: 2,
                },
                ReexecMode::Full,
            ),
            &program,
        )
        .run();
        let svw = Cpu::new(
            MachineConfig::eight_wide(
                "nlq-svw",
                LsqOrganization::Nlq {
                    store_exec_bandwidth: 2,
                },
                ReexecMode::Svw(SvwConfig::paper_default()),
            ),
            &program,
        )
        .run();
        assert_eq!(svw.committed, program.len() as u64);
        assert!(svw.loads_reexecuted < full.loads_reexecuted);
        assert!(svw.loads_filtered > 0);
        assert_eq!(svw.loads_filtered + svw.loads_reexecuted, svw.loads_marked);
    }

    #[test]
    fn ssq_marks_every_load_and_svw_enables_it() {
        let program = small_program(8_000, 4);
        let ssq = LsqOrganization::Ssq {
            fsq_entries: 16,
            fwd_buffer_entries: 8,
            store_exec_bandwidth: 2,
        };
        let full = Cpu::new(
            MachineConfig::eight_wide("ssq-full", ssq, ReexecMode::Full),
            &program,
        )
        .run();
        assert_eq!(full.committed, program.len() as u64);
        assert_eq!(
            full.loads_marked, full.loads_retired,
            "SSQ has no natural filter"
        );
        let svw = Cpu::new(
            MachineConfig::eight_wide("ssq-svw", ssq, ReexecMode::Svw(SvwConfig::paper_default())),
            &program,
        )
        .run();
        assert_eq!(svw.committed, program.len() as u64);
        assert!(svw.loads_reexecuted < full.loads_reexecuted / 2);
        assert!(
            svw.ipc() >= full.ipc(),
            "filtering should not hurt performance"
        );
    }

    #[test]
    fn rle_eliminates_loads_and_verifies_them() {
        let program = small_program(8_000, 5);
        let base = MachineConfig::four_wide(
            "rle",
            LsqOrganization::Conventional {
                extra_load_latency: 0,
                store_exec_bandwidth: 1,
            },
            ReexecMode::Full,
        )
        .with_rle(ItConfig::paper_default());
        let stats = Cpu::new(base, &program).run();
        assert_eq!(stats.committed, program.len() as u64);
        assert!(stats.loads_eliminated > 0);
        assert!(stats.eliminations_reuse > 0);
        assert_eq!(stats.loads_marked, stats.loads_eliminated);
        assert!(stats.loads_reexecuted <= stats.loads_marked);
    }

    #[test]
    fn perfect_reexecution_never_slows_the_machine() {
        let program = small_program(6_000, 6);
        let ssq = LsqOrganization::Ssq {
            fsq_entries: 16,
            fwd_buffer_entries: 8,
            store_exec_bandwidth: 2,
        };
        let full = Cpu::new(
            MachineConfig::eight_wide("ssq-full", ssq, ReexecMode::Full),
            &program,
        )
        .run();
        let perfect = Cpu::new(
            MachineConfig::eight_wide("ssq-perfect", ssq, ReexecMode::Perfect),
            &program,
        )
        .run();
        assert!(perfect.ipc() >= full.ipc());
        assert_eq!(perfect.committed, full.committed);
    }

    #[test]
    fn wrap_drains_occur_with_narrow_ssns_and_results_stay_correct() {
        let program = small_program(6_000, 7);
        let mut svw_cfg = SvwConfig::paper_default();
        svw_cfg.ssn_width = svw_core::SsnWidth::Bits(8); // wrap every 256 stores
        let cfg = MachineConfig::eight_wide(
            "nlq-narrow-ssn",
            LsqOrganization::Nlq {
                store_exec_bandwidth: 2,
            },
            ReexecMode::Svw(svw_cfg),
        );
        let stats = Cpu::new(cfg, &program).run();
        assert_eq!(stats.committed, program.len() as u64);
        assert!(stats.wrap_drains > 0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let program = small_program(4_000, 8);
        let cfg = || {
            MachineConfig::eight_wide(
                "nlq-svw",
                LsqOrganization::Nlq {
                    store_exec_bandwidth: 2,
                },
                ReexecMode::Svw(SvwConfig::paper_default()),
            )
        };
        let a = Cpu::new(cfg(), &program).run();
        let b = Cpu::new(cfg(), &program).run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.loads_reexecuted, b.loads_reexecuted);
        assert_eq!(a.reexec_flushes, b.reexec_flushes);
    }

    /// The configuration families whose issue-stage special cases the wakeup
    /// proptest covers: conventional LQ (ordering flushes), NLQ (store-set waits,
    /// re-execution flushes), SSQ (the single FSQ port, forwarding replays), RLE
    /// (pre-issued eliminated loads), 8-bit SSNs (wrap drains), a narrow-issue
    /// machine at both model versions (the FP-budget early exit), a 1,500-cycle
    /// memory whose event wheel is eight times the default's, and a 200-entry ROB
    /// whose slot table (256) has slots no entry uses.
    fn wakeup_family(i: usize) -> MachineConfig {
        let nlq = LsqOrganization::Nlq {
            store_exec_bandwidth: 2,
        };
        let ssq = LsqOrganization::Ssq {
            fsq_entries: 16,
            fwd_buffer_entries: 8,
            store_exec_bandwidth: 2,
        };
        let svw = ReexecMode::Svw(SvwConfig::paper_default());
        let narrow = |version: u32| {
            let mut cfg = MachineConfig::eight_wide("narrow", nlq, svw).with_model_version(version);
            cfg.issue_int = 2;
            cfg.issue_load = 1;
            cfg.issue_store = 1;
            cfg.issue_branch = 1;
            cfg
        };
        match i {
            0 => conventional_baseline("conv"),
            1 => MachineConfig::eight_wide("nlq", nlq, ReexecMode::Full),
            2 => MachineConfig::eight_wide("nlq-svw", nlq, svw),
            3 => MachineConfig::eight_wide("ssq", ssq, ReexecMode::Full),
            4 => MachineConfig::eight_wide("ssq-svw", ssq, svw),
            5 => {
                let mut narrow_ssn = SvwConfig::paper_default();
                narrow_ssn.ssn_width = svw_core::SsnWidth::Bits(8);
                MachineConfig::eight_wide("ssq-ssn8", ssq, ReexecMode::Svw(narrow_ssn))
            }
            6 => MachineConfig::four_wide(
                "rle-svw",
                LsqOrganization::Conventional {
                    extra_load_latency: 0,
                    store_exec_bandwidth: 1,
                },
                svw,
            )
            .with_rle(ItConfig::paper_default()),
            7 => narrow(1),
            8 => narrow(2),
            9 => {
                let mut cfg = MachineConfig::eight_wide("ssq-svw-slow-memory", ssq, svw);
                cfg.hierarchy.memory_latency = 1_500;
                cfg
            }
            _ => {
                let mut cfg = MachineConfig::eight_wide("ssq-svw-rob200", ssq, svw);
                cfg.rob_size = 200;
                cfg
            }
        }
    }

    const WAKEUP_FAMILIES: usize = 11;

    #[test]
    #[should_panic(expected = "completion event for seq 7 at cycle 16 is outside the event wheel")]
    fn event_past_the_wheel_horizon_panics() {
        let mut wheel = EventWheel::default();
        wheel.reset(10); // 16 buckets: cycles 0..16
        wheel.push(15, 6);
        wheel.push(16, 7);
    }

    fn wakeup_workload(i: usize) -> WorkloadProfile {
        match i {
            0 => WorkloadProfile::quicktest(),
            1 => WorkloadProfile {
                name: "fp-mix".to_string(),
                fp_frac: 0.30,
                branch_frac: 0.10,
                dependence_density: 0.1,
                branch_entropy: 0.02,
                ..WorkloadProfile::quicktest()
            },
            _ => {
                let names = [
                    "gcc",
                    "vortex",
                    "adv.chain",
                    "adv.alias",
                    "adv.ssq",
                    "adv.storm",
                ];
                WorkloadProfile::by_name(names[i - 2]).expect("builtin workload")
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(36))]

        /// Random programs × every configuration family with the brute-force
        /// readiness reference (`Pipeline::check_ready_set`, active in every test
        /// build after every issue stage) comparing the wakeup state cycle by cycle:
        /// a lost, duplicated, or early wakeup panics naming the cycle and entry.
        /// Every marked load is also counted exactly once, as filtered or as
        /// re-executed, both at the SVW stage and at retirement; every
        /// elimination is a reuse or a bypass; a forwarding buffer hits at most
        /// once per lookup; and the direction predictor mispredicts no more
        /// often than the pipeline recovers from a mispredicted branch.
        #[test]
        fn wakeup_ready_set_matches_brute_force_readiness(
            seed in 0u64..1_000_000,
            workload in 0usize..8,
            family in 0usize..WAKEUP_FAMILIES
        ) {
            let program = wakeup_workload(workload).generate(1_500, seed);
            let stats = Cpu::new(wakeup_family(family), &program).run();
            proptest::prop_assert_eq!(stats.committed, program.len() as u64);
            let svw = &stats.svw;
            proptest::prop_assert_eq!(
                svw.marked_loads,
                svw.filtered_loads + svw.reexecuted_loads
            );
            proptest::prop_assert_eq!(
                stats.loads_marked,
                stats.loads_filtered + stats.loads_reexecuted
            );
            proptest::prop_assert_eq!(
                stats.loads_eliminated,
                stats.eliminations_reuse + stats.eliminations_bypass
            );
            proptest::prop_assert!(stats.fwd_buffer_hits <= stats.fwd_buffer_lookups);
            proptest::prop_assert!(
                stats.branch_predictor.mispredictions <= stats.branch_mispredictions
            );
        }
    }

    /// The forward-progress report names the ROB head and what it waits on. A
    /// pipeline stopped mid-run has an in-flight head; corrupting its pending count
    /// (a lost wakeup) must show up in the report.
    #[test]
    fn stall_report_names_the_rob_head_of_a_pipeline_stopped_mid_run() {
        let program = small_program(3_000, 9);
        let config = MachineConfig::eight_wide(
            "nlq-svw",
            LsqOrganization::Nlq {
                store_exec_bandwidth: 2,
            },
            ReexecMode::Svw(SvwConfig::paper_default()),
        );
        let mut cpu = Cpu::new(config, &program);
        let (config, source, p) = (&*cpu.config, cpu.source, cpu.state.get_mut());
        let mut obs = None;
        while p.now < 300 || p.rob.is_empty() {
            p.step(config, source, &mut obs);
        }
        let head = p.rob.front().expect("mid-run ROB is not empty").seq;
        let report = p.stall_report(program.len());
        assert!(
            report.starts_with(&format!("cycle {}, ", p.now)),
            "{report}"
        );
        assert!(
            report.contains(&format!("ROB head seq {head} (")),
            "{report}"
        );
        for field in [
            "issued=",
            "completed=",
            "pending=0",
            "held by producers []",
            "wait_store=",
            "rex=",
        ] {
            assert!(report.contains(field), "missing {field:?}: {report}");
        }

        p.rob.front_mut().expect("non-empty").pending = 1;
        assert!(p
            .stall_report(program.len())
            .contains("pending=1 held by producers []"));

        p.rob.reset(config.rob_size);
        let empty = p.stall_report(program.len());
        assert!(empty.contains("ROB empty: fetch index"), "{empty}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A recycled arena produces byte-identical results to fresh construction,
        /// whatever the arena simulated before: random workload seeds × every
        /// configuration family, after a random history of recycled cells (RLE↔
        /// non-RLE, SSQ↔NLQ and ROB-shape transitions that reshape the arena).
        #[test]
        fn recycled_arena_matches_fresh_construction_across_configs(
            seed in 0u64..1_000_000,
            workload in 0usize..8,
            family in 0usize..WAKEUP_FAMILIES,
            history in proptest::collection::vec(
                (0u64..1_000_000, 0usize..8, 0usize..WAKEUP_FAMILIES),
                0..4
            )
        ) {
            let mut arena = SimArena::new();
            for &(h_seed, h_workload, h_family) in &history {
                let program = wakeup_workload(h_workload).generate(1_000, h_seed);
                let cfg = Arc::new(wakeup_family(h_family));
                Cpu::recycle(&mut arena, &cfg, &program).run();
            }
            let program = wakeup_workload(workload).generate(1_500, seed);
            let cfg = wakeup_family(family);
            let fresh = Cpu::new(cfg.clone(), &program).run();
            let recycled = Cpu::recycle(&mut arena, &Arc::new(cfg), &program).run();
            proptest::prop_assert_eq!(format!("{fresh:?}"), format!("{recycled:?}"));
        }
    }
}

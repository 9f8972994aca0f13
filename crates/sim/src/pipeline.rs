//! The block-graph streaming runtime behind the engine.
//!
//! DESIGN.md §14: one run is executed as a small dataflow graph — per
//! node a TX front-end block ([`anc_node::TxFrontEndBlock`]), a medium
//! mixer ([`anc_channel::MediumBlock`]) and a crate-private decode
//! block (`DecodeBlock`) — connected by fixed-capacity SPSC rings and
//! driven by a pluggable [`anc_runtime::Scheduler`]. The engine's slot
//! loop stays the sequential *controller*: it resolves everything
//! stateful (RNG draws, queue state, metric mutations) in intent
//! order, ships pure jobs into the rings, and folds outcomes back in
//! intent order. Because every block computes a pure function of its
//! ring traffic and per-node rings are FIFO, the deterministic and
//! work-stealing executors produce bit-identical [`RunMetrics`]
//! (pinned by the golden suites and a scheduler-equivalence proptest).
//!
//! [`RunMetrics`]: crate::metrics::RunMetrics

use crate::engine::EngineError;
use anc_channel::{MediumBlock, WindowJob};
use anc_core::DecoderScratch;
use anc_dsp::Cplx;
use anc_frame::{Frame, NodeId};
use anc_netcode::CopeCoder;
use anc_node::phy::RxEvent;
use anc_node::{Node, SynthJob, TxFrontEndBlock};
use anc_runtime::{
    channel, Block, BlockStatus, Consumer, Controller, DeterministicScheduler, Producer, Pump,
    Scheduler, WorkStealingScheduler,
};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Which executor runs the block graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Everything inline on the calling thread, blocks polled in
    /// insertion order — the bit-reproducible reference executor (and
    /// the right choice inside an already-parallel Monte Carlo pool).
    /// Also the deadlock oracle: a wired-graph stall surfaces as
    /// [`EngineError::PipelineStalled`] instead of a hang.
    Deterministic,
    /// Scoped worker threads steal block polls so one run pipelines
    /// across cores. Produces bit-identical metrics (blocks are pure
    /// functions of FIFO ring traffic).
    WorkStealing {
        /// Total threads, including the controller's; clamped to ≥ 1.
        workers: usize,
    },
}

/// How the engine executes a run: which scheduler and how deep the
/// inter-block rings are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerSpec {
    /// The executor.
    pub mode: SchedMode,
    /// Ring capacity between blocks (clamped to ≥ 1). Deeper rings
    /// admit more in-flight overlap per slot; capacity 1 is valid and
    /// exercised by the equivalence proptest.
    pub capacity: usize,
}

impl Default for SchedulerSpec {
    fn default() -> Self {
        SchedulerSpec {
            mode: SchedMode::Deterministic,
            capacity: 8,
        }
    }
}

impl SchedulerSpec {
    /// The inline, bit-reproducible reference executor.
    pub fn deterministic() -> Self {
        SchedulerSpec::default()
    }

    /// A work-stealing executor with `workers` total threads.
    pub fn work_stealing(workers: usize) -> Self {
        SchedulerSpec {
            mode: SchedMode::WorkStealing { workers },
            ..SchedulerSpec::default()
        }
    }

    /// Runs `controller` alongside `blocks` on the executor this spec
    /// selects — the one dispatch point shared by every block-graph
    /// client (the engine's per-node pipeline, the city engine's
    /// per-region groups), so mode matching lives in exactly one place.
    pub fn run_blocks<'env, R>(
        &self,
        blocks: Vec<Box<dyn Block + 'env>>,
        controller: Controller<'env, R>,
    ) -> R {
        match self.mode {
            SchedMode::Deterministic => DeterministicScheduler.run(blocks, controller),
            SchedMode::WorkStealing { workers } => {
                WorkStealingScheduler::new(workers).run(blocks, controller)
            }
        }
    }
}

/// Reusable per-run scratch owned by the caller: warmed decoder
/// working memory loaned into the engine's nodes for the duration of a
/// run (in `node_ids` order) and taken back after, grown. Feeding many
/// runs through one `RunCtx` amortizes decode allocations across
/// *trials*.
///
/// Scratch contents never affect decode output (pinned by the sim's
/// equivalence tests); only where the buffers' capacity lives.
#[derive(Debug, Default)]
pub struct RunCtx {
    pub(crate) scratches: Vec<DecoderScratch>,
}

/// The engine's nodes, parked in `Mutex` cells so decode blocks can
/// borrow them from worker threads while the controller keeps mutable
/// access to everything else. Per-node access is exclusive; the
/// slot-end fold barrier orders cross-thread handoffs.
#[derive(Debug, Default)]
pub(crate) struct NodePark {
    cells: Vec<Mutex<Node>>,
    index: HashMap<NodeId, usize>,
}

impl NodePark {
    pub(crate) fn new(nodes: Vec<(NodeId, Node)>) -> Self {
        let index = nodes
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i))
            .collect();
        NodePark {
            cells: nodes.into_iter().map(|(_, n)| Mutex::new(n)).collect(),
            index,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    pub(crate) fn index_of(&self, id: NodeId) -> Result<usize, EngineError> {
        self.index
            .get(&id)
            .copied()
            .ok_or(EngineError::NodeMissing(id))
    }

    /// Locks a node cell by index. Poisoning cannot leave node state
    /// half-written (poll panics unwind out of the engine anyway), so
    /// a poisoned lock is recovered rather than propagated.
    pub(crate) fn lock_at(&self, i: usize) -> MutexGuard<'_, Node> {
        self.cells[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn lock(&self, id: NodeId) -> Result<MutexGuard<'_, Node>, EngineError> {
        Ok(self.lock_at(self.index_of(id)?))
    }
}

/// What a decode block should do with its next reception window —
/// resolved by the engine in intent order and shipped ahead of the
/// window itself.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RxWork {
    /// Standard receiver poll; the outcome is folded by the engine.
    Poll,
    /// Router mixture capture: on a relay detection, hand back the
    /// window copy and packet region (§7.5).
    Capture,
    /// COPE downlink: poll, and XOR-decode against the node's own
    /// sent-packet buffer when a clean XOR frame lands.
    Cope,
    /// Promiscuous overhearing (§11.5): decode leniently, buffer the
    /// frame, report success.
    Overhear,
}

/// A decode block's outcome, matched one-to-one with the [`RxWork`]
/// kind that requested it.
#[derive(Debug)]
pub(crate) enum RxDone {
    /// The receiver's poll event, for the engine to account.
    Evt(RxEvent),
    /// Captured mixture window and packet region, if the relay
    /// detection succeeded.
    Capture(Option<(Vec<Cplx>, usize, usize)>),
    /// The XOR-decoded native frame, if any.
    Cope(Option<Frame>),
    /// Whether the overhear decoded a frame.
    Heard(bool),
}

/// One receiver's decode stage: pops `(tag, window)` pairs mixed by
/// its [`MediumBlock`], pops the matching [`RxWork`] meta, runs the
/// node's RX chain under the park lock, and pushes `(tag, outcome)`.
/// Spent windows return to the mixer through the recycle ring
/// (best-effort: dropped when the pool is full).
pub(crate) struct DecodeBlock<'env> {
    park: &'env NodePark,
    node_idx: usize,
    meta: Consumer<RxWork>,
    windows: Consumer<(u64, Vec<Cplx>)>,
    done: Producer<(u64, RxDone)>,
    recycle: Producer<Vec<Cplx>>,
    staged: Option<(u64, RxDone)>,
    pending_meta: Option<RxWork>,
}

/// Runs one unit of RX work against a locked node — the exact decode
/// calls of the engine's serial path, minus the accounting (which the
/// engine folds in intent order).
fn run_rx_work(node: &mut Node, work: RxWork, window: &[Cplx]) -> RxDone {
    match work {
        RxWork::Poll => RxDone::Evt(node.poll(window)),
        RxWork::Capture => match node.poll(window) {
            RxEvent::Relay { start, end, .. } => {
                RxDone::Capture(Some((window.to_vec(), start, end)))
            }
            _ => RxDone::Capture(None),
        },
        RxWork::Cope => {
            let decoded = match node.poll(window) {
                RxEvent::Clean { frame, .. } if frame.header.is_xor() => {
                    CopeCoder.decode(&frame, &node.buffer).ok()
                }
                _ => None,
            };
            RxDone::Cope(decoded)
        }
        RxWork::Overhear => RxDone::Heard(node.try_overhear(window).is_some()),
    }
}

impl Block for DecodeBlock<'_> {
    fn name(&self) -> &str {
        "decode"
    }

    fn poll(&mut self) -> BlockStatus {
        let mut progressed = false;
        loop {
            if let Some(out) = self.staged.take() {
                match self.done.try_push(out) {
                    Ok(()) => progressed = true,
                    Err(out) => {
                        self.staged = Some(out);
                        break;
                    }
                }
            }
            if self.pending_meta.is_none() {
                self.pending_meta = self.meta.try_pop();
            }
            if self.pending_meta.is_none() {
                break;
            }
            let Some((tag, window)) = self.windows.try_pop() else {
                break;
            };
            let Some(work) = self.pending_meta.take() else {
                break;
            };
            let done = run_rx_work(&mut self.park.lock_at(self.node_idx), work, &window);
            let _ = self.recycle.try_push(window);
            self.staged = Some((tag, done));
        }
        if progressed {
            BlockStatus::Progress
        } else {
            BlockStatus::Idle
        }
    }
}

/// The engine's handle on one sender's synthesis chain.
pub(crate) struct TxPort {
    pub(crate) jobs: Producer<SynthJob>,
    pub(crate) waves: Consumer<Vec<Cplx>>,
}

/// The engine's handle on one receiver's mix-and-decode chain.
pub(crate) struct RxPort {
    pub(crate) meta: Producer<RxWork>,
    pub(crate) jobs: Producer<WindowJob>,
    pub(crate) done: Consumer<(u64, RxDone)>,
}

/// All ring endpoints the controller holds, indexed by park order.
pub(crate) struct GraphPorts {
    pub(crate) tx: Vec<TxPort>,
    pub(crate) rx: Vec<RxPort>,
}

/// The controller-side context threaded through the engine's slot
/// loop: the parked nodes, the graph's ring endpoints, and the
/// scheduler's pump for driving progress while a ring blocks.
pub(crate) struct SlotDriver<'a, 'env> {
    pub(crate) park: &'env NodePark,
    pub(crate) ports: &'a mut GraphPorts,
    pub(crate) pump: &'a mut dyn Pump,
}

/// Builds the per-node block graph over parked nodes: for node `i` a
/// TX front-end block (cloned chain + copied front end), a medium
/// mixer, and a decode block borrowing the park, wired with
/// `capacity`-deep rings. The window recycle pool is pre-seeded so
/// steady-state slots allocate nothing.
pub(crate) fn build_graph(
    park: &NodePark,
    capacity: usize,
) -> (Vec<Box<dyn Block + '_>>, GraphPorts) {
    let capacity = capacity.max(1);
    let n = park.len();
    let mut blocks: Vec<Box<dyn Block + '_>> = Vec::with_capacity(3 * n);
    let mut tx = Vec::with_capacity(n);
    let mut rx = Vec::with_capacity(n);
    for i in 0..n {
        let (chain, front_end) = {
            let node = park.lock_at(i);
            (node.tx_chain().clone(), node.front_end)
        };
        let (jobs, jobs_in) = channel(capacity);
        let (waves_out, waves) = channel(capacity);
        blocks.push(Box::new(TxFrontEndBlock::new(
            chain, front_end, jobs_in, waves_out,
        )));
        let (wjobs, wjobs_in) = channel(capacity);
        let (mut pool, pool_out) = channel(capacity);
        for _ in 0..capacity {
            let _ = pool.try_push(Vec::new());
        }
        let (mixed_out, mixed) = channel(capacity);
        let (meta, meta_in) = channel(capacity);
        let (done_out, done) = channel(capacity);
        blocks.push(Box::new(MediumBlock::new(wjobs_in, pool_out, mixed_out)));
        blocks.push(Box::new(DecodeBlock {
            park,
            node_idx: i,
            meta: meta_in,
            windows: mixed,
            done: done_out,
            recycle: pool,
            staged: None,
            pending_meta: None,
        }));
        tx.push(TxPort { jobs, waves });
        rx.push(RxPort {
            meta,
            jobs: wjobs,
            done,
        });
    }
    (blocks, GraphPorts { tx, rx })
}

/// Pushes into a ring, pumping the graph while it is full. A
/// deterministic pump reporting no possible progress is a wired-graph
/// deadlock, surfaced as [`EngineError::PipelineStalled`] (after one
/// final retry, since the controller itself may have freed space).
pub(crate) fn wait_push<T>(
    ring: &mut Producer<T>,
    mut value: T,
    pump: &mut dyn Pump,
) -> Result<(), EngineError> {
    loop {
        match ring.try_push(value) {
            Ok(()) => return Ok(()),
            Err(back) => {
                value = back;
                if !pump.pump() {
                    return match ring.try_push(value) {
                        Ok(()) => Ok(()),
                        Err(_) => Err(EngineError::PipelineStalled),
                    };
                }
            }
        }
    }
}

/// Pops from a ring, pumping the graph while it is empty. See
/// [`wait_push`] for the stall contract.
pub(crate) fn wait_pop<T>(ring: &mut Consumer<T>, pump: &mut dyn Pump) -> Result<T, EngineError> {
    loop {
        if let Some(v) = ring.try_pop() {
            return Ok(v);
        }
        if !pump.pump() {
            return ring.try_pop().ok_or(EngineError::PipelineStalled);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anc_node::{NodeConfig, NodeRole};

    fn park_of(n: usize) -> NodePark {
        let nodes = (0..n as NodeId)
            .map(|id| {
                let mut cfg = NodeConfig::new(id, NodeRole::Endpoint);
                cfg.samples_per_symbol = 1;
                (id, Node::new(cfg, anc_dsp::DspRng::seed_from(id as u64)))
            })
            .collect();
        NodePark::new(nodes)
    }

    #[test]
    fn park_indexes_by_node_id() {
        let park = park_of(3);
        assert_eq!(park.len(), 3);
        assert_eq!(park.index_of(2).unwrap(), 2);
        assert!(matches!(park.index_of(9), Err(EngineError::NodeMissing(9))));
        assert_eq!(park.lock(1).unwrap().id, 1);
    }

    #[test]
    fn graph_has_three_blocks_per_node() {
        let park = park_of(2);
        let (blocks, ports) = build_graph(&park, 4);
        assert_eq!(blocks.len(), 6);
        assert_eq!(ports.tx.len(), 2);
        assert_eq!(ports.rx.len(), 2);
    }

    #[test]
    fn wait_helpers_surface_stalls() {
        struct DeadPump;
        impl Pump for DeadPump {
            fn pump(&mut self) -> bool {
                false
            }
        }
        let (mut p, mut c) = channel::<u32>(1);
        p.try_push(1).unwrap();
        assert_eq!(
            wait_push(&mut p, 2, &mut DeadPump),
            Err(EngineError::PipelineStalled)
        );
        assert_eq!(wait_pop(&mut c, &mut DeadPump), Ok(1));
        assert_eq!(
            wait_pop(&mut c, &mut DeadPump),
            Err(EngineError::PipelineStalled)
        );
    }
}

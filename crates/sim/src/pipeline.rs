//! The block-graph streaming runtime behind the engine.
//!
//! DESIGN.md §14: one run is executed as a small dataflow graph — one
//! `NodeBlock` per node, like the paper's one radio per node, joined
//! to the controller by a job ring and an output ring of fixed
//! capacity and driven by a pluggable [`anc_runtime::Scheduler`]. A
//! node block synthesizes its node's transmissions
//! ([`anc_node::synthesize`]) and mixes and decodes its receptions
//! ([`anc_channel::mix_window`], then the node's RX chain). The
//! engine's slot loop stays the sequential *controller*: it resolves
//! everything stateful (RNG draws, queue state, metric mutations) in
//! intent order, ships pure jobs into the rings, and folds outputs
//! back in intent order. Overlap comes from running different nodes'
//! blocks at once — within one node the controller never has a
//! transmission and a reception, or two receptions, in flight
//! together. Because every block computes a pure function of its ring
//! traffic and per-node rings are FIFO, the deterministic and
//! work-stealing executors produce bit-identical [`RunMetrics`]
//! (pinned by the golden suites and a scheduler-equivalence proptest).
//!
//! [`RunMetrics`]: crate::metrics::RunMetrics

use crate::engine::EngineError;
use anc_channel::{mix_window, WindowJob};
use anc_core::DecoderScratch;
use anc_dsp::Cplx;
use anc_frame::{Frame, NodeId};
use anc_netcode::CopeCoder;
use anc_node::phy::RxEvent;
use anc_node::{synthesize, Node, SynthJob};
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
    /// Capacity of the rings between the controller and each block
    /// (clamped to ≥ 1). Deeper rings admit more in-flight overlap per
    /// slot; capacity 1 is valid and exercised by the equivalence
    /// proptest.
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
    /// client (the engine's per-node blocks, the city engine's
    /// per-region blocks), so mode matching lives in exactly one place.
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

/// The engine's nodes, parked in `Mutex` cells so node blocks can
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

/// What a node block should do with a reception window once it is
/// mixed — resolved by the engine in intent order and shipped with
/// the window's job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

impl RxWork {
    /// Short name, for desynchronization errors.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RxWork::Poll => "poll",
            RxWork::Capture => "capture",
            RxWork::Cope => "cope",
            RxWork::Overhear => "overhear",
        }
    }
}

/// A node block's RX outcome, matched one-to-one with the [`RxWork`]
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

impl RxDone {
    /// The [`RxWork`] kind this outcome answers.
    pub(crate) fn work(&self) -> RxWork {
        match self {
            RxDone::Evt(_) => RxWork::Poll,
            RxDone::Capture(_) => RxWork::Capture,
            RxDone::Cope(_) => RxWork::Cope,
            RxDone::Heard(_) => RxWork::Overhear,
        }
    }
}

/// One job for a node block.
pub(crate) enum NodeJob {
    /// Synthesize a transmission.
    Tx(SynthJob),
    /// Mix a reception window, then run the RX work over it.
    Rx(RxWork, WindowJob),
}

/// A node block's output, in job order.
#[derive(Debug)]
pub(crate) enum NodeOut {
    /// The synthesized waveform of a [`NodeJob::Tx`].
    Wave(Vec<Cplx>),
    /// The window's tag and RX outcome of a [`NodeJob::Rx`].
    Done(u64, RxDone),
}

impl NodeOut {
    /// Short name of the output's kind, for desynchronization errors.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            NodeOut::Wave(_) => "wave",
            NodeOut::Done(_, done) => done.work().name(),
        }
    }
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

/// One node's radio as a block: pops [`NodeJob`]s and pushes one
/// [`NodeOut`] per job, in order. The node itself stays in the park
/// and is locked per job; reception windows are mixed into a buffer
/// the block owns, so steady-state windows allocate nothing. The
/// staged-output slot makes backpressure safe: an output that does
/// not fit its ring is retried before the next job is popped.
pub(crate) struct NodeBlock<'env> {
    park: &'env NodePark,
    idx: usize,
    job: Consumer<NodeJob>,
    out: Producer<NodeOut>,
    staged: Option<NodeOut>,
    window: Vec<Cplx>,
}

impl NodeBlock<'_> {
    fn run(&mut self, job: NodeJob) -> NodeOut {
        match job {
            NodeJob::Tx(job) => {
                let node = self.park.lock_at(self.idx);
                NodeOut::Wave(synthesize(node.tx_chain(), &node.front_end, job))
            }
            NodeJob::Rx(work, job) => {
                let tag = job.tag;
                mix_window(job, &mut self.window);
                let mut node = self.park.lock_at(self.idx);
                NodeOut::Done(tag, run_rx_work(&mut node, work, &self.window))
            }
        }
    }
}

impl Block for NodeBlock<'_> {
    fn name(&self) -> &str {
        "node"
    }

    fn poll(&mut self) -> BlockStatus {
        let mut progressed = false;
        loop {
            if let Some(out) = self.staged.take() {
                if let Err(out) = self.out.try_push(out) {
                    self.staged = Some(out);
                    break;
                }
                progressed = true;
            }
            let Some(job) = self.job.try_pop() else {
                break;
            };
            self.staged = Some(self.run(job));
        }
        if progressed {
            BlockStatus::Progress
        } else {
            BlockStatus::Idle
        }
    }
}

/// The controller's handle on one node's block.
pub(crate) struct NodePort {
    pub(crate) job: Producer<NodeJob>,
    pub(crate) out: Consumer<NodeOut>,
}

/// The controller-side context threaded through the engine's slot
/// loop: the parked nodes, one port per node (park order), and the
/// scheduler's pump for driving progress while a ring blocks.
pub(crate) struct SlotDriver<'a, 'env> {
    pub(crate) park: &'env NodePark,
    pub(crate) ports: &'a mut [NodePort],
    pub(crate) pump: &'a mut dyn Pump,
}

/// Builds the block graph over parked nodes: one [`NodeBlock`] per
/// node, in park order, each wired to the controller with a
/// `capacity`-deep job ring and output ring.
pub(crate) fn build_graph(
    park: &NodePark,
    capacity: usize,
) -> (Vec<Box<dyn Block + '_>>, Vec<NodePort>) {
    let capacity = capacity.max(1);
    let n = park.len();
    let mut blocks: Vec<Box<dyn Block + '_>> = Vec::with_capacity(n);
    let mut ports = Vec::with_capacity(n);
    for idx in 0..n {
        let (job, job_in) = channel(capacity);
        let (out_tx, out) = channel(capacity);
        blocks.push(Box::new(NodeBlock {
            park,
            idx,
            job: job_in,
            out: out_tx,
            staged: None,
            window: Vec::new(),
        }));
        ports.push(NodePort { job, out });
    }
    (blocks, ports)
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
                let cfg = NodeConfig::new(id, NodeRole::Endpoint);
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
    fn graph_has_one_block_per_node() {
        let park = park_of(2);
        let (blocks, ports) = build_graph(&park, 4);
        assert_eq!(blocks.len(), 2);
        assert_eq!(ports.len(), 2);
    }

    fn bits_of(wave: &[Cplx]) -> Vec<(u64, u64)> {
        wave.iter()
            .map(|s| (s.re.to_bits(), s.im.to_bits()))
            .collect()
    }

    /// A TX job for node 0 and an RX job whose window carries node 1's
    /// frame, plus what the block must answer to each.
    fn tx_then_rx(park: &NodePark) -> (SynthJob, WindowJob, Vec<Cplx>, String) {
        use anc_channel::Link;
        use anc_frame::Header;
        use anc_node::SynthSource;
        let job = |src: NodeId, dst: NodeId| SynthJob {
            source: SynthSource::Frame(Frame::new(
                Header::new(src, dst, 1, 0),
                vec![true, false, true, true, false, false, true, false],
            )),
            carrier_phase: 0.4,
            cfo: 0.0,
        };
        let tx = job(0, 1);
        let (wave, other) = {
            let n0 = park.lock_at(0);
            let n1 = park.lock_at(1);
            (
                synthesize(n0.tx_chain(), &n0.front_end, tx.clone()),
                synthesize(n1.tx_chain(), &n1.front_end, job(1, 0)),
            )
        };
        let rx = WindowJob {
            duration: other.len() + 128,
            noise_power: 1e-4,
            noise: anc_dsp::DspRng::seed_from(5),
            transmissions: vec![(std::sync::Arc::new(other), 64, Link::new(0.8, 0.2, 0.0))],
            tones: Vec::new(),
            jammer: None,
            tag: 3,
        };
        // The reference receiver is an identical, separately built
        // node 0, polled on the inline mix of the same job.
        let mut window = Vec::new();
        mix_window(rx.clone(), &mut window);
        let evt = park_of(1).lock_at(0).poll(&window);
        assert!(matches!(evt, RxEvent::Clean { crc_ok: true, .. }));
        (tx, rx, wave, format!("{evt:?}"))
    }

    #[test]
    fn node_block_answers_jobs_in_fifo_order_bit_identically() {
        let park = park_of(2);
        let (tx, rx, wave, evt) = tx_then_rx(&park);
        let (mut blocks, mut ports) = build_graph(&park, 4);
        let port = &mut ports[0];
        assert!(port.job.try_push(NodeJob::Tx(tx)).is_ok());
        assert!(port.job.try_push(NodeJob::Rx(RxWork::Poll, rx)).is_ok());
        assert_eq!(blocks[0].poll(), BlockStatus::Progress);
        let Some(NodeOut::Wave(got)) = port.out.try_pop() else {
            panic!("the TX job answers first");
        };
        assert_eq!(bits_of(&got), bits_of(&wave));
        let Some(NodeOut::Done(3, RxDone::Evt(got))) = port.out.try_pop() else {
            panic!("the RX job answers second, with its tag");
        };
        assert_eq!(format!("{got:?}"), evt);
        assert!(port.out.try_pop().is_none());
    }

    #[test]
    fn node_block_retries_a_staged_output_at_capacity_one() {
        let park = park_of(2);
        let (tx, rx, wave, evt) = tx_then_rx(&park);
        let (mut blocks, mut ports) = build_graph(&park, 1);
        let port = &mut ports[0];
        assert!(port.job.try_push(NodeJob::Tx(tx)).is_ok());
        assert_eq!(blocks[0].poll(), BlockStatus::Progress);
        assert!(port.job.try_push(NodeJob::Rx(RxWork::Poll, rx)).is_ok());
        // The output ring still holds the wave: the RX outcome is
        // computed but stays staged.
        assert_eq!(blocks[0].poll(), BlockStatus::Idle);
        let Some(NodeOut::Wave(got)) = port.out.try_pop() else {
            panic!("wave first");
        };
        assert_eq!(bits_of(&got), bits_of(&wave));
        assert!(port.out.try_pop().is_none());
        assert_eq!(blocks[0].poll(), BlockStatus::Progress);
        let Some(NodeOut::Done(3, RxDone::Evt(got))) = port.out.try_pop() else {
            panic!("staged outcome delivered on retry");
        };
        assert_eq!(format!("{got:?}"), evt);
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

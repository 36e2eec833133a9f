//! The discrete-event store-and-forward engine.

use cubemesh_obs as obs;
use cubemesh_topology::Hypercube;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;

/// One message: a fixed path of cube nodes (length ≥ 1) and a size in
/// flits. A path of length 1 delivers instantly (source = destination).
#[derive(Clone, Debug)]
pub struct Message {
    /// Node path, consecutive nodes cube-adjacent.
    pub path: Vec<u64>,
    /// Payload size in flits; each hop occupies its link for `size`
    /// cycles (store-and-forward).
    pub size: u32,
    /// Injection time.
    pub start: u64,
}

impl Message {
    /// A message over `path` of `size` flits injected at cycle 0.
    pub fn new(path: Vec<u64>, size: u32) -> Self {
        Message {
            path,
            size,
            start: 0,
        }
    }

    /// A message over `path` of `size` flits injected at cycle `start`.
    pub fn at(start: u64, path: Vec<u64>, size: u32) -> Self {
        Message { path, size, start }
    }
}

/// Aggregate results of one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct SimResult {
    /// Cycle at which the last message arrived.
    pub makespan: u64,
    /// Σ over messages of hops · size (total link-cycles consumed).
    pub total_link_cycles: u64,
    /// Mean message latency (arrival − injection).
    pub avg_latency: f64,
    /// Busiest single link's total occupied cycles.
    pub max_link_cycles: u64,
    /// Number of messages delivered.
    pub delivered: usize,
    /// High-water mark of messages queued behind one link (the count of
    /// whole messages ahead of a requester, including the current link
    /// holder; 0 = no message ever waited).
    pub max_queue_depth: u64,
    /// Largest single-message latency (arrival − injection).
    pub max_latency: u64,
}

impl SimResult {
    /// Serialize as a single-line JSON object (stable field names; used by
    /// the CLI `simulate` command and `figures netsim`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"makespan\":{},\"total_link_cycles\":{},\"avg_latency\":{:.6},\
             \"max_link_cycles\":{},\"delivered\":{},\"max_queue_depth\":{},\
             \"max_latency\":{}}}",
            self.makespan,
            self.total_link_cycles,
            self.avg_latency,
            self.max_link_cycles,
            self.delivered,
            self.max_queue_depth,
            self.max_latency,
        )
    }
}

/// Switching discipline for [`simulate_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Switching {
    /// Store-and-forward: a message is received whole before the next hop
    /// begins; each hop occupies its link for `size` cycles and the
    /// per-hop latency is `size`.
    #[default]
    StoreAndForward,
    /// Virtual cut-through: the header advances one cycle after arriving
    /// at a free link, with the body pipelining behind it, so an
    /// uncontended `h`-hop message takes `h + size` cycles instead of
    /// `h · size`. Each link is still occupied for `size` cycles.
    CutThrough,
}

/// Why a streamed simulation could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// [`simulate_trace`] requires its injection stream in nondecreasing
    /// `start` order (bounded-memory streaming cannot admit a message
    /// whose injection time is already in the simulated past).
    UnsortedInjection {
        /// The offending message's injection time.
        at: u64,
        /// The latest injection time already admitted.
        prev: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnsortedInjection { at, prev } => write!(
                f,
                "injection stream is not sorted by start time: {at} after {prev}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Engine hooks for per-event analytics (the replay subsystem's windowed
/// observers). Every callback has an empty default body, so an observer
/// implements only what it needs; [`NullObserver`] implements nothing and
/// compiles away.
pub trait SimObserver {
    /// Message `id` entered the network at its `start` cycle.
    fn on_inject(&mut self, _id: usize, _msg: &Message) {}
    /// A message requested `link` at cycle `at` and found `depth` whole
    /// messages still ahead of it (including the current link holder).
    fn on_wait(&mut self, _link: u64, _at: u64, _depth: u64) {}
    /// Message `id` acquired `link`, occupying it for `[begin, end)`.
    fn on_acquire(&mut self, _id: usize, _msg: &Message, _link: u64, _begin: u64, _end: u64) {}
    /// Message `id` arrived at its destination at cycle `arrival`.
    fn on_deliver(&mut self, _id: usize, _msg: &Message, _arrival: u64) {}
}

/// The do-nothing observer behind [`simulate_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// Run the store-and-forward simulation to completion.
///
/// Links are directed (one per direction of each cube edge); a contended
/// link serves requests in arrival order (ties broken by message id, which
/// keeps the simulation deterministic).
pub fn simulate(host: Hypercube, messages: &[Message]) -> SimResult {
    simulate_with(host, messages, Switching::StoreAndForward)
}

/// Run the simulation under the given switching discipline.
pub fn simulate_with(host: Hypercube, messages: &[Message], switching: Switching) -> SimResult {
    simulate_observed(host, messages, switching, &mut NullObserver)
}

/// [`simulate_with`] with engine hooks: every injection, link wait, link
/// acquisition and delivery is reported to `observer`.
pub fn simulate_observed(
    host: Hypercube,
    messages: &[Message],
    switching: Switching,
    observer: &mut dyn SimObserver,
) -> SimResult {
    let mut source = SliceSource::new(messages);
    // SliceSource::admit is infallible; drive only surfaces source errors,
    // so the default is dead but costs nothing to handle.
    drive(host, &mut source, switching, observer).unwrap_or_default()
}

/// Run the simulation over an *injection stream* sorted by `start`:
/// messages are admitted to the engine only when simulated time reaches
/// them, and a delivered message's path buffer is freed immediately, so a
/// long trace never holds more state than its in-flight window (plus the
/// per-message latency bookkeeping).
///
/// Returns [`SimError::UnsortedInjection`] if the stream yields a message
/// whose `start` precedes one already admitted.
pub fn simulate_trace<I>(
    host: Hypercube,
    events: I,
    switching: Switching,
    observer: &mut dyn SimObserver,
) -> Result<SimResult, SimError>
where
    I: IntoIterator<Item = Message>,
{
    let mut source = StreamSource {
        pending: events.into_iter().peekable(),
        store: Vec::new(),
        last_start: 0,
    };
    drive(host, &mut source, switching, observer)
}

/// Where the driver gets its messages. Ids are dense and stable; the
/// driver only ever reads a message between `admit` and `done`.
trait Source {
    /// Injection time of the next not-yet-admitted message, if any.
    fn peek_start(&mut self) -> Option<u64>;
    /// Admit the next pending message, returning its id.
    fn admit(&mut self) -> Result<usize, SimError>;
    /// The admitted message `id`.
    fn msg(&self, id: usize) -> &Message;
    /// Message `id` was delivered; its path may be released.
    fn done(&mut self, id: usize);
}

/// Batch source over a borrowed slice. Admission happens in `(start, id)`
/// order via an index sort, so the streamed driver reproduces the classic
/// all-up-front heap contents exactly, for slices in any order.
struct SliceSource<'a> {
    messages: &'a [Message],
    order: Vec<u32>,
    cursor: usize,
}

impl<'a> SliceSource<'a> {
    fn new(messages: &'a [Message]) -> Self {
        let mut order: Vec<u32> = (0..messages.len() as u32).collect();
        order.sort_by_key(|&i| (messages[i as usize].start, i));
        SliceSource {
            messages,
            order,
            cursor: 0,
        }
    }
}

impl Source for SliceSource<'_> {
    fn peek_start(&mut self) -> Option<u64> {
        self.order
            .get(self.cursor)
            .map(|&i| self.messages[i as usize].start)
    }

    fn admit(&mut self) -> Result<usize, SimError> {
        let id = self.order[self.cursor] as usize;
        self.cursor += 1;
        Ok(id)
    }

    fn msg(&self, id: usize) -> &Message {
        &self.messages[id]
    }

    fn done(&mut self, _id: usize) {}
}

/// Streaming source: pulls messages lazily, owns them while in flight,
/// and frees a message's path on delivery.
struct StreamSource<I: Iterator<Item = Message>> {
    pending: std::iter::Peekable<I>,
    store: Vec<Message>,
    last_start: u64,
}

impl<I: Iterator<Item = Message>> Source for StreamSource<I> {
    fn peek_start(&mut self) -> Option<u64> {
        self.pending.peek().map(|m| m.start)
    }

    fn admit(&mut self) -> Result<usize, SimError> {
        // peek_start returned Some, so the iterator has a next item.
        let Some(m) = self.pending.next() else {
            return Err(SimError::UnsortedInjection { at: 0, prev: 0 });
        };
        if m.start < self.last_start {
            return Err(SimError::UnsortedInjection {
                at: m.start,
                prev: self.last_start,
            });
        }
        self.last_start = m.start;
        self.store.push(m);
        Ok(self.store.len() - 1)
    }

    fn msg(&self, id: usize) -> &Message {
        &self.store[id]
    }

    fn done(&mut self, id: usize) {
        // Keep `start`/`size` (cheap) but free the path buffer: the
        // in-flight window is what bounds a long trace's memory.
        self.store[id].path = Vec::new();
    }
}

/// The event loop shared by the batch and streaming entry points.
fn drive<S: Source>(
    host: Hypercube,
    source: &mut S,
    switching: Switching,
    observer: &mut dyn SimObserver,
) -> Result<SimResult, SimError> {
    obs::span!("netsim.sim");
    // Event: (ready_time, msg_id) — message msg_id is at hop `hops[msg_id]`
    // ready to request its next link at ready_time.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut hop: Vec<usize> = Vec::new();
    let mut busy: HashMap<u64, u64> = HashMap::new();
    // Per-link FIFO of reservation end times: the exact count of whole
    // messages still ahead of a new requester (reservations whose end is
    // past the request time), independent of anyone's message size.
    let mut waiters: HashMap<u64, VecDeque<u64>> = HashMap::new();

    let mut total_link_cycles = 0u64;
    let mut latency_sum = 0u64;
    let mut makespan = 0u64;
    let mut injected = 0usize;
    let mut delivered = 0usize;
    let mut max_queue_depth = 0u64;
    let mut max_latency = 0u64;
    let mut link_load: HashMap<u64, u64> = HashMap::new();
    let latency_hist = obs::histogram!("netsim.latency");
    let queue_hist = obs::histogram!("netsim.queue.depth");

    loop {
        // Admit every pending message due no later than the next event, so
        // a newly injected message competes at its own start time.
        while let Some(s) = source.peek_start() {
            let due = match heap.peek() {
                Some(Reverse((t, _))) => s <= *t,
                None => true,
            };
            if !due {
                break;
            }
            let id = source.admit()?;
            let m = source.msg(id);
            debug_assert!(m.path.windows(2).all(|w| {
                cubemesh_topology::hamming(w[0], w[1]) == 1
                    && host.contains(w[0])
                    && host.contains(w[1])
            }));
            if hop.len() <= id {
                hop.resize(id + 1, 0);
            }
            observer.on_inject(id, m);
            injected += 1;
            heap.push(Reverse((m.start, id)));
        }
        let Some(Reverse((t, id))) = heap.pop() else {
            break;
        };
        let m = source.msg(id);
        let h = hop[id];
        if h + 1 >= m.path.len() {
            // Arrived.
            let arrival = t;
            let latency = arrival - m.start;
            latency_sum += latency;
            max_latency = max_latency.max(latency);
            latency_hist.record(latency);
            makespan = makespan.max(arrival);
            delivered += 1;
            observer.on_deliver(id, m, arrival);
            source.done(id);
            continue;
        }
        let (a, b) = (m.path[h], m.path[h + 1]);
        let bit = (a ^ b).trailing_zeros();
        // Directed link id: edge index * 2 + direction (a has bit clear?).
        let dir = (a >> bit) & 1;
        let link = (host.edge_index(a, bit) as u64) << 1 | dir;
        let free = busy.get(&link).copied().unwrap_or(0);
        let begin = free.max(t);
        // Exact queue depth at request time: reservations on this link
        // whose transmission has not finished by `t`. Counting whole
        // messages (rather than dividing the backlog by the requester's
        // size) stays correct when the holder and the waiter differ in
        // size — the cut-through case where the old estimate over-counted.
        let q = waiters.entry(link).or_default();
        while q.front().is_some_and(|&end| end <= t) {
            q.pop_front();
        }
        let depth = q.len() as u64;
        if depth > 0 {
            max_queue_depth = max_queue_depth.max(depth);
            queue_hist.record(depth);
            observer.on_wait(link, t, depth);
        }
        let end = begin + m.size as u64;
        q.push_back(end);
        busy.insert(link, end);
        *link_load.entry(link).or_insert(0) += m.size as u64;
        total_link_cycles += m.size as u64;
        observer.on_acquire(id, m, link, begin, end);
        hop[id] = h + 1;
        // Under cut-through the header is ready to request the next link
        // one cycle after acquiring this one (the body pipelines behind
        // it); the tail finishes at `begin + size`, which is what
        // delivery at the final hop must wait for.
        let next_event = match switching {
            Switching::StoreAndForward => end,
            Switching::CutThrough => {
                if hop[id] + 1 >= m.path.len() {
                    end // delivery waits for the tail flit
                } else {
                    begin + 1
                }
            }
        };
        heap.push(Reverse((next_event, id)));
    }

    if obs::enabled() {
        let occupancy = obs::histogram!("netsim.link.occupancy");
        for &cycles in link_load.values() {
            occupancy.record(cycles);
        }
    }

    Ok(SimResult {
        makespan,
        total_link_cycles,
        avg_latency: if injected == 0 {
            0.0
        } else {
            latency_sum as f64 / injected as f64
        },
        max_link_cycles: link_load.values().copied().max().unwrap_or(0),
        delivered,
        max_queue_depth,
        max_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_message_latency_is_hops_times_size() {
        let host = Hypercube::new(3);
        let m = Message::new(vec![0b000, 0b001, 0b011, 0b111], 16);
        let r = simulate(host, &[m]);
        assert_eq!(r.makespan, 3 * 16);
        assert_eq!(r.delivered, 1);
        assert_eq!(r.total_link_cycles, 48);
    }

    #[test]
    fn contention_serializes() {
        // Two messages over the same single link: second waits.
        let host = Hypercube::new(1);
        let msgs = vec![Message::new(vec![0, 1], 10), Message::new(vec![0, 1], 10)];
        let r = simulate(host, &msgs);
        assert_eq!(r.makespan, 20);
        assert_eq!(r.max_link_cycles, 20);
        assert_eq!(r.max_queue_depth, 1);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let host = Hypercube::new(1);
        let msgs = vec![Message::new(vec![0, 1], 10), Message::new(vec![1, 0], 10)];
        let r = simulate(host, &msgs);
        assert_eq!(r.makespan, 10, "full-duplex links");
    }

    #[test]
    fn pipeline_through_shared_then_disjoint_links() {
        // msg A: 0->1->3; msg B: 0->1 only. They share link 0->1.
        let host = Hypercube::new(2);
        let msgs = vec![
            Message::new(vec![0b00, 0b01, 0b11], 5),
            Message::new(vec![0b00, 0b01], 5),
        ];
        let r = simulate(host, &msgs);
        // A holds 0->1 during [0,5) then 1->3 during [5,10); B gets 0->1
        // at [5,10). Makespan 10.
        assert_eq!(r.makespan, 10);
    }

    #[test]
    fn zero_hop_message_delivers_at_injection() {
        let host = Hypercube::new(2);
        let r = simulate(host, &[Message::new(vec![0b01], 7)]);
        assert_eq!(r.makespan, 0);
        assert_eq!(r.delivered, 1);
        assert_eq!(r.avg_latency, 0.0);
    }

    #[test]
    fn staggered_injection() {
        let host = Hypercube::new(1);
        let a = Message::at(0, vec![0, 1], 4);
        let b = Message::at(2, vec![0, 1], 4);
        let r = simulate(host, &[a, b]);
        assert_eq!(r.makespan, 8); // B starts at 4 when the link frees
    }

    #[test]
    fn unsorted_slice_matches_sorted_slice() {
        // The slice API accepts messages in any order; admission sorts by
        // (start, id), so a shuffled slice with distinct starts simulates
        // identically to the sorted one.
        let host = Hypercube::new(2);
        let sorted = vec![
            Message::at(0, vec![0b00, 0b01], 4),
            Message::at(1, vec![0b00, 0b01], 4),
            Message::at(7, vec![0b01, 0b11], 4),
        ];
        let shuffled = vec![sorted[2].clone(), sorted[0].clone(), sorted[1].clone()];
        assert_eq!(simulate(host, &sorted), simulate(host, &shuffled));
    }

    #[test]
    fn queue_depth_counts_whole_messages_not_backlog_over_size() {
        // A size-10 holder and a size-2 waiter: exactly one message is
        // ahead of the waiter, not ceil(10/2) = 5 (the old estimate).
        let host = Hypercube::new(1);
        let msgs = vec![Message::new(vec![0, 1], 10), Message::new(vec![0, 1], 2)];
        let r = simulate(host, &msgs);
        assert_eq!(r.max_queue_depth, 1);
        // Cut-through takes the same accounting path.
        let r = simulate_with(host, &msgs, Switching::CutThrough);
        assert_eq!(r.max_queue_depth, 1);
    }

    #[test]
    fn queue_depth_is_exact_under_mixed_sizes() {
        // Three holders of size 9 ahead of a size-2 waiter injected last:
        // depth is exactly 3.
        let host = Hypercube::new(1);
        let msgs = vec![
            Message::new(vec![0, 1], 9),
            Message::new(vec![0, 1], 9),
            Message::new(vec![0, 1], 9),
            Message::at(1, vec![0, 1], 2),
        ];
        let r = simulate(host, &msgs);
        assert_eq!(r.max_queue_depth, 3);
    }

    #[test]
    fn trace_stream_matches_batch() {
        let host = Hypercube::new(2);
        let msgs = vec![
            Message::at(0, vec![0b00, 0b01, 0b11], 5),
            Message::at(0, vec![0b00, 0b01], 5),
            Message::at(3, vec![0b01, 0b11], 2),
        ];
        let batch = simulate(host, &msgs);
        let stream = simulate_trace(
            host,
            msgs.clone(),
            Switching::StoreAndForward,
            &mut NullObserver,
        )
        .expect("sorted stream");
        assert_eq!(batch, stream);
    }

    #[test]
    fn trace_stream_rejects_unsorted_input() {
        let host = Hypercube::new(1);
        let msgs = vec![Message::at(5, vec![0, 1], 2), Message::at(1, vec![0, 1], 2)];
        let err = simulate_trace(host, msgs, Switching::StoreAndForward, &mut NullObserver)
            .expect_err("unsorted");
        assert_eq!(err, SimError::UnsortedInjection { at: 1, prev: 5 });
    }

    #[test]
    fn observer_sees_every_event() {
        #[derive(Default)]
        struct Count {
            injected: usize,
            delivered: usize,
            acquires: usize,
            waits: usize,
        }
        impl SimObserver for Count {
            fn on_inject(&mut self, _id: usize, _m: &Message) {
                self.injected += 1;
            }
            fn on_wait(&mut self, _l: u64, _t: u64, _d: u64) {
                self.waits += 1;
            }
            fn on_acquire(&mut self, _id: usize, _m: &Message, _l: u64, _b: u64, _e: u64) {
                self.acquires += 1;
            }
            fn on_deliver(&mut self, _id: usize, _m: &Message, _t: u64) {
                self.delivered += 1;
            }
        }
        let host = Hypercube::new(2);
        let msgs = vec![
            Message::new(vec![0b00, 0b01, 0b11], 5),
            Message::new(vec![0b00, 0b01], 5),
        ];
        let mut c = Count::default();
        let r = simulate_observed(host, &msgs, Switching::StoreAndForward, &mut c);
        assert_eq!(c.injected, 2);
        assert_eq!(c.delivered, r.delivered);
        assert_eq!(c.acquires, 3); // three hops total
        assert_eq!(c.waits, 1); // B waited once behind A
    }
}

//! The load generator: one process, a sender thread and a `poll`
//! receiver thread driving pre-encoded frames over a few connections.
//!
//! Open-loop phases send each frame at its due time whatever the
//! server does, and time every reply from that due time, so a stall
//! is charged to every request it delays. The burst phase replays an
//! agent flushing a backlog after a network blip: a few requests
//! pipelined in one write, then the next backlog once all are answered.

use pmc_cpusim::rng::SplitMix64;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

const POLLIN: c_short = 0x1;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;

/// Waits up to `timeout` for readability on `fds`; returns which are
/// readable (or hung up, which a read then reports).
fn wait_readable(fds: &[c_int], timeout: Duration) -> Vec<bool> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ms = timeout.as_millis().clamp(0, 1000) as c_int;
    // SAFETY: `pfds` is a live, exclusively borrowed array of exactly
    // `pfds.len()` pollfd structs laid out as the C type, valid for the
    // whole call.
    let n = unsafe { poll(pfds.as_mut_ptr(), pfds.len() as c_ulong, ms) };
    pfds.iter()
        .map(|p| n > 0 && p.revents & (POLLIN | POLLERR | POLLHUP) != 0)
        .collect()
}

/// Pre-encoded length-prefixed frames in one buffer.
#[derive(Debug, Default, Clone)]
pub struct Frames {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Frames {
    pub fn push(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.ends.push(self.bytes.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Frames `first..last`, contiguous.
    pub fn range(&self, first: usize, last: usize) -> &[u8] {
        let start = if first == 0 { 0 } else { self.ends[first - 1] };
        &self.bytes[start..self.ends[last - 1]]
    }
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Each connection sends one request per `period`, staggered
    /// evenly across connections; with a jitter seed, each request is
    /// due at a seeded uniform point of its slot instead of its start.
    /// With `opening_pair`, a connection's second request is due with
    /// its first and both go out in one write, as from an agent
    /// catching up after a hiccup; its own slot stays empty.
    Open {
        period: Duration,
        jitter: Option<u64>,
        opening_pair: bool,
    },
    /// Each connection flushes a backlog of `depth` requests in one
    /// write and sends the next backlog once all are answered.
    Burst { depth: usize },
}

/// The open-loop due times of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub period_ns: u64,
    pub conns: usize,
    pub jitter: Option<u64>,
    pub opening_pair: bool,
}

impl Schedule {
    /// Due time of request `k` on connection `conn`, nanoseconds after
    /// the phase start. Increasing in `k`: a jittered request stays in
    /// its own slot.
    pub fn due_ns(&self, conn: usize, k: usize) -> u64 {
        let index = if self.opening_pair && k == 1 { 0 } else { k };
        let slot =
            index as u64 * self.period_ns + conn as u64 * self.period_ns / self.conns.max(1) as u64;
        let offset = match self.jitter {
            Some(seed) if self.period_ns > 0 => {
                SplitMix64::derive(seed, &[conn as u64, index as u64]).next_u64() % self.period_ns
            }
            _ => 0,
        };
        slot + offset
    }

    /// Requests connection `conn` has whose slot starts in the window.
    pub fn planned(&self, conn: usize, window_ns: u64) -> usize {
        let offset = conn as u64 * self.period_ns / self.conns.max(1) as u64;
        if self.period_ns == 0 || offset >= window_ns {
            0
        } else {
            ((window_ns - offset - 1) / self.period_ns + 1) as usize
        }
    }

    /// The connection whose next request is due first, with that due
    /// time; ties go to the lower connection. `None` once every
    /// connection has sent its `plan`.
    pub fn next_due(&self, sent: &[usize], plan: &[usize]) -> Option<(usize, u64)> {
        (0..sent.len())
            .filter(|&c| sent[c] < plan[c])
            .map(|c| (c, self.due_ns(c, sent[c])))
            .min_by_key(|&(c, due)| (due, c))
    }
}

/// What happened on one connection during a phase. Times are
/// nanoseconds after the phase start; request `k`'s reply is `k`-th.
#[derive(Debug, Default)]
pub struct ConnRecord {
    /// When each request became due: its schedule slot in an open
    /// loop, the reply that freed its slot in a burst.
    pub due_ns: Vec<u64>,
    /// When each request was written.
    pub send_ns: Vec<u64>,
    /// When each reply was complete.
    pub done_ns: Vec<u64>,
    /// Reply payloads (length prefix stripped), in order.
    pub replies: Vec<Vec<u8>>,
    /// First socket error, if any.
    pub error: Option<String>,
}

impl ConnRecord {
    pub fn sent(&self) -> usize {
        self.send_ns.len()
    }

    /// Latency of every answered request, microseconds, from due time.
    pub fn latencies_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.done_ns
            .iter()
            .zip(&self.due_ns)
            .map(|(&done, &due)| done.saturating_sub(due) as f64 / 1e3)
    }

    /// How late the generator wrote each request, microseconds.
    pub fn lateness_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.send_ns
            .iter()
            .zip(&self.due_ns)
            .map(|(&sent, &due)| sent.saturating_sub(due) as f64 / 1e3)
    }
}

/// One phase's record.
#[derive(Debug)]
pub struct PhaseRecord {
    pub conns: Vec<ConnRecord>,
    /// The phase's sending window.
    pub window: Duration,
    /// `(time, sample)` at the start, each slice boundary and the end.
    pub marks: Vec<(u64, Vec<f64>)>,
}

impl PhaseRecord {
    /// Slices of the window the marks delimit.
    pub fn slices(&self) -> usize {
        self.marks.len().saturating_sub(1)
    }

    /// Latencies (µs) of the requests due in slice `i`.
    pub fn slice_latencies_us(&self, i: usize) -> Vec<f64> {
        (0..self.conns.len())
            .flat_map(|c| self.conn_slice_latencies_us(c, i))
            .collect()
    }

    /// Latencies (µs) of the requests of connection `c` due in slice
    /// `i`.
    pub fn conn_slice_latencies_us(&self, c: usize, i: usize) -> Vec<f64> {
        let conn = &self.conns[c];
        self.in_slice(i, &conn.due_ns, conn.latencies_us())
    }

    /// How late (µs) the generator wrote each request due in slice `i`.
    pub fn slice_lateness_us(&self, i: usize) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| self.in_slice(i, &c.due_ns, c.lateness_us()))
            .collect()
    }

    /// The `values` of the requests whose due time in `due_ns` falls in
    /// slice `i`; the last slice also takes the few jittered requests
    /// due after the window.
    fn in_slice(&self, i: usize, due_ns: &[u64], values: impl Iterator<Item = f64>) -> Vec<f64> {
        let slices = self.slices().max(1);
        let width = self.window.as_nanos() as u64 / slices as u64;
        let lo = i as u64 * width;
        let hi = if i + 1 == slices {
            u64::MAX
        } else {
            lo + width
        };
        due_ns
            .iter()
            .zip(values)
            .filter(|(&due, _)| due >= lo && due < hi)
            .map(|(_, v)| v)
            .collect()
    }

    /// Replies completed during slice `i`, and the slice's length in
    /// seconds.
    pub fn slice_completions(&self, i: usize) -> (usize, f64) {
        let (from, to) = (self.marks[i].0, self.marks[i + 1].0);
        let n = self
            .conns
            .iter()
            .flat_map(|c| c.done_ns.iter())
            .filter(|&&t| t >= from && t < to)
            .count();
        (n, (to - from) as f64 / 1e9)
    }
}

/// Reads what a connection has and splits complete frames off its
/// buffer; returns false on EOF or a socket error.
fn drain_replies(
    mut stream: &TcpStream,
    buf: &mut Vec<u8>,
    rec: &mut ConnRecord,
    now_ns: u64,
) -> Result<usize, String> {
    let mut chunk = [0u8; 64 * 1024];
    let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
    if n == 0 {
        return Err("server closed the connection".into());
    }
    buf.extend_from_slice(&chunk[..n]);
    let mut at = 0;
    let mut frames = 0;
    while buf.len() - at >= 4 {
        let len = u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        if buf.len() - at - 4 < len {
            break;
        }
        rec.replies.push(buf[at + 4..at + 4 + len].to_vec());
        rec.done_ns.push(now_ns);
        at += 4 + len;
        frames += 1;
    }
    buf.drain(..at);
    Ok(frames)
}

/// Takes a sample at each slice boundary of the window, from the
/// receiver's loop, and records when it was taken.
struct Marker<'a> {
    start: Instant,
    slice: Duration,
    slices: u32,
    next: u32,
    sample: &'a mut dyn FnMut() -> Vec<f64>,
    marks: Vec<(u64, Vec<f64>)>,
}

impl Marker<'_> {
    fn boundary(&self, i: u32) -> Instant {
        self.start + self.slice * i
    }

    /// Samples every boundary that has passed.
    fn tick(&mut self) {
        while self.next <= self.slices && Instant::now() >= self.boundary(self.next) {
            self.take();
        }
    }

    fn take(&mut self) {
        let at = Instant::now()
            .saturating_duration_since(self.start)
            .as_nanos() as u64;
        self.marks.push((at, (self.sample)()));
        self.next += 1;
    }

    /// How long the receiver may block before the next boundary.
    fn patience(&self, cap: Duration) -> Duration {
        if self.next > self.slices {
            return cap;
        }
        self.boundary(self.next)
            .saturating_duration_since(Instant::now())
            .min(cap)
    }

    /// Closes the record: boundaries not reached yet are sampled now.
    fn finish(mut self) -> Vec<(u64, Vec<f64>)> {
        while self.next <= self.slices {
            self.take();
        }
        self.marks
    }
}

/// Runs one phase over `streams`, sending `frames[c]` on connection
/// `c`. Replies still missing `grace` after the window count as lost.
/// `sample` is called at the start, at each of the `slices` boundaries
/// of the window and at its end. A burst asks `refill` for more frames
/// when fewer than a backlog are left, before the backlog is due, so
/// encoding is never charged to the program.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    streams: &[TcpStream],
    frames: &mut [Frames],
    refill: &mut dyn FnMut(usize, &mut Frames),
    load: Load,
    window: Duration,
    grace: Duration,
    slices: u32,
    sample: &mut dyn FnMut() -> Vec<f64>,
) -> PhaseRecord {
    let n = streams.len();
    let window_ns = window.as_nanos() as u64;
    let fds: Vec<c_int> = streams.iter().map(|s| s.as_raw_fd()).collect();
    let mut conns: Vec<ConnRecord> = (0..n).map(|_| ConnRecord::default()).collect();
    // Both threads start from the same instant, a moment ahead so
    // neither begins late.
    let start = Instant::now() + Duration::from_millis(5);
    let deadline = start + window + grace;
    let slices = slices.max(1);
    let mut marker = Marker {
        start,
        slice: window / slices,
        slices,
        next: 0,
        sample,
        marks: Vec::new(),
    };
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;

    match load {
        Load::Open {
            period,
            jitter,
            opening_pair,
        } => {
            let schedule = Schedule {
                period_ns: period.as_nanos() as u64,
                conns: n,
                jitter,
                opening_pair,
            };
            let frames: &[Frames] = frames;
            let plan: Vec<usize> = (0..n)
                .map(|c| schedule.planned(c, window_ns).min(frames[c].len()))
                .collect();
            let (sends, errors) = std::thread::scope(|s| {
                let sender = s.spawn(|| {
                    crate::sched::realtime(|| {
                        let mut sent = vec![0usize; n];
                        let mut send_ns: Vec<Vec<u64>> = vec![Vec::new(); n];
                        let mut errors: Vec<Option<String>> = vec![None; n];
                        while let Some((c, due)) = schedule.next_due(&sent, &plan) {
                            let at = start + Duration::from_nanos(due);
                            let now = Instant::now();
                            if at > now {
                                std::thread::sleep(at - now);
                            }
                            // Requests due at the same instant go out in
                            // one write.
                            let first = sent[c];
                            let mut last = first + 1;
                            while last < plan[c] && schedule.due_ns(c, last) == due {
                                last += 1;
                            }
                            if errors[c].is_none() {
                                let at_ns = since(Instant::now());
                                send_ns[c].extend(std::iter::repeat_n(at_ns, last - first));
                                if let Err(e) =
                                    (&streams[c]).write_all(frames[c].range(first, last))
                                {
                                    errors[c] = Some(format!("write: {e}"));
                                }
                            }
                            sent[c] = last;
                        }
                        (send_ns, errors)
                    })
                });
                let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); n];
                let mut got = vec![0usize; n];
                let mut dead = vec![false; n];
                loop {
                    marker.tick();
                    let now = Instant::now();
                    let waiting = (0..n).any(|c| !dead[c] && got[c] < plan[c]);
                    if !waiting || now >= deadline {
                        break;
                    }
                    let wait = marker.patience((deadline - now).min(Duration::from_millis(20)));
                    let ready = wait_readable(&fds, wait);
                    let readable: Vec<usize> = (0..n).filter(|&c| ready[c] && !dead[c]).collect();
                    for c in readable {
                        match drain_replies(
                            &streams[c],
                            &mut bufs[c],
                            &mut conns[c],
                            since(Instant::now()),
                        ) {
                            Ok(k) => got[c] += k,
                            Err(e) => {
                                conns[c].error.get_or_insert(e);
                                dead[c] = true;
                            }
                        }
                    }
                }
                sender.join().expect("sender thread panicked")
            });
            for (c, (send, error)) in sends.into_iter().zip(errors).enumerate() {
                conns[c].due_ns = (0..send.len()).map(|k| schedule.due_ns(c, k)).collect();
                conns[c].send_ns = send;
                if let Some(e) = error {
                    conns[c].error.get_or_insert(e);
                }
            }
        }
        Load::Burst { depth } => {
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); n];
            let mut dead = vec![false; n];
            let now = Instant::now();
            if start > now {
                std::thread::sleep(start - now);
            }
            // One round: the next `depth` frames in a single write, all
            // due now. Returns false once the frames are used up.
            let mut flush = |c: usize, conns: &mut Vec<ConnRecord>| -> Result<bool, String> {
                let first = conns[c].send_ns.len();
                if frames[c].len() - first < depth {
                    refill(c, &mut frames[c]);
                }
                let last = (first + depth).min(frames[c].len());
                if first == last {
                    return Ok(false);
                }
                let due = since(Instant::now());
                conns[c]
                    .due_ns
                    .extend(std::iter::repeat_n(due, last - first));
                conns[c]
                    .send_ns
                    .extend(std::iter::repeat_n(due, last - first));
                (&streams[c])
                    .write_all(frames[c].range(first, last))
                    .map_err(|e| format!("write: {e}"))?;
                Ok(true)
            };
            let mut idle = vec![false; n];
            loop {
                for c in 0..n {
                    let answered = conns[c].done_ns.len() == conns[c].send_ns.len();
                    if dead[c] || idle[c] || !answered {
                        continue;
                    }
                    if start.elapsed() >= window {
                        idle[c] = true;
                        continue;
                    }
                    match flush(c, &mut conns) {
                        Ok(true) => {}
                        Ok(false) => idle[c] = true,
                        Err(e) => {
                            conns[c].error.get_or_insert(e);
                            dead[c] = true;
                        }
                    }
                }
                marker.tick();
                let now = Instant::now();
                let outstanding =
                    (0..n).any(|c| !dead[c] && conns[c].done_ns.len() < conns[c].send_ns.len());
                if !outstanding || now >= deadline {
                    break;
                }
                let wait = marker.patience((deadline - now).min(Duration::from_millis(20)));
                let ready = wait_readable(&fds, wait);
                let readable: Vec<usize> = (0..n).filter(|&c| ready[c] && !dead[c]).collect();
                for c in readable {
                    let result = drain_replies(
                        &streams[c],
                        &mut bufs[c],
                        &mut conns[c],
                        since(Instant::now()),
                    );
                    if let Err(e) = result {
                        conns[c].error.get_or_insert(e);
                        dead[c] = true;
                    }
                }
            }
        }
    }
    PhaseRecord {
        conns,
        window,
        marks: marker.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn schedule(period_ns: u64, conns: usize, jitter: Option<u64>) -> Schedule {
        Schedule {
            period_ns,
            conns,
            jitter,
            opening_pair: false,
        }
    }

    #[test]
    fn due_times_are_staggered_and_periodic() {
        let s = schedule(500_000, 2, None);
        assert_eq!(s.due_ns(0, 0), 0);
        assert_eq!(s.due_ns(1, 0), 250_000);
        assert_eq!(s.due_ns(1, 3), 1_750_000);
        // 1 ms window at 0.5 ms period: slots 0 and 0.5 ms for
        // connection 0, 0.25 and 0.75 ms for connection 1.
        assert_eq!(s.planned(0, 1_000_000), 2);
        assert_eq!(s.planned(1, 1_000_000), 2);
        assert_eq!(s.planned(0, 1_000_001), 3);
        assert_eq!(s.planned(1, 200_000), 0);
        assert_eq!(schedule(0, 1, None).planned(0, 1_000), 0);
    }

    #[test]
    fn jittered_due_times_stay_in_their_slots_and_follow_the_seed() {
        let p = 50_000_000;
        let s = schedule(p, 2, Some(7));
        for c in 0..2 {
            for k in 0..200 {
                let slot = k as u64 * p + c as u64 * p / 2;
                let due = s.due_ns(c, k);
                assert!(due >= slot && due < slot + p);
                assert!(s.due_ns(c, k + 1) > due, "increasing per connection");
            }
        }
        assert_eq!(s.due_ns(1, 9), schedule(p, 2, Some(7)).due_ns(1, 9));
        let other = schedule(p, 2, Some(8));
        assert!((0..20).any(|k| other.due_ns(0, k) != s.due_ns(0, k)));
        // The offsets spread over the slot rather than bunching.
        let early = (0..1000).filter(|&k| s.due_ns(0, k) % p < p / 2).count();
        assert!((400..600).contains(&early), "{early}");
    }

    #[test]
    fn an_opening_pair_shares_the_first_slot() {
        let s = Schedule {
            opening_pair: true,
            ..schedule(1_000, 2, None)
        };
        assert_eq!(
            (s.due_ns(0, 0), s.due_ns(0, 1), s.due_ns(0, 2)),
            (0, 0, 2_000)
        );
        assert_eq!(
            (s.due_ns(1, 0), s.due_ns(1, 1), s.due_ns(1, 2)),
            (500, 500, 2_500)
        );
        // The pair takes the place of the second slot's request.
        assert_eq!(s.planned(0, 3_000), 3);
    }

    #[test]
    fn next_due_merges_connections_in_time_order() {
        let s = schedule(100, 2, None);
        let plan = [3, 2];
        let mut sent = [0usize, 0];
        let mut order = Vec::new();
        while let Some((c, due)) = s.next_due(&sent, &plan) {
            order.push((c, due));
            sent[c] += 1;
        }
        assert_eq!(order, vec![(0, 0), (1, 50), (0, 100), (1, 150), (0, 200)]);
    }

    /// An echo server on loopback: replies to each frame with the same
    /// frame after `delay`. It sets TCP_NODELAY: with Nagle on, a
    /// backlog's second reply would wait for the client's delayed ACK.
    fn echo_server(delay: Duration) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut len = [0u8; 4];
            while s.read_exact(&mut len).is_ok() {
                let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
                s.read_exact(&mut body).unwrap();
                std::thread::sleep(delay);
                s.write_all(&len).unwrap();
                s.write_all(&body).unwrap();
            }
        });
        (addr, handle)
    }

    fn frames(n: usize) -> Frames {
        let mut f = Frames::default();
        for i in 0..n {
            let body = format!("req-{i}");
            let mut frame = (body.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(body.as_bytes());
            f.push(&frame);
        }
        f
    }

    /// Runs `load` against a loopback echo server over `f`, marking
    /// `slices` slices with a counter as the sample.
    fn run_echo(
        delay: Duration,
        f: &mut Frames,
        load: Load,
        window: Duration,
        slices: u32,
    ) -> PhaseRecord {
        let (addr, server) = echo_server(delay);
        let stream = TcpStream::connect(addr).unwrap();
        let mut calls = 0.0;
        let mut refill = |_: usize, f: &mut Frames| {
            let more = frames(f.len() + 4);
            for i in f.len()..more.len() {
                f.push(more.range(i, i + 1));
            }
        };
        let rec = run_phase(
            std::slice::from_ref(&stream),
            std::slice::from_mut(f),
            &mut refill,
            load,
            window,
            Duration::from_secs(2),
            slices,
            &mut || {
                calls += 1.0;
                vec![calls]
            },
        );
        drop(stream);
        server.join().unwrap();
        rec
    }

    #[test]
    fn open_loop_sends_on_schedule_and_pairs_replies_in_order() {
        let mut f = frames(100);
        let period = Duration::from_millis(2);
        let rec = run_echo(
            Duration::ZERO,
            &mut f,
            Load::Open {
                period,
                jitter: None,
                opening_pair: false,
            },
            Duration::from_millis(40),
            4,
        );
        let c = &rec.conns[0];
        assert_eq!(c.sent(), 20, "40 ms at one per 2 ms");
        assert_eq!(c.replies.len(), 20);
        assert_eq!(c.replies[7], b"req-7");
        for k in 0..20 {
            assert_eq!(c.due_ns[k], k as u64 * 2_000_000);
            assert!(c.send_ns[k] >= c.due_ns[k], "never sent early");
            assert!(c.done_ns[k] >= c.send_ns[k]);
        }
        assert!(c.error.is_none());
        // Start, three inner boundaries, end; each slice holds the five
        // requests due in its 10 ms.
        assert_eq!(rec.slices(), 4);
        let samples: Vec<f64> = rec.marks.iter().map(|(_, s)| s[0]).collect();
        assert_eq!(samples, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        for i in 0..4 {
            assert_eq!(rec.slice_latencies_us(i).len(), 5);
            assert_eq!(rec.slice_lateness_us(i).len(), 5);
        }
    }

    #[test]
    fn an_opening_pair_goes_out_in_one_write() {
        let mut f = frames(20);
        let rec = run_echo(
            Duration::ZERO,
            &mut f,
            Load::Open {
                period: Duration::from_millis(2),
                jitter: None,
                opening_pair: true,
            },
            Duration::from_millis(20),
            1,
        );
        let c = &rec.conns[0];
        assert_eq!(c.sent(), 10, "ten slots, the second one empty");
        assert_eq!(c.due_ns[..3], [0, 0, 4_000_000]);
        assert_eq!(c.send_ns[0], c.send_ns[1]);
        assert_eq!(c.replies[1], b"req-1");
        assert_eq!(c.replies.len(), 10);
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // Each reply takes 5 ms against a 1 ms schedule: the backlog
        // grows, and latency from due time grows with it, although
        // each request is served in 5 ms.
        let mut f = frames(10);
        let period = Duration::from_millis(1);
        let rec = run_echo(
            Duration::from_millis(5),
            &mut f,
            Load::Open {
                period,
                jitter: None,
                opening_pair: false,
            },
            Duration::from_millis(10),
            1,
        );
        let lat: Vec<f64> = rec.conns[0].latencies_us().collect();
        assert_eq!(lat.len(), 10);
        assert!(
            lat[9] > 40_000.0,
            "queued behind nine 5 ms replies: {lat:?}"
        );
    }

    #[test]
    fn burst_sends_backlogs_in_rounds_and_refills() {
        let mut f = frames(6);
        let rec = run_echo(
            Duration::ZERO,
            &mut f,
            Load::Burst { depth: 4 },
            Duration::from_millis(200),
            2,
        );
        let c = &rec.conns[0];
        assert!(
            c.replies.len() > 50,
            "echo rounds are fast: {}",
            c.replies.len()
        );
        assert_eq!(c.replies.len(), c.sent());
        assert_eq!(
            c.replies[9], b"req-9",
            "refilled frames continue the stream"
        );
        // Each round of 4 is due at once, after the previous round's
        // last reply.
        assert!(c.due_ns[..4].iter().all(|&d| d == c.due_ns[0]));
        assert!(c.due_ns[4] >= c.done_ns[3]);
        assert!(c.due_ns[4..8].iter().all(|&d| d == c.due_ns[4]));
        let (done, secs) = rec.slice_completions(0);
        assert!(done > 0 && secs > 0.09, "{done} in {secs} s");
    }
}

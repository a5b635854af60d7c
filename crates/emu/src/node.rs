//! The emulated node: one worker thread running a multilevel-feedback
//! CPU scheduler, with the node's disk modelled as a *deadline calendar*
//! so compute and I/O genuinely overlap without extra threads.
//!
//! The CPU worker serves the highest-priority job for one (scaled)
//! quantum at a time; a job's priority sinks as it accumulates CPU
//! (estcpu, decayed periodically), so fresh short requests overtake
//! long-running CGI — matching `msweb-ossim`'s 4.3BSD-style scheduler,
//! which is essential for the live-vs-simulated validation to compare
//! like with like.
//!
//! When a job's CPU portion finishes, its I/O is booked on the node's
//! serial disk as a *deadline calendar*: the burst occupies the disk for
//! its full I/O time and the job completes at a wall-clock deadline,
//! which the worker collects opportunistically. The disk therefore takes
//! real elapsed time and serialises correctly *without a thread that
//! must wake per slice* — crucial on small/single-core hosts where
//! sub-millisecond sleep-wake cycles across a dozen threads would drown
//! the measurement in scheduler noise.
//!
//! A pure FIFO calendar would let one 300 ms CGI burst block a 5 ms
//! static read — the simulator's page-level round-robin disk interleaves
//! them instead. The calendar approximates that by letting a short burst
//! jump ahead of *not-yet-started* bursts at least 4× its size
//! (shortest-burst priority, the standard disk-scheduler treatment of
//! small synchronous reads). Cumulative busy time is published through
//! atomics for the load monitor.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::job::{Done, Job, NodeMsg};
use crate::timing::wait_for;

/// Shared, monotone counters a node publishes for the monitor.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Nanoseconds of CPU-portion work completed.
    pub cpu_busy_ns: AtomicU64,
    /// Nanoseconds of I/O-portion work completed.
    pub io_busy_ns: AtomicU64,
    /// Jobs currently queued or in progress.
    pub in_flight: AtomicU64,
    /// Jobs finished.
    pub finished: AtomicU64,
}

impl NodeStats {
    /// Nanoseconds of work completed, CPU and I/O portions together.
    pub fn busy_ns(&self) -> u64 {
        self.cpu_busy_ns.load(Ordering::Relaxed) + self.io_busy_ns.load(Ordering::Relaxed)
    }
}

/// Per-node tunables, already time-scaled.
#[derive(Debug, Clone)]
pub struct NodeParams {
    /// Scheduling slice (the scaled 10 ms quantum).
    pub quantum: Duration,
    /// Fork overhead charged to dynamic jobs (scaled 3 ms).
    pub fork: Duration,
    /// Priority-decay period (the scaled 100 ms estcpu update).
    pub decay_period: Duration,
}

struct Running {
    job: Job,
    cpu_left: Duration,
    io_left: Duration,
    /// CPU used, in quantum units; drives the priority level.
    estcpu: f64,
    /// FIFO tie-breaker within a level.
    seq: u64,
}

impl Running {
    fn level(&self) -> u8 {
        ((self.estcpu / 2.0).floor() as u8).min(31)
    }
}

/// The body of a node worker thread. Runs until `Shutdown` arrives and
/// both the CPU queue and the disk calendar drain.
pub fn node_worker(
    rx: Receiver<NodeMsg>,
    done_tx: Sender<Done>,
    stats: Arc<NodeStats>,
    params: NodeParams,
) {
    let mut queue: Vec<Running> = Vec::new();
    let mut disk = DiskCalendar::default();
    let mut shutdown = false;
    let mut seq: u64 = 0;
    let mut next_decay = Instant::now() + params.decay_period;

    loop {
        // Ingest everything pending without blocking.
        loop {
            match rx.try_recv() {
                Ok(NodeMsg::Run(job)) => {
                    seq += 1;
                    queue.push(admit(job, &params, &stats, seq));
                }
                Ok(NodeMsg::Shutdown) => shutdown = true,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    shutdown = true;
                    break;
                }
            }
        }

        let now = Instant::now();

        // Collect disk completions that are due.
        for job in disk.due(now) {
            finish(job, &stats, &done_tx);
        }

        // Book jobs whose CPU portion is done onto the disk.
        let mut i = 0;
        while i < queue.len() {
            if queue[i].cpu_left.is_zero() {
                let job = queue.swap_remove(i);
                if job.io_left.is_zero() {
                    finish(job, &stats, &done_tx);
                } else {
                    stats
                        .io_busy_ns
                        .fetch_add(job.io_left.as_nanos() as u64, Ordering::Relaxed);
                    disk.book(job, now);
                }
            } else {
                i += 1;
            }
        }

        if queue.is_empty() {
            if disk.is_empty() && shutdown {
                return;
            }
            // Nothing to compute: sleep until the next disk completion or
            // the next message, whichever comes first.
            let timeout = disk
                .next_completion()
                .map(|t| t.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(50));
            match rx.recv_timeout(timeout) {
                Ok(NodeMsg::Run(job)) => {
                    seq += 1;
                    queue.push(admit(job, &params, &stats, seq));
                    next_decay = Instant::now() + params.decay_period;
                }
                Ok(NodeMsg::Shutdown) => shutdown = true,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => shutdown = true,
            }
            continue;
        }

        // Priority decay (4.3BSD schedcpu): halve-ish everyone's usage
        // estimate periodically so sunk jobs eventually rise again.
        if now >= next_decay {
            for r in queue.iter_mut() {
                r.estcpu *= 2.0 / 3.0;
            }
            next_decay = now + params.decay_period;
        }

        // Serve one quantum of the best (lowest level, FIFO) job.
        let best = queue
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.level(), r.seq))
            .map(|(i, _)| i)
            .expect("non-empty queue");
        let running = &mut queue[best];
        let run = running.cpu_left.min(params.quantum);
        wait_for(run);
        running.cpu_left -= run;
        running.estcpu += run.as_secs_f64() / params.quantum.as_secs_f64();
        stats
            .cpu_busy_ns
            .fetch_add(run.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The serial-disk deadline calendar with shortest-burst priority.
#[derive(Default)]
struct DiskCalendar {
    /// Chained bookings: `start`/`end` are wall-clock; entries are
    /// sequential (`entries[i].end == entries[i+1].start` once chained).
    entries: VecDeque<DiskEntry>,
}

struct DiskEntry {
    start: Instant,
    end: Instant,
    io: Duration,
    job: Running,
}

/// A short burst may jump bursts at least this many times its size.
const JUMP_FACTOR: u32 = 4;

impl DiskCalendar {
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn next_completion(&self) -> Option<Instant> {
        self.entries.front().map(|e| e.end)
    }

    /// Pop every booking whose deadline has passed.
    fn due(&mut self, now: Instant) -> Vec<Running> {
        let mut out = Vec::new();
        while self.entries.front().is_some_and(|e| e.end <= now) {
            out.push(self.entries.pop_front().expect("peeked").job);
        }
        out
    }

    /// Book a burst: append, unless it is short enough to jump ahead of
    /// longer bursts. A long *in-service* burst is preempted-and-resumed
    /// (the simulator's page-level round-robin serves a 2-page static
    /// read within milliseconds even while a 150-page CGI burst is in
    /// progress); long *unstarted* bursts are simply jumped. The tail is
    /// re-chained either way.
    fn book(&mut self, job: Running, now: Instant) {
        let io = job.io_left;
        // Preemptive resume of a long in-service burst.
        if let Some(front) = self.entries.front_mut() {
            if front.start <= now && front.end > now && front.io >= io * JUMP_FACTOR {
                // Shrink the in-service burst to its remaining time; it
                // resumes after the short burst.
                front.io = front.end.saturating_duration_since(now);
                self.entries.insert(
                    0,
                    DiskEntry {
                        start: now,
                        end: now + io,
                        io,
                        job,
                    },
                );
                let mut prev_end = self.entries[0].end;
                for e in self.entries.iter_mut().skip(1) {
                    e.start = prev_end;
                    e.end = e.start + e.io;
                    prev_end = e.end;
                }
                return;
            }
        }
        // Find the insertion point among unstarted bursts.
        let mut pos = self.entries.len();
        for (i, e) in self.entries.iter().enumerate() {
            if e.start <= now {
                continue; // in service (or already due)
            }
            if e.io >= io * JUMP_FACTOR {
                pos = i;
                break;
            }
        }
        let start_base = if pos == 0 {
            now
        } else {
            self.entries[pos - 1].end.max(now)
        };
        self.entries.insert(
            pos,
            DiskEntry {
                start: start_base,
                end: start_base + io,
                io,
                job,
            },
        );
        // Re-chain everything after the insertion.
        let mut prev_end = self.entries[pos].end;
        for e in self.entries.iter_mut().skip(pos + 1) {
            e.start = prev_end;
            e.end = e.start + e.io;
            prev_end = e.end;
        }
    }
}

fn admit(job: Job, params: &NodeParams, stats: &NodeStats, seq: u64) -> Running {
    stats.in_flight.fetch_add(1, Ordering::Relaxed);
    let fork = if job.dynamic {
        params.fork
    } else {
        Duration::ZERO
    };
    Running {
        cpu_left: job.cpu + fork,
        io_left: job.io,
        estcpu: 0.0,
        seq,
        job,
    }
}

fn finish(job: Running, stats: &NodeStats, done_tx: &Sender<Done>) {
    stats.in_flight.fetch_sub(1, Ordering::Relaxed);
    stats.finished.fetch_add(1, Ordering::Relaxed);
    let _ = done_tx.send(Done {
        id: job.job.id,
        arrived: job.job.arrived,
        finished: Instant::now(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn params() -> NodeParams {
        NodeParams {
            quantum: Duration::from_millis(2),
            fork: Duration::from_micros(300),
            decay_period: Duration::from_millis(20),
        }
    }

    fn spawn_node() -> (
        Sender<NodeMsg>,
        Receiver<Done>,
        Arc<NodeStats>,
        std::thread::JoinHandle<()>,
    ) {
        let (tx, rx) = unbounded();
        let (dtx, drx) = unbounded();
        let stats = Arc::new(NodeStats::default());
        let s2 = Arc::clone(&stats);
        let p = params();
        let h = std::thread::spawn(move || node_worker(rx, dtx, s2, p));
        (tx, drx, stats, h)
    }

    #[test]
    fn single_job_takes_its_demand() {
        let (tx, drx, stats, h) = spawn_node();
        let t0 = Instant::now();
        tx.send(NodeMsg::Run(Job {
            id: 1,
            cpu: Duration::from_millis(4),
            io: Duration::from_millis(2),
            dynamic: false,
            arrived: t0,
        }))
        .unwrap();
        let done = drx.recv_timeout(Duration::from_secs(5)).unwrap();
        let resp = done.finished - done.arrived;
        assert!(resp >= Duration::from_millis(6), "resp {resp:?}");
        assert!(resp < Duration::from_millis(60), "resp {resp:?}");
        tx.send(NodeMsg::Shutdown).unwrap();
        h.join().unwrap();
        assert_eq!(stats.finished.load(Ordering::Relaxed), 1);
        assert!(stats.cpu_busy_ns.load(Ordering::Relaxed) >= 4_000_000);
        assert!(stats.io_busy_ns.load(Ordering::Relaxed) >= 2_000_000);
    }

    #[test]
    fn fresh_short_job_overtakes_cpu_hog() {
        let (tx, drx, _stats, h) = spawn_node();
        let t0 = Instant::now();
        tx.send(NodeMsg::Run(Job {
            id: 1,
            cpu: Duration::from_millis(40),
            io: Duration::ZERO,
            dynamic: false,
            arrived: t0,
        }))
        .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        tx.send(NodeMsg::Run(Job {
            id: 2,
            cpu: Duration::from_millis(2),
            io: Duration::ZERO,
            dynamic: false,
            arrived: Instant::now(),
        }))
        .unwrap();
        let first = drx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first.id, 2, "short job must finish before the sunk hog");
        let second = drx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(second.id, 1);
        tx.send(NodeMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn cpu_and_disk_overlap() {
        // A pure-CPU job and a pure-I/O job together should take about
        // max(cpu, io), not the sum.
        let (tx, drx, _stats, h) = spawn_node();
        let t0 = Instant::now();
        tx.send(NodeMsg::Run(Job {
            id: 1,
            cpu: Duration::from_millis(30),
            io: Duration::ZERO,
            dynamic: false,
            arrived: t0,
        }))
        .unwrap();
        tx.send(NodeMsg::Run(Job {
            id: 2,
            cpu: Duration::ZERO,
            io: Duration::from_millis(30),
            dynamic: false,
            arrived: t0,
        }))
        .unwrap();
        let mut last = t0;
        for _ in 0..2 {
            let d = drx.recv_timeout(Duration::from_secs(5)).unwrap();
            last = last.max(d.finished);
        }
        let total = last - t0;
        assert!(
            total < Duration::from_millis(48),
            "CPU and disk should overlap: took {total:?}"
        );
        tx.send(NodeMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn dynamic_jobs_pay_fork() {
        let (tx, drx, _stats, h) = spawn_node();
        let t0 = Instant::now();
        tx.send(NodeMsg::Run(Job {
            id: 1,
            cpu: Duration::from_millis(1),
            io: Duration::ZERO,
            dynamic: true,
            arrived: t0,
        }))
        .unwrap();
        let done = drx.recv_timeout(Duration::from_secs(5)).unwrap();
        let resp = done.finished - done.arrived;
        assert!(
            resp >= Duration::from_micros(1300),
            "fork missing: {resp:?}"
        );
        tx.send(NodeMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn shutdown_drains_everything() {
        let (tx, drx, stats, h) = spawn_node();
        let t0 = Instant::now();
        for i in 0..5 {
            tx.send(NodeMsg::Run(Job {
                id: i,
                cpu: Duration::from_millis(1),
                io: Duration::from_millis(1),
                dynamic: false,
                arrived: t0,
            }))
            .unwrap();
        }
        tx.send(NodeMsg::Shutdown).unwrap();
        let mut got = 0;
        while drx.recv_timeout(Duration::from_secs(5)).is_ok() {
            got += 1;
            if got == 5 {
                break;
            }
        }
        assert_eq!(got, 5);
        h.join().unwrap();
        assert_eq!(stats.finished.load(Ordering::Relaxed), 5);
        assert_eq!(stats.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn short_io_jumps_long_unstarted_bursts() {
        // Two 300ms CGI bursts then a 5ms static burst: the static must
        // complete right after the in-service burst, not after both.
        let (tx, drx, _stats, h) = spawn_node();
        let t0 = Instant::now();
        for i in 0..2 {
            tx.send(NodeMsg::Run(Job {
                id: i,
                cpu: Duration::ZERO,
                io: Duration::from_millis(300),
                dynamic: false,
                arrived: t0,
            }))
            .unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        tx.send(NodeMsg::Run(Job {
            id: 9,
            cpu: Duration::ZERO,
            io: Duration::from_millis(5),
            dynamic: false,
            arrived: Instant::now(),
        }))
        .unwrap();
        let first = drx.recv_timeout(Duration::from_secs(5)).unwrap();
        let second = drx.recv_timeout(Duration::from_secs(5)).unwrap();
        let third = drx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first.id, 9, "short burst preempts the in-service CGI");
        assert_eq!(second.id, 0, "preempted burst resumes and finishes next");
        assert_eq!(third.id, 1);
        let static_resp = first.finished - first.arrived;
        assert!(
            static_resp < Duration::from_millis(40),
            "static waited {static_resp:?}"
        );
        tx.send(NodeMsg::Shutdown).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn decay_lets_sunk_jobs_recover() {
        let (tx, drx, _stats, h) = spawn_node();
        let t0 = Instant::now();
        for i in 0..2 {
            tx.send(NodeMsg::Run(Job {
                id: i,
                cpu: Duration::from_millis(20),
                io: Duration::ZERO,
                dynamic: false,
                arrived: t0,
            }))
            .unwrap();
        }
        let a = drx.recv_timeout(Duration::from_secs(5)).unwrap();
        let b = drx.recv_timeout(Duration::from_secs(5)).unwrap();
        let gap = b.finished.saturating_duration_since(a.finished);
        assert!(gap < Duration::from_millis(25), "gap {gap:?}");
        tx.send(NodeMsg::Shutdown).unwrap();
        h.join().unwrap();
    }
}

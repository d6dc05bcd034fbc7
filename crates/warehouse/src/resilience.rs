//! Resilience primitives for the warehouse: deadlines with cooperative
//! cancellation, admission control for the query facade, retry with
//! exponential backoff for transient storage faults, and the write
//! circuit breaker behind the durable store's degraded read-only mode.
//!
//! The paper's deployment story (Section V-B) is an *interactive* console
//! — a scientist switching views in ≈13 ms — and the ROADMAP's north star
//! is serving that workload multi-user. That makes tail latency, overload
//! and flaky disks first-class failure modes, not exceptional ones. This
//! module holds the mechanisms; `query`, `index`, `store` and `durable`
//! thread them through the stack.

use crate::json::JsonObject;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How many traversal nodes a query visits between two deadline checks.
/// Checking `Instant::now()` per node would dominate small queries;
/// every 64 nodes bounds the overshoot to a few microseconds of work
/// while keeping the common (undeadlined) path to one atomic load.
pub const CHECK_STRIDE: u32 = 64;

// ---------------------------------------------------------------------------
// Deadlines + cooperative cancellation
// ---------------------------------------------------------------------------

/// A shared flag that cancels every in-flight query holding a clone.
///
/// Cancellation is cooperative: traversals poll the flag every
/// [`CHECK_STRIDE`] nodes and unwind with [`Interrupt::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; every traversal polling this token unwinds at its
    /// next stride check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a traversal stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interrupt {
    /// The monotonic cutoff passed mid-traversal.
    DeadlineExceeded,
    /// The [`CancelToken`] was raised mid-traversal.
    Cancelled,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::DeadlineExceeded => write!(f, "query deadline exceeded"),
            Interrupt::Cancelled => write!(f, "query cancelled"),
        }
    }
}

/// A per-query execution budget: an optional monotonic cutoff plus an
/// optional cancellation token, checked cooperatively inside traversals.
///
/// `Deadline::unlimited()` is free to check (two branch-predicted `None`
/// tests), so undeadlined queries pay nothing.
#[derive(Clone, Debug, Default)]
pub struct Deadline {
    cutoff: Option<Instant>,
    token: Option<CancelToken>,
    stride: u32,
}

impl Deadline {
    /// No cutoff, no token: `check` always succeeds.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A cutoff `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            cutoff: Some(Instant::now() + budget),
            token: None,
            stride: 0,
        }
    }

    /// A cutoff at an absolute monotonic instant.
    pub fn at(cutoff: Instant) -> Self {
        Deadline {
            cutoff: Some(cutoff),
            token: None,
            stride: 0,
        }
    }

    /// Attaches a cancellation token; `check` fails once it is raised.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Whether this deadline can ever interrupt a traversal.
    pub fn is_unlimited(&self) -> bool {
        self.cutoff.is_none() && self.token.is_none()
    }

    /// The full check: token first (cheap atomic load), then the clock.
    pub fn check(&self) -> Result<(), Interrupt> {
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        if let Some(cutoff) = self.cutoff {
            if Instant::now() >= cutoff {
                return Err(Interrupt::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// The strided check traversals call per visited node: a counter
    /// increment on the fast path, the full [`Deadline::check`] every
    /// [`CHECK_STRIDE`] calls. `&mut self` keeps the counter thread-local
    /// to the traversal that owns the deadline clone.
    pub fn tick(&mut self) -> Result<(), Interrupt> {
        if self.is_unlimited() {
            return Ok(());
        }
        self.stride += 1;
        if self.stride < CHECK_STRIDE {
            return Ok(());
        }
        self.stride = 0;
        self.check()
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct AdmissionState {
    in_flight: usize,
    waiting: usize,
}

/// A counting semaphore bounding concurrent facade queries, with a
/// bounded wait queue and load shedding past it.
///
/// Built on `std::sync::{Mutex, Condvar}` (the vendored `parking_lot`
/// stub carries no condvar). The lock is held only to adjust two
/// counters, never across query execution.
#[derive(Debug)]
pub struct AdmissionControl {
    state: Mutex<AdmissionState>,
    available: Condvar,
    max_in_flight: usize,
    max_queue: usize,
}

impl AdmissionControl {
    /// At most `max_in_flight` concurrent holders; up to `max_queue`
    /// further callers block waiting for a slot; beyond that, shed.
    pub fn new(max_in_flight: usize, max_queue: usize) -> Self {
        AdmissionControl {
            state: Mutex::new(AdmissionState::default()),
            available: Condvar::new(),
            max_in_flight: max_in_flight.max(1),
            max_queue,
        }
    }

    /// Acquires a slot, blocking in the bounded queue if necessary.
    /// Returns `None` when the queue is also full (load shed).
    pub fn admit(self: &Arc<Self>) -> Option<AdmissionPermit> {
        let mut state = self.state.lock().expect("admission lock poisoned");
        if state.in_flight < self.max_in_flight {
            state.in_flight += 1;
            return Some(AdmissionPermit {
                control: Arc::clone(self),
            });
        }
        if state.waiting >= self.max_queue {
            return None;
        }
        state.waiting += 1;
        while state.in_flight >= self.max_in_flight {
            state = self.available.wait(state).expect("admission lock poisoned");
        }
        state.waiting -= 1;
        state.in_flight += 1;
        Some(AdmissionPermit {
            control: Arc::clone(self),
        })
    }

    /// Frees a slot and wakes one queued waiter, if any is queued. A
    /// waiter counts itself in `waiting` under the lock before it sleeps,
    /// so a release that reads zero there has no one to wake: a caller
    /// that queues later finds the freed slot before it waits.
    fn release(&self) {
        let mut state = self.state.lock().expect("admission lock poisoned");
        state.in_flight -= 1;
        let waiting = state.waiting;
        drop(state);
        if waiting > 0 {
            self.available.notify_one();
        }
    }

    /// Current holders plus queued waiters — zero means the control is
    /// idle (no permit outstanding, nobody blocked), which is what makes
    /// an owning table entry safe to evict.
    pub fn load(&self) -> usize {
        let state = self.state.lock().expect("admission lock poisoned");
        state.in_flight + state.waiting
    }

    /// The configured concurrency bound.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// The configured queue depth.
    pub fn max_queue(&self) -> usize {
        self.max_queue
    }
}

/// An RAII admission slot; dropping it wakes one queued waiter.
#[derive(Debug)]
pub struct AdmissionPermit {
    control: Arc<AdmissionControl>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.control.release();
    }
}

// ---------------------------------------------------------------------------
// Retry with exponential backoff + jitter
// ---------------------------------------------------------------------------

/// Classifies a storage error: transient faults (interrupted syscalls,
/// saturated queues, timeouts) are worth retrying; everything else —
/// including `FaultFs`'s crash-style injected faults — is permanent and
/// surfaces immediately.
pub fn is_transient(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Process-wide jitter state: a counter mixed through a multiply-xorshift
/// so concurrent retriers decorrelate without any RNG dependency.
static JITTER_SEED: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

fn jitter_below(bound_nanos: u64) -> u64 {
    if bound_nanos == 0 {
        return 0;
    }
    let raw = JITTER_SEED.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    let mut x = raw;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x % bound_nanos
}

/// Exponential backoff policy for transient storage faults.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Cap on the (pre-jitter) backoff delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries; useful to disable backoff in tests.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The backoff before retry number `retry` (1-based), with up to 50%
    /// multiplicative jitter subtracted so synchronized retriers spread.
    fn delay_for(&self, retry: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << (retry - 1).min(20));
        let capped = exp.min(self.max_delay);
        let nanos = capped.as_nanos() as u64;
        Duration::from_nanos(nanos - jitter_below(nanos / 2 + 1).min(nanos))
    }

    /// Runs `op`, retrying transient `io::Error`s (per [`is_transient`])
    /// with exponential backoff. `on_retry` is invoked once per retry —
    /// the metrics hook. Permanent errors and exhaustion surface the last
    /// error unchanged.
    pub fn run<T>(
        &self,
        mut on_retry: impl FnMut(),
        mut op: impl FnMut() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt < attempts => {
                    on_retry();
                    std::thread::sleep(self.delay_for(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Write circuit breaker
// ---------------------------------------------------------------------------

/// Breaker states. `Open` is the degraded read-only mode: mutations fail
/// fast with `Degraded` while queries keep serving from memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BreakerState {
    /// Healthy: writes flow to storage.
    Closed,
    /// Tripped: writes are rejected without touching storage.
    Open,
    /// A probe (the next checkpoint) is in flight.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// Counts consecutive permanent journal-append failures and trips into
/// [`BreakerState::Open`] after `threshold` of them. The durable store's
/// next `checkpoint` acts as the half-open probe: a successful checkpoint
/// rewrites the snapshot from memory, so disk provably matches memory
/// again and the breaker closes.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    consecutive: u32,
    state: BreakerState,
    trips: u64,
    recoveries: u64,
}

impl CircuitBreaker {
    /// Trips after `threshold` consecutive permanent failures.
    pub fn new(threshold: u32) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            consecutive: 0,
            state: BreakerState::Closed,
            trips: 0,
            recoveries: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether mutations should be rejected without touching storage.
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open | BreakerState::HalfOpen)
    }

    /// Consecutive permanent failures seen since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive
    }

    /// Times the breaker tripped Closed→Open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times a probe closed the breaker again.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Records a permanent write failure; returns `true` if this one
    /// tripped the breaker.
    pub fn record_failure(&mut self) -> bool {
        self.consecutive += 1;
        match self.state {
            BreakerState::Closed if self.consecutive >= self.threshold => {
                self.state = BreakerState::Open;
                self.trips += 1;
                true
            }
            // A failed probe re-opens.
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                false
            }
            _ => false,
        }
    }

    /// Records a successful write (or probe); returns `true` if this
    /// closed an open breaker.
    pub fn record_success(&mut self) -> bool {
        self.consecutive = 0;
        if self.is_open() {
            self.state = BreakerState::Closed;
            self.recoveries += 1;
            true
        } else {
            false
        }
    }

    /// Marks the probe in flight (called as a checkpoint begins while
    /// open).
    pub fn begin_probe(&mut self) {
        if self.state == BreakerState::Open {
            self.state = BreakerState::HalfOpen;
        }
    }
}

// ---------------------------------------------------------------------------
// Health surface
// ---------------------------------------------------------------------------

/// Lifecycle state of one supervised shard (DESIGN.md §17).
///
/// The supervisor drives each shard around the cycle
/// `Healthy → Degraded → Quarantined → Rebuilding → Healthy`: the write
/// breaker tripping marks the shard `Degraded`; quarantine takes it out of
/// the write path entirely (mutations answer a typed `Unavailable` instead
/// of a breaker rejection) while reads keep serving from memory; rebuild
/// re-opens a fresh store from disk and atomically swaps it back in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ShardState {
    /// Writes flow normally.
    Healthy,
    /// The write breaker is open: mutations fail fast, reads serve.
    Degraded,
    /// Out of the write path awaiting repair; reads serve from memory.
    Quarantined,
    /// An online repair is re-opening the shard from disk; the old
    /// in-memory image keeps answering reads until the atomic swap.
    Rebuilding,
}

impl ShardState {
    /// Whether the write path may reach the shard at all. `Degraded`
    /// still admits writes so the breaker (and its probe) stays the
    /// authority; quarantine and rebuild refuse before touching the store.
    pub fn accepts_writes(&self) -> bool {
        matches!(self, ShardState::Healthy | ShardState::Degraded)
    }
}

impl fmt::Display for ShardState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardState::Healthy => write!(f, "healthy"),
            ShardState::Degraded => write!(f, "degraded"),
            ShardState::Quarantined => write!(f, "quarantined"),
            ShardState::Rebuilding => write!(f, "rebuilding"),
        }
    }
}

/// A point-in-time health summary of a store, the payload behind
/// `Zoom::health()` and `zoomctl health --json`.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HealthReport {
    /// `true` when the store can accept mutations.
    pub writable: bool,
    /// Breaker state; in-memory stores are always `Closed`.
    pub breaker: BreakerState,
    /// Consecutive permanent append failures since the last success.
    pub consecutive_failures: u32,
    /// Breaker trips over the store's lifetime.
    pub breaker_trips: u64,
    /// Breaker recoveries over the store's lifetime.
    pub breaker_recoveries: u64,
    /// Transient IO retries performed.
    pub io_retries: u64,
    /// Mutations rejected while degraded.
    pub degraded_writes_rejected: u64,
    /// Whether the store is durably backed at all.
    pub durable: bool,
    /// Supervisor lifecycle state; stores outside a supervised router
    /// report `Healthy` (or `Degraded` when the breaker is open).
    pub state: ShardState,
    /// Durability epoch (0 for in-memory stores).
    pub epoch: u64,
    /// Times the supervisor quarantined this shard.
    pub quarantines: u64,
    /// Online repairs completed (fsck + reopen + swap).
    pub repairs: u64,
    /// Duration of the most recent completed repair, nanoseconds
    /// (0 when never repaired).
    pub last_repair_nanos: u64,
}

impl HealthReport {
    /// A healthy in-memory store: always writable, never durable.
    pub fn in_memory() -> Self {
        HealthReport {
            writable: true,
            breaker: BreakerState::Closed,
            consecutive_failures: 0,
            breaker_trips: 0,
            breaker_recoveries: 0,
            io_retries: 0,
            degraded_writes_rejected: 0,
            durable: false,
            state: ShardState::Healthy,
            epoch: 0,
            quarantines: 0,
            repairs: 0,
            last_repair_nanos: 0,
        }
    }

    /// Renders the report as a JSON object (keys documented in DESIGN.md
    /// §12/§17).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        JsonObject::new(&mut out)
            .field("status", if self.writable { "ok" } else { "degraded" })
            .field("writable", self.writable)
            .field("durable", self.durable)
            .field("breaker", self.breaker.to_string())
            .field("consecutive_failures", self.consecutive_failures)
            .field("breaker_trips", self.breaker_trips)
            .field("breaker_recoveries", self.breaker_recoveries)
            .field("io_retries", self.io_retries)
            .field("degraded_writes_rejected", self.degraded_writes_rejected)
            .field("state", self.state.to_string())
            .field("epoch", self.epoch)
            .field("quarantines", self.quarantines)
            .field("repairs", self.repairs)
            .field("last_repair_nanos", self.last_repair_nanos)
            .finish();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_deadline_never_fires() {
        let mut d = Deadline::unlimited();
        for _ in 0..10_000 {
            assert_eq!(d.tick(), Ok(()));
        }
    }

    #[test]
    fn expired_deadline_fires_within_one_stride() {
        let mut d = Deadline::at(Instant::now());
        let mut ticks = 0u32;
        let err = loop {
            ticks += 1;
            if let Err(e) = d.tick() {
                break e;
            }
            assert!(ticks <= CHECK_STRIDE, "deadline never fired");
        };
        assert_eq!(err, Interrupt::DeadlineExceeded);
    }

    #[test]
    fn cancel_token_wins_over_clock() {
        let token = CancelToken::new();
        let d = Deadline::at(Instant::now()).with_token(token.clone());
        token.cancel();
        assert_eq!(d.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn admission_sheds_past_queue_depth() {
        let ctl = Arc::new(AdmissionControl::new(1, 0));
        let held = ctl.admit().expect("first caller admitted");
        assert!(ctl.admit().is_none(), "no queue: second caller shed");
        drop(held);
        assert!(ctl.admit().is_some(), "slot free again after release");
    }

    #[test]
    fn admission_queue_unblocks_on_release() {
        let ctl = Arc::new(AdmissionControl::new(1, 4));
        let held = ctl.admit().expect("admitted");
        let ctl2 = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || ctl2.admit().is_some());
        // Release once the waiter has queued.
        while ctl.load() < 2 {
            std::thread::yield_now();
        }
        drop(held);
        assert!(waiter.join().expect("waiter thread"));
    }

    /// Threads contending for one slot all finish: a release that skips
    /// its wake-up because no one was queued never strands a waiter.
    #[test]
    fn admission_loses_no_wake_up_under_contention() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 10_000;
        let ctl = Arc::new(AdmissionControl::new(1, THREADS));
        let (done, finished) = std::sync::mpsc::channel();
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let (ctl, done) = (Arc::clone(&ctl), done.clone());
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        drop(ctl.admit().expect("the queue holds every thread"));
                    }
                    done.send(()).expect("the test waits");
                })
            })
            .collect();
        // A stranded waiter never finishes: time out rather than hang.
        for _ in 0..THREADS {
            finished
                .recv_timeout(Duration::from_secs(60))
                .expect("a waiter was stranded");
        }
        for t in threads {
            t.join().expect("admitting thread");
        }
        assert_eq!(ctl.load(), 0);
    }

    #[test]
    fn retry_absorbs_transient_faults() {
        let mut failures = 2;
        let mut retries = 0;
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(100),
        };
        let out = policy.run(
            || retries += 1,
            || {
                if failures > 0 {
                    failures -= 1;
                    Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "transient",
                    ))
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(out.unwrap(), 7);
        assert_eq!(retries, 2);
    }

    #[test]
    fn retry_surfaces_permanent_faults_immediately() {
        let mut calls = 0;
        let out: std::io::Result<()> = RetryPolicy::default().run(
            || panic!("permanent errors must not retry"),
            || {
                calls += 1;
                Err(std::io::Error::other("permanent"))
            },
        );
        assert!(out.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn retry_exhaustion_surfaces_last_error() {
        let mut retries = 0;
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(1),
            max_delay: Duration::from_micros(10),
        };
        let out: std::io::Result<()> = policy.run(
            || retries += 1,
            || {
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "still down",
                ))
            },
        );
        assert_eq!(out.unwrap_err().kind(), std::io::ErrorKind::TimedOut);
        assert_eq!(retries, 2, "max_attempts=3 means 2 retries");
    }

    #[test]
    fn breaker_trips_and_recovers() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.is_open());
        b.begin_probe();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.record_success(), "probe success closes");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!((b.trips(), b.recoveries()), (1, 1));
    }

    #[test]
    fn failed_probe_reopens_without_double_counting() {
        let mut b = CircuitBreaker::new(1);
        assert!(b.record_failure());
        b.begin_probe();
        assert!(!b.record_failure(), "probe failure is not a fresh trip");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn health_report_json_shape() {
        let json = HealthReport::in_memory().to_json();
        assert!(json.contains("\"status\":\"ok\""), "{json}");
        assert!(json.contains("\"breaker\":\"closed\""), "{json}");
    }
}

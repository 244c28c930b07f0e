//! The wire half: the server child process and the client lanes that
//! load it over loopback.
//!
//! The server is this same binary re-executed with [`SERVE_ARG`]: a
//! `NetServer` over a `Server` over a `Runtime`, all at their builder
//! defaults, so its CPU time and RSS are its own process's. It prints
//! its address, then answers `stats` lines on stdin until EOF.
//!
//! Each client lane owns one connection and one thread, and drains
//! responses while it sends: the server writes a RESULT from the single
//! serve worker's completion callback, and that write blocks while the
//! client's socket is full — a client that stops reading (say, after a
//! `queue_full` ERROR) stalls the worker and with it every connection.
//! Lanes therefore never block on anything but the next readable byte
//! or the next send time, and keep in-flight requests under the
//! 1024-entry queue.

use crate::workload::{Req, Stream, Workload};
use bh_container::Container;
use bh_net::{Frame, NetServer, PROTOCOL_VERSION};
use bh_runtime::Runtime;
use bh_serve::Server;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Argument that turns this binary into the server child.
pub const SERVE_ARG: &str = "--serve-child";

/// Open-loop cap on one lane's in-flight requests: far under the
/// server's 1024-entry queue, so a stall shows up as generator lateness
/// (and latency, which counts from the due time), never as
/// `queue_full` — and a stall's backlog cannot inflate the server's
/// peak RSS by more than a few requests' worth.
pub const OPEN_INFLIGHT_CAP: usize = 64;

/// A lane waiting this long for any response declares its in-flight
/// requests missing.
const STALL: Duration = Duration::from_secs(20);

/// `/proc/<pid>/stat` CPU times are in clock ticks of 1/100 s
/// (`USER_HZ`, fixed by the Linux ABI).
const USER_HZ: f64 = 100.0;

// ---------------------------------------------------------------- server

/// Run the server child: everything at builder defaults.
pub fn serve_child() {
    let runtime = Runtime::builder().build_shared();
    let builder = Server::builder(Arc::clone(&runtime));
    let config = format!(
        "engine={:?} vm_threads={} cache_capacity={} profiling={} tiered={} audit={} serve={:?}",
        runtime.engine(),
        runtime.threads(),
        runtime.cache_capacity(),
        runtime.profile_table().is_some(),
        runtime.tiered(),
        runtime.audit(),
        builder,
    );
    let server = Arc::new(builder.build());
    let door = NetServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind loopback");
    let mut out = io::stdout().lock();
    writeln!(out, "addr {}", door.local_addr()).expect("stdout");
    writeln!(out, "config {config}").expect("stdout");
    out.flush().expect("stdout");
    for line in io::stdin().lock().lines() {
        if !line.is_ok_and(|l| l.trim() == "stats") {
            break;
        }
        let net = door.stats();
        let serve = server.stats();
        let rt = runtime.stats();
        writeln!(
            out,
            "stats net.connections={} net.results_sent={} net.errors_sent={} \
             serve.submitted={} serve.rejected={} serve.completed={} serve.failed={} \
             serve.expired={} serve.batches={} rt.evals={} rt.cache_hits={} \
             rt.cache_misses={} rt.verifications={} rt.cached_plans={}",
            net.connections,
            net.results_sent,
            net.errors_sent,
            serve.submitted,
            serve.rejected,
            serve.completed,
            serve.failed,
            serve.expired,
            serve.batches,
            rt.evals,
            rt.cache_hits,
            rt.cache_misses,
            rt.verifications,
            runtime.cached_plans(),
        )
        .expect("stdout");
        out.flush().expect("stdout");
    }
    door.close();
    server.shutdown();
}

/// Counters from the server child, by name.
pub type ServerStats = BTreeMap<String, f64>;

/// The server child, seen from the benchmark. Dropping it kills and
/// reaps the process.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub config: String,
}

impl ServerProc {
    pub fn spawn() -> io::Result<ServerProc> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(SERVE_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut proc = ServerProc {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            config: String::new(),
        };
        let addr = proc.line("addr")?;
        proc.addr = addr
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad server address"))?;
        proc.config = proc.line("config")?;
        Ok(proc)
    }

    fn line(&mut self, tag: &str) -> io::Result<String> {
        let mut line = String::new();
        self.stdout.read_line(&mut line)?;
        line.trim_end()
            .strip_prefix(tag)
            .map(|rest| rest.trim().to_owned())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected `{tag}`, got `{line}`"),
                )
            })
    }

    pub fn stats(&mut self) -> io::Result<ServerStats> {
        let stdin = self.stdin.as_mut().expect("server running");
        stdin.write_all(b"stats\n")?;
        stdin.flush()?;
        let line = self.line("stats")?;
        Ok(line
            .split_whitespace()
            .filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_owned(), v.parse().ok()?))
            })
            .collect())
    }

    /// Server-process user + system CPU seconds so far.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        let after_comm = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let fields: Vec<&str> = after_comm.split_whitespace().collect();
        // Fields 14 (utime) and 15 (stime), counted from 1 with the
        // command name as field 2; `fields[0]` is field 3.
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Ok((ticks(11) + ticks(12)) / USER_HZ)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))?;
        Ok(kb / 1024.0)
    }

    /// Close the server's stdin and wait (bounded) for a clean exit.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("server did not exit within 10 s"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------- client

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("wirebench reads /proc and calls ppoll: 64-bit Linux only");

/// `ppoll(2)`: wait for a socket to turn readable with a nanosecond
/// timeout (a socket read timeout only wakes on scheduler ticks, far
/// too coarse to pace an open loop).
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are initialised locals laid out as the C
    // `struct pollfd` / `struct timespec` of 64-bit Linux (checked by the
    // `compile_error!` gate above) and outlive the call; `nfds` is 1 for
    // the single entry; a null sigmask keeps the current signal mask.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(err)
        };
    }
    Ok(rc > 0)
}

/// Shrink this thread's timer slack to 1 ns so `ppoll` timeouts wake
/// on time (the default 50 µs slack would show up as generator
/// lateness in every open-loop send).
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack; the value 1 is in
    // range, and a failure merely keeps the default slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Reassembles frames from whatever the socket delivers, so a lane can
/// wait with a timeout without ever losing a partial frame.
#[derive(Debug)]
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    fn new(stream: TcpStream) -> FrameReader {
        FrameReader {
            stream,
            buf: vec![0; 1 << 20],
            start: 0,
            end: 0,
        }
    }

    /// Wait up to `timeout` for bytes; true if any arrived.
    fn fill(&mut self, timeout: Duration) -> io::Result<bool> {
        if !wait_readable(&self.stream, timeout)? {
            return Ok(false);
        }
        if self.end == self.buf.len() {
            self.make_room(self.buf.len() * 2);
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.end += n;
        Ok(true)
    }

    /// Move the unread bytes to the front; grow to `want` if needed.
    fn make_room(&mut self, want: usize) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
    }

    /// The next complete frame and its size on the wire, if buffered.
    fn take(&mut self) -> io::Result<Option<(Frame, usize)>> {
        let avail = &self.buf[self.start..self.end];
        let Some(len4) = avail.get(..4) else {
            return Ok(None);
        };
        let total = 4 + u32::from_le_bytes(len4.try_into().expect("4 bytes")) as usize;
        if avail.len() < total {
            if self.buf.len() - self.start < total {
                self.make_room(total.max(self.buf.len()));
            }
            return Ok(None);
        }
        let frame = Frame::read_from(&mut &avail[..total])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.start += total;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Some((frame, total)))
    }
}

/// How a phase issues requests.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Keep `window` requests in flight.
    Closed { window: usize },
    /// Send one request every `interval`, the first `offset` after the
    /// phase start, however many are in flight (up to a cap).
    Open {
        interval: Duration,
        offset: Duration,
    },
}

/// Where a phase's requests come from.
#[derive(Debug)]
pub enum Source<'w> {
    List(std::vec::IntoIter<Req>),
    Stream(Stream<'w>),
}

impl Iterator for Source<'_> {
    type Item = Req;
    fn next(&mut self) -> Option<Req> {
        match self {
            Source::List(it) => it.next(),
            Source::Stream(s) => s.next(),
        }
    }
}

/// One request's client-side spans (traced phases only), in µs.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub lane: u64,
    pub request_id: u64,
    pub prog: u32,
    pub encode_us: f64,
    pub write_us: f64,
    pub wait_us: f64,
    pub read_us: f64,
    pub latency_us: f64,
    pub queue_wait_us: f64,
    pub turnaround_us: f64,
    pub batch_size: u32,
    pub submit_bytes: usize,
    pub result_bytes: usize,
}

/// What one lane saw in one phase.
#[derive(Debug, Default)]
pub struct LaneResult {
    /// When the phase began (set on the merged result).
    pub started: Option<Instant>,
    pub attempted: u64,
    pub completed: u64,
    /// Completed no later than the phase's issue deadline.
    pub completed_in_time: u64,
    /// When the last of those completed.
    pub last_in_time: Option<Instant>,
    pub errors: u64,
    pub wrong: u64,
    pub missing: u64,
    pub error_codes: BTreeMap<String, u64>,
    /// From the send (closed loop) or the due time (open loop).
    pub latency_us: Vec<f64>,
    /// Open loop: how far behind schedule each send went out.
    pub lateness_us: Vec<f64>,
    pub spans: Vec<Span>,
}

impl LaneResult {
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong + self.missing
    }

    pub fn merge(&mut self, other: LaneResult) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.completed_in_time += other.completed_in_time;
        self.last_in_time = self.last_in_time.max(other.last_in_time);
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.missing += other.missing;
        for (code, n) in other.error_codes {
            *self.error_codes.entry(code).or_default() += n;
        }
        self.latency_us.extend(other.latency_us);
        self.lateness_us.extend(other.lateness_us);
        self.spans.extend(other.spans);
    }
}

struct Pending {
    req: Req,
    /// Latency is measured from here: the send, or the due time.
    start: Instant,
    encode_us: f64,
    write_us: f64,
    written: Instant,
    submit_bytes: usize,
}

/// One connection, driven by one thread.
#[derive(Debug)]
pub struct Lane {
    pub index: u64,
    writer: TcpStream,
    reader: FrameReader,
    next_id: u64,
    /// Set once the connection is unusable (stall or transport error).
    broken: bool,
}

impl Lane {
    /// Connect and complete the `HELLO` handshake.
    pub fn connect(addr: SocketAddr, index: u64) -> io::Result<Lane> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut lane = Lane {
            index,
            reader: FrameReader::new(writer.try_clone()?),
            writer,
            next_id: 1,
            broken: false,
        };
        let mut hello = Vec::new();
        Frame::Hello {
            version: PROTOCOL_VERSION,
            tenant: format!("lane-{index}"),
        }
        .write_to(&mut hello)
        .map_err(|e| io::Error::other(e.to_string()))?;
        lane.writer.write_all(&hello)?;
        loop {
            if let Some((frame, _)) = lane.reader.take()? {
                return match frame {
                    Frame::HelloAck { .. } => Ok(lane),
                    other => Err(io::Error::other(format!("handshake refused: {other:?}"))),
                };
            }
            if !lane.reader.fill(Duration::from_secs(10))? {
                return Err(io::Error::other("no HELLO_ACK within 10 s"));
            }
        }
    }

    fn send(&mut self, w: &Workload, req: Req, trace: bool) -> io::Result<(u64, f64, f64, usize)> {
        let prog = w.prog(req);
        let t = Instant::now();
        let container = if trace {
            Container::program(prog.program.clone()).encode()
        } else {
            prog.container.clone()
        };
        let encode_us = us(t.elapsed());
        let request_id = self.next_id;
        self.next_id += 1;
        let t = Instant::now();
        let mut bytes = Vec::with_capacity(container.len() + 32);
        Frame::Submit {
            request_id,
            read: Some(prog.reads[req.read as usize].reg),
            deadline_ms: None,
            container,
        }
        .write_to(&mut bytes)
        .map_err(|e| io::Error::other(e.to_string()))?;
        self.writer.write_all(&bytes)?;
        Ok((request_id, encode_us, us(t.elapsed()), bytes.len()))
    }

    /// Run one phase: issue from `source` under `mode` until the source
    /// runs dry or `until` passes, then drain every response.
    pub fn run(
        &mut self,
        w: &Workload,
        mut source: Source<'_>,
        mode: Mode,
        phase_start: Instant,
        until: Option<Instant>,
        trace: bool,
    ) -> LaneResult {
        let mut out = LaneResult::default();
        if self.broken {
            return out;
        }
        let mut pending: HashMap<u64, Pending> = HashMap::new();
        let mut issuing = true;
        let mut next_due = match mode {
            Mode::Open { offset, .. } => phase_start + offset,
            Mode::Closed { .. } => phase_start,
        };
        let mut last_progress = Instant::now();
        loop {
            let now = Instant::now();
            if issuing && until.is_some_and(|u| now >= u) {
                issuing = false;
            }
            while issuing {
                let start = match mode {
                    Mode::Closed { window } => {
                        if pending.len() >= window {
                            break;
                        }
                        Instant::now()
                    }
                    Mode::Open { interval, .. } => {
                        if until.is_some_and(|u| next_due >= u) {
                            issuing = false;
                            break;
                        }
                        // A full lane leaves the slot due: it goes out
                        // late, and its latency still counts from here.
                        if next_due > Instant::now() || pending.len() >= OPEN_INFLIGHT_CAP {
                            break;
                        }
                        let due = next_due;
                        next_due += interval;
                        due
                    }
                };
                let Some(req) = source.next() else {
                    issuing = false;
                    break;
                };
                if pending.is_empty() {
                    last_progress = Instant::now();
                }
                match self.send(w, req, trace) {
                    Ok((id, encode_us, write_us, submit_bytes)) => {
                        out.attempted += 1;
                        if matches!(mode, Mode::Open { .. }) {
                            out.lateness_us
                                .push(us(Instant::now().saturating_duration_since(start)));
                        }
                        pending.insert(
                            id,
                            Pending {
                                req,
                                start,
                                encode_us,
                                write_us,
                                written: Instant::now(),
                                submit_bytes,
                            },
                        );
                    }
                    Err(_) => {
                        out.attempted += 1;
                        out.missing += 1;
                        self.broken = true;
                        issuing = false;
                    }
                }
            }
            if pending.is_empty() && (!issuing || self.broken) {
                break;
            }
            let now = Instant::now();
            let wait = match (issuing, mode, until) {
                (true, Mode::Open { .. }, _) if pending.len() < OPEN_INFLIGHT_CAP => {
                    next_due.saturating_duration_since(now)
                }
                (true, _, Some(u)) => u.saturating_duration_since(now).min(STALL),
                _ => STALL,
            };
            let got = match self.reader.fill(wait) {
                Ok(got) => got,
                Err(_) => {
                    self.broken = true;
                    false
                }
            };
            let recv = Instant::now();
            if got {
                last_progress = recv;
            }
            loop {
                let t = Instant::now();
                let frame = match self.reader.take() {
                    Ok(Some((frame, len))) => (frame, len, us(t.elapsed())),
                    Ok(None) => break,
                    Err(_) => {
                        self.broken = true;
                        break;
                    }
                };
                self.handle(w, frame, recv, until, &mut pending, &mut out, trace);
            }
            let stalled = !pending.is_empty() && recv.duration_since(last_progress) >= STALL;
            if self.broken || stalled {
                out.missing += pending.len() as u64;
                self.broken = true;
                break;
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn handle(
        &mut self,
        w: &Workload,
        (frame, len, read_us): (Frame, usize, f64),
        recv: Instant,
        until: Option<Instant>,
        pending: &mut HashMap<u64, Pending>,
        out: &mut LaneResult,
        trace: bool,
    ) {
        match frame {
            Frame::Result {
                request_id,
                batch_size,
                queue_wait_nanos,
                turnaround_nanos,
                value,
            } => {
                let Some(p) = pending.remove(&request_id) else {
                    // A RESULT for nothing in flight breaks exactly-once.
                    out.wrong += 1;
                    return;
                };
                let check = &w.prog(p.req).reads[p.req.read as usize].check;
                if !value.as_deref().is_some_and(|v| check.accepts(v)) {
                    out.wrong += 1;
                    return;
                }
                out.completed += 1;
                if until.is_none_or(|u| recv <= u) {
                    out.completed_in_time += 1;
                    out.last_in_time = Some(recv);
                }
                let latency_us = us(recv.duration_since(p.start));
                out.latency_us.push(latency_us);
                if trace {
                    out.spans.push(Span {
                        lane: self.index,
                        request_id,
                        prog: p.req.prog,
                        encode_us: p.encode_us,
                        write_us: p.write_us,
                        wait_us: us(recv.duration_since(p.written)),
                        read_us,
                        latency_us,
                        queue_wait_us: queue_wait_nanos as f64 / 1e3,
                        turnaround_us: turnaround_nanos as f64 / 1e3,
                        batch_size,
                        submit_bytes: p.submit_bytes,
                        result_bytes: len,
                    });
                }
            }
            Frame::Error {
                request_id, code, ..
            } => {
                out.errors += 1;
                *out.error_codes.entry(code).or_default() += 1;
                if pending.remove(&request_id).is_none() {
                    // A connection-level error: nothing more will come.
                    out.missing += pending.len() as u64;
                    pending.clear();
                    self.broken = true;
                }
            }
            _ => {
                out.wrong += 1;
            }
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

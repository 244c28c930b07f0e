//! The in-process half of the traced run: the same seeded request
//! stream the wire sees, pushed through each layer's public calls in
//! the order the server makes them, with every call timed from here.
//!
//! Stages, per request: `Container::decode` → `bh_ir::verify` →
//! `Program::structural_digest` → `Runtime::prepare` (split by its hit
//! flag) → `lease_vm` + `eval_prepared` without a read → `Vm::read` →
//! `Frame::write_to` into a `Vec`. On every miss, `Optimizer::run` is
//! also timed on a clone of the source program, outside the chain.

use crate::stats::median;
use crate::workload::{Kind, Req, Workload};
use bh_container::Container;
use bh_ir::Reg;
use bh_net::Frame;
use bh_opt::Optimizer;
use bh_runtime::Runtime;
use std::time::Instant;

/// Requests replayed after the warm-up, per workload. A fixed count
/// (not a duration) so the per-request counts repeat exactly for a
/// seed. The bulk count is a multiple of both stratification blocks.
pub fn replay_requests(kind: Kind) -> usize {
    match kind {
        Kind::WireHot => 20_000,
        Kind::CompileChurn => 20_000,
        Kind::BulkKernels => 40,
    }
}

/// Per-stage samples in microseconds, and per-request counts.
#[derive(Debug, Default)]
pub struct Replay {
    pub requests: usize,
    pub wrong: usize,
    pub decode_us: Vec<f64>,
    pub verify_us: Vec<f64>,
    pub digest_us: Vec<f64>,
    pub prepare_hit_us: Vec<f64>,
    pub prepare_miss_us: Vec<f64>,
    pub execute_us: Vec<f64>,
    pub eval_us: Vec<f64>,
    pub readback_us: Vec<f64>,
    pub frame_write_us: Vec<f64>,
    pub optimize_us: Vec<f64>,
    pub rules_fired: Vec<f64>,
    pub iterations: Vec<f64>,
    pub bytecodes_removed: Vec<f64>,
    pub kernels: u64,
    pub fused_groups: u64,
    pub par_shards: u64,
    pub bytes: u64,
    pub flops: u64,
}

impl Replay {
    /// Sum of the per-stage medians along the request's blocking path.
    pub fn stage_sum_us(&self) -> f64 {
        let prepare = if self.prepare_hit_us.len() >= self.prepare_miss_us.len() {
            median(&self.prepare_hit_us)
        } else {
            median(&self.prepare_miss_us)
        };
        median(&self.decode_us)
            + median(&self.verify_us)
            + median(&self.digest_us)
            + prepare
            + median(&self.execute_us)
            + median(&self.readback_us)
            + median(&self.frame_write_us)
    }

    pub fn per_req(&self, count: u64) -> f64 {
        count as f64 / self.requests as f64
    }

    pub fn gbytes_per_s(&self) -> f64 {
        let secs: f64 = self.execute_us.iter().sum::<f64>() * 1e-6;
        self.bytes as f64 / secs / 1e9
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replay the warm-up and then `count` requests of lane 0 through a
/// fresh runtime built with the server's defaults.
pub fn replay(w: &Workload, count: usize) -> Replay {
    let rt = Runtime::builder().build();
    let mut r = Replay::default();
    let reqs: Vec<Req> = w
        .warmup
        .iter()
        .copied()
        .chain(w.stream(0).take(count))
        .collect();
    for req in reqs {
        let prog = w.prog(req);
        let read = &prog.reads[req.read as usize];

        let t = Instant::now();
        let program = Container::decode(&prog.container)
            .expect("generated container decodes")
            .program;
        r.decode_us.push(us_since(t));

        let t = Instant::now();
        let verified = bh_ir::verify(&program).is_ok();
        r.verify_us.push(us_since(t));
        assert!(verified, "generated program verifies");

        let t = Instant::now();
        std::hint::black_box(program.structural_digest());
        r.digest_us.push(us_since(t));

        let t = Instant::now();
        let (plan, hit) = rt.prepare(&program).expect("generated program compiles");
        let prepare_us = us_since(t);
        if hit {
            r.prepare_hit_us.push(prepare_us);
        } else {
            r.prepare_miss_us.push(prepare_us);
            let mut clone = program.clone();
            let t = Instant::now();
            let report = Optimizer::new(rt.options().clone()).run(&mut clone);
            r.optimize_us.push(us_since(t));
            r.rules_fired.push(report.total_applications() as f64);
            r.iterations.push(report.iterations as f64);
            r.bytecodes_removed
                .push(program.live_len() as f64 - plan.program.live_len() as f64);
        }

        let t = Instant::now();
        let mut vm = rt.lease_vm();
        let (_, outcome) = rt
            .eval_prepared(&plan, &mut vm, &[], None, hit)
            .expect("prepared plan runs");
        r.execute_us.push(us_since(t));
        r.eval_us.push(outcome.elapsed.as_secs_f64() * 1e6);
        r.kernels += outcome.exec.kernels;
        r.fused_groups += outcome.exec.fused_groups;
        r.par_shards += outcome.exec.par_shards;
        r.bytes += outcome.exec.bytes_total();
        r.flops += outcome.exec.flops;

        let t = Instant::now();
        let value = vm
            .read(&plan.program, Reg(read.reg))
            .expect("read register holds data")
            .to_f64_vec();
        r.readback_us.push(us_since(t));
        drop(vm);
        if !read.check.accepts(&value) {
            r.wrong += 1;
        }

        let frame = Frame::Result {
            request_id: r.requests as u64 + 1,
            batch_size: 1,
            queue_wait_nanos: 0,
            turnaround_nanos: 0,
            value: Some(value),
        };
        let mut out = Vec::new();
        let t = Instant::now();
        frame.write_to(&mut out).expect("Vec write");
        r.frame_write_us.push(us_since(t));
        std::hint::black_box(out);
        r.requests += 1;
    }
    r
}

/// Paper-shape counts of one bulk family, from one compile and one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyCounts {
    pub bytecodes_in: usize,
    pub bytecodes_out: usize,
    pub kernels: u64,
    pub fused_groups: u64,
    pub flops: u64,
}

/// Compile and run each `bulk_kernels` program once on a fresh runtime
/// with the server's defaults.
pub fn family_counts(bulk: &Workload) -> Vec<(&'static str, FamilyCounts)> {
    let rt = Runtime::builder().build();
    bulk.programs
        .iter()
        .map(|prog| {
            let (plan, _) = rt.prepare(&prog.program).expect("bulk program compiles");
            let mut vm = rt.lease_vm();
            let (_, outcome) = rt
                .eval_prepared(&plan, &mut vm, &[], None, false)
                .expect("bulk program runs");
            let counts = FamilyCounts {
                bytecodes_in: prog.program.live_len(),
                bytecodes_out: plan.program.live_len(),
                kernels: outcome.exec.kernels,
                fused_groups: outcome.exec.fused_groups,
                flops: outcome.exec.flops,
            };
            (prog.family, counts)
        })
        .collect()
}

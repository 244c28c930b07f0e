//! # bh-bench — benchmark harness support
//!
//! Shared program generators used by the Criterion benches in `benches/`
//! (one bench per experiment of DESIGN.md §5) and reusable by downstream
//! profiling. The experiment tables themselves are printed to stdout by
//! the workspace's `experiments` binary; the Criterion benches provide
//! statistically robust wall-clock confirmation of each shape.

#![warn(missing_docs)]

use bh_ir::{parse_program, Program};
use bh_opt::chains::{ChainStep, PowerChain};

/// Listing-2-style program: `k` constant adds over an `n`-element f64
/// vector, plus init and sync.
pub fn add_chain(n: usize, k: usize) -> Program {
    let mut text = format!("BH_IDENTITY a0 [0:{n}:1] 0\n");
    for _ in 0..k {
        text.push_str("BH_ADD a0 a0 1\n");
    }
    text.push_str("BH_SYNC a0\n");
    parse_program(&text).expect("generated listing parses")
}

/// `BH_POWER`-intrinsic program: `a1 = a0 ^ exponent` over `n` f64
/// elements (base 1.0001 keeps x^n finite for every tested exponent).
pub fn power_intrinsic(n: usize, exponent: u64) -> Program {
    parse_program(&format!(
        "BH_IDENTITY a0 [0:{n}:1] 1.0001\n\
         BH_POWER a1 [0:{n}:1] a0 {exponent}\n\
         BH_SYNC a1\n"
    ))
    .expect("generated program parses")
}

/// Multiply-schedule program realising `chain` over `n` f64 elements.
pub fn power_chain(n: usize, chain: &PowerChain) -> Program {
    let mut text = format!("BH_IDENTITY a0 [0:{n}:1] 1.0001\n");
    for step in &chain.steps {
        text.push_str(match step {
            ChainStep::SquareOrigin => "BH_MULTIPLY a1 [0:N:1] a0 a0\n",
            ChainStep::SquareAcc => "BH_MULTIPLY a1 a1 a1\n",
            ChainStep::MulOrigin => "BH_MULTIPLY a1 a1 a0\n",
        });
    }
    let text = text.replace("[0:N:1]", &format!("[0:{n}:1]"));
    parse_program(&format!("{text}BH_SYNC a1\n")).expect("generated chain parses")
}

/// Chain of `k` element-wise ops over `n` f64 elements, flowing through
/// alternating temporary registers (the byte-code a front-end emits for a
/// nested expression) — the fusion workload of E7. Each unfused step
/// streams two full arrays through memory; the fusing engine keeps both
/// blocks cache-resident.
pub fn elementwise_chain(n: usize, k: usize) -> Program {
    let mut text = format!("BH_IDENTITY a0 [0:{n}:1] 1.5\n");
    let mut src = "a0".to_owned();
    for i in 0..k {
        let dst = format!("t{}", i % 2);
        if i % 2 == 0 {
            text.push_str(&format!("BH_MULTIPLY {dst} [0:{n}:1] {src} 1.000001\n"));
        } else {
            text.push_str(&format!("BH_ADD {dst} [0:{n}:1] {src} 0.5\n"));
        }
        src = dst;
    }
    text.push_str(&format!("BH_SYNC {src}\n"));
    parse_program(&text).expect("generated chain parses")
}

/// Full sum-reduction of an `n`-element f64 input vector — the
/// single-lane reduction workload of the `reduce_scaling` bench (bind
/// the `x` base before running).
pub fn sum_reduce(n: usize) -> Program {
    parse_program(&format!(
        ".base x f64[{n}] input\n.base s f64[]\n\
         BH_ADD_REDUCE s x 0\n\
         BH_SYNC s\n"
    ))
    .expect("generated program parses")
}

/// Prefix-sum (cumsum) of an `n`-element f64 input vector — the
/// single-lane scan workload of the `reduce_scaling` bench.
pub fn cumsum(n: usize) -> Program {
    parse_program(&format!(
        ".base x f64[{n}] input\n.base c f64[{n}]\n\
         BH_ADD_ACCUMULATE c x 0\n\
         BH_SYNC c\n"
    ))
    .expect("generated program parses")
}

/// [`elementwise_chain`] terminated by a full sum-reduction instead of a
/// sync of the chain output: on the fusing engine the chain and the fold
/// contract into **one** sharded kernel with per-block accumulators
/// (`ExecStats::fused_reductions`).
pub fn elementwise_chain_reduce(n: usize, k: usize) -> Program {
    let mut text = format!(".base s f64[]\nBH_IDENTITY a0 [0:{n}:1] 1.5\n");
    let mut src = "a0".to_owned();
    for i in 0..k {
        let dst = format!("t{}", i % 2);
        if i % 2 == 0 {
            text.push_str(&format!("BH_MULTIPLY {dst} [0:{n}:1] {src} 1.000001\n"));
        } else {
            text.push_str(&format!("BH_ADD {dst} [0:{n}:1] {src} 0.5\n"));
        }
        src = dst;
    }
    text.push_str(&format!("BH_ADD_REDUCE s {src} 0\nBH_SYNC s\n"));
    parse_program(&text).expect("generated chain parses")
}

/// The Eq. 2 byte-code pattern (`BH_INVERSE` + `BH_MATMUL`) for an
/// `m × m` system.
pub fn inverse_matmul(m: usize) -> Program {
    parse_program(&format!(
        ".base a f64[{m},{m}] input\n\
         .base b f64[{m}] input\n\
         .base t f64[{m},{m}]\n\
         .base x f64[{m}]\n\
         BH_INVERSE t a\n\
         BH_MATMUL x t b\n\
         BH_SYNC x\n"
    ))
    .expect("generated program parses")
}

/// A well-conditioned random `m × m` f64 matrix (diagonally boosted).
pub fn well_conditioned(m: usize, seed: u64) -> bh_tensor::Tensor {
    use bh_tensor::{random_tensor, DType, Distribution, Scalar, Shape};
    let mut a = random_tensor(
        DType::Float64,
        Shape::matrix(m, m),
        seed,
        Distribution::Uniform,
    );
    for i in 0..m {
        let v = a.get(&[i, i]).expect("diag").as_f64();
        a.set(&[i, i], Scalar::F64(v + m as f64)).expect("diag");
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use bh_vm::Vm;

    #[test]
    fn generators_produce_valid_programs() {
        for p in [
            add_chain(100, 3),
            power_intrinsic(100, 10),
            power_chain(100, &bh_opt::chains::optimal_chain(10).unwrap()),
            elementwise_chain(100, 8),
            elementwise_chain_reduce(100, 8),
        ] {
            bh_ir::verify(&p).unwrap();
            let mut vm = Vm::new();
            vm.run(&p).unwrap();
        }
    }

    #[test]
    fn reduce_generators_produce_valid_programs() {
        use bh_tensor::{random_tensor, DType, Distribution, Shape};
        let x = random_tensor(DType::Float64, Shape::vector(64), 7, Distribution::Uniform);
        for p in [sum_reduce(64), cumsum(64)] {
            bh_ir::verify(&p).unwrap();
            let mut vm = Vm::new();
            vm.bind_by_name(&p, "x", &x).unwrap();
            vm.run(&p).unwrap();
        }
    }

    #[test]
    fn chain_reduce_fuses_on_the_fusing_engine() {
        let p = elementwise_chain_reduce(5000, 6);
        let mut vm = Vm::with_engine(bh_vm::Engine::Fusing { block: 512 });
        vm.run(&p).unwrap();
        assert_eq!(vm.stats().fused_reductions, 1);
    }

    #[test]
    fn inverse_matmul_program_validates() {
        let p = inverse_matmul(8);
        bh_ir::verify(&p).unwrap();
        let mut vm = Vm::new();
        vm.bind_by_name(&p, "a", &well_conditioned(8, 1)).unwrap();
        vm.bind_by_name(
            &p,
            "b",
            &bh_tensor::Tensor::ones(bh_tensor::DType::Float64, bh_tensor::Shape::vector(8)),
        )
        .unwrap();
        vm.run(&p).unwrap();
    }
}

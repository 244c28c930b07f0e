//! Prints every experiment table of DESIGN.md §5 (E1–E9) to stdout as
//! Markdown.
//!
//! One section per experiment. Each section prints a table with the model
//! counters (byte-codes, kernel launches, flops) and measured median
//! wall-clock times, so the paper-vs-measured comparison can be refreshed
//! with `cargo run --release --bin experiments`. Nothing is written to
//! disk. Every table runs on the naive engine (one kernel per byte-code,
//! the regime the paper's rewrites target) except E7, which compares it
//! with the fusing engine.

use bh_ir::{parse_program, PrintStyle, Program};
use bh_opt::{chains, OptLevel, OptOptions, Optimizer};
use bh_tensor::{random_tensor, DType, Distribution, Scalar, Shape};
use bh_vm::{Engine, Vm};
use std::time::Instant;

fn main() {
    println!("# Experiment tables (regenerated)\n");
    println!("Host: single machine, naive VM = 1 kernel/byte-code (see DESIGN.md §2).\n");
    e1_listing_lowering();
    e2_constant_merge();
    e3_e4_power_schedules();
    e5_power_crossover();
    e6_solve();
    e7_fusion();
    e8_pipeline_summary();
    e9_transformation_cache();
}

/// Median wall-clock seconds of `runs` executions of `program` on `engine`.
fn time_program(program: &Program, engine: Engine, runs: usize) -> f64 {
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let mut vm = Vm::with_engine(engine);
        let start = Instant::now();
        vm.run_unchecked(program)
            .expect("experiment programs are valid");
        samples.push(start.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn kernels_of(program: &Program) -> u64 {
    let mut vm = Vm::new();
    vm.run_unchecked(program)
        .expect("experiment programs are valid");
    vm.stats().kernels
}

fn optimized(program: &Program, level: OptLevel) -> Program {
    let mut p = program.clone();
    Optimizer::new(OptOptions::level(level)).run(&mut p);
    p
}

// --- E1: Listings 1–2, front-end lowering ------------------------------

fn e1_listing_lowering() {
    use bh_frontend::{Context, Runtime};
    println!("## E1 — Listing 1 lowers to Listing 2 byte-code\n");
    let ctx = Context::with_runtime(Runtime::builder().engine(Engine::Naive).build_shared());
    let mut a = ctx.zeros(DType::Float64, Shape::vector(10));
    a += 1.0;
    a += 1.0;
    a += 1.0;
    println!("recorded byte-code (paper Listing 2):\n```");
    print!("{}", ctx.recorded_text(PrintStyle::LISTING));
    println!("BH_SYNC a0 [0:10:1]   # appended by eval()");
    println!("```");
    let (t, outcome) = a.eval_outcome().expect("listing 1 executes");
    println!(
        "result: all elements == {}; kernels after optimisation: {}\n",
        t.to_f64_vec()[0],
        outcome.exec.kernels
    );
}

// --- E2: Listing 2 -> 3, constant merging -------------------------------

fn add_chain_program(n: usize, k: usize) -> Program {
    let mut text = format!("BH_IDENTITY a0 [0:{n}:1] 0\n");
    for _ in 0..k {
        text.push_str("BH_ADD a0 a0 1\n");
    }
    text.push_str("BH_SYNC a0\n");
    parse_program(&text).expect("generated listing parses")
}

fn e2_constant_merge() {
    println!("## E2 — constant merging (Listing 2 → Listing 3)\n");
    println!("| n | adds | byte-codes before→after | kernels before→after | t_unopt (ms) | t_opt (ms) | speed-up |");
    println!("|---|------|------------------------|----------------------|--------------|------------|----------|");
    for &n in &[100_000usize, 1_000_000, 4_000_000] {
        for &k in &[3usize, 8, 32] {
            let unopt = add_chain_program(n, k);
            let opt = optimized(&unopt, OptLevel::O1);
            let (tu, to) = (
                time_program(&unopt, Engine::Naive, 5),
                time_program(&opt, Engine::Naive, 5),
            );
            println!(
                "| {n} | {k} | {}→{} | {}→{} | {:.2} | {:.2} | {:.1}× |",
                unopt.live_len(),
                opt.live_len(),
                kernels_of(&unopt),
                kernels_of(&opt),
                tu * 1e3,
                to * 1e3,
                tu / to
            );
        }
    }
    println!();
}

// --- E3/E4: power schedules (Listings 4 & 5) ----------------------------

fn power_chain_program(n_elems: usize, chain: &chains::PowerChain) -> Program {
    use chains::ChainStep::*;
    let mut text = format!("BH_IDENTITY a0 [0:{n_elems}:1] 1.0001\n");
    for step in &chain.steps {
        text.push_str(match step {
            SquareOrigin => "BH_MULTIPLY a1 [0:{n}:1] a0 a0\n",
            SquareAcc => "BH_MULTIPLY a1 a1 a1\n",
            MulOrigin => "BH_MULTIPLY a1 a1 a0\n",
        });
    }
    let text = text.replace("{n}", &n_elems.to_string());
    let text = format!("{text}BH_SYNC a1\n");
    parse_program(&text).expect("generated chain parses")
}

fn power_intrinsic_program(n_elems: usize, exponent: u64) -> Program {
    parse_program(&format!(
        "BH_IDENTITY a0 [0:{n_elems}:1] 1.0001\n\
         BH_POWER a1 [0:{n_elems}:1] a0 {exponent}\n\
         BH_SYNC a1\n"
    ))
    .expect("generated program parses")
}

fn e3_e4_power_schedules() {
    println!("## E3/E4 — power schedules (Eq. 1, Listings 4 & 5)\n");
    println!("multiply counts per schedule (two-register constraint of §3.1):\n");
    println!("| exponent | naive (Listing 4) | paper Listing 5 | optimal (this work) | binary method (unconstrained) |");
    println!("|----------|-------------------|-----------------|---------------------|-------------------------------|");
    for &n in &[4u64, 8, 10, 15, 16, 31, 32, 63, 64, 100] {
        let naive = chains::naive_chain(n).expect("n >= 2").multiplies();
        let listing5 = if n == 10 {
            "5".to_owned()
        } else {
            "—".to_owned()
        };
        let opt = chains::optimal_multiplies(n).expect("n >= 2");
        let binary = chains::binary_method_multiplies(n).expect("n >= 1");
        println!("| {n} | {naive} | {listing5} | {opt} | {binary} |");
    }
    println!();
    let n_elems = 1_000_000;
    println!("wall-clock for x^10 over {n_elems} f64 elements (naive engine):\n");
    println!("| schedule | multiplies | t (ms) |");
    println!("|----------|-----------|--------|");
    let power = power_intrinsic_program(n_elems, 10);
    println!(
        "| BH_POWER intrinsic | — | {:.2} |",
        time_program(&power, Engine::Naive, 5) * 1e3
    );
    for (label, chain) in [
        (
            "Listing 4 (naive)",
            chains::naive_chain(10).expect("n >= 2"),
        ),
        ("Listing 5 (paper)", chains::listing5_chain()),
        (
            "optimal (this work)",
            chains::optimal_chain(10).expect("n >= 2"),
        ),
    ] {
        let p = power_chain_program(n_elems, &chain);
        println!(
            "| {label} | {} | {:.2} |",
            chain.multiplies(),
            time_program(&p, Engine::Naive, 5) * 1e3
        );
    }
    println!();
}

// --- E5: BH_POWER vs expansion crossover (§4 claim) ---------------------

fn e5_power_crossover() {
    println!("## E5 — §4 claim: expansion beats BH_POWER near powers of two\n");
    let n_elems = 1_000_000;
    println!("| exponent | multiplies | t_power (ms) | t_chain (ms) | winner |");
    println!("|----------|------------|--------------|--------------|--------|");
    for n in 2..=32u64 {
        let power = power_intrinsic_program(n_elems, n);
        let chain = chains::optimal_chain(n).expect("n >= 2");
        let chain_p = power_chain_program(n_elems, &chain);
        let tp = time_program(&power, Engine::Naive, 3) * 1e3;
        let tc = time_program(&chain_p, Engine::Naive, 3) * 1e3;
        let winner = if tc < tp { "chain" } else { "power" };
        println!(
            "| {n} | {} | {tp:.2} | {tc:.2} | {winner} |",
            chain.multiplies()
        );
    }
    println!();
}

// --- E6: Eq. 2, solve via inverse vs LU ---------------------------------

fn e6_solve() {
    use bh_linalg::{inverse_solve_flops, lu_solve_flops, solve_lu, solve_via_inverse};
    println!("## E6 — Eq. 2: solve Ax=B via inverse vs LU factorisation\n");
    println!(
        "| m | flops inverse | flops LU | flop ratio | t_inverse (ms) | t_lu (ms) | speed-up |"
    );
    println!(
        "|---|---------------|----------|------------|----------------|-----------|----------|"
    );
    for &m in &[16usize, 32, 64, 128, 256] {
        let mut a = random_tensor(
            DType::Float64,
            Shape::matrix(m, m),
            7,
            Distribution::Uniform,
        );
        for i in 0..m {
            let v = a.get(&[i, i]).expect("diag").as_f64();
            a.set(&[i, i], Scalar::F64(v + m as f64)).expect("diag");
        }
        let b = random_tensor(DType::Float64, Shape::vector(m), 8, Distribution::Uniform);
        let t_inv = {
            let mut samples: Vec<f64> = (0..5)
                .map(|_| {
                    let s = Instant::now();
                    let _ = solve_via_inverse(&a, &b).expect("well-conditioned");
                    s.elapsed().as_secs_f64()
                })
                .collect();
            samples.sort_by(f64::total_cmp);
            samples[2]
        };
        let t_lu = {
            let mut samples: Vec<f64> = (0..5)
                .map(|_| {
                    let s = Instant::now();
                    let _ = solve_lu(&a, &b).expect("well-conditioned");
                    s.elapsed().as_secs_f64()
                })
                .collect();
            samples.sort_by(f64::total_cmp);
            samples[2]
        };
        let fi = inverse_solve_flops(m, 1);
        let fl = lu_solve_flops(m, 1);
        println!(
            "| {m} | {fi} | {fl} | {:.2} | {:.3} | {:.3} | {:.1}× |",
            fi as f64 / fl as f64,
            t_inv * 1e3,
            t_lu * 1e3,
            t_inv / t_lu
        );
    }
    println!();
}

// --- E7: fusion contraction ----------------------------------------------

fn elementwise_chain_program(n: usize, k: usize) -> Program {
    // Expression-style chain through alternating temporaries: each unfused
    // step streams two full arrays; fused blocks stay cache-resident.
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

fn e7_fusion() {
    println!("## E7 — loop-fusion-like contraction (fusing engine)\n");
    let n = 4_000_000;
    println!("chain of k element-wise byte-codes over {n} f64 elements:\n");
    println!("| k | kernels naive | kernels fused | t_naive (ms) | t_fused (ms) | speed-up |");
    println!("|---|---------------|---------------|--------------|--------------|----------|");
    for &k in &[2usize, 4, 8, 16] {
        let p = elementwise_chain_program(n, k);
        let tn = time_program(&p, Engine::Naive, 3) * 1e3;
        let tf = time_program(&p, Engine::Fusing { block: 65536 }, 3) * 1e3;
        let mut vm = Vm::with_engine(Engine::Fusing { block: 65536 });
        vm.run_unchecked(&p).expect("valid");
        let fused_kernels = vm.stats().kernels;
        println!(
            "| {k} | {} | {fused_kernels} | {tn:.2} | {tf:.2} | {:.2}× |",
            k + 1,
            tn / tf
        );
    }
    println!();
}

// --- E8: full pipeline summary -------------------------------------------

fn e8_pipeline_summary() {
    println!("## E8 — full O2 pipeline on a combined workload\n");
    let src = "\
.base m f64[64,64] input
.base rhs f64[64] input
.base t f64[64,64]
.base x f64[64]
.base v f64[1000000]
.base w f64[1000000]
BH_IDENTITY v 0
BH_ADD v v 1
BH_ADD v v 1
BH_ADD v v 1
BH_POWER w v 10
BH_INVERSE t m
BH_MATMUL x t rhs
BH_SYNC w
BH_SYNC x
";
    let unopt = parse_program(src).expect("workload parses");
    let mut opt = unopt.clone();
    let report = Optimizer::default().run(&mut opt);
    println!("```\n{report}```\n");
    println!("| variant | byte-codes | model time | measured (ms) |");
    println!("|---------|------------|------------|----------------|");
    for (label, p) in [("unoptimised", &unopt), ("O2", &opt)] {
        let est = bh_opt::estimate(p, &bh_opt::CostParams::default());
        let t = time_with_inputs(p) * 1e3;
        println!("| {label} | {} | {} | {t:.2} |", est.bytecodes, est.time);
    }
    println!();
}

// --- E9: transformation-cache amortisation -------------------------------

fn e9_transformation_cache() {
    use bohrium_repro::runtime::Runtime;
    println!("## E9 — transformation cache: fixpoint cost amortised over repeated traffic\n");
    println!("k-add chains over 1000 f64 elements (small arrays: optimisation time");
    println!("is comparable to execution time, the serving regime the cache targets):\n");
    println!("| adds k | evals | t_uncached (ms) | t_cached (ms) | speed-up | hit rate |");
    println!("|--------|-------|-----------------|---------------|----------|----------|");
    let evals = 200;
    for &k in &[8usize, 32, 128] {
        let program = add_chain_program(1000, k);
        let reg = program.reg_by_name("a0").expect("declared");

        let uncached = Runtime::builder()
            .engine(Engine::Naive)
            .cache_capacity(0)
            .build();
        let t_un = {
            let start = Instant::now();
            for _ in 0..evals {
                uncached.eval(&program, &[], reg).expect("valid program");
            }
            start.elapsed().as_secs_f64()
        };

        let cached = Runtime::builder().engine(Engine::Naive).build();
        let t_ca = {
            let start = Instant::now();
            for _ in 0..evals {
                cached.eval(&program, &[], reg).expect("valid program");
            }
            start.elapsed().as_secs_f64()
        };

        let stats = cached.stats();
        println!(
            "| {k} | {evals} | {:.2} | {:.2} | {:.1}× | {:.1}% |",
            t_un * 1e3,
            t_ca * 1e3,
            t_un / t_ca,
            stats.hit_rate() * 100.0
        );
    }
    println!();
}

fn time_with_inputs(program: &Program) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let mut vm = Vm::new();
        for (i, base) in program.bases().iter().enumerate() {
            if base.is_input {
                let mut t = random_tensor(
                    base.dtype,
                    base.shape.clone(),
                    i as u64,
                    Distribution::Uniform,
                );
                // Diagonal boost keeps matrices comfortably non-singular.
                if base.shape.rank() == 2 && base.shape.dim(0) == base.shape.dim(1) {
                    let m = base.shape.dim(0);
                    for d in 0..m {
                        let v = t.get(&[d, d]).expect("diag").as_f64();
                        t.set(&[d, d], Scalar::F64(v + m as f64)).expect("diag");
                    }
                }
                vm.bind_by_name(program, &base.name, &t)
                    .expect("binding inputs");
            }
        }
        let start = Instant::now();
        vm.run_unchecked(program).expect("workload runs");
        samples.push(start.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

//! The default runtime executes on the fusing engine. These suites pin
//! that it fuses the paper-shaped bulk programs, that every result is
//! bit-identical to `Engine::Naive` at VM threads {1, 2, 4} (plus
//! `BH_VM_TEST_THREADS`), and that the base buffers a pooled VM keeps
//! across `Vm::recycle` carry no residue into the next plan.

use bohrium_repro::ir::{parse_program, Program};
use bohrium_repro::runtime::{Runtime, DEFAULT_ENGINE};
use bohrium_repro::testing::test_threads;
use bohrium_repro::vm::{Engine, Vm};
use proptest::prelude::*;

/// Streamed array length: above the VM's 2^16-element parallel
/// threshold, so thread counts > 1 shard, and not a multiple of the
/// 4096-element block, so every kernel has a ragged tail.
const N: usize = 70_000;
/// Length of the vector each bulk program reads back.
const V: usize = 1024;
/// Eq. 2 system size of the E6 shape.
const M: usize = 64;

fn bulk_tail(src: &str) -> String {
    format!("BH_ADD_REDUCE s {src} 0\nBH_IDENTITY v {src}[0:{V}:1]\nBH_SYNC s\nBH_SYNC v\n")
}

/// The E7 shape: `BH_RANGE`, a 16-op element-wise chain alternating
/// between two temporaries, a sum, and a sliced copy.
fn e7_text() -> String {
    let mut text = format!(
        ".base s f64[]\n.base v f64[{V}]\n\
         .base x f64[{N}]\n.base t0 f64[{N}]\n.base t1 f64[{N}]\nBH_RANGE x\n"
    );
    let mut src = "x";
    for k in 0..16 {
        let dst = if k % 2 == 0 { "t0" } else { "t1" };
        if k % 2 == 0 {
            text.push_str(&format!(
                "BH_MULTIPLY {dst} {src} {:?}\n",
                1.0 + (k + 1) as f64 / 1024.0
            ));
        } else {
            text.push_str(&format!("BH_ADD {dst} {src} {:?}\n", k as f64 * 0.125));
        }
        src = dst;
    }
    text + &bulk_tail(src)
}

/// The five `bulk_kernels` shapes (E2, E3, E6, E7, scan), each reading
/// back a scalar `s` and a vector `v`.
fn bulk_programs() -> Vec<(&'static str, Program)> {
    let decl = format!(".base s f64[]\n.base v f64[{V}]\n");
    let scale = 1.0 / N as f64;
    let mut e2 = format!("{decl}.base a f64[{N}]\nBH_IDENTITY a 3\n");
    for c in 1..=8 {
        e2.push_str(&format!("BH_ADD a a {c}\n"));
    }
    e2.push_str(&bulk_tail("a"));
    let e3 = format!(
        "{decl}.base x f64[{N}]\n.base y f64[{N}]\n\
         BH_RANGE x\nBH_MULTIPLY x x {scale:?}\nBH_ADD x x 1.0\nBH_POWER y x 10\n{}",
        bulk_tail("y")
    );
    let e6 = format!(
        ".base s f64[]\n.base v f64[16,{M}]\n\
         .base k f64[{M},{M}]\n.base j f64[{M},{M}]\n.base d f64[{M},{M}]\n\
         .base e bool[{M},{M}]\n.base a f64[{M},{M}]\n.base t f64[{M},{M}]\n\
         .base b f64[{M}]\n.base x f64[{M}]\n\
         BH_RANGE k\nBH_MOD j k {M}\nBH_SUBTRACT d k j\nBH_DIVIDE d d {M}\n\
         BH_EQUAL e d j\nBH_IDENTITY a e\nBH_MULTIPLY a a {M}\n\
         BH_MULTIPLY j j {:?}\nBH_ADD a a j\n\
         BH_RANGE b\nBH_ADD b b 3\n\
         BH_INVERSE t a\nBH_MATMUL x t b\nBH_ADD_REDUCE s x 0\n\
         BH_IDENTITY v a[0:16:1,0:{M}:1]\nBH_SYNC s\nBH_SYNC v\n",
        1.0 / M as f64
    );
    let scan = format!(
        "{decl}.base x f64[{N}]\n.base c f64[{N}]\n\
         BH_RANGE x\nBH_ADD_ACCUMULATE c x 0\n{}",
        bulk_tail("c")
    );
    [
        ("E2", e2),
        ("E3", e3),
        ("E6", e6),
        ("E7", e7_text()),
        ("scan", scan),
    ]
    .into_iter()
    .map(|(family, text)| (family, parse_program(&text).expect("bulk program parses")))
    .collect()
}

fn thread_counts() -> Vec<usize> {
    let mut threads = vec![1, 2, 4, test_threads()];
    threads.sort_unstable();
    threads.dedup();
    threads
}

fn bits(values: Vec<f64>) -> Vec<u64> {
    values.into_iter().map(f64::to_bits).collect()
}

#[test]
fn default_runtime_fuses_an_e7_chain() {
    assert_eq!(DEFAULT_ENGINE, Engine::Fusing { block: 4096 });
    let program = parse_program(&e7_text()).expect("E7 parses");
    let s = program.reg_by_name("s").expect("declared");

    let rt = Runtime::new();
    assert_eq!(rt.engine(), DEFAULT_ENGINE);
    let (_, outcome) = rt.eval(&program, &[], s).expect("E7 runs");
    assert_eq!(outcome.exec.fused_groups, 1);
    assert_eq!(outcome.exec.fused_reductions, 1);
    // BH_RANGE, the fused chain with its sum, and the sliced copy.
    assert_eq!(outcome.exec.kernels, 3);

    let naive = Runtime::builder().engine(Engine::Naive).build();
    let (_, outcome) = naive.eval(&program, &[], s).expect("E7 runs");
    assert_eq!(outcome.exec.fused_groups, 0);
    assert_eq!(outcome.exec.kernels, 19);
}

#[test]
fn bulk_shapes_match_the_naive_engine_bit_for_bit() {
    let programs = bulk_programs();
    for threads in thread_counts() {
        let fused = Runtime::builder().threads(threads).build();
        let naive = Runtime::builder()
            .engine(Engine::Naive)
            .threads(threads)
            .build();
        // The second round runs on pooled VMs that kept the first
        // round's buffers.
        for round in 0..2 {
            for (family, program) in &programs {
                for name in ["s", "v"] {
                    let reg = program.reg_by_name(name).expect("declared");
                    let (got, _) = fused.eval(program, &[], reg).expect("fused run");
                    let (want, _) = naive.eval(program, &[], reg).expect("naive run");
                    assert_eq!(
                        bits(got.to_f64_vec()),
                        bits(want.to_f64_vec()),
                        "{family} `{name}` differs at {threads} threads, round {round}"
                    );
                }
            }
        }
    }
}

#[test]
fn reused_buffers_carry_no_residue_into_the_next_plan() {
    let rt = Runtime::builder().threads(test_threads()).build();
    // Plan A leaves non-zero data in a base nobody reads back.
    let a = parse_program(&format!(
        ".base t f64[{N}]\n.base s f64[]\n\
         BH_IDENTITY t 7\nBH_ADD t t 1\nBH_ADD_REDUCE s t 0\nBH_SYNC s\n"
    ))
    .expect("plan A parses");
    // Plan B writes every other element of a same-sized base and reads
    // all of it back.
    let b = parse_program(&format!(
        ".base u f64[{N}]\nBH_IDENTITY u [0:{N}:2] 1\nBH_SYNC u\n"
    ))
    .expect("plan B parses");
    let (s, u) = (a.reg_by_name("s").unwrap(), b.reg_by_name("u").unwrap());
    let (plan_a, _) = rt.prepare(&a).expect("A compiles");
    let (plan_b, _) = rt.prepare(&b).expect("B compiles");

    let mut vm = rt.lease_vm();
    let (sum, _) = rt
        .eval_prepared(&plan_a, &mut vm, &[], Some(s), false)
        .expect("A runs");
    assert_eq!(sum.expect("requested").to_f64_vec(), vec![8.0 * N as f64]);
    vm.recycle();
    let (got, _) = rt
        .eval_prepared(&plan_b, &mut vm, &[], Some(u), false)
        .expect("B runs");

    let mut fresh = Vm::new();
    fresh.run(&b).expect("B runs fresh");
    let want = fresh.read(&b, u).expect("u materialised");
    assert_eq!(got.expect("requested"), want);
}

/// Strategy: a random plan over three bases of one length. `r2` is
/// written first and only in part, then read back in full, so it is the
/// base most likely to take a buffer an earlier plan left non-zero;
/// `r0` and `r1` then take a fused element-wise chain and a sum.
fn arb_plan() -> impl Strategy<Value = String> {
    let op = prop_oneof![
        Just("BH_ADD"),
        Just("BH_SUBTRACT"),
        Just("BH_MULTIPLY"),
        Just("BH_MAXIMUM"),
        Just("BH_MINIMUM"),
    ];
    let operand = prop_oneof![
        Just("r0".to_owned()),
        Just("r1".to_owned()),
        (0i64..4).prop_map(|c| c.to_string()),
    ];
    let instr = (op, 0usize..2, operand.clone(), operand)
        .prop_map(|(op, out, a, b)| format!("{op} r{out} {a} {b}"));
    let len = prop_oneof![Just(16usize), Just(1000usize), Just(4099usize)];
    (len, proptest::collection::vec(instr, 1..8), 1usize..4).prop_map(
        |(n, body, part): (usize, Vec<String>, usize)| {
            let h = n * part / 4;
            let mut text = format!(
                ".base r0 f64[{n}]\n.base r1 f64[{n}]\n.base r2 f64[{n}]\n.base s f64[]\n\
                 BH_IDENTITY r2 [0:{h}:1] 5\nBH_IDENTITY r0 1\nBH_IDENTITY r1 2\n"
            );
            for line in body {
                text.push_str(&line);
                text.push('\n');
            }
            text.push_str("BH_ADD_REDUCE s r1 0\nBH_SYNC r0\nBH_SYNC r1\nBH_SYNC r2\nBH_SYNC s\n");
            text
        },
    )
}

// A sequence of plans on one default runtime (pooled VMs, kept buffers,
// fused kernels) reads exactly what each plan reads on a fresh naive VM.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_sequences_on_the_default_runtime_match_fresh_naive_vms(
        texts in proptest::collection::vec(arb_plan(), 1..5)
    ) {
        let rt = Runtime::builder().threads(test_threads()).build();
        for text in &texts {
            let program = parse_program(text).expect("generated text parses");
            let (plan, _) = rt.prepare(&program).expect("compiles");
            let mut fresh = Vm::with_engine(Engine::Naive);
            fresh.run_scheduled(&plan.program).expect("fresh run");
            for name in ["r0", "r1", "r2", "s"] {
                let reg = program.reg_by_name(name).expect("declared");
                let (got, _) = rt.eval(&program, &[], reg).expect("default run");
                let want = fresh.read(&plan.program, reg).expect("materialised");
                prop_assert_eq!(
                    bits(got.to_f64_vec()),
                    bits(want.to_f64_vec()),
                    "`{}` differs\n{}", name, text
                );
            }
        }
    }
}

//! Seeded workload generation and the independent output check.
//!
//! Every program is generated as byte-code text from the seed, and its
//! expected read-back values are computed here in plain Rust — closed
//! forms, scalar loops and an LU solve — never through `bh-opt` or
//! `bh-vm`, so a rewrite or kernel bug cannot hide by agreeing with
//! itself.

use bh_container::Container;
use bh_ir::{parse_program, Program};

/// Relative tolerance for `f64` results whose rounding depends on
/// evaluation order (fast-math constant merging, power expansion,
/// blocked reductions, pivoted solves). Integer-valued results are
/// compared exactly.
pub const REL_TOL: f64 = 1e-9;

/// `compile_churn` population: 32× the runtime's default 256-plan cache.
pub const CHURN_POPULATION: usize = 8192;
/// `compile_churn` warm-up: the most popular programs, one plan-cache
/// capacity's worth.
pub const CHURN_WARMUP: usize = 256;

/// `bulk_kernels` element count of the streamed arrays (2^20 f64, 8 MiB:
/// far beyond the 2 MiB per-core L2).
pub const BULK_N: usize = 1 << 20;
/// `bulk_kernels` vector read-back length (a 512 KiB RESULT frame).
pub const BULK_VEC: usize = 1 << 16;
/// `bulk_kernels` Eq. 2 system size (a 2^18-element matrix).
pub const BULK_M: usize = 512;
/// One `bulk_kernels` request in this many reads back the vector.
pub const BULK_VEC_EVERY: usize = 8;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// The expected value of one read-back.
#[derive(Debug, Clone)]
pub enum Check {
    /// Integer-valued: must match bit for bit.
    Exact(Vec<f64>),
    /// Order-dependent rounding: must match within [`REL_TOL`].
    Close(Vec<f64>),
}

impl Check {
    pub fn accepts(&self, got: &[f64]) -> bool {
        match self {
            Check::Exact(want) => want.as_slice() == got,
            Check::Close(want) => {
                want.len() == got.len()
                    && want
                        .iter()
                        .zip(got)
                        .all(|(w, g)| (w - g).abs() <= REL_TOL * w.abs().max(1.0))
            }
        }
    }
}

/// A register a request may read back, with its expected value.
#[derive(Debug)]
pub struct ReadBack {
    pub reg: u32,
    pub check: Check,
}

/// One generated program, pre-encoded as the container a client ships.
#[derive(Debug)]
pub struct Prog {
    pub family: &'static str,
    pub program: Program,
    pub container: Vec<u8>,
    pub reads: Vec<ReadBack>,
}

impl Prog {
    fn new(family: &'static str, text: &str, reads: Vec<(&str, Check)>) -> Prog {
        let program = parse_program(text).expect("generated program parses");
        let reads = reads
            .into_iter()
            .map(|(name, check)| ReadBack {
                reg: program.reg_by_name(name).expect("read register declared").0,
                check,
            })
            .collect();
        let container = Container::program(program.clone()).encode();
        Prog {
            family,
            program,
            container,
            reads,
        }
    }
}

/// One request: which program, and which of its read-backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub prog: u32,
    pub read: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WireHot,
    CompileChurn,
    BulkKernels,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "wire_hot" => Some(Kind::WireHot),
            "compile_churn" => Some(Kind::CompileChurn),
            "bulk_kernels" => Some(Kind::BulkKernels),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WireHot => "wire_hot",
            Kind::CompileChurn => "compile_churn",
            Kind::BulkKernels => "bulk_kernels",
        }
    }
}

/// A workload: its programs, its fixed warm-up, and seeded request
/// streams over them.
#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub programs: Vec<Prog>,
    pub warmup: Vec<Req>,
    /// `compile_churn` only: cumulative Zipf(s=1) weights by rank.
    zipf_cdf: Vec<f64>,
    /// `compile_churn` only: popularity rank → program index.
    by_rank: Vec<u32>,
}

impl Workload {
    pub fn build(kind: Kind, seed: u64) -> Workload {
        let mut w = Workload {
            kind,
            seed,
            programs: Vec::new(),
            warmup: Vec::new(),
            zipf_cdf: Vec::new(),
            by_rank: Vec::new(),
        };
        match kind {
            Kind::WireHot => {
                w.programs = hot_programs(seed);
                w.warmup = (0..w.programs.len() as u32)
                    .map(|prog| Req { prog, read: 0 })
                    .collect();
            }
            Kind::CompileChurn => {
                w.programs = (0..CHURN_POPULATION)
                    .map(|id| churn_program(seed, id))
                    .collect();
                let harmonic: Vec<f64> = (1..=CHURN_POPULATION)
                    .scan(0.0, |acc, rank| {
                        *acc += 1.0 / rank as f64;
                        Some(*acc)
                    })
                    .collect();
                let total = harmonic[CHURN_POPULATION - 1];
                w.zipf_cdf = harmonic.iter().map(|h| h / total).collect();
                w.by_rank = (0..CHURN_POPULATION as u32).collect();
                Rng::new(seed, 7).shuffle(&mut w.by_rank);
                w.warmup = w.by_rank[..CHURN_WARMUP]
                    .iter()
                    .map(|&prog| Req { prog, read: 0 })
                    .collect();
            }
            Kind::BulkKernels => {
                w.programs = bulk_programs(seed);
                w.warmup = (0..w.programs.len() as u32)
                    .map(|prog| Req { prog, read: 0 })
                    .collect();
            }
        }
        w
    }

    /// The request stream of one client lane. Deterministic in
    /// `(seed, lane)`; hot and bulk streams are stratified (every block
    /// holds each program once, in seeded order), so the mix a run sees
    /// does not drift with the seed.
    pub fn stream(&self, lane: u64) -> Stream<'_> {
        Stream {
            w: self,
            rng: Rng::new(self.seed, 1000 + lane),
            progs: Vec::new(),
            reads: Vec::new(),
        }
    }

    pub fn prog(&self, req: Req) -> &Prog {
        &self.programs[req.prog as usize]
    }
}

#[derive(Debug)]
pub struct Stream<'w> {
    w: &'w Workload,
    rng: Rng,
    progs: Vec<u32>,
    reads: Vec<u8>,
}

impl Iterator for Stream<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let w = self.w;
        let prog = match w.kind {
            Kind::CompileChurn => {
                let u = self.rng.unit();
                let rank = w
                    .zipf_cdf
                    .partition_point(|&c| c < u)
                    .min(w.by_rank.len() - 1);
                w.by_rank[rank]
            }
            Kind::WireHot | Kind::BulkKernels => {
                if self.progs.is_empty() {
                    self.progs = (0..w.programs.len() as u32).collect();
                    self.rng.shuffle(&mut self.progs);
                }
                self.progs.pop().expect("refilled above")
            }
        };
        let read = if w.kind == Kind::BulkKernels {
            if self.reads.is_empty() {
                self.reads = vec![0; BULK_VEC_EVERY];
                self.reads[0] = 1;
                self.rng.shuffle(&mut self.reads);
            }
            self.reads.pop().expect("refilled above")
        } else {
            0
        };
        Some(Req { prog, read })
    }
}

fn ints(rng: &mut Rng, count: u64, lo: u64, hi: u64) -> Vec<u64> {
    (0..count).map(|_| rng.range(lo, hi)).collect()
}

/// `wire_hot`: four Listing-2 add chains and four element-wise chains,
/// 64–256 f64 elements and 16–32 byte-codes each, read back in full.
fn hot_programs(seed: u64) -> Vec<Prog> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::new();
    for (i, adds) in [14u64, 20, 26, 30].into_iter().enumerate() {
        let n = 64 * (i + 1);
        let c0 = rng.range(0, 99);
        let cs = ints(&mut rng, adds, 1, 9);
        let mut text = format!("BH_IDENTITY a0 [0:{n}:1] {c0}\n");
        for c in &cs {
            text.push_str(&format!("BH_ADD a0 [0:{n}:1] a0 [0:{n}:1] {c}\n"));
        }
        text.push_str(&format!("BH_SYNC a0 [0:{n}:1]\n"));
        let total = (c0 + cs.iter().sum::<u64>()) as f64;
        out.push(Prog::new(
            "add_chain",
            &text,
            vec![("a0", Check::Exact(vec![total; n]))],
        ));
    }
    for (i, ops) in [14usize, 18, 24, 30].into_iter().enumerate() {
        let n = 64 * (i + 1);
        let steps: Vec<(bool, f64)> = (0..ops)
            .map(|k| {
                if k % 2 == 0 {
                    (true, 1.0 + rng.range(1, 16) as f64 / 256.0)
                } else {
                    (false, rng.range(1, 9) as f64 * 0.25)
                }
            })
            .collect();
        let (mut text, last) = chain_text(n, &steps);
        text.push_str(&format!("BH_SYNC {last}\n"));
        let want = (0..n).map(|i| apply_steps(i as f64, &steps)).collect();
        out.push(Prog::new(
            "ew_chain",
            &text,
            vec![(last, Check::Close(want))],
        ));
    }
    out
}

/// Element-wise chain over `t0`/`t1` starting from `x = 0..n`:
/// `(is_mul, c)` steps. Returns the text (without a sync) and the
/// register holding the result.
fn chain_text(n: usize, steps: &[(bool, f64)]) -> (String, &'static str) {
    let mut text = format!(".base x f64[{n}]\n.base t0 f64[{n}]\n.base t1 f64[{n}]\nBH_RANGE x\n");
    let mut src = "x";
    for (k, (is_mul, c)) in steps.iter().enumerate() {
        let dst = if k % 2 == 0 { "t0" } else { "t1" };
        let op = if *is_mul { "BH_MULTIPLY" } else { "BH_ADD" };
        text.push_str(&format!("{op} {dst} {src} {c:?}\n"));
        src = dst;
    }
    (text, src)
}

fn apply_steps(mut v: f64, steps: &[(bool, f64)]) -> f64 {
    for (is_mul, c) in steps {
        v = if *is_mul { v * c } else { v + c };
    }
    v
}

/// `compile_churn` program `id`: one of four rewrite families, with a
/// constant derived from `id` so every program has its own structural
/// digest.
fn churn_program(seed: u64, id: usize) -> Prog {
    let mut rng = Rng::new(seed, 1_000_000 + id as u64);
    let n = [64usize, 128, 256][rng.range(0, 2) as usize];
    let tag = id as u64 + 1;
    match id % 4 {
        0 => {
            let adds = rng.range(8, 24);
            let cs = ints(&mut rng, adds, 1, 9);
            let mut text = format!("BH_IDENTITY a [0:{n}:1] {tag}\n");
            for c in &cs {
                text.push_str(&format!("BH_ADD a a {c}\n"));
            }
            text.push_str("BH_SYNC a\n");
            let total = (tag + cs.iter().sum::<u64>()) as f64;
            Prog::new(
                "const_merge",
                &text,
                vec![("a", Check::Exact(vec![total; n]))],
            )
        }
        1 => {
            let exp = rng.range(2, 32) as i32;
            let offset = 1.0 + tag as f64 / (1u64 << 20) as f64;
            let text = format!(
                ".base x f64[{n}]\n.base y f64[{n}]\n\
                 BH_RANGE x\n\
                 BH_MULTIPLY x x 0.0009765625\n\
                 BH_ADD x x {offset:?}\n\
                 BH_POWER y x {exp}\n\
                 BH_SYNC y\n"
            );
            let want = (0..n)
                .map(|i| (i as f64 * 0.0009765625 + offset).powi(exp))
                .collect();
            Prog::new("power", &text, vec![("y", Check::Close(want))])
        }
        2 => {
            let copies = rng.range(4, 12) as usize;
            let mut text = format!(".base a f64[{n}]\n");
            for k in 1..=copies {
                text.push_str(&format!(".base b{k} f64[{n}]\n"));
            }
            text.push_str(&format!("BH_RANGE a\nBH_ADD a a {tag}\nBH_IDENTITY b1 a\n"));
            for k in 2..=copies {
                text.push_str(&format!("BH_IDENTITY b{k} b{}\n", k - 1));
            }
            text.push_str(&format!("BH_SYNC b{copies}\n"));
            let want = (0..n).map(|i| (i as u64 + tag) as f64).collect();
            let last = format!("b{copies}");
            Prog::new(
                "copy_chain",
                &text,
                vec![(last.as_str(), Check::Exact(want))],
            )
        }
        _ => {
            let rounds = rng.range(1, 3);
            let cs = ints(&mut rng, rounds, 2, 5);
            let mut text = format!(
                ".base x f64[{n}]\n.base p f64[{n}]\n.base q f64[{n}]\n.base y f64[{n}]\n\
                 BH_RANGE x\nBH_ADD y x {tag}\n"
            );
            for c in &cs {
                text.push_str(&format!(
                    "BH_MULTIPLY p y {c}\nBH_MULTIPLY q y {c}\nBH_ADD y p q\n"
                ));
            }
            text.push_str("BH_SYNC y\n");
            let scale: u64 = cs.iter().map(|c| 2 * c).product();
            let want = (0..n).map(|i| ((i as u64 + tag) * scale) as f64).collect();
            Prog::new("cse", &text, vec![("y", Check::Exact(want))])
        }
    }
}

/// `bulk_kernels`: the paper-shaped programs over 2^20 f64 (E6: a
/// 512×512 system). Each computes a scalar `s` and a 2^16-element
/// vector `v`; read 0 is `s`, read 1 is `v`.
fn bulk_programs(seed: u64) -> Vec<Prog> {
    const N: usize = BULK_N;
    const V: usize = BULK_VEC;
    const M: usize = BULK_M;
    let mut rng = Rng::new(seed, 2);
    let decl = format!(".base s f64[]\n.base v f64[{V}]\n");
    let tail = |src: &str| {
        format!("BH_ADD_REDUCE s {src} 0\nBH_IDENTITY v {src}[0:{V}:1]\nBH_SYNC s\nBH_SYNC v\n")
    };
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    let mut out = Vec::new();

    // E2: a Listing-2 add chain (constant merge collapses it to one add).
    let c0 = rng.range(1, 50);
    let cs = ints(&mut rng, 8, 1, 9);
    let mut text = format!("{decl}.base a f64[{N}]\nBH_IDENTITY a {c0}\n");
    for c in &cs {
        text.push_str(&format!("BH_ADD a a {c}\n"));
    }
    text.push_str(&tail("a"));
    let total = (c0 + cs.iter().sum::<u64>()) as f64;
    out.push(Prog::new(
        "E2",
        &text,
        vec![
            ("s", Check::Exact(vec![total * N as f64])),
            ("v", Check::Exact(vec![total; V])),
        ],
    ));

    // E3: x^10 (power expansion turns the intrinsic into four multiplies).
    let scale = 1.0 / N as f64;
    let text = format!(
        "{decl}.base x f64[{N}]\n.base y f64[{N}]\n\
         BH_RANGE x\nBH_MULTIPLY x x {scale:?}\nBH_ADD x x 1.0\nBH_POWER y x 10\n{}",
        tail("y")
    );
    let y: Vec<f64> = (0..N).map(|i| (i as f64 * scale + 1.0).powi(10)).collect();
    out.push(Prog::new(
        "E3",
        &text,
        vec![
            ("s", Check::Close(vec![sum(&y)])),
            ("v", Check::Close(y[..V].to_vec())),
        ],
    ));

    // E6: Eq. 2 — x = inv(A)·b, with A = 512·I + j/512 built in-program
    // (diagonally dominant, so well conditioned) and b = i + c.
    let c = rng.range(1, 9);
    let text = format!(
        ".base s f64[]\n.base v f64[128,{M}]\n\
         .base k f64[{M},{M}]\n.base j f64[{M},{M}]\n.base d f64[{M},{M}]\n\
         .base e bool[{M},{M}]\n.base a f64[{M},{M}]\n.base t f64[{M},{M}]\n\
         .base b f64[{M}]\n.base x f64[{M}]\n\
         BH_RANGE k\n\
         BH_MOD j k {M}\n\
         BH_SUBTRACT d k j\n\
         BH_DIVIDE d d {M}\n\
         BH_EQUAL e d j\n\
         BH_IDENTITY a e\n\
         BH_MULTIPLY a a {M}\n\
         BH_MULTIPLY j j {:?}\n\
         BH_ADD a a j\n\
         BH_RANGE b\n\
         BH_ADD b b {c}\n\
         BH_INVERSE t a\n\
         BH_MATMUL x t b\n\
         BH_ADD_REDUCE s x 0\n\
         BH_IDENTITY v a[0:128:1,0:{M}:1]\n\
         BH_SYNC s\nBH_SYNC v\n",
        1.0 / M as f64
    );
    let a: Vec<f64> = (0..M * M)
        .map(|k| {
            let (i, j) = (k / M, k % M);
            let diagonal = if i == j { M as f64 } else { 0.0 };
            diagonal + j as f64 / M as f64
        })
        .collect();
    let b: Vec<f64> = (0..M).map(|i| (i as u64 + c) as f64).collect();
    let x = lu_solve(a.clone(), b, M);
    out.push(Prog::new(
        "E6",
        &text,
        vec![
            ("s", Check::Close(vec![sum(&x)])),
            ("v", Check::Exact(a[..128 * M].to_vec())),
        ],
    ));

    // E7: a 16-op element-wise chain plus a sum.
    let mut steps = vec![(true, scale)];
    for k in 1..16 {
        steps.push(if k % 2 == 1 {
            (false, rng.range(1, 8) as f64 * 0.125)
        } else {
            (true, 1.0 + rng.range(1, 8) as f64 / 1024.0)
        });
    }
    let (chain, last) = chain_text(N, &steps);
    let text = format!("{decl}{chain}{}", tail(last));
    let z: Vec<f64> = (0..N).map(|i| apply_steps(i as f64, &steps)).collect();
    out.push(Prog::new(
        "E7",
        &text,
        vec![
            ("s", Check::Close(vec![sum(&z)])),
            ("v", Check::Close(z[..V].to_vec())),
        ],
    ));

    // scan: cumsum of 0..N, then its sum.
    let text = format!(
        "{decl}.base x f64[{N}]\n.base c f64[{N}]\n\
         BH_RANGE x\nBH_ADD_ACCUMULATE c x 0\n{}",
        tail("c")
    );
    let cum: Vec<f64> = (0..N as u64).map(|i| (i * (i + 1) / 2) as f64).collect();
    out.push(Prog::new(
        "scan",
        &text,
        vec![
            ("s", Check::Close(vec![sum(&cum)])),
            ("v", Check::Exact(cum[..V].to_vec())),
        ],
    ));
    out
}

/// Solve `a·x = b` (row-major `n×n`) by LU with partial pivoting.
fn lu_solve(mut a: Vec<f64>, mut b: Vec<f64>, n: usize) -> Vec<f64> {
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&p, &q| a[p * n + col].abs().total_cmp(&a[q * n + col].abs()))
            .expect("non-empty column");
        if pivot != col {
            for k in 0..n {
                a.swap(pivot * n + k, col * n + k);
            }
            b.swap(pivot, col);
        }
        let diag = a[col * n + col];
        for row in col + 1..n {
            let f = a[row * n + col] / diag;
            if f != 0.0 {
                for k in col..n {
                    a[row * n + k] -= f * a[col * n + k];
                }
                b[row] -= f * b[col];
            }
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let tail: f64 = (row + 1..n).map(|k| a[row * n + k] * x[k]).sum();
        x[row] = (b[row] - tail) / a[row * n + row];
    }
    x
}

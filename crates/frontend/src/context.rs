//! The recording context: the front-end half of the Bohrium bridge.
//!
//! Every array operation appends byte-code to a growing program instead of
//! computing anything. When a result is requested ([`crate::BhArray::eval`]
//! or [`Context::flush`]), the context snapshots the program and hands it
//! to its [`Runtime`] — the single entry point owning the optimiser, the
//! transformation cache, the VM pool and the aggregated statistics —
//! exactly like Bohrium's NumPy bridge intercepting calls and handing
//! byte-code to the runtime.
//!
//! A context is a *thin handle* over an `Arc<Runtime>`: many contexts (and
//! threads) can share one runtime, so structurally identical traces
//! recorded anywhere hit one shared transformation cache and aggregate
//! into one [`bh_runtime::RuntimeStats`] snapshot.
//!
//! Execution uses *replay* semantics: each flush re-runs the whole recorded
//! program on a recycled VM. All sources of data are deterministic (seeded
//! `BH_RANDOM`, bound host tensors), so replay is semantics-preserving.
//! The `BH_SYNC` that makes an evaluated register observable is appended
//! to the evaluation *snapshot*, not to the recording — so evaluating the
//! same recorded sequence twice produces byte-for-byte identical snapshots
//! and the second evaluation is a cache hit.

use bh_ir::{Instruction, Opcode, PrintStyle, Program, Reg, ViewRef};
use bh_opt::OptOptions;
use bh_runtime::{EvalOutcome, Runtime};
use bh_tensor::{DType, Scalar, Shape, Tensor};
use bh_vm::VmError;
use parking_lot::Mutex;
use std::sync::{Arc, Weak};

pub(crate) struct Inner {
    pub(crate) program: Program,
    runtime: Arc<Runtime>,
    // Arc'd so an evaluation can release the recording lock and hand the
    // bindings to the runtime without deep-copying host tensors.
    bound: Arc<Vec<(Reg, Tensor)>>,
    next_id: usize,
    // (sequence, outcome): concurrent evals through one shared context
    // finish in arbitrary order; the sequence keeps "last" = latest
    // *started* rather than latest *finished*.
    last_outcome: Option<(u64, EvalOutcome)>,
    eval_seq: u64,
}

impl Inner {
    fn next_eval_seq(&mut self) -> u64 {
        self.eval_seq += 1;
        self.eval_seq
    }

    fn store_outcome(&mut self, seq: u64, outcome: EvalOutcome) {
        if self.last_outcome.as_ref().is_none_or(|(s, _)| *s < seq) {
            self.last_outcome = Some((seq, outcome));
        }
    }
}

impl Inner {
    fn fresh_name(&mut self) -> String {
        let name = format!("a{}", self.next_id);
        self.next_id += 1;
        name
    }
}

/// Handle to one array register; records `BH_FREE` when the last user
/// drops it, mirroring Bohrium's discard semantics.
pub(crate) struct RegGuard {
    pub(crate) reg: Reg,
    pub(crate) dtype: DType,
    pub(crate) shape: Shape,
    ctx: Weak<Mutex<Inner>>,
}

impl Drop for RegGuard {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.upgrade() {
            let mut inner = ctx.lock();
            inner
                .program
                .push(Instruction::free(ViewRef::full(self.reg)));
        }
    }
}

impl std::fmt::Debug for RegGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RegGuard({}, {} {})", self.reg, self.dtype, self.shape)
    }
}

/// A lazy-evaluation context: the front-end's stand-in for
/// `import bohrium as np`.
///
/// # Examples
///
/// The paper's Listing 1, in Rust:
///
/// ```
/// use bh_frontend::Context;
/// use bh_tensor::{DType, Shape};
///
/// let ctx = Context::new();
/// let mut a = ctx.zeros(DType::Float64, Shape::vector(10));
/// a += 1.0;
/// a += 1.0;
/// a += 1.0;
/// let t = a.eval()?;
/// assert_eq!(t.to_f64_vec(), vec![3.0; 10]);
/// # Ok::<(), bh_vm::VmError>(())
/// ```
///
/// Sharing one runtime (one cache, one stats aggregate) between contexts:
///
/// ```
/// use bh_frontend::{Context, Runtime};
/// use bh_tensor::{DType, Shape};
///
/// let rt = Runtime::builder().build_shared();
/// let ctx1 = Context::with_runtime(rt.clone());
/// let ctx2 = Context::with_runtime(rt.clone());
/// let mut a = ctx1.zeros(DType::Float64, Shape::vector(4));
/// a += 1.0;
/// let mut b = ctx2.zeros(DType::Float64, Shape::vector(4));
/// b += 1.0;
/// a.eval()?;
/// b.eval()?; // same structure → served from the shared cache
/// assert_eq!(rt.stats().cache_hits, 1);
/// # Ok::<(), bh_vm::VmError>(())
/// ```
#[derive(Clone)]
pub struct Context {
    pub(crate) inner: Arc<Mutex<Inner>>,
}

impl Default for Context {
    fn default() -> Context {
        Context::new()
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        write!(
            f,
            "Context({} byte-codes, {} bases)",
            inner.program.instrs().len(),
            inner.program.bases().len()
        )
    }
}

impl Context {
    /// A context over its own default runtime (O2, fast-math, fusing
    /// engine — see [`Runtime::new`]).
    pub fn new() -> Context {
        Context::with_runtime(Runtime::builder().build_shared())
    }

    /// A context sharing an existing runtime. All contexts handed the same
    /// `Arc` share one transformation cache and one stats aggregate.
    pub fn with_runtime(runtime: Arc<Runtime>) -> Context {
        Context {
            inner: Arc::new(Mutex::new(Inner {
                program: Program::new(),
                runtime,
                bound: Arc::new(Vec::new()),
                next_id: 0,
                last_outcome: None,
                eval_seq: 0,
            })),
        }
    }

    /// A context over a dedicated runtime with explicit optimisation
    /// options. Prefer [`Context::with_runtime`] +
    /// [`Runtime::builder`](bh_runtime::Runtime::builder) when you also
    /// want a non-default engine, thread count or cache capacity.
    pub fn with_options(options: OptOptions) -> Context {
        Context::with_runtime(Runtime::builder().options(options).build_shared())
    }

    /// The runtime this context records for.
    pub fn runtime(&self) -> Arc<Runtime> {
        Arc::clone(&self.inner.lock().runtime)
    }

    pub(crate) fn make_array(&self, dtype: DType, shape: Shape) -> crate::BhArray {
        let mut inner = self.inner.lock();
        let name = inner.fresh_name();
        let reg = inner.program.declare(&name, dtype, shape.clone());
        drop(inner);
        crate::BhArray::from_parts(
            self.clone(),
            Arc::new(RegGuard {
                reg,
                dtype,
                shape,
                ctx: Arc::downgrade(&self.inner),
            }),
        )
    }

    pub(crate) fn push(&self, instr: Instruction) {
        self.inner.lock().program.push(instr);
    }

    /// Record `BH_IDENTITY target <value>`.
    pub(crate) fn fill(&self, reg: Reg, value: Scalar) {
        self.push(Instruction::unary(
            Opcode::Identity,
            ViewRef::full(reg),
            value,
        ));
    }

    /// All-zeros array, like `np.zeros`.
    pub fn zeros(&self, dtype: DType, shape: Shape) -> crate::BhArray {
        let a = self.make_array(dtype, shape);
        self.fill(a.reg(), Scalar::zero(dtype));
        a
    }

    /// All-ones array, like `np.ones`.
    pub fn ones(&self, dtype: DType, shape: Shape) -> crate::BhArray {
        let a = self.make_array(dtype, shape);
        self.fill(a.reg(), Scalar::one(dtype));
        a
    }

    /// Constant-filled array, like `np.full`.
    pub fn full(&self, dtype: DType, shape: Shape, value: Scalar) -> crate::BhArray {
        let a = self.make_array(dtype, shape);
        self.fill(a.reg(), value.cast(dtype));
        a
    }

    /// `[0, 1, …, n-1]`, like `np.arange`.
    pub fn arange(&self, dtype: DType, n: usize) -> crate::BhArray {
        let a = self.make_array(dtype, Shape::vector(n));
        self.push(Instruction::range(ViewRef::full(a.reg())));
        a
    }

    /// Seeded uniform-random array (`BH_RANDOM`).
    pub fn random(&self, dtype: DType, shape: Shape, seed: u64) -> crate::BhArray {
        let a = self.make_array(dtype, shape);
        self.push(Instruction::unary(
            Opcode::Random,
            ViewRef::full(a.reg()),
            Scalar::I64(seed as i64),
        ));
        a
    }

    /// Wrap host data as an input array (like feeding an existing NumPy
    /// array to Bohrium).
    pub fn array(&self, tensor: Tensor) -> crate::BhArray {
        let mut inner = self.inner.lock();
        let name = inner.fresh_name();
        let reg = inner
            .program
            .try_declare(&name, tensor.dtype(), tensor.shape().clone(), true)
            .expect("fresh names never collide");
        let dtype = tensor.dtype();
        let shape = tensor.shape().clone();
        Arc::make_mut(&mut inner.bound).push((reg, tensor));
        drop(inner);
        crate::BhArray::from_parts(
            self.clone(),
            Arc::new(RegGuard {
                reg,
                dtype,
                shape,
                ctx: Arc::downgrade(&self.inner),
            }),
        )
    }

    /// The byte-code recorded so far, in the paper's textual format.
    pub fn recorded_text(&self, style: PrintStyle) -> String {
        self.inner.lock().program.to_text(style)
    }

    /// Number of byte-codes recorded so far.
    pub fn recorded_len(&self) -> usize {
        self.inner.lock().program.instrs().len()
    }

    /// Evaluate `reg`: snapshot the recording, append the `BH_SYNC` that
    /// makes the register observable, and hand the snapshot to the
    /// runtime (which serves the optimised plan from its cache when the
    /// structure has been seen before).
    ///
    /// # Errors
    ///
    /// Propagates validation or execution failures from the runtime.
    pub(crate) fn eval_reg_outcome(&self, reg: Reg) -> Result<(Tensor, EvalOutcome), VmError> {
        let mut inner = self.inner.lock();
        let seq = inner.next_eval_seq();
        let mut snapshot = inner.program.clone();
        snapshot.push(Instruction::sync(ViewRef::full(reg)));
        let runtime = Arc::clone(&inner.runtime);
        // Release the recording lock while the runtime works, so sibling
        // contexts on other threads keep recording/evaluating; the Arc
        // clone shares, not copies, the bound host tensors.
        let bound = Arc::clone(&inner.bound);
        drop(inner);
        let (value, outcome) = runtime.eval(&snapshot, &bound, reg)?;
        self.inner.lock().store_outcome(seq, outcome.clone());
        Ok((value, outcome))
    }

    pub(crate) fn eval_reg(&self, reg: Reg) -> Result<Tensor, VmError> {
        self.eval_reg_outcome(reg).map(|(tensor, _)| tensor)
    }

    /// Force optimisation + execution of everything recorded. Registers
    /// not yet freed are treated as observable (transient `BH_SYNC`s are
    /// appended to the snapshot), so their computation is not dead-code
    /// eliminated.
    ///
    /// # Errors
    ///
    /// Propagates validation or execution failures from the runtime.
    pub fn flush(&self) -> Result<EvalOutcome, VmError> {
        let mut inner = self.inner.lock();
        let seq = inner.next_eval_seq();
        let mut snapshot = inner.program.clone();
        let mut freed = vec![false; snapshot.bases().len()];
        for instr in snapshot.instrs() {
            if instr.op == Opcode::Free {
                if let Some(v) = instr.operands.first().and_then(|o| o.as_view()) {
                    freed[v.reg.index()] = true;
                }
            }
        }
        for (index, freed) in freed.iter().enumerate() {
            if !freed {
                snapshot.push(Instruction::sync(ViewRef::full(Reg(index as u32))));
            }
        }
        let runtime = Arc::clone(&inner.runtime);
        let bound = Arc::clone(&inner.bound);
        drop(inner);
        let outcome = runtime.execute(&snapshot, &bound)?;
        self.inner.lock().store_outcome(seq, outcome.clone());
        Ok(outcome)
    }

    /// The [`EvalOutcome`] of the most recent evaluation or flush through
    /// this context (prefer the outcome returned by
    /// [`crate::BhArray::eval_outcome`] directly, and
    /// [`Runtime::stats`](bh_runtime::Runtime::stats) for aggregates).
    pub fn last_outcome(&self) -> Option<EvalOutcome> {
        self.inner
            .lock()
            .last_outcome
            .as_ref()
            .map(|(_, o)| o.clone())
    }
}

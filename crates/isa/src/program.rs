//! Programs: validated collections of LevIR functions.

use std::fmt;

use crate::exec::MAX_INVOKE_ARGS;
use crate::inst::{Inst, InstMeta, NUM_REGS};

/// Identifies a function within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Returns the function index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifies a registered near-data *action*.
///
/// Actions are LevIR functions registered with the Leviathan runtime; an
/// [`Inst::Invoke`] names the action to execute on an
/// actor. The mapping from `ActionId` to `(Program, FuncId)` lives in the
/// runtime's action table, mirroring the engine's vtable map (Sec. VI-B2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActionId(pub u32);

impl fmt::Debug for ActionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A single LevIR function: a named, label-resolved instruction sequence.
#[derive(Clone, Debug)]
pub struct Function {
    name: String,
    insts: Vec<Inst>,
    /// `metas[i]` is `InstMeta::of(&insts[i])`.
    metas: Vec<InstMeta>,
}

impl Function {
    pub(crate) fn new(name: String, insts: Vec<Inst>) -> Self {
        let metas = insts.iter().map(InstMeta::of).collect();
        Function { name, insts, metas }
    }

    /// The function's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function's instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The decoded timing view of each instruction, indexed like
    /// [`Function::insts`].
    pub fn metas(&self) -> &[InstMeta] {
        &self.metas
    }

    /// Number of instructions in the function.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the function has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// Errors detected when finishing a [`Program`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A label was created but never bound to a position.
    UnboundLabel {
        /// Function containing the unbound label.
        func: String,
        /// The label's index.
        label: u32,
    },
    /// A branch targets a label bound past the end of the function.
    LabelOutOfRange {
        /// Function containing the bad label.
        func: String,
        /// The label's index.
        label: u32,
    },
    /// A `call` targets a function id that does not exist.
    UnknownCallee {
        /// Function containing the call.
        func: String,
        /// The missing callee id.
        callee: u32,
    },
    /// A function does not end in `ret`, `halt`, or `jmp`, so execution
    /// would fall off its end.
    FallsOffEnd {
        /// The offending function.
        func: String,
    },
    /// A register index is out of range (≥ [`crate::NUM_REGS`]).
    BadRegister {
        /// The offending function.
        func: String,
        /// The register index used.
        reg: u8,
    },
    /// An `invoke` carries more arguments than the ABI allows.
    TooManyInvokeArgs {
        /// The offending function.
        func: String,
        /// How many arguments were supplied.
        count: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnboundLabel { func, label } => {
                write!(f, "function `{func}`: label L{label} is never bound")
            }
            ProgramError::LabelOutOfRange { func, label } => {
                write!(f, "function `{func}`: label L{label} is out of range")
            }
            ProgramError::UnknownCallee { func, callee } => {
                write!(f, "function `{func}`: call to unknown function f{callee}")
            }
            ProgramError::FallsOffEnd { func } => {
                write!(
                    f,
                    "function `{func}` falls off its end (missing ret/halt/jmp)"
                )
            }
            ProgramError::BadRegister { func, reg } => {
                write!(f, "function `{func}`: register r{reg} out of range")
            }
            ProgramError::TooManyInvokeArgs { func, count } => {
                write!(
                    f,
                    "function `{func}`: invoke with {count} args (max {MAX_INVOKE_ARGS})"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A validated LevIR program: an immutable set of functions with all labels
/// resolved and all cross-references checked.
///
/// Programs are cheap to share (`Arc<Program>` in the simulator) and are the
/// unit of code both core threads and near-data actions execute from.
#[derive(Clone, Debug, Default)]
pub struct Program {
    funcs: Vec<Function>,
}

impl Program {
    /// Validates `funcs` into a program. Both ways to make one, the
    /// [`crate::ProgramBuilder`] and the snapshot codec, come through
    /// here, so every program the interpreters see has passed these
    /// checks: each function ends in `ret`, `halt` or `jmp`, every
    /// register is in range, every branch target lies inside its function,
    /// every callee exists, and no `invoke` passes more than
    /// [`MAX_INVOKE_ARGS`] arguments.
    pub(crate) fn new(funcs: Vec<Function>) -> Result<Self, ProgramError> {
        let nfuncs = funcs.len() as u32;
        for func in &funcs {
            let len = func.len() as u32;
            // A function must not fall off its end.
            if !matches!(
                func.insts().last(),
                Some(Inst::Ret | Inst::Jmp { .. } | Inst::Halt)
            ) {
                return Err(ProgramError::FallsOffEnd {
                    func: func.name().to_string(),
                });
            }
            for inst in func.insts() {
                let mut bad_reg = None;
                inst.for_each_use(|r| {
                    if r.index() >= NUM_REGS {
                        bad_reg = Some(r.0);
                    }
                });
                if let Some(rd) = inst.def() {
                    if rd.index() >= NUM_REGS {
                        bad_reg = Some(rd.0);
                    }
                }
                if let Some(reg) = bad_reg {
                    return Err(ProgramError::BadRegister {
                        func: func.name().to_string(),
                        reg,
                    });
                }
                match inst {
                    Inst::Br { target, .. } | Inst::Jmp { target } if target.0 >= len => {
                        return Err(ProgramError::LabelOutOfRange {
                            func: func.name().to_string(),
                            label: target.0,
                        });
                    }
                    Inst::Call { func: callee } if callee.0 >= nfuncs => {
                        return Err(ProgramError::UnknownCallee {
                            func: func.name().to_string(),
                            callee: callee.0,
                        });
                    }
                    Inst::Invoke { args, .. } if args.len() > MAX_INVOKE_ARGS => {
                        return Err(ProgramError::TooManyInvokeArgs {
                            func: func.name().to_string(),
                            count: args.len(),
                        });
                    }
                    _ => {}
                }
            }
        }
        Ok(Program { funcs })
    }

    /// Looks up a function by id.
    ///
    /// # Panics
    /// Panics if `id` does not name a function in this program; `FuncId`s
    /// are only produced by this program's builder, so this indicates a bug.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Returns the function with the given diagnostic name, if any.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name() == name)
            .map(|i| FuncId(i as u32))
    }

    /// Iterates over `(id, function)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// True if the program has no functions.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Total instruction count across all functions (static code size).
    pub fn total_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.len()).sum()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, func) in self.iter() {
            writeln!(f, "{id:?} <{}>:", func.name())?;
            for (pc, inst) in func.insts().iter().enumerate() {
                writeln!(f, "  {pc:4}: {inst}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {

    use crate::builder::ProgramBuilder;
    use crate::inst::Reg;

    #[test]
    fn func_lookup_by_name() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("alpha");
        f.ret();
        let alpha = f.finish();
        let mut g = pb.function("beta");
        g.halt();
        let beta = g.finish();
        let prog = pb.finish().unwrap();
        assert_eq!(prog.func_by_name("alpha"), Some(alpha));
        assert_eq!(prog.func_by_name("beta"), Some(beta));
        assert_eq!(prog.func_by_name("gamma"), None);
        assert_eq!(prog.len(), 2);
        assert_eq!(prog.total_insts(), 2);
    }

    #[test]
    fn display_disassembles() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        f.imm(Reg(1), 42).ret();
        f.finish();
        let prog = pb.finish().unwrap();
        let text = prog.to_string();
        assert!(text.contains("<main>"));
        assert!(text.contains("imm   r1, 0x2a"));
    }
}

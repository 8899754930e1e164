//! **LIR** — the target-independent side tables a code generator
//! reads next to an allocated RTL function, plus the GC-descriptor and
//! heap-shape derivations every target shares.
//!
//! There is no second instruction set: a target selects machine code
//! straight from [`til_rtl::RInstr`], as the paper's backend does, and
//! looks up what allocation and liveness resolved in a [`LirFun`]:
//!
//! * the register/slot [`Assignment`] the allocator produced;
//! * a [`SafePoint`] for every RTL instruction that can reach a
//!   collection or a stack walk (calls, runtime-service calls,
//!   allocations), keyed by its instruction index and carrying the
//!   sorted live-in/live-out virtual-register sets the GC tables are
//!   derived from;
//! * the calling-convention signature ([`FunSig`]) the machine-code
//!   verifier checks against.
//!
//! A target supplies the pieces that genuinely differ per machine:
//! the [`RegFile`] the allocator colors against, instruction
//! selection, the frame layout ([`FrameLayout`]) that positions spill
//! slots and the return address, and the encoding of the per-site GC
//! tables. The table *content* — which slots hold live traced pointers
//! at a safe point, and which listed slots are provably dead there —
//! is target-independent and derived here ([`frame_info`],
//! [`call_frame_info`]) from the safe-point data, so a new target
//! cannot get the paper's §2.3 invariants wrong by re-deriving them.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use til_common::Var;
use til_rtl::analysis::defs;
use til_rtl::{HeadSpec, RInstr, ROp, RRep, RtlFun, VReg};
use til_runtime::{FieldRep, FrameInfo, LocRep, RepLoc};
use til_vm::Trap;

/// Machine-level representation class of a calling-convention value,
/// derived from the RTL rep annotations and threaded through the
/// linked unit so the machine-code verifier can check argument and
/// result registers at every call site and return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MRep {
    /// Raw untraced word (native int or float bits).
    Untraced,
    /// GC-safe traced pointer (or pointer-filtered word).
    Traced,
    /// Baseline-mode tagged word (low-bit-discriminated int/pointer).
    Tagged,
    /// Odd-encoded code value.
    Code,
    /// Rep decided at run time (polymorphic value with a companion).
    Unknown,
}

/// A function's machine-level calling-convention signature.
#[derive(Clone, Debug)]
pub struct FunSig {
    /// Per-parameter rep class, in argument-register order.
    pub params: Vec<MRep>,
    /// Rep class of the returned value.
    pub ret: MRep,
}

/// Maps an RTL rep annotation to its calling-convention class.
pub fn mrep_of(rep: Option<&RRep>, tagged: bool) -> MRep {
    match rep {
        Some(RRep::Int) if tagged => MRep::Tagged,
        Some(RRep::Int) | Some(RRep::Float) if !tagged => MRep::Untraced,
        Some(RRep::Trace) => MRep::Traced,
        Some(RRep::Code) => MRep::Code,
        _ => MRep::Unknown,
    }
}

/// Derives a function's calling-convention signature from its RTL rep
/// annotations: parameter classes straight from the annotations; the
/// result class is the join over every `Ret(Some _)` (functions that
/// diverge or return unit get `Unknown`, which the verifier treats as
/// unconstrained).
pub fn fun_sig(f: &RtlFun, tagged: bool) -> FunSig {
    let mut ret = None;
    for ins in &f.instrs {
        if let RInstr::Ret(Some(v)) = ins {
            let m = mrep_of(f.reps.get(v), tagged);
            ret = Some(match ret {
                None => m,
                Some(prev) if prev == m => m,
                Some(_) => MRep::Unknown,
            });
        }
    }
    FunSig {
        params: f
            .params
            .iter()
            .map(|p| mrep_of(f.reps.get(p), tagged))
            .collect(),
        ret: ret.unwrap_or(MRep::Unknown),
    }
}

/// Relocations a target leaves for its linker to patch.
#[derive(Clone, Debug)]
pub enum Reloc {
    /// Direct branch/call target: the entry of a code block.
    CodeTarget(Var),
    /// Immediate odd-encoded code value (closures).
    CodeImm(Var),
    /// Branch to a trap stub.
    TrapTarget(Trap),
}

/// Where a virtual register lives after allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loc {
    /// A physical register (a color in `0..RegFile::allocatable`; the
    /// target maps colors to machine registers).
    Reg(u8),
    /// A frame slot index (the target maps indices to byte offsets via
    /// its [`FrameLayout`]).
    Slot(u32),
}

/// The allocator's verdict for one function: virtual-register
/// locations plus the number of frame slots the layout must reserve.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    /// Location of every virtual register that occurs in the function.
    pub loc: HashMap<VReg, Loc>,
    /// Number of frame slots used.
    pub nslots: u32,
}

impl Assignment {
    /// The location of `v`; allocation covers every vreg that occurs
    /// in the function, so a miss is a lowering bug.
    pub fn loc(&self, v: VReg) -> Loc {
        match self.loc.get(&v) {
            Some(l) => *l,
            None => unreachable!("vreg {v} has no location"),
        }
    }
}

/// The description of a target's allocatable register file, consumed
/// by the (target-independent) register allocator.
#[derive(Clone, Copy, Debug)]
pub struct RegFile {
    /// Number of colorable registers; the allocator hands out colors
    /// `0..allocatable` and spills the rest to frame slots.
    pub allocatable: usize,
    /// How many arguments travel in registers. Colors `0..num_args`
    /// must map to the argument registers, in convention order.
    pub num_args: usize,
}

/// A safe point: an instruction at which a collection or a stack walk
/// can observe the frame. Carries the liveness the GC tables are
/// derived from, resolved to *sorted* virtual-register sets so every
/// target derives byte-identical tables from the same data.
#[derive(Clone, Debug)]
pub struct SafePoint {
    /// Vregs live into the instruction, sorted.
    pub live_in: Vec<VReg>,
    /// Vregs live out of the instruction, sorted.
    pub live_out: Vec<VReg>,
}

/// One allocated function as a target sees it: the RTL body itself,
/// with the allocator's assignment, the safe points and the signature
/// alongside.
#[derive(Clone, Debug)]
pub struct LirFun<'a> {
    /// The function body, selected from directly.
    pub rtl: &'a RtlFun,
    /// Register/slot assignment.
    pub assign: &'a Assignment,
    /// Safe points keyed by RTL instruction index, in index order: one
    /// per `Call`, `CallRt`, `Alloc` and `AllocArr`.
    pub safe_points: Vec<(usize, SafePoint)>,
    /// Calling-convention signature.
    pub sig: FunSig,
}

impl LirFun<'_> {
    /// The safe point of RTL instruction `i`; every call, runtime call
    /// and allocation has one, so a miss is a lowering bug.
    pub fn safe_point(&self, i: usize) -> &SafePoint {
        match self.safe_points.binary_search_by_key(&i, |(at, _)| *at) {
            Ok(k) => &self.safe_points[k].1,
            Err(_) => unreachable!("RTL instruction {i} is not a safe point"),
        }
    }
}

/// Per-target frame geometry: where the return address and the spill
/// slots live. The *content* of the GC tables is derived from this
/// plus the safe-point data by [`frame_info`]/[`call_frame_info`];
/// only the geometry is the target's business.
pub trait FrameLayout {
    /// Frame size in bytes (what a stack walk must skip).
    fn frame_size(&self) -> u32;
    /// Byte offset of the return-address slot within the frame.
    fn ra_offset(&self) -> u32;
    /// Byte offset of spill slot `slot` within the frame.
    fn slot_byte_off(&self, slot: u32) -> u32;
}

// ------------------------------------------------- GC-table derivation

/// The GC descriptor of `v` when observed *from a stable location*
/// during a collection or stack walk: `Trace` for unconditionally
/// traced values; for computed reps, the companion's slot when the
/// companion is itself slotted, else conservatively `Trace` (sound:
/// pointer filtering skips non-pointers). `None` for values the
/// collector ignores.
pub fn loc_rep_slotted(f: &LirFun, layout: &dyn FrameLayout, v: VReg) -> Option<LocRep> {
    match f.rtl.reps.get(&v) {
        Some(RRep::Trace) => Some(LocRep::Trace),
        Some(RRep::Computed(rv)) => match f.assign.loc(*rv) {
            Loc::Slot(s) => Some(LocRep::Computed(RepLoc::Slot(layout.slot_byte_off(s)))),
            Loc::Reg(_) => Some(LocRep::Trace),
        },
        _ => None,
    }
}

/// The GC descriptor of `v` when observed from a *register* at a GC
/// point (registers are stable across an in-function collection, so a
/// register-resident companion may be named directly).
pub fn loc_rep_reg(f: &LirFun, layout: &dyn FrameLayout, v: VReg) -> Option<LocRep> {
    match f.rtl.reps.get(&v) {
        Some(RRep::Trace) => Some(LocRep::Trace),
        Some(RRep::Computed(rv)) => {
            let loc = match f.assign.loc(*rv) {
                Loc::Reg(r) => RepLoc::Reg(r),
                Loc::Slot(s) => RepLoc::Slot(layout.slot_byte_off(s)),
            };
            Some(LocRep::Computed(loc))
        }
        _ => None,
    }
}

/// The frame descriptor visible at a point where `live` (sorted vregs)
/// are live: every slotted pointer-typed live value, as (byte offset,
/// descriptor), sorted by offset. Tagged mode keeps no slot tables
/// (the collector scans the whole stack by tag).
pub fn frame_info(
    f: &LirFun,
    layout: &dyn FrameLayout,
    tagged: bool,
    live: &[VReg],
) -> FrameInfo {
    let mut slots = Vec::new();
    if !tagged {
        for v in live {
            if let Loc::Slot(s) = f.assign.loc(*v) {
                if let Some(rep) = loc_rep_slotted(f, layout, *v) {
                    slots.push((layout.slot_byte_off(s), rep));
                }
            }
        }
        slots.sort_by_key(|(o, _)| *o);
    }
    FrameInfo {
        size: layout.frame_size(),
        ra_offset: layout.ra_offset(),
        slots,
        dead: vec![],
    }
}

// ------------------------------------------------ heap-shape derivation

/// The target-independent typed-heap shape of one record allocation,
/// before the linker resolves the code function to a signature index:
/// per-field reps plus, for closures, the statically known function
/// whose odd-encoded entry lands in the `Code` field. Derived by
/// [`alloc_shape`] from the same rep annotations the record header's
/// pointer mask is built from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocShape {
    /// One rep per record field, in field order.
    pub field_reps: Vec<FieldRep>,
    /// For closures: the function whose code pointer is stored into
    /// the (unique) `Code` field.
    pub code_fun: Option<Var>,
    /// Nested shape links, one per field: `Some` when the field is
    /// traced and its source has exactly one definition — another
    /// record allocation with a derivable shape in the same function
    /// (a closure's environment record, a captured closure, a record
    /// holding closures). The linker interns these into shape rows of
    /// their own, so the machine-code verifier can follow a load from
    /// a shape-known base to another *shape-known* value instead of
    /// widening to plain `Traced`.
    pub field_shapes: Vec<Option<Box<AllocShape>>>,
}

/// The unique defining instruction of `v`'s underlying value,
/// following single-definition register copies (`Mov v, w`) a bounded
/// number of hops — RTL lowering freely copies an allocation's result
/// before it is stored into a field, and the shape derivation must see
/// through those copies.
/// Returns the instruction together with the vreg it defines (the
/// root of the copy chain). `None` when any vreg on the chain has
/// zero or multiple definitions.
fn single_def(f: &RtlFun, v: VReg) -> Option<(&RInstr, VReg)> {
    let mut cur = v;
    for _ in 0..8 {
        let mut ds = f.instrs.iter().filter(|ins| defs(ins) == Some(cur));
        let d = ds.next()?;
        if ds.next().is_some() {
            return None;
        }
        match d {
            RInstr::Mov { src: ROp::V(w), .. } if *w != cur => cur = *w,
            _ => return Some((d, cur)),
        }
    }
    None
}

/// Derives the typed-heap shape of one record allocation, or `None`
/// when no *definite* shape exists (dynamic header, non-record kind,
/// computed or locative fields, or any disagreement between the
/// derived reps and the header's pointer mask). The derivation is
/// deliberately partial: every emitted shape agrees exactly with its
/// header, so the machine-code verifier's shape-vs-header cross-check
/// flags only genuine table corruption, never a conservative gap.
pub fn alloc_shape(f: &RtlFun, head: &HeadSpec, fields: &[ROp]) -> Option<AllocShape> {
    let mut visiting = Vec::new();
    alloc_shape_rec(f, head, fields, &mut visiting)
}

/// [`alloc_shape`] with the set of vregs currently on the derivation
/// path, guarding the nested-field recursion against a self-capturing
/// allocation (a knot-tied closure whose fields name its own result).
fn alloc_shape_rec(
    f: &RtlFun,
    head: &HeadSpec,
    fields: &[ROp],
    visiting: &mut Vec<VReg>,
) -> Option<AllocShape> {
    let h = match head {
        HeadSpec::Static(h) => *h,
        HeadSpec::Reg(_) => return None,
    };
    if til_vm::header::kind(h) != til_vm::header::KIND_RECORD
        || til_vm::header::len(h) != fields.len() as u64
        || fields.len() > 31
    {
        return None;
    }
    let mask = til_vm::header::mask(h);
    let mut field_reps = Vec::with_capacity(fields.len());
    for (i, fld) in fields.iter().enumerate() {
        let rep = match fld {
            ROp::I(_) => FieldRep::Untraced,
            ROp::V(v) => match f.reps.get(v) {
                Some(RRep::Int) | Some(RRep::Float) => FieldRep::Untraced,
                Some(RRep::Trace) => FieldRep::Traced,
                Some(RRep::Code) => FieldRep::Code,
                _ => return None,
            },
        };
        // The header's pointer mask and the derived rep must agree
        // bit for bit, or the shape is not emitted at all.
        if (mask >> i) & 1 != u32::from(rep == FieldRep::Traced) {
            return None;
        }
        field_reps.push(rep);
    }
    // A closure's code slot: the unique `Code` field whose source has
    // exactly one definition, a `LeaCode` — then the callee is pinned
    // statically and the linker can record its signature index.
    let mut code_fun = None;
    let code_fields = field_reps
        .iter()
        .enumerate()
        .filter(|(_, r)| **r == FieldRep::Code)
        .count();
    if code_fields == 1 {
        for (fld, rep) in fields.iter().zip(&field_reps) {
            if *rep != FieldRep::Code {
                continue;
            }
            if let ROp::V(v) = fld {
                if let Some((RInstr::LeaCode { code, .. }, _)) = single_def(f, *v) {
                    code_fun = Some(*code);
                }
            }
        }
    }
    // Nested links: a traced field whose source has exactly one
    // definition — another record allocation with a derivable shape —
    // carries that shape, so the verifier can refine loads through it.
    let mut field_shapes = Vec::with_capacity(fields.len());
    for (fld, rep) in fields.iter().zip(&field_reps) {
        let nested = match (fld, rep) {
            (ROp::V(v), FieldRep::Traced) => match single_def(f, *v) {
                Some((
                    RInstr::Alloc {
                        head: nh,
                        fields: nf,
                        ..
                    },
                    root,
                )) if !visiting.contains(&root) => {
                    visiting.push(root);
                    let s = alloc_shape_rec(f, nh, nf, visiting);
                    visiting.pop();
                    s.map(Box::new)
                }
                _ => None,
            },
            _ => None,
        };
        field_shapes.push(nested);
    }
    Some(AllocShape {
        field_reps,
        code_fun,
        field_shapes,
    })
}

/// A call site's frame descriptor: the slots live *after* the call
/// (what the collector must trace once the callee returns), with the
/// subset that is provably dead at the call instruction itself —
/// slot-resident values in `live_out` but not `live_in`, i.e. the
/// call's own result slot — marked so the machine-code verifier can
/// hold every other listed slot to be genuinely traceable during the
/// callee's stack walk.
pub fn call_frame_info(
    f: &LirFun,
    layout: &dyn FrameLayout,
    tagged: bool,
    sp: &SafePoint,
) -> FrameInfo {
    let mut fi = frame_info(f, layout, tagged, &sp.live_out);
    for v in &sp.live_out {
        if sp.live_in.binary_search(v).is_ok() {
            continue;
        }
        if let Loc::Slot(s) = f.assign.loc(*v) {
            if loc_rep_slotted(f, layout, *v).is_some() {
                fi.dead.push(layout.slot_byte_off(s));
            }
        }
    }
    fi.dead.sort_unstable();
    fi
}

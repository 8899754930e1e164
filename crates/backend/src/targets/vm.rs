//! The VM target: instruction selection and frame construction for
//! the simulated ALPHA-style machine. Allocated RTL functions (with
//! their [`LirFun`] side tables) become machine code with explicit
//! frames, calling-convention moves, open-coded allocation with GC
//! limit checks, the exception-handler chain, and the per-site GC
//! tables of §2.3.
//!
//! In baseline (tagged) mode the frame's value slots live in a
//! heap-allocated frame record (SML/NJ's heap frames): the stack holds
//! only the return address and the frame pointer, every spill access
//! indirects through the frame record, and each activation allocates.

use std::collections::HashMap;
use til_common::Var;
use til_lir::{
    alloc_shape, AllocShape, FrameLayout, FunSig, LirFun, Loc, RegFile, Reloc, SafePoint,
};
use til_rtl::{ArrKind, CallTarget, HeadSpec, Lbl, RInstr, ROp, VReg};
use til_runtime::{FrameInfo, GcPoint, LocRep};
use til_vm::{header, regs, Alu, Instr, Op, RtFn};

const TMP: u8 = regs::TMP; // r28
const TMP2: u8 = regs::TMP2; // r29
const S3: u8 = 22;
const S4: u8 = 23;

/// The VM's allocatable register file: r0..r21 colorable (colors
/// 0..16 are the argument registers), r22/r23 backend scratch, r24+
/// special.
pub const VM_REG_FILE: RegFile = RegFile {
    allocatable: 22,
    num_args: regs::NUM_ARGS,
};

/// One emitted function before linking.
pub struct EmittedFun {
    /// Code label.
    pub name: Option<Var>,
    /// Machine code (branch targets local until linked).
    pub instrs: Vec<Instr>,
    /// Patches.
    pub relocs: Vec<(usize, Reloc)>,
    /// `(index-after-call, RTL instruction index, caller frame)`
    /// triples; the RTL index lets the table cross-checker recompute
    /// the liveness the frame was built from.
    pub call_sites: Vec<(usize, usize, FrameInfo)>,
    /// `(gc-instruction index, RTL instruction index, point)` triples.
    /// The prologue GC point of baseline heap frames has no RTL
    /// counterpart and carries `usize::MAX`.
    pub gc_points: Vec<(usize, usize, GcPoint)>,
    /// Calling-convention signature for the verifier.
    pub sig: FunSig,
    /// Indices of the heap-pointer bumps that complete an
    /// exception-packet allocation (headers carrying
    /// [`header::EXN_BIT`]). The linker rebases and publishes them so
    /// the execution profiler can charge packet construction to the
    /// runtime (`"(rt)"`) bucket instead of the raising function.
    pub exn_allocs: Vec<usize>,
    /// Typed-heap shapes of this function's record allocations, keyed
    /// by the header-store instruction index (nearly tag-free mode
    /// only). The linker rebases, dedups, and resolves them into
    /// [`til_runtime::GcTables::shapes`]/`shape_at`.
    pub alloc_shapes: Vec<(usize, AllocShape)>,
}

/// The VM frame geometry: return address at offset 0, spill slots
/// starting at offset 8 (in TIL mode; in baseline the same slot
/// offsets index the heap frame record after its header).
pub(crate) struct VmFrame {
    pub(crate) frame_bytes: u32,
}

impl FrameLayout for VmFrame {
    fn frame_size(&self) -> u32 {
        self.frame_bytes
    }
    fn ra_offset(&self) -> u32 {
        0
    }
    fn slot_byte_off(&self, slot: u32) -> u32 {
        8 * (1 + slot)
    }
}

/// Selects VM instructions for one function.
pub fn select_fun(f: &LirFun, tagged: bool, statics_addr: &[u64]) -> EmittedFun {
    let ncalls = f
        .rtl
        .instrs
        .iter()
        .filter(|i| matches!(i, RInstr::Call { .. } | RInstr::CallRt { .. }))
        .count();
    let has_frame = ncalls > 0 || f.assign.nslots > 0 || f.rtl.nhandlers > 0;
    let frame_bytes = if !has_frame {
        0
    } else if tagged {
        8 * (2 + 3 * f.rtl.nhandlers as i64)
    } else {
        8 * (1 + f.assign.nslots as i64 + 3 * f.rtl.nhandlers as i64)
    };
    let mut e = Emit {
        f,
        tagged,
        statics_addr,
        out: Vec::new(),
        relocs: Vec::new(),
        call_sites: Vec::new(),
        gc_points: Vec::new(),
        label_pos: HashMap::new(),
        fixups: Vec::new(),
        frame_bytes,
        has_frame,
        exn_allocs: Vec::new(),
        alloc_shapes: Vec::new(),
    };
    e.prologue();
    for (i, ins) in f.rtl.instrs.iter().enumerate() {
        e.instr(i, ins);
    }
    // Patch local branches.
    for (at, lbl, kind) in e.fixups.clone() {
        let target = e.label_pos[&lbl] as u32;
        e.out[at] = match kind {
            FixKind::Br => Instr::Br(target),
            FixKind::Beqz(r) => Instr::Beqz(r, target),
            FixKind::Bnez(r) => Instr::Bnez(r, target),
            FixKind::Lea(r) => Instr::Lea { dst: r, target },
        };
    }
    EmittedFun {
        name: f.rtl.name,
        instrs: e.out,
        relocs: e.relocs,
        call_sites: e.call_sites,
        gc_points: e.gc_points,
        sig: f.sig.clone(),
        exn_allocs: e.exn_allocs,
        alloc_shapes: e.alloc_shapes,
    }
}

struct Emit<'a> {
    f: &'a LirFun<'a>,
    tagged: bool,
    statics_addr: &'a [u64],
    out: Vec<Instr>,
    relocs: Vec<(usize, Reloc)>,
    call_sites: Vec<(usize, usize, FrameInfo)>,
    gc_points: Vec<(usize, usize, GcPoint)>,
    label_pos: HashMap<Lbl, usize>,
    fixups: Vec<(usize, Lbl, FixKind)>,
    frame_bytes: i64,
    has_frame: bool,
    exn_allocs: Vec<usize>,
    alloc_shapes: Vec<(usize, AllocShape)>,
}

#[derive(Clone, Copy)]
enum FixKind {
    Br,
    Beqz(u8),
    Bnez(u8),
    Lea(u8),
}

impl<'a> Emit<'a> {
    fn push(&mut self, i: Instr) -> usize {
        self.out.push(i);
        self.out.len() - 1
    }

    // ------------------------------------------------------ slots & locs

    fn layout(&self) -> VmFrame {
        VmFrame {
            frame_bytes: self.frame_bytes as u32,
        }
    }

    fn nslots(&self) -> u32 {
        self.f.assign.nslots
    }

    fn handler_off(&self, idx: u32) -> i64 {
        if self.tagged {
            8 * (2 + 3 * idx as i64)
        } else {
            8 * (1 + self.nslots() as i64 + 3 * idx as i64)
        }
    }

    fn slot_byte_off(&self, slot: u32) -> u32 {
        // In TIL mode, byte offset from SP; in baseline, within the
        // heap frame record (after its header).
        self.layout().slot_byte_off(slot)
    }

    /// Loads frame slot `slot` into physical `dst`.
    fn load_slot(&mut self, slot: u32, dst: u8) {
        if self.tagged {
            self.push(Instr::Ld {
                dst: S4,
                base: regs::SP,
                off: 8,
            });
            self.push(Instr::Ld {
                dst,
                base: S4,
                off: self.slot_byte_off(slot) as i32,
            });
        } else {
            self.push(Instr::Ld {
                dst,
                base: regs::SP,
                off: self.slot_byte_off(slot) as i32,
            });
        }
    }

    /// Stores physical `src` into frame slot `slot`.
    fn store_slot(&mut self, slot: u32, src: u8) {
        if self.tagged {
            self.push(Instr::Ld {
                dst: S4,
                base: regs::SP,
                off: 8,
            });
            self.push(Instr::St {
                src,
                base: S4,
                off: self.slot_byte_off(slot) as i32,
            });
        } else {
            self.push(Instr::St {
                src,
                base: regs::SP,
                off: self.slot_byte_off(slot) as i32,
            });
        }
    }

    fn loc(&self, v: VReg) -> Loc {
        self.f.assign.loc(v)
    }

    /// Materializes vreg `v` in a register (using `scratch` if it lives
    /// in a slot).
    fn fetch(&mut self, v: VReg, scratch: u8) -> u8 {
        match self.loc(v) {
            Loc::Reg(r) => r,
            Loc::Slot(s) => {
                self.load_slot(s, scratch);
                scratch
            }
        }
    }

    fn fetch_op(&mut self, o: &ROp, scratch: u8) -> Op {
        match o {
            ROp::I(i) => Op::I(*i),
            ROp::V(v) => Op::R(self.fetch(*v, scratch)),
        }
    }

    /// Writes a value produced in `src_phys` into vreg `dst`.
    fn write(&mut self, dst: VReg, src_phys: u8) {
        match self.loc(dst) {
            Loc::Reg(r) => {
                if r != src_phys {
                    self.push(Instr::Mov {
                        dst: r,
                        src: Op::R(src_phys),
                    });
                }
            }
            Loc::Slot(s) => self.store_slot(s, src_phys),
        }
    }

    /// The register a definition should target (scratch when slotted).
    fn def_reg(&self, dst: VReg, scratch: u8) -> u8 {
        match self.loc(dst) {
            Loc::Reg(r) => r,
            Loc::Slot(_) => scratch,
        }
    }

    fn finish_def(&mut self, dst: VReg, r: u8) {
        if let Loc::Slot(s) = self.loc(dst) {
            self.store_slot(s, r);
        }
    }

    // --------------------------------------------------------- prologue

    fn prologue(&mut self) {
        if self.has_frame {
            self.push(Instr::Alu {
                op: Alu::Sub,
                dst: regs::SP,
                a: regs::SP,
                b: Op::I(self.frame_bytes),
            });
            self.push(Instr::St {
                src: regs::RA,
                base: regs::SP,
                off: 0,
            });
        }
        if self.tagged && self.nslots() > 0 {
            // Allocate the heap frame record (baseline CPS-style
            // frames): header + zero-initialized tagged slots.
            let size = 8 * (1 + self.nslots() as i64);
            self.push(Instr::Alu {
                op: Alu::Add,
                dst: TMP,
                a: regs::HP,
                b: Op::I(size),
            });
            self.push(Instr::Alu {
                op: Alu::CmpLe,
                dst: TMP,
                a: TMP,
                b: Op::R(regs::HL),
            });
            let b = self.push(Instr::Bnez(TMP, 0));
            self.push(Instr::Mov {
                dst: TMP,
                src: Op::I(size),
            });
            let gc_at = self.push(Instr::RtCall(RtFn::Gc));
            // GC point: parameters are still in their argument
            // registers.
            let mut point = GcPoint {
                regs: vec![],
                frame: FrameInfo {
                    size: self.frame_bytes as u32,
                    ra_offset: 0,
                    slots: vec![],
                    dead: vec![],
                },
            };
            for (i, p) in self.f.rtl.params.iter().enumerate() {
                if let Some(rep) = self.loc_rep_reg(*p) {
                    point.regs.push((i as u8, rep));
                }
            }
            self.gc_points.push((gc_at, usize::MAX, point));
            let ok = self.out.len();
            self.out[b] = Instr::Bnez(TMP, ok as u32);
            self.push(Instr::Mov {
                dst: TMP,
                src: Op::I(header::make(
                    header::KIND_PTRARRAY,
                    self.nslots() as u64,
                    0,
                ) as i64),
            });
            self.push(Instr::St {
                src: TMP,
                base: regs::HP,
                off: 0,
            });
            self.push(Instr::Mov {
                dst: TMP,
                src: Op::I(1), // tagged 0
            });
            for i in 0..self.nslots() {
                self.push(Instr::St {
                    src: TMP,
                    base: regs::HP,
                    off: (8 * (1 + i)) as i32,
                });
            }
            self.push(Instr::St {
                src: regs::HP,
                base: regs::SP,
                off: 8,
            });
            self.push(Instr::Alu {
                op: Alu::Add,
                dst: regs::HP,
                a: regs::HP,
                b: Op::I(size),
            });
        }
        // Move parameters from the argument registers.
        let mut slot_moves = Vec::new();
        let mut reg_moves = Vec::new();
        for (i, p) in self.f.rtl.params.iter().enumerate() {
            match self.loc(*p) {
                Loc::Slot(s) => slot_moves.push((s, i as u8)),
                Loc::Reg(r) => reg_moves.push((r, i as u8)),
            }
        }
        for (s, src) in slot_moves {
            self.store_slot(s, src);
        }
        self.par_move(reg_moves.into_iter().map(|(d, s)| (d, MovSrc::Reg(s))).collect());
    }

    fn epilogue(&mut self) {
        if self.has_frame {
            self.push(Instr::Ld {
                dst: regs::RA,
                base: regs::SP,
                off: 0,
            });
            self.push(Instr::Alu {
                op: Alu::Add,
                dst: regs::SP,
                a: regs::SP,
                b: Op::I(self.frame_bytes),
            });
        }
    }

    // ------------------------------------------------------- moves

    fn par_move(&mut self, moves: Vec<(u8, MovSrc)>) {
        let mut pending = moves;
        // Drop no-ops.
        pending.retain(|(d, s)| !matches!(s, MovSrc::Reg(r) if r == d));
        while !pending.is_empty() {
            // Find a move whose destination is not a register source of
            // any other pending move.
            let pos = pending.iter().position(|(d, _)| {
                !pending
                    .iter()
                    .any(|(_, s)| matches!(s, MovSrc::Reg(r) if r == d))
            });
            match pos {
                Some(i) => {
                    let (d, s) = pending.remove(i);
                    self.emit_move(d, s);
                }
                None => {
                    // A register cycle: rotate through TMP.
                    let (d, _) = pending[0];
                    self.push(Instr::Mov {
                        dst: TMP,
                        src: Op::R(d),
                    });
                    for (_, s) in pending.iter_mut() {
                        if matches!(s, MovSrc::Reg(r) if *r == d) {
                            *s = MovSrc::Reg(TMP);
                        }
                    }
                }
            }
        }
    }

    fn emit_move(&mut self, dst: u8, src: MovSrc) {
        match src {
            MovSrc::Reg(r) => {
                if r != dst {
                    self.push(Instr::Mov {
                        dst,
                        src: Op::R(r),
                    });
                }
            }
            MovSrc::Slot(s) => self.load_slot(s, dst),
        }
    }

    fn arg_moves(&mut self, args: &[VReg]) {
        assert!(args.len() <= regs::NUM_ARGS, "too many call arguments");
        let moves: Vec<(u8, MovSrc)> = args
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let src = match self.loc(*v) {
                    Loc::Reg(r) => MovSrc::Reg(r),
                    Loc::Slot(s) => MovSrc::Slot(s),
                };
                (i as u8, src)
            })
            .collect();
        self.par_move(moves);
    }

    // -------------------------------------------------------- gc info
    //
    // The table *content* (which slots hold live traced pointers, the
    // dead-slot subset at call sites) is derived by the shared
    // target-independent helpers in `til_lir`; this target only
    // supplies its frame geometry.

    fn loc_rep_reg(&self, v: VReg) -> Option<LocRep> {
        til_lir::loc_rep_reg(self.f, &self.layout(), v)
    }

    fn loc_rep_reg_slotted(&self, v: VReg) -> Option<LocRep> {
        til_lir::loc_rep_slotted(self.f, &self.layout(), v)
    }

    fn frame_info(&self, live: &[VReg]) -> FrameInfo {
        til_lir::frame_info(self.f, &self.layout(), self.tagged, live)
    }

    fn call_frame_info(&self, sp: &SafePoint) -> FrameInfo {
        til_lir::call_frame_info(self.f, &self.layout(), self.tagged, sp)
    }

    fn gc_point_here(&mut self, at: usize, rtl_at: usize, sp: &SafePoint) {
        // Registers live into this instruction, plus the frame.
        let mut point = GcPoint {
            regs: vec![],
            frame: self.frame_info(&sp.live_in),
        };
        if !self.has_frame {
            point.frame.size = 0;
        }
        for v in &sp.live_in {
            if let Loc::Reg(r) = self.loc(*v) {
                if let Some(rep) = self.loc_rep_reg(*v) {
                    point.regs.push((r, rep));
                }
            }
        }
        point.regs.sort_by_key(|(r, _)| *r);
        self.gc_points.push((at, rtl_at, point));
    }
}

#[derive(Clone, Copy)]
enum MovSrc {
    Reg(u8),
    Slot(u32),
}

impl<'a> Emit<'a> {
    /// Selects RTL instruction `i`.
    fn instr(&mut self, i: usize, ins: &RInstr) {
        match ins {
            RInstr::Mov { dst, src } => {
                let d = self.def_reg(*dst, TMP);
                let s = self.fetch_op(src, TMP2);
                self.push(Instr::Mov { dst: d, src: s });
                self.finish_def(*dst, d);
            }
            RInstr::Alu { op, dst, a, b } => {
                let ra = match self.fetch_op(a, TMP) {
                    Op::R(r) => r,
                    Op::I(v) => {
                        self.push(Instr::Mov {
                            dst: TMP,
                            src: Op::I(v),
                        });
                        TMP
                    }
                };
                let rb = self.fetch_op(b, TMP2);
                let d = self.def_reg(*dst, TMP);
                self.push(Instr::Alu {
                    op: *op,
                    dst: d,
                    a: ra,
                    b: rb,
                });
                self.finish_def(*dst, d);
            }
            RInstr::Falu { op, dst, a, b } => {
                let ra = self.fetch(*a, TMP);
                let rb = self.fetch(*b, TMP2);
                let d = self.def_reg(*dst, TMP);
                self.push(Instr::Falu {
                    op: *op,
                    dst: d,
                    a: ra,
                    b: rb,
                });
                self.finish_def(*dst, d);
            }
            RInstr::Itof { dst, a } => {
                let ra = self.fetch(*a, TMP);
                let d = self.def_reg(*dst, TMP);
                self.push(Instr::Itof { dst: d, a: ra });
                self.finish_def(*dst, d);
            }
            RInstr::Ld { dst, base, off } => {
                let rb = self.fetch(*base, TMP);
                let d = self.def_reg(*dst, TMP);
                self.push(Instr::Ld {
                    dst: d,
                    base: rb,
                    off: *off,
                });
                self.finish_def(*dst, d);
            }
            RInstr::St { src, base, off } => {
                let rs = self.fetch(*src, TMP);
                let rb = self.fetch(*base, TMP2);
                self.push(Instr::St {
                    src: rs,
                    base: rb,
                    off: *off,
                });
            }
            RInstr::LdGlobal { dst, gid } => {
                let d = self.def_reg(*dst, TMP);
                self.push(Instr::Ld {
                    dst: d,
                    base: regs::ZERO,
                    off: (8 * gid) as i32,
                });
                self.finish_def(*dst, d);
            }
            RInstr::StGlobal { src, gid } => {
                let rs = self.fetch(*src, TMP);
                self.push(Instr::St {
                    src: rs,
                    base: regs::ZERO,
                    off: (8 * gid) as i32,
                });
            }
            RInstr::LeaCode { dst, code } => {
                let d = self.def_reg(*dst, TMP);
                let at = self.push(Instr::Mov {
                    dst: d,
                    src: Op::I(0),
                });
                self.relocs.push((at, Reloc::CodeImm(*code)));
                self.finish_def(*dst, d);
            }
            RInstr::LeaStatic { dst, obj } => {
                let d = self.def_reg(*dst, TMP);
                let addr = self.statics_addr[*obj as usize];
                self.push(Instr::Mov {
                    dst: d,
                    src: Op::I(addr as i64),
                });
                self.finish_def(*dst, d);
            }
            RInstr::Label(l) => {
                self.label_pos.insert(*l, self.out.len());
            }
            RInstr::Br(l) => {
                let at = self.push(Instr::Br(0));
                self.fixups.push((at, *l, FixKind::Br));
            }
            RInstr::Beqz(v, l) => {
                let r = self.fetch(*v, TMP);
                let at = self.push(Instr::Beqz(r, 0));
                self.fixups.push((at, *l, FixKind::Beqz(r)));
            }
            RInstr::Bnez(v, l) => {
                let r = self.fetch(*v, TMP);
                let at = self.push(Instr::Bnez(r, 0));
                self.fixups.push((at, *l, FixKind::Bnez(r)));
            }
            RInstr::Call { target, args, dst } => {
                // Fetch an indirect target before the argument moves.
                let tgt = match target {
                    CallTarget::Reg(v) => {
                        let r = self.fetch(*v, S3);
                        if r != S3 {
                            self.push(Instr::Mov {
                                dst: S3,
                                src: Op::R(r),
                            });
                        }
                        None
                    }
                    CallTarget::Code(c) => Some(*c),
                };
                self.arg_moves(args);
                match tgt {
                    Some(c) => {
                        let at = self.push(Instr::Jsr(0));
                        self.relocs.push((at, Reloc::CodeTarget(c)));
                    }
                    None => {
                        self.push(Instr::JsrR(S3));
                    }
                }
                // Call-site table: the return address is the next
                // instruction.
                if !self.tagged {
                    let fi = self.call_frame_info(self.f.safe_point(i));
                    self.call_sites.push((self.out.len(), i, fi));
                }
                if let Some(d) = dst {
                    self.write(*d, 0);
                }
            }
            RInstr::TailCall { target, args } => {
                let tgt = match target {
                    CallTarget::Reg(v) => {
                        let r = self.fetch(*v, S3);
                        if r != S3 {
                            self.push(Instr::Mov {
                                dst: S3,
                                src: Op::R(r),
                            });
                        }
                        None
                    }
                    CallTarget::Code(c) => Some(*c),
                };
                self.arg_moves(args);
                self.epilogue();
                match tgt {
                    Some(c) => {
                        let at = self.push(Instr::Br(0));
                        self.relocs.push((at, Reloc::CodeTarget(c)));
                    }
                    None => {
                        self.push(Instr::Jmp(S3));
                    }
                }
            }
            RInstr::CallRt {
                f,
                args,
                dst,
                alloc,
            } => {
                let sp = self.f.safe_point(i);
                self.arg_moves(args);
                let at = self.push(Instr::RtCall(*f));
                if *alloc {
                    // The service may collect: argument registers hold
                    // the only live register values to fix; everything
                    // else crossed this call in slots.
                    let mut point = GcPoint {
                        regs: vec![],
                        frame: self.frame_info(&sp.live_in),
                    };
                    for (ai, v) in args.iter().enumerate() {
                        if let Some(rep) = self.loc_rep_reg_slotted(*v) {
                            point.regs.push((ai as u8, rep));
                        }
                    }
                    self.gc_points.push((at, i, point));
                }
                if !self.tagged {
                    // Runtime calls that can walk the stack behave like
                    // calls for the table (harmless otherwise).
                    let fi = self.call_frame_info(sp);
                    self.call_sites.push((self.out.len(), i, fi));
                }
                if let Some(d) = dst {
                    self.write(*d, 0);
                }
            }
            RInstr::Ret(v) => {
                if let Some(v) = v {
                    let r = self.fetch(*v, TMP);
                    if r != 0 {
                        self.push(Instr::Mov {
                            dst: 0,
                            src: Op::R(r),
                        });
                    }
                }
                self.epilogue();
                self.push(Instr::Jmp(regs::RA));
            }
            RInstr::Alloc { dst, head, fields } => {
                let size = 8 * (1 + fields.len() as i64);
                self.push(Instr::Alu {
                    op: Alu::Add,
                    dst: TMP,
                    a: regs::HP,
                    b: Op::I(size),
                });
                self.push(Instr::Alu {
                    op: Alu::CmpLe,
                    dst: TMP,
                    a: TMP,
                    b: Op::R(regs::HL),
                });
                let b = self.push(Instr::Bnez(TMP, 0));
                self.push(Instr::Mov {
                    dst: TMP,
                    src: Op::I(size),
                });
                let gc_at = self.push(Instr::RtCall(RtFn::Gc));
                self.gc_point_here(gc_at, i, self.f.safe_point(i));
                let ok = self.out.len();
                self.out[b] = Instr::Bnez(TMP, ok as u32);
                // Header.
                match head {
                    HeadSpec::Static(h) => {
                        self.push(Instr::Mov {
                            dst: TMP,
                            src: Op::I(*h as i64),
                        });
                    }
                    HeadSpec::Reg(v) => {
                        let r = self.fetch(*v, TMP);
                        if r != TMP {
                            self.push(Instr::Mov {
                                dst: TMP,
                                src: Op::R(r),
                            });
                        }
                    }
                }
                let hdr_at = self.push(Instr::St {
                    src: TMP,
                    base: regs::HP,
                    off: 0,
                });
                // Record the allocation's typed-heap shape at the
                // header-store index (where the verifier keys it).
                if !self.tagged {
                    if let Some(s) = alloc_shape(self.f.rtl, head, fields) {
                        self.alloc_shapes.push((hdr_at, s));
                    }
                }
                for (fi, f) in fields.iter().enumerate() {
                    let r = match self.fetch_op(f, TMP2) {
                        Op::R(r) => r,
                        Op::I(v) => {
                            self.push(Instr::Mov {
                                dst: TMP2,
                                src: Op::I(v),
                            });
                            TMP2
                        }
                    };
                    self.push(Instr::St {
                        src: r,
                        base: regs::HP,
                        off: (8 * (1 + fi)) as i32,
                    });
                }
                self.write(*dst, regs::HP);
                let bump = self.push(Instr::Alu {
                    op: Alu::Add,
                    dst: regs::HP,
                    a: regs::HP,
                    b: Op::I(size),
                });
                // Exception packets (header exn bit): publish the bump
                // so the profiler charges the packet to the rt bucket.
                if matches!(head, HeadSpec::Static(h) if h & header::EXN_BIT != 0) {
                    self.exn_allocs.push(bump);
                }
            }
            RInstr::AllocArr {
                dst,
                kind,
                len,
                init,
            } => {
                // TMP = size in bytes = (len << 3) + 8.
                let lr = match self.fetch_op(len, TMP) {
                    Op::R(r) => r,
                    Op::I(v) => {
                        self.push(Instr::Mov {
                            dst: TMP,
                            src: Op::I(v),
                        });
                        TMP
                    }
                };
                self.push(Instr::Alu {
                    op: Alu::Sll,
                    dst: TMP,
                    a: lr,
                    b: Op::I(3),
                });
                self.push(Instr::Alu {
                    op: Alu::Add,
                    dst: TMP,
                    a: TMP,
                    b: Op::I(8),
                });
                self.push(Instr::Alu {
                    op: Alu::Add,
                    dst: TMP2,
                    a: regs::HP,
                    b: Op::R(TMP),
                });
                self.push(Instr::Alu {
                    op: Alu::CmpLe,
                    dst: TMP2,
                    a: TMP2,
                    b: Op::R(regs::HL),
                });
                let b = self.push(Instr::Bnez(TMP2, 0));
                let gc_at = self.push(Instr::RtCall(RtFn::Gc));
                self.gc_point_here(gc_at, i, self.f.safe_point(i));
                let ok = self.out.len();
                self.out[b] = Instr::Bnez(TMP2, ok as u32);
                // Header: kind | (size - 8), since len<<3 occupies the
                // length field's position.
                let k = match kind {
                    ArrKind::Int => header::KIND_INTARRAY,
                    ArrKind::Float => header::KIND_FLOATARRAY,
                    ArrKind::Ptr => header::KIND_PTRARRAY,
                };
                self.push(Instr::Alu {
                    op: Alu::Sub,
                    dst: TMP2,
                    a: TMP,
                    b: Op::I(8),
                });
                self.push(Instr::Alu {
                    op: Alu::Or,
                    dst: TMP2,
                    a: TMP2,
                    b: Op::I(k as i64),
                });
                self.push(Instr::St {
                    src: TMP2,
                    base: regs::HP,
                    off: 0,
                });
                // Init loop: S3 = cursor, TMP = end.
                let iv = self.fetch(*init, TMP2);
                if iv != TMP2 {
                    self.push(Instr::Mov {
                        dst: TMP2,
                        src: Op::R(iv),
                    });
                }
                self.push(Instr::Alu {
                    op: Alu::Add,
                    dst: TMP,
                    a: regs::HP,
                    b: Op::R(TMP),
                });
                self.push(Instr::Alu {
                    op: Alu::Add,
                    dst: S3,
                    a: regs::HP,
                    b: Op::I(8),
                });
                let loop_top = self.out.len();
                self.push(Instr::Alu {
                    op: Alu::CmpEq,
                    dst: S4,
                    a: S3,
                    b: Op::R(TMP),
                });
                let bdone = self.push(Instr::Bnez(S4, 0));
                self.push(Instr::St {
                    src: TMP2,
                    base: S3,
                    off: 0,
                });
                self.push(Instr::Alu {
                    op: Alu::Add,
                    dst: S3,
                    a: S3,
                    b: Op::I(8),
                });
                self.push(Instr::Br(loop_top as u32));
                let done = self.out.len();
                self.out[bdone] = Instr::Bnez(S4, done as u32);
                self.write(*dst, regs::HP);
                self.push(Instr::Mov {
                    dst: regs::HP,
                    src: Op::R(TMP),
                });
            }
            RInstr::PushHandler { lbl, idx } => {
                let base = self.handler_off(*idx) as i32;
                self.push(Instr::St {
                    src: regs::EXN,
                    base: regs::SP,
                    off: base,
                });
                let at = self.push(Instr::Lea { dst: TMP, target: 0 });
                self.fixups.push((at, *lbl, FixKind::Lea(TMP)));
                self.push(Instr::St {
                    src: TMP,
                    base: regs::SP,
                    off: base + 8,
                });
                self.push(Instr::St {
                    src: regs::SP,
                    base: regs::SP,
                    off: base + 16,
                });
                self.push(Instr::Alu {
                    op: Alu::Add,
                    dst: regs::EXN,
                    a: regs::SP,
                    b: Op::I(base as i64),
                });
            }
            RInstr::PopHandler { .. } => {
                self.push(Instr::Ld {
                    dst: regs::EXN,
                    base: regs::EXN,
                    off: 0,
                });
            }
            RInstr::HandlerEntry { dst } => {
                self.write(*dst, 0);
            }
            RInstr::Raise { packet } => {
                let p = self.fetch(*packet, TMP);
                if p != 0 {
                    self.push(Instr::Mov {
                        dst: 0,
                        src: Op::R(p),
                    });
                }
                self.push(Instr::Ld {
                    dst: TMP,
                    base: regs::EXN,
                    off: 8,
                });
                self.push(Instr::Ld {
                    dst: TMP2,
                    base: regs::EXN,
                    off: 16,
                });
                self.push(Instr::Ld {
                    dst: regs::EXN,
                    base: regs::EXN,
                    off: 0,
                });
                self.push(Instr::Mov {
                    dst: regs::SP,
                    src: Op::R(TMP2),
                });
                self.push(Instr::Jmp(TMP));
            }
            RInstr::TrapIf { cond, trap } => {
                let r = self.fetch(*cond, TMP);
                let at = self.push(Instr::Bnez(r, 0));
                self.relocs.push((at, Reloc::TrapTarget(*trap)));
            }
        }
    }
}

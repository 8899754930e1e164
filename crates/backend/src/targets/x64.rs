//! The x86-64 target: textual AT&T-syntax assembly with GC stack maps
//! re-derived from the same target-independent safe-point data the VM
//! target's tables come from — demonstrating that the paper's §2.3
//! nearly tag-free table discipline ports to a real ISA.
//!
//! # Conventions
//!
//! | role | register |
//! |---|---|
//! | colors 0..8 | `rdi rsi rdx rcx r8 r9 rbx rbp r12` |
//! | arguments | colors 0..8 (first six are the SysV argument order, so runtime-service calls line up with the C ABI) |
//! | extra args (9+) | outgoing stack area at the frame bottom |
//! | result | `rax` |
//! | scratch | `rax`, `r10` (`r11` for indirect call targets) |
//! | heap pointer / limit | `r15` / `r14` |
//! | handler chain | `r13` |
//! | stack pointer | `rsp` |
//!
//! Frame (grows down): `[outgoing args][spill slots][handler records]
//! [pad]` with the return address pushed by `call` just above, so
//! `slot_byte_off(s) = 8*(out + s)` and `ra_offset = frame_bytes`. A
//! pad word keeps `rsp` 16-aligned at call boundaries. All registers
//! are caller-save (values live across calls are slotted by the
//! allocator), and the runtime symbols (`til_rt_gc`,
//! `til_rt_trap_*`, …) preserve every register, as the VM's runtime
//! services do.
//!
//! Each safe point gets a stack map ([`GcPoint`]) derived by
//! [`til_lir::frame_info`]/[`til_lir::call_frame_info`]; maps are
//! keyed by the return-address label emitted right after the call and
//! rendered both as assembly comments and as an `.rodata` table.
//!
//! Alongside the text every instruction is mirrored as a structured
//! [`X64Op`] so the emitted assembly can be machine-checked: labels
//! resolve, every safe point carries a map, and the per-target mcv
//! rules (rsp balance, arguments defined before calls) run over the
//! same stream.

use std::collections::HashMap;
use til_lir::{alloc_shape, FrameLayout, LirFun, Loc, RegFile, SafePoint};
use til_runtime::{FieldRep, GcPoint};
use til_rtl::{ArrKind, CallTarget, HeadSpec, Lbl, RInstr, ROp, RtlProgram, StaticObj, VReg};
use til_vm::{header, Alu, Falu, RtFn, Trap};

/// The x86-64 register file: nine colorable registers (all of them
/// argument registers in our internal convention), the rest of the
/// ISA reserved for scratch, the heap, and the handler chain.
pub const X64_REG_FILE: RegFile = RegFile {
    allocatable: 9,
    num_args: 9,
};

/// Color → register name (AT&T, without the `%`). Also the argument
/// order, so the per-target mcv rules know which registers a call
/// reads.
pub const REG: [&str; 9] = ["rdi", "rsi", "rdx", "rcx", "r8", "r9", "rbx", "rbp", "r12"];
const TMP: &str = "rax";
const TMP2: &str = "r10";
const TGT: &str = "r11";
const HP: &str = "r15";
const HL: &str = "r14";
const EXN: &str = "r13";

/// One structured x86-64 operation — the verification mirror of a
/// text line. Only what the structural validator and the per-target
/// mcv rules need is kept; everything else is [`X64Op::Other`]. The
/// value-bearing variants (`MovRR`/`LdSlot`/`StSlot`/`LdField`/
/// `StField`/`LeaCode`/`Decode`/`ObjHead`) exist so the per-target
/// rules can track code values and shaped objects through registers
/// and frame slots — the x86-64 half of the typed-heap checks.
#[derive(Clone, Debug)]
pub enum X64Op {
    /// Local label definition.
    Local(String),
    /// Unconditional jump to a local label.
    Jmp(String),
    /// Conditional jump to a local label.
    Jcc(String),
    /// Indirect jump (tail calls, raise, return-through-register).
    JmpReg(String),
    /// Call (`None` target = indirect through `r11`); `nargs`
    /// register arguments were set up, `map` indexes the function's
    /// stack maps when the call is a safe point.
    Call {
        /// Direct callee symbol, or `None` for indirect.
        target: Option<String>,
        /// Number of register arguments the convention requires.
        nargs: usize,
        /// Stack-map index for this safe point.
        map: Option<usize>,
    },
    /// `rsp += delta` (negative in prologues).
    Rsp(i64),
    /// `ret`.
    Ret,
    /// Register-to-register move; the destination inherits the
    /// source's abstract class.
    MovRR {
        /// Destination register.
        dst: String,
        /// Source register.
        src: String,
    },
    /// Load from a frame spill slot (rsp-relative byte offset).
    LdSlot {
        /// Destination register.
        dst: String,
        /// Byte offset from rsp.
        off: u32,
    },
    /// Store to a frame spill slot (rsp-relative byte offset).
    StSlot {
        /// Byte offset from rsp.
        off: u32,
        /// Source register.
        src: String,
    },
    /// Heap load `movq off(%base), %dst`; refined when `base` carries
    /// a shaped-object class.
    LdField {
        /// Destination register.
        dst: String,
        /// Base register.
        base: String,
        /// Byte offset.
        off: i64,
    },
    /// Heap store `movq %src, off(%base)`; checked field-by-field when
    /// `base` carries a shaped-object class.
    StField {
        /// Base register.
        base: String,
        /// Byte offset.
        off: i64,
        /// Source register.
        src: String,
    },
    /// The odd-encoding `leaq` that completes a code value: `def` now
    /// holds the entry of `sym`, encoded `2*addr+1`.
    LeaCode {
        /// Register holding the encoded code value.
        def: String,
        /// The function symbol the value denotes.
        sym: String,
    },
    /// `sarq $1, %reg` decoding a code value before an indirect call;
    /// the register still denotes the same callee.
    Decode {
        /// The register being decoded.
        reg: String,
    },
    /// The header store `movq %rax, 0(%r15)` of a shaped allocation:
    /// `r15` becomes a shaped object of `shape` (an index into the
    /// function's [`X64Fun::shapes`]) until the bump reassigns it.
    /// `header` is the immediate the emitter stored, cross-checked
    /// against the shape's field reps.
    ObjHead {
        /// Index into the function's shape table.
        shape: usize,
        /// The record header word that was stored.
        header: u64,
    },
    /// Any other instruction; `defs` lists the registers it writes.
    Other {
        /// Registers written (names without `%`).
        defs: Vec<String>,
    },
}

/// The layout one shaped allocation claims for its record, mirrored
/// from the target-independent per-allocation descriptor derivation
/// ([`til_lir::alloc_shape`]): one rep per field, plus the symbol of
/// the one function whose entry the record's code slot must hold, when
/// the allocation is a closure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct X64Shape {
    /// Per-field reps, in field order (header excluded).
    pub field_reps: Vec<FieldRep>,
    /// Symbol of the pinned code-slot callee, if any.
    pub code_sym: Option<String>,
    /// Nested shape links, one per field: `Some(k)` when the traced
    /// field provably holds a record of this function's shape `k` (a
    /// closure's environment, a captured closure). Always
    /// `field_reps.len()` long; links are interned depth-first into
    /// the same per-function table, so they always point at earlier
    /// entries.
    pub field_shapes: Vec<Option<usize>>,
}

/// One function of emitted assembly.
pub struct X64Fun {
    /// Global symbol.
    pub symbol: String,
    /// Assembly lines (labels unindented, instructions tabbed).
    pub lines: Vec<String>,
    /// Structured mirror of `lines`' instructions, in order.
    pub ops: Vec<X64Op>,
    /// Stack maps, indexed by [`X64Op::Call::map`].
    pub maps: Vec<GcPoint>,
    /// Heap shapes, indexed by [`X64Op::ObjHead::shape`] and by the
    /// rows' own nested field links; structurally deduplicated within
    /// the function, rendered next to the stack maps in `.rodata`.
    pub shapes: Vec<X64Shape>,
    /// Frame bytes subtracted in the prologue (excluding the pushed
    /// return address).
    pub frame_bytes: u32,
    /// Parameter count (the first `min(nparams, 9)` argument registers
    /// are defined on entry).
    pub nparams: usize,
}

/// A whole compilation unit of textual x86-64.
pub struct X64Module {
    /// Functions, entry first.
    pub funs: Vec<X64Fun>,
    /// Static-object symbols (strings, type reps, exception packets).
    pub statics: Vec<String>,
}

impl X64Module {
    /// Renders the module as one `.s` file: text section, per-function
    /// stack-map tables, and the static data.
    pub fn text(&self) -> String {
        let mut s = String::new();
        s.push_str("# TIL x86-64 backend output (AT&T syntax).\n");
        s.push_str("# GC stack maps are derived from the target-independent safe-point\n");
        s.push_str("# data; each map is keyed by the return-address label after its call.\n");
        s.push_str("\t.text\n");
        for f in &self.funs {
            s.push('\n');
            s.push_str(&format!("\t.globl {}\n", f.symbol));
            for l in &f.lines {
                s.push_str(l);
                s.push('\n');
            }
        }
        s.push_str("\n\t.section .rodata\n");
        for f in &self.funs {
            for (k, m) in f.maps.iter().enumerate() {
                s.push_str(&format!("{}: # stack map\n", map_label(&f.symbol, k)));
                s.push_str(&format!(
                    "\t.quad {}, {}, {} # frame size, ra offset, nslots\n",
                    m.frame.size,
                    m.frame.ra_offset,
                    m.frame.slots.len()
                ));
                for (off, rep) in &m.frame.slots {
                    s.push_str(&format!("\t.quad {off} # {rep:?}\n"));
                }
            }
            for (k, sh) in f.shapes.iter().enumerate() {
                s.push_str(&format!("{}: # heap shape\n", shape_label(&f.symbol, k)));
                s.push_str(&format!(
                    "\t.quad {} # field count\n",
                    sh.field_reps.len()
                ));
                if !sh.field_reps.is_empty() {
                    let codes: Vec<String> = sh
                        .field_reps
                        .iter()
                        .map(|r| (rep_code(*r)).to_string())
                        .collect();
                    s.push_str(&format!(
                        "\t.byte {} # {:?}\n",
                        codes.join(", "),
                        sh.field_reps
                    ));
                }
                if let Some(sym) = &sh.code_sym {
                    s.push_str(&format!("\t.quad {sym} # pinned code entry\n"));
                }
                for (i, link) in sh.field_shapes.iter().enumerate() {
                    if let Some(j) = link {
                        s.push_str(&format!(
                            "\t.quad {} # field {i} object shape\n",
                            shape_label(&f.symbol, *j)
                        ));
                    }
                }
            }
        }
        for d in &self.statics {
            s.push_str(d);
            s.push('\n');
        }
        s
    }
}

fn map_label(symbol: &str, k: usize) -> String {
    format!(".Lsm_{symbol}_{k}")
}

fn shape_label(symbol: &str, k: usize) -> String {
    format!(".Lhs_{symbol}_{k}")
}

/// The byte encoding a field rep gets in the rendered shape table.
fn rep_code(r: FieldRep) -> u8 {
    match r {
        FieldRep::Untraced => 0,
        FieldRep::Traced => 1,
        FieldRep::Code => 2,
        FieldRep::Computed => 3,
    }
}

/// Mangles a function label into a valid assembly symbol.
fn mangle(label: &str) -> String {
    let mut s = String::from("til_");
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            s.push(c);
        } else {
            s.push('_');
        }
    }
    s
}

/// The assembly symbol of a function label: its entry in the module's
/// symbol map, else the plain mangling.
fn symbol_of(symbols: &HashMap<String, String>, code: Option<til_common::Var>) -> String {
    let label = crate::link::fun_label(code);
    symbols.get(&label).cloned().unwrap_or_else(|| mangle(&label))
}

/// The x86-64 frame geometry (TIL mode): outgoing args at the bottom,
/// then spill slots, handlers, padding; RA pushed by `call` above.
struct X64Frame {
    frame_bytes: u32,
    out_bytes: u32,
}

impl FrameLayout for X64Frame {
    fn frame_size(&self) -> u32 {
        // Including the pushed return address, so a stack walk skips
        // the whole activation.
        self.frame_bytes + 8
    }
    fn ra_offset(&self) -> u32 {
        self.frame_bytes
    }
    fn slot_byte_off(&self, slot: u32) -> u32 {
        self.out_bytes + 8 * slot
    }
}

/// Selects x86-64 for one function. `symbols` maps every function
/// label of the module to its assembly symbol; `fun_index` (the
/// function's position in the module) prefixes its local labels.
pub fn select_fun(
    f: &LirFun,
    tagged: bool,
    symbols: &HashMap<String, String>,
    fun_index: usize,
) -> X64Fun {
    let ncalls = f
        .rtl
        .instrs
        .iter()
        .filter(|i| matches!(i, RInstr::Call { .. } | RInstr::CallRt { .. }))
        .count();
    // Outgoing stack-arg words: the widest call's overflow beyond
    // the nine register arguments.
    let out_words = f
        .rtl
        .instrs
        .iter()
        .map(|i| match i {
            RInstr::Call { args, .. } | RInstr::TailCall { args, .. } => {
                args.len().saturating_sub(REG.len())
            }
            _ => 0,
        })
        .max()
        .unwrap_or(0) as u32;
    let nhandlers = f.rtl.nhandlers;
    let has_frame = ncalls > 0 || f.assign.nslots > 0 || nhandlers > 0 || out_words > 0;
    let mut words = out_words + f.assign.nslots + 3 * nhandlers;
    // Keep rsp 16-aligned at call boundaries: frame + pushed RA
    // must be a multiple of 16, so the frame itself is odd words.
    if has_frame && words.is_multiple_of(2) {
        words += 1;
    }
    let symbol = symbol_of(symbols, f.rtl.name);
    let mut e = Sel {
        f,
        symbols,
        fun_index,
        tagged,
        frame_bytes: 8 * words,
        out_bytes: 8 * out_words,
        has_frame,
        symbol: symbol.clone(),
        lines: Vec::new(),
        ops: Vec::new(),
        maps: Vec::new(),
        shapes: Vec::new(),
        tmp_label: 0,
    };
    e.lines.push(format!("{symbol}:"));
    e.prologue();
    for (i, ins) in f.rtl.instrs.iter().enumerate() {
        e.instr(i, ins);
    }
    X64Fun {
        symbol,
        lines: e.lines,
        ops: e.ops,
        maps: e.maps,
        shapes: e.shapes,
        frame_bytes: 8 * words,
        nparams: f.rtl.params.len(),
    }
}

struct Sel<'a> {
    f: &'a LirFun<'a>,
    symbols: &'a HashMap<String, String>,
    fun_index: usize,
    tagged: bool,
    frame_bytes: u32,
    out_bytes: u32,
    has_frame: bool,
    symbol: String,
    lines: Vec<String>,
    ops: Vec<X64Op>,
    maps: Vec<GcPoint>,
    shapes: Vec<X64Shape>,
    tmp_label: u32,
}

impl<'a> Sel<'a> {
    fn layout(&self) -> X64Frame {
        X64Frame {
            frame_bytes: self.frame_bytes,
            out_bytes: self.out_bytes,
        }
    }

    /// Emits one instruction line with its structured mirror.
    fn op(&mut self, text: String, op: X64Op) {
        self.lines.push(format!("\t{text}"));
        self.ops.push(op);
    }

    /// Emits a plain computation instruction writing `defs`.
    fn ins(&mut self, text: String, defs: &[&str]) {
        self.op(
            text,
            X64Op::Other {
                defs: defs.iter().map(|d| d.to_string()).collect(),
            },
        );
    }

    fn local(&mut self, name: String) {
        self.lines.push(format!("{name}:"));
        self.ops.push(X64Op::Local(name));
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.tmp_label += 1;
        format!(".L{}_{}{}", self.fun_index, stem, self.tmp_label)
    }

    fn lbl(&self, l: Lbl) -> String {
        format!(".L{}_b{}", self.fun_index, l)
    }

    // ------------------------------------------------------ locations

    fn loc(&self, v: VReg) -> Loc {
        self.f.assign.loc(v)
    }

    fn slot_off(&self, s: u32) -> u32 {
        self.layout().slot_byte_off(s)
    }

    /// Materializes vreg `v` in a register (loading from its slot into
    /// `scratch` if spilled); returns the register name.
    fn fetch(&mut self, v: VReg, scratch: &'static str) -> &'static str {
        match self.loc(v) {
            Loc::Reg(c) => REG[c as usize],
            Loc::Slot(s) => {
                let off = self.slot_off(s);
                self.op(
                    format!("movq {off}(%rsp), %{scratch}"),
                    X64Op::LdSlot {
                        dst: scratch.to_string(),
                        off,
                    },
                );
                scratch
            }
        }
    }

    /// Materializes an operand in a register (immediates through
    /// `scratch`).
    fn fetch_op(&mut self, o: &ROp, scratch: &'static str) -> &'static str {
        match o {
            ROp::I(i) => {
                self.ins(format!("movq ${i}, %{scratch}"), &[scratch]);
                scratch
            }
            ROp::V(v) => self.fetch(*v, scratch),
        }
    }

    /// Writes the value in `src` (a register name) into vreg `dst`,
    /// as a class-propagating move so the per-target mcv rules can
    /// follow code values and shaped objects through the assignment.
    fn write(&mut self, dst: VReg, src: &str) {
        match self.loc(dst) {
            Loc::Reg(c) => {
                let d = REG[c as usize];
                if d != src {
                    self.op(
                        format!("movq %{src}, %{d}"),
                        X64Op::MovRR {
                            dst: d.to_string(),
                            src: src.to_string(),
                        },
                    );
                }
            }
            Loc::Slot(s) => {
                let off = self.slot_off(s);
                self.op(
                    format!("movq %{src}, {off}(%rsp)"),
                    X64Op::StSlot {
                        off,
                        src: src.to_string(),
                    },
                );
            }
        }
    }

    /// The mangled symbol of a function label (shared by the call and
    /// `LeaCode` selections and the shape table).
    fn sym_of(&self, code: til_common::Var) -> String {
        symbol_of(self.symbols, Some(code))
    }

    /// Interns one derived allocation shape — children first, so a
    /// row's nested links always name earlier rows — into the
    /// function's shape table, structurally deduplicated (an
    /// environment record reached both by its own allocation and
    /// through its closure's nested link must share one index, or the
    /// verifier's link check would contradict itself).
    fn intern_shape(&mut self, s: &til_lir::AllocShape) -> usize {
        let field_shapes: Vec<Option<usize>> = s
            .field_shapes
            .iter()
            .map(|o| o.as_ref().map(|n| self.intern_shape(n)))
            .collect();
        let sh = X64Shape {
            field_reps: s.field_reps.clone(),
            code_sym: s.code_fun.map(|c| self.sym_of(c)),
            field_shapes,
        };
        match self.shapes.iter().position(|x| *x == sh) {
            Some(i) => i,
            None => {
                self.shapes.push(sh);
                self.shapes.len() - 1
            }
        }
    }

    // ------------------------------------------------------- prologue

    fn prologue(&mut self) {
        if self.has_frame {
            let fb = self.frame_bytes;
            self.op(format!("subq ${fb}, %rsp"), X64Op::Rsp(-(fb as i64)));
        }
        // Move parameters from their arrival locations. Params 0..9
        // arrive in the argument registers (a parallel move, they may
        // permute); params 9+ arrive on the stack above the frame.
        let mut reg_moves: Vec<(u8, u8)> = Vec::new(); // (dst color, src color)
        for (i, p) in self.f.rtl.params.iter().enumerate() {
            if i < REG.len() {
                match self.loc(*p) {
                    Loc::Reg(c) => reg_moves.push((c, i as u8)),
                    Loc::Slot(s) => {
                        let src = REG[i];
                        let off = self.slot_off(s);
                        self.ins(format!("movq %{src}, {off}(%rsp)"), &[]);
                    }
                }
            } else {
                let in_off = self.frame_bytes as i64 + 8 + 8 * (i - REG.len()) as i64;
                self.ins(format!("movq {in_off}(%rsp), %{TMP}"), &[TMP]);
                self.write(*p, TMP);
            }
        }
        self.par_move(reg_moves);
    }

    fn epilogue(&mut self) {
        if self.has_frame {
            let fb = self.frame_bytes;
            self.op(format!("addq ${fb}, %rsp"), X64Op::Rsp(fb as i64));
        }
    }

    /// Parallel register-to-register move in color space, cycles
    /// rotated through `rax`.
    fn par_move(&mut self, moves: Vec<(u8, u8)>) {
        const VIA_TMP: u8 = u8::MAX;
        let mut pending: Vec<(u8, u8)> = moves;
        pending.retain(|(d, s)| d != s);
        while !pending.is_empty() {
            let pos = pending
                .iter()
                .position(|(d, _)| !pending.iter().any(|(_, s)| s == d));
            match pos {
                Some(i) => {
                    let (d, s) = pending.remove(i);
                    let src = if s == VIA_TMP { TMP } else { REG[s as usize] };
                    let dst = REG[d as usize];
                    self.ins(format!("movq %{src}, %{dst}"), &[dst]);
                }
                None => {
                    let (d, _) = pending[0];
                    let dr = REG[d as usize];
                    self.ins(format!("movq %{dr}, %{TMP}"), &[TMP]);
                    for (_, s) in pending.iter_mut() {
                        if *s == d {
                            *s = VIA_TMP;
                        }
                    }
                }
            }
        }
    }

    /// Sets up call arguments: the first nine through the argument
    /// registers (parallel move, slot sources loaded via `rax`),
    /// the rest into the outgoing stack area.
    fn arg_moves(&mut self, args: &[VReg]) {
        // Stack overflow args first (they only read, never clobber,
        // the argument registers).
        for (i, v) in args.iter().enumerate().skip(REG.len()) {
            let r = self.fetch(*v, TMP);
            let off = 8 * (i - REG.len());
            self.ins(format!("movq %{r}, {off}(%rsp)"), &[]);
        }
        // Slot-resident register args load directly into place;
        // register-resident ones form a parallel move.
        let mut reg_moves: Vec<(u8, u8)> = Vec::new();
        for (i, v) in args.iter().enumerate().take(REG.len()) {
            match self.loc(*v) {
                Loc::Reg(c) => reg_moves.push((i as u8, c)),
                Loc::Slot(s) => {
                    let off = self.slot_off(s);
                    let d = REG[i];
                    self.ins(format!("movq {off}(%rsp), %{d}"), &[d]);
                }
            }
        }
        self.par_move(reg_moves);
    }

    // -------------------------------------------------------- gc maps

    /// Records a call-site stack map (slots live after the call, dead
    /// subset marked) and returns its index.
    fn call_map(&mut self, sp: &SafePoint) -> usize {
        let fi = til_lir::call_frame_info(self.f, &self.layout(), self.tagged, sp);
        self.maps.push(GcPoint {
            regs: vec![],
            frame: fi,
        });
        self.maps.len() - 1
    }

    /// Records an allocation-site stack map (slots live into the
    /// instruction, plus live register descriptors) and returns its
    /// index.
    fn gc_map(&mut self, sp: &SafePoint) -> usize {
        let mut point = GcPoint {
            regs: vec![],
            frame: til_lir::frame_info(self.f, &self.layout(), self.tagged, &sp.live_in),
        };
        for v in &sp.live_in {
            if let Loc::Reg(c) = self.loc(*v) {
                if let Some(rep) = til_lir::loc_rep_reg(self.f, &self.layout(), *v) {
                    point.regs.push((c, rep));
                }
            }
        }
        point.regs.sort_by_key(|(r, _)| *r);
        self.maps.push(point);
        self.maps.len() - 1
    }

    /// Emits the return-address label and map comment after a call.
    fn after_call(&mut self, map: usize) {
        let k = map;
        let sm = map_label(&self.symbol, k);
        let ret = format!(".Lret_{}_{k}", self.fun_index);
        self.local(ret);
        let m = &self.maps[k];
        self.lines.push(format!(
            "\t# map {sm}: frame={} ra_off={} slots={:?} dead={:?}",
            m.frame.size, m.frame.ra_offset, m.frame.slots, m.frame.dead
        ));
    }

    // ----------------------------------------------------- selection

    /// Selects RTL instruction `i`.
    fn instr(&mut self, i: usize, ins: &RInstr) {
        match ins {
            RInstr::Mov { dst, src } => match src {
                ROp::I(i) => {
                    let d = match self.loc(*dst) {
                        Loc::Reg(c) => REG[c as usize],
                        Loc::Slot(_) => TMP,
                    };
                    self.ins(format!("movq ${i}, %{d}"), &[d]);
                    self.write(*dst, d);
                }
                ROp::V(v) => {
                    let s = self.fetch(*v, TMP);
                    self.write(*dst, s);
                }
            },
            RInstr::Alu { op, dst, a, b } => self.alu(*op, *dst, a, b),
            RInstr::Falu { op, dst, a, b } => {
                let ra = self.fetch(*a, TMP);
                self.ins(format!("movq %{ra}, %xmm0"), &[]);
                let rb = self.fetch(*b, TMP2);
                self.ins(format!("movq %{rb}, %xmm1"), &[]);
                match op {
                    Falu::Add => self.ins("addsd %xmm1, %xmm0".into(), &[]),
                    Falu::Sub => self.ins("subsd %xmm1, %xmm0".into(), &[]),
                    Falu::Mul => self.ins("mulsd %xmm1, %xmm0".into(), &[]),
                    Falu::Div => self.ins("divsd %xmm1, %xmm0".into(), &[]),
                    Falu::CmpEq | Falu::CmpNe | Falu::CmpLt | Falu::CmpLe => {
                        self.ins("ucomisd %xmm1, %xmm0".into(), &[]);
                        let set = match op {
                            Falu::CmpEq => "sete",
                            Falu::CmpNe => "setne",
                            Falu::CmpLt => "setb",
                            _ => "setbe",
                        };
                        self.ins(format!("{set} %al"), &[TMP]);
                        self.ins(format!("movzbq %al, %{TMP}"), &[TMP]);
                        self.write(*dst, TMP);
                        return;
                    }
                }
                self.ins(format!("movq %xmm0, %{TMP}"), &[TMP]);
                self.write(*dst, TMP);
            }
            RInstr::Itof { dst, a } => {
                let ra = self.fetch(*a, TMP);
                self.ins(format!("cvtsi2sdq %{ra}, %xmm0"), &[]);
                self.ins(format!("movq %xmm0, %{TMP}"), &[TMP]);
                self.write(*dst, TMP);
            }
            RInstr::Ld { dst, base, off } => {
                let rb = self.fetch(*base, TMP);
                let d = match self.loc(*dst) {
                    Loc::Reg(c) => REG[c as usize],
                    Loc::Slot(_) => TMP,
                };
                self.op(
                    format!("movq {off}(%{rb}), %{d}"),
                    X64Op::LdField {
                        dst: d.to_string(),
                        base: rb.to_string(),
                        off: *off as i64,
                    },
                );
                self.write(*dst, d);
            }
            RInstr::St { src, base, off } => {
                let rs = self.fetch(*src, TMP);
                let rb = self.fetch(*base, TMP2);
                self.op(
                    format!("movq %{rs}, {off}(%{rb})"),
                    X64Op::StField {
                        base: rb.to_string(),
                        off: *off as i64,
                        src: rs.to_string(),
                    },
                );
            }
            RInstr::LdGlobal { dst, gid } => {
                let off = 8 * gid;
                self.ins(format!("movq til_globals+{off}(%rip), %{TMP}"), &[TMP]);
                self.write(*dst, TMP);
            }
            RInstr::StGlobal { src, gid } => {
                let rs = self.fetch(*src, TMP);
                let off = 8 * gid;
                self.ins(format!("movq %{rs}, til_globals+{off}(%rip)"), &[]);
            }
            RInstr::LeaCode { dst, code } => {
                let sym = self.sym_of(*code);
                // Odd-encoded code value: 2*addr + 1. The second leaq
                // completes the encoding, so that is where the mirror
                // records the code class.
                self.ins(format!("leaq {sym}(%rip), %{TMP}"), &[TMP]);
                self.op(
                    format!("leaq 1(%{TMP},%{TMP}), %{TMP}"),
                    X64Op::LeaCode {
                        def: TMP.to_string(),
                        sym,
                    },
                );
                self.write(*dst, TMP);
            }
            RInstr::LeaStatic { dst, obj } => {
                self.ins(format!("leaq til_static_{obj}(%rip), %{TMP}"), &[TMP]);
                self.write(*dst, TMP);
            }
            RInstr::Label(l) => {
                let name = self.lbl(*l);
                self.local(name);
            }
            RInstr::Br(l) => {
                let t = self.lbl(*l);
                self.op(format!("jmp {t}"), X64Op::Jmp(t));
            }
            RInstr::Beqz(v, l) => {
                let r = self.fetch(*v, TMP);
                self.ins(format!("testq %{r}, %{r}"), &[]);
                let t = self.lbl(*l);
                self.op(format!("jz {t}"), X64Op::Jcc(t));
            }
            RInstr::Bnez(v, l) => {
                let r = self.fetch(*v, TMP);
                self.ins(format!("testq %{r}, %{r}"), &[]);
                let t = self.lbl(*l);
                self.op(format!("jnz {t}"), X64Op::Jcc(t));
            }
            RInstr::Call { target, args, dst } => {
                let sym = match target {
                    CallTarget::Code(c) => Some(self.sym_of(*c)),
                    CallTarget::Reg(v) => {
                        // Decode the odd-encoded code value into r11
                        // before the argument moves clobber its home.
                        let r = self.fetch(*v, TGT);
                        if r != TGT {
                            self.op(
                                format!("movq %{r}, %{TGT}"),
                                X64Op::MovRR {
                                    dst: TGT.to_string(),
                                    src: r.to_string(),
                                },
                            );
                        }
                        self.op(
                            format!("sarq $1, %{TGT}"),
                            X64Op::Decode {
                                reg: TGT.to_string(),
                            },
                        );
                        None
                    }
                };
                self.arg_moves(args);
                let map = self.call_map(self.f.safe_point(i));
                let nargs = args.len().min(REG.len());
                match &sym {
                    Some(s) => self.op(
                        format!("call {s}"),
                        X64Op::Call {
                            target: Some(s.clone()),
                            nargs,
                            map: Some(map),
                        },
                    ),
                    None => self.op(
                        format!("call *%{TGT}"),
                        X64Op::Call {
                            target: None,
                            nargs,
                            map: Some(map),
                        },
                    ),
                }
                self.after_call(map);
                if let Some(d) = dst {
                    self.write(*d, TMP);
                }
            }
            RInstr::TailCall { target, args } => {
                let sym = match target {
                    CallTarget::Code(c) => Some(self.sym_of(*c)),
                    CallTarget::Reg(v) => {
                        let r = self.fetch(*v, TGT);
                        if r != TGT {
                            self.op(
                                format!("movq %{r}, %{TGT}"),
                                X64Op::MovRR {
                                    dst: TGT.to_string(),
                                    src: r.to_string(),
                                },
                            );
                        }
                        self.op(
                            format!("sarq $1, %{TGT}"),
                            X64Op::Decode {
                                reg: TGT.to_string(),
                            },
                        );
                        None
                    }
                };
                self.arg_moves(args);
                self.epilogue();
                match sym {
                    Some(s) => self.op(format!("jmp {s}"), X64Op::JmpReg(s)),
                    None => self.op(format!("jmp *%{TGT}"), X64Op::JmpReg(TGT.into())),
                }
            }
            RInstr::CallRt {
                f,
                args,
                dst,
                alloc,
            } => {
                self.arg_moves(args);
                let sp = self.f.safe_point(i);
                let map = if *alloc {
                    self.gc_map(sp)
                } else {
                    self.call_map(sp)
                };
                let sym = rt_symbol(*f);
                self.op(
                    format!("call {sym}"),
                    X64Op::Call {
                        target: Some(sym.to_string()),
                        nargs: args.len().min(REG.len()),
                        map: Some(map),
                    },
                );
                self.after_call(map);
                if let Some(d) = dst {
                    self.write(*d, TMP);
                }
            }
            RInstr::Ret(v) => {
                if let Some(v) = v {
                    let r = self.fetch(*v, TMP);
                    if r != TMP {
                        self.ins(format!("movq %{r}, %{TMP}"), &[TMP]);
                    }
                }
                self.epilogue();
                self.op("ret".into(), X64Op::Ret);
            }
            RInstr::Alloc { dst, head, fields } => {
                let size = 8 * (1 + fields.len() as i64);
                self.ins(format!("leaq {size}(%{HP}), %{TMP}"), &[TMP]);
                self.ins(format!("cmpq %{HL}, %{TMP}"), &[]);
                let ok = self.fresh_label("alc");
                self.op(format!("jbe {ok}"), X64Op::Jcc(ok.clone()));
                // GC: requested bytes in rax; the stub preserves all
                // registers and reloads r15/r14.
                self.ins(format!("movq ${size}, %{TMP}"), &[TMP]);
                let map = self.gc_map(self.f.safe_point(i));
                self.op(
                    "call til_rt_gc".into(),
                    X64Op::Call {
                        target: Some("til_rt_gc".into()),
                        nargs: 0,
                        map: Some(map),
                    },
                );
                self.after_call(map);
                self.local(ok);
                // Derive the allocation's typed-heap shape (nearly
                // tag-free mode only); the header store is keyed to it
                // so the per-target rules track r15 as a shaped object
                // through the field stores and the publish.
                let shape = if self.tagged {
                    None
                } else {
                    alloc_shape(self.f.rtl, head, fields).map(|s| self.intern_shape(&s))
                };
                match head {
                    HeadSpec::Static(h) => {
                        self.ins(format!("movabsq ${h}, %{TMP}"), &[TMP]);
                        match shape {
                            Some(k) => self.op(
                                format!("movq %{TMP}, 0(%{HP})"),
                                X64Op::ObjHead {
                                    shape: k,
                                    header: *h,
                                },
                            ),
                            None => self.ins(format!("movq %{TMP}, 0(%{HP})"), &[]),
                        }
                    }
                    HeadSpec::Reg(v) => {
                        let r = self.fetch(*v, TMP);
                        if r != TMP {
                            self.ins(format!("movq %{r}, %{TMP}"), &[TMP]);
                        }
                        self.ins(format!("movq %{TMP}, 0(%{HP})"), &[]);
                    }
                }
                for (fi, fld) in fields.iter().enumerate() {
                    let r = self.fetch_op(fld, TMP2);
                    let off = 8 * (1 + fi) as i64;
                    self.op(
                        format!("movq %{r}, {off}(%{HP})"),
                        X64Op::StField {
                            base: HP.to_string(),
                            off,
                            src: r.to_string(),
                        },
                    );
                }
                self.write(*dst, HP);
                self.ins(format!("addq ${size}, %{HP}"), &[HP]);
            }
            RInstr::AllocArr {
                dst,
                kind,
                len,
                init,
            } => {
                // rax = byte size = (len << 3) + 8.
                let lr = self.fetch_op(len, TMP);
                if lr != TMP {
                    self.ins(format!("movq %{lr}, %{TMP}"), &[TMP]);
                }
                self.ins(format!("shlq $3, %{TMP}"), &[TMP]);
                self.ins(format!("addq $8, %{TMP}"), &[TMP]);
                self.ins(format!("leaq (%{HP},%{TMP}), %{TMP2}"), &[TMP2]);
                self.ins(format!("cmpq %{HL}, %{TMP2}"), &[]);
                let ok = self.fresh_label("aar");
                self.op(format!("jbe {ok}"), X64Op::Jcc(ok.clone()));
                let map = self.gc_map(self.f.safe_point(i));
                self.op(
                    "call til_rt_gc".into(),
                    X64Op::Call {
                        target: Some("til_rt_gc".into()),
                        nargs: 0,
                        map: Some(map),
                    },
                );
                self.after_call(map);
                self.local(ok);
                let k = match kind {
                    ArrKind::Int => header::KIND_INTARRAY,
                    ArrKind::Float => header::KIND_FLOATARRAY,
                    ArrKind::Ptr => header::KIND_PTRARRAY,
                };
                self.ins(format!("movq %{TMP}, %{TMP2}"), &[TMP2]);
                self.ins(format!("subq $8, %{TMP2}"), &[TMP2]);
                self.ins(format!("orq ${k}, %{TMP2}"), &[TMP2]);
                self.ins(format!("movq %{TMP2}, 0(%{HP})"), &[]);
                // Init loop: r10 = init value, r11 = cursor, rax = end.
                let iv = self.fetch(*init, TMP2);
                if iv != TMP2 {
                    self.ins(format!("movq %{iv}, %{TMP2}"), &[TMP2]);
                }
                self.ins(format!("leaq (%{HP},%{TMP}), %{TMP}"), &[TMP]);
                self.ins(format!("leaq 8(%{HP}), %{TGT}"), &[TGT]);
                let top = self.fresh_label("loop");
                let done = self.fresh_label("done");
                self.local(top.clone());
                self.ins(format!("cmpq %{TMP}, %{TGT}"), &[]);
                self.op(format!("je {done}"), X64Op::Jcc(done.clone()));
                self.ins(format!("movq %{TMP2}, 0(%{TGT})"), &[]);
                self.ins(format!("addq $8, %{TGT}"), &[TGT]);
                self.op(format!("jmp {top}"), X64Op::Jmp(top));
                self.local(done);
                self.write(*dst, HP);
                self.ins(format!("movq %{TMP}, %{HP}"), &[HP]);
            }
            RInstr::PushHandler { lbl, idx } => {
                let base = self.out_bytes as i64
                    + 8 * (self.f.assign.nslots as i64 + 3 * *idx as i64);
                self.ins(format!("movq %{EXN}, {base}(%rsp)"), &[]);
                let t = self.lbl(*lbl);
                self.ins(format!("leaq {t}(%rip), %{TMP}"), &[TMP]);
                self.ins(format!("movq %{TMP}, {}(%rsp)", base + 8), &[]);
                self.ins(format!("movq %rsp, {}(%rsp)", base + 16), &[]);
                self.ins(format!("leaq {base}(%rsp), %{EXN}"), &[EXN]);
            }
            RInstr::PopHandler { .. } => {
                self.ins(format!("movq 0(%{EXN}), %{EXN}"), &[EXN]);
            }
            RInstr::HandlerEntry { dst } => {
                // The packet arrives in rax (the raise moved it there).
                self.write(*dst, TMP);
            }
            RInstr::Raise { packet } => {
                let p = self.fetch(*packet, TMP);
                if p != TMP {
                    self.ins(format!("movq %{p}, %{TMP}"), &[TMP]);
                }
                self.ins(format!("movq 8(%{EXN}), %{TGT}"), &[TGT]);
                self.ins(format!("movq 16(%{EXN}), %{TMP2}"), &[TMP2]);
                self.ins(format!("movq 0(%{EXN}), %{EXN}"), &[EXN]);
                // The rsp def lets the per-target mcv rules model the
                // reassignment (the only legal one: a terminal raise).
                self.ins(format!("movq %{TMP2}, %rsp"), &["rsp"]);
                self.op(format!("jmp *%{TGT}"), X64Op::JmpReg(TGT.into()));
            }
            RInstr::TrapIf { cond, trap } => {
                let r = self.fetch(*cond, TMP);
                self.ins(format!("testq %{r}, %{r}"), &[]);
                let sym = trap_symbol(*trap);
                self.op(format!("jnz {sym}"), X64Op::JmpReg(sym.to_string()));
            }
        }
    }

    /// Integer ALU selection: two-operand x86 through `rax`, with
    /// shift counts through `cl` (saving the allocatable `rcx`) and
    /// division through `rax`/`rdx` (saving the allocatable `rdx`).
    fn alu(&mut self, op: Alu, dst: VReg, a: &ROp, b: &ROp) {
        let ra = self.fetch_op(a, TMP);
        if ra != TMP {
            self.ins(format!("movq %{ra}, %{TMP}"), &[TMP]);
        }
        match op {
            Alu::Add | Alu::AddV | Alu::Sub | Alu::SubV | Alu::And | Alu::Or | Alu::Xor => {
                let mn = match op {
                    Alu::Add | Alu::AddV => "addq",
                    Alu::Sub | Alu::SubV => "subq",
                    Alu::And => "andq",
                    Alu::Or => "orq",
                    _ => "xorq",
                };
                match b {
                    ROp::I(i) => self.ins(format!("{mn} ${i}, %{TMP}"), &[TMP]),
                    ROp::V(_) => {
                        let rb = self.fetch_op(b, TMP2);
                        self.ins(format!("{mn} %{rb}, %{TMP}"), &[TMP]);
                    }
                }
                if matches!(op, Alu::AddV | Alu::SubV) {
                    let sym = trap_symbol(Trap::Overflow);
                    self.op(format!("jo {sym}"), X64Op::JmpReg(sym.to_string()));
                }
            }
            Alu::Mul | Alu::MulV => {
                let rb = self.fetch_op(b, TMP2);
                self.ins(format!("imulq %{rb}, %{TMP}"), &[TMP]);
                if matches!(op, Alu::MulV) {
                    let sym = trap_symbol(Trap::Overflow);
                    self.op(format!("jo {sym}"), X64Op::JmpReg(sym.to_string()));
                }
            }
            Alu::Div | Alu::Rem => {
                // idiv clobbers rdx (an allocatable register): save it
                // in r11 around the division.
                let rb = self.fetch_op(b, TMP2);
                if rb != TMP2 {
                    // The divisor may live in rdx itself; move it out
                    // of cqto's way.
                    self.ins(format!("movq %{rb}, %{TMP2}"), &[TMP2]);
                }
                self.ins(format!("testq %{TMP2}, %{TMP2}"), &[]);
                let sym = trap_symbol(Trap::Div);
                self.op(format!("jz {sym}"), X64Op::JmpReg(sym.to_string()));
                self.ins(format!("movq %rdx, %{TGT}"), &[TGT]);
                self.ins("cqto".into(), &["rdx"]);
                self.ins(format!("idivq %{TMP2}"), &[TMP, "rdx"]);
                if matches!(op, Alu::Rem) {
                    self.ins(format!("movq %rdx, %{TMP}"), &[TMP]);
                }
                self.ins(format!("movq %{TGT}, %rdx"), &["rdx"]);
            }
            Alu::Sll | Alu::Srl | Alu::Sra => {
                let mn = match op {
                    Alu::Sll => "shlq",
                    Alu::Srl => "shrq",
                    _ => "sarq",
                };
                match b {
                    ROp::I(i) => self.ins(format!("{mn} ${i}, %{TMP}"), &[TMP]),
                    ROp::V(_) => {
                        // Variable count must be in cl; rcx is
                        // allocatable, so save it in r10.
                        let rb = self.fetch_op(b, TMP2);
                        self.ins(format!("movq %rcx, %{TGT}"), &[TGT]);
                        self.ins(format!("movq %{rb}, %rcx"), &["rcx"]);
                        self.ins(format!("{mn} %cl, %{TMP}"), &[TMP]);
                        self.ins(format!("movq %{TGT}, %rcx"), &["rcx"]);
                    }
                }
            }
            Alu::CmpEq | Alu::CmpNe | Alu::CmpLt | Alu::CmpLe => {
                match b {
                    ROp::I(i) => self.ins(format!("cmpq ${i}, %{TMP}"), &[]),
                    ROp::V(_) => {
                        let rb = self.fetch_op(b, TMP2);
                        self.ins(format!("cmpq %{rb}, %{TMP}"), &[]);
                    }
                }
                let set = match op {
                    Alu::CmpEq => "sete",
                    Alu::CmpNe => "setne",
                    Alu::CmpLt => "setl",
                    _ => "setle",
                };
                self.ins(format!("{set} %al"), &[TMP]);
                self.ins(format!("movzbq %al, %{TMP}"), &[TMP]);
            }
        }
        self.write(dst, TMP);
    }
}

/// The runtime symbol a service call lowers to.
fn rt_symbol(f: RtFn) -> &'static str {
    match f {
        RtFn::Gc => "til_rt_gc",
        RtFn::PrintStr => "til_rt_print_str",
        RtFn::IntToStr => "til_rt_int_to_str",
        RtFn::FloatToStr => "til_rt_float_to_str",
        RtFn::StrCmp => "til_rt_str_cmp",
        RtFn::StrEq => "til_rt_str_eq",
        RtFn::StrConcat => "til_rt_str_concat",
        RtFn::StrSub => "til_rt_str_sub",
        RtFn::StrFromChar => "til_rt_str_from_char",
        RtFn::PolyEq => "til_rt_poly_eq",
        RtFn::Sqrt => "til_rt_sqrt",
        RtFn::Sin => "til_rt_sin",
        RtFn::Cos => "til_rt_cos",
        RtFn::Atan => "til_rt_atan",
        RtFn::Exp => "til_rt_exp",
        RtFn::Ln => "til_rt_ln",
        RtFn::Floor => "til_rt_floor",
        RtFn::Trunc => "til_rt_trunc",
    }
}

/// The trap-stub symbol a trap branch targets.
fn trap_symbol(t: Trap) -> &'static str {
    match t {
        Trap::Overflow => "til_rt_trap_overflow",
        Trap::Div => "til_rt_trap_div",
        Trap::Subscript => "til_rt_trap_subscript",
        Trap::Domain => "til_rt_trap_domain",
        Trap::Chr => "til_rt_trap_chr",
        Trap::Size => "til_rt_trap_size",
    }
}

/// Emits a whole RTL program as textual x86-64: allocates each
/// function against the x64 register file, attaches its side tables,
/// selects, and renders the statics.
pub fn emit_x64(p: &RtlProgram) -> X64Module {
    // Stable label → symbol map, entry first; collisions (possible
    // after mangling) disambiguated by function index.
    let mut symbols: HashMap<String, String> = HashMap::new();
    let mut used: HashMap<String, usize> = HashMap::new();
    for f in &p.funs {
        let label = crate::link::fun_label(f.name);
        let mut sym = mangle(&label);
        let n = used.entry(sym.clone()).or_insert(0);
        *n += 1;
        if *n > 1 {
            sym = format!("{sym}_{n}");
        }
        symbols.insert(label, sym);
    }
    let funs = p
        .funs
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let al = crate::regalloc::allocate_for(f, &X64_REG_FILE);
            let lir = crate::emit::lir_fun(f, &al, p.tagged);
            select_fun(&lir, p.tagged, &symbols, i)
        })
        .collect();
    let statics = p
        .statics
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut d = format!("\t.section .rodata\ntil_static_{i}:\n");
            match s {
                StaticObj::Str(st) => {
                    d.push_str(&format!(
                        "\t.quad {} # string header\n",
                        header::make(header::KIND_STRING, st.len() as u64, 0)
                    ));
                    d.push_str(&format!("\t.ascii {:?}\n", st));
                }
                StaticObj::Rep(_) => {
                    d.push_str("\t.quad 0 # runtime type representation (linker-built)\n");
                }
                StaticObj::ExnPacket(id) => {
                    d.push_str(&format!(
                        "\t.quad {} # exn packet header\n\t.quad {id}\n",
                        header::make(header::KIND_RECORD, 1, 0) | header::EXN_BIT
                    ));
                }
            }
            d
        })
        .collect();
    let mut m = X64Module { funs, statics };
    // Armed `x64:`-prefixed faults corrupt the emitted module here,
    // before the structural validator and `mc-verify-x64` see it.
    crate::mcv::fault::apply_armed_x64(&mut m);
    m
}

/// Structural validation of an emitted module: every jump target
/// resolves to a label defined in the same function, and every safe
/// point (call) carries an in-range stack map. Returns the first
/// violation.
pub fn validate(m: &X64Module) -> Result<(), String> {
    for f in &m.funs {
        let defined: std::collections::HashSet<&str> = f
            .ops
            .iter()
            .filter_map(|o| match o {
                X64Op::Local(l) => Some(l.as_str()),
                _ => None,
            })
            .collect();
        for op in &f.ops {
            match op {
                X64Op::Jmp(t) | X64Op::Jcc(t) if !defined.contains(t.as_str()) => {
                    return Err(format!("{}: jump to undefined label {t}", f.symbol));
                }
                X64Op::Call { map, target, .. } => match map {
                    None => {
                        return Err(format!(
                            "{}: call to {target:?} without a stack map",
                            f.symbol
                        ))
                    }
                    Some(k) if *k >= f.maps.len() => {
                        return Err(format!("{}: stack map index {k} out of range", f.symbol))
                    }
                    Some(_) => {}
                },
                _ => {}
            }
        }
    }
    Ok(())
}

//! The linker/loader: lays out the globals and static data, emits the
//! entry and trap stubs, concatenates the functions, patches
//! relocations, assembles the final GC tables, and produces a runnable
//! machine image.

use crate::emit::{emit_fun, EmittedFun, FunSig, Reloc};
use crate::regalloc::allocate;
use std::collections::HashMap;
use til_common::{Diagnostic, Result, Tracer, Var};
use til_runtime::{rep, GcMode, GcTables, HeapShape, LocRep, RepExpr, RtData};
use til_rtl::{RtlProgram, StaticObj, HEAP_BASE};
use til_vm::{code_value, header, regs, FuncRange, Instr, Layout, Op, RtFn, Trap};

/// A linked, loadable program.
pub struct Linked {
    /// The code segment.
    pub code: Vec<Instr>,
    /// Memory layout.
    pub layout: Layout,
    /// GC tables.
    pub tables: GcTables,
    /// Initial memory contents `(byte address, word)`.
    pub image: Vec<(u64, u64)>,
    /// Trap stub addresses.
    pub traps: HashMap<Trap, u32>,
    /// Datatype table for the runtime.
    pub data_table: Vec<RtData>,
    /// Collector mode.
    pub mode: GcMode,
    /// Code size in bytes (instructions × 8).
    pub code_bytes: usize,
    /// Static data bytes.
    pub static_bytes: usize,
    /// Per-function code ranges (sorted by start; emitted alongside
    /// the GC tables). Drives the execution profiler's per-function
    /// attribution and the census's closure detection; pc values below
    /// the first range are linker stub code.
    pub fun_ranges: Vec<FuncRange>,
    /// Calling-convention signatures, one per entry of `fun_ranges`
    /// (same order). Consumed by the machine-code verifier
    /// ([`crate::mcv`]); not part of the runnable image.
    pub sigs: Vec<FunSig>,
    /// Sorted pcs of the heap-pointer bumps completing
    /// exception-packet allocations. The execution profiler charges
    /// the HP delta observed after these instructions to its `"(rt)"`
    /// bucket, so packet construction is visible as runtime allocation
    /// instead of vanishing into the raising function's total.
    pub exn_alloc_pcs: Vec<u32>,
}

/// Link-time configuration.
#[derive(Clone, Copy, Debug)]
pub struct LinkOptions {
    /// Semispace size in bytes.
    pub semi_bytes: u64,
    /// Stack size in bytes.
    pub stack_bytes: u64,
    /// Worker threads for per-function register allocation and
    /// emission (the layout, relocation and table assembly that
    /// follow are sequential, so the image is identical for every
    /// value).
    pub jobs: usize,
}

impl Default for LinkOptions {
    fn default() -> Self {
        LinkOptions {
            semi_bytes: 16 << 20,
            stack_bytes: 4 << 20,
            jobs: 1,
        }
    }
}

/// Exception ids for the trap stubs (fixed by the front end's builtin
/// exception environment).
const TRAPS: [(Trap, u32); 6] = [
    (Trap::Overflow, 3),
    (Trap::Div, 2),
    (Trap::Subscript, 4),
    (Trap::Domain, 7),
    (Trap::Chr, 6),
    (Trap::Size, 5),
];

struct Statics {
    image: Vec<(u64, u64)>,
    next: u64,
    addrs: Vec<u64>,
    interned_reps: HashMap<String, u64>,
    interned_strs: HashMap<String, u64>,
    packets: HashMap<u32, u64>,
}

impl Statics {
    fn alloc_words(&mut self, words: &[u64]) -> u64 {
        let addr = self.next;
        for (i, w) in words.iter().enumerate() {
            self.image.push((addr + 8 * i as u64, *w));
        }
        self.next += 8 * words.len() as u64;
        addr
    }

    fn string(&mut self, s: &str) -> u64 {
        if let Some(&a) = self.interned_strs.get(s) {
            return a;
        }
        let bytes = s.as_bytes();
        let mut words = vec![header::make(header::KIND_STRING, bytes.len() as u64, 0)];
        for chunk in bytes.chunks(8) {
            let mut w = 0u64;
            for (j, b) in chunk.iter().enumerate() {
                w |= (*b as u64) << (j * 8);
            }
            words.push(w);
        }
        let a = self.alloc_words(&words);
        self.interned_strs.insert(s.to_string(), a);
        a
    }

    fn packet(&mut self, exn: u32) -> u64 {
        if let Some(&a) = self.packets.get(&exn) {
            return a;
        }
        let a = self.alloc_words(&[
            header::make(header::KIND_RECORD, 1, 0) | header::EXN_BIT,
            exn as u64,
        ]);
        self.packets.insert(exn, a);
        a
    }

    /// Materializes a ground representation; returns its value
    /// (immediate or address).
    fn rep_value(&mut self, e: &RepExpr) -> u64 {
        match e {
            RepExpr::Int => rep::INT,
            RepExpr::Float => rep::FLOAT,
            RepExpr::Str => rep::STR,
            RepExpr::Exn => rep::EXN,
            RepExpr::Arrow => rep::ARROW,
            structured => {
                let key = format!("{structured:?}");
                if let Some(&a) = self.interned_reps.get(&key) {
                    return a;
                }
                let words = match structured {
                    RepExpr::Record(fs) => {
                        let mut w = vec![0, rep::TAG_RECORD, fs.len() as u64];
                        for f in fs {
                            let v = self.rep_value(f);
                            w.push(v);
                        }
                        w[0] = header::make(header::KIND_RECORD, (w.len() - 1) as u64, 0);
                        w
                    }
                    RepExpr::Array(el) => {
                        let v = self.rep_value(el);
                        vec![
                            header::make(header::KIND_RECORD, 2, 0),
                            rep::TAG_ARRAY,
                            v,
                        ]
                    }
                    RepExpr::Data(id, args) => {
                        let mut w = vec![0, rep::TAG_DATA, *id as u64, args.len() as u64];
                        for a in args {
                            let v = self.rep_value(a);
                            w.push(v);
                        }
                        w[0] = header::make(header::KIND_RECORD, (w.len() - 1) as u64, 0);
                        w
                    }
                    _ => unreachable!("immediates handled above"),
                };
                let a = self.alloc_words(&words);
                self.interned_reps.insert(key, a);
                a
            }
        }
    }
}

/// Links an RTL program into a runnable image. When `tracer` is given,
/// per-function `emit` spans are recorded (buffered per worker, merged
/// in function order).
pub fn link(p: &RtlProgram, opts: &LinkOptions, tracer: Option<&Tracer>) -> Result<Linked> {
    // ---- Static data layout: globals first, then objects.
    let globals_bytes = 8 * p.globals.len() as u64;
    let mut st = Statics {
        image: Vec::new(),
        next: (globals_bytes + 7) & !7,
        addrs: Vec::new(),
        interned_reps: HashMap::new(),
        interned_strs: HashMap::new(),
        packets: HashMap::new(),
    };
    for obj in &p.statics {
        let addr = match obj {
            StaticObj::Str(s) => st.string(s),
            StaticObj::Rep(e) => st.rep_value(e),
            StaticObj::ExnPacket(id) => st.packet(*id),
        };
        st.addrs.push(addr);
    }
    // The uncaught-exception message and root handler record.
    let uncaught_msg = st.string("uncaught exception\n");
    let root_handler = st.alloc_words(&[0, 0, 0]); // patched below
    if st.next >= HEAP_BASE {
        return Err(Diagnostic::ice(
            "link",
            format!(
                "static segment ({} bytes) exceeds the heap base ({HEAP_BASE})",
                st.next
            ),
        ));
    }
    let statics_addr = st.addrs.clone();
    let static_bytes = (st.next - globals_bytes) as usize;

    // ---- Allocate and emit every function (independent per
    // function; joined in function order).
    let emit_span = tracer.map(|t| t.span("emit-functions"));
    let emitted: Vec<EmittedFun> =
        til_common::par::map_traced(opts.jobs, &p.funs, tracer, |_, f, t| {
            let mut span = t.map(|t| t.span(format!("emit {}", fun_label(f.name))));
            let al = allocate(f);
            let e = emit_fun(f, &al, p.tagged, &statics_addr);
            if let Some(s) = span.as_mut() {
                s.counter("instrs", e.instrs.len() as i64);
            }
            e
        });
    drop(emit_span);

    // ---- Stub layout:
    //   0: mov EXN, root_handler
    //   1: jsr main
    //   2: halt                (stack-walk stop, normal exit)
    //   3: uncaught: mov r0, msg; rtcall print; halt
    //   then trap stubs, then functions.
    let mut code: Vec<Instr> = Vec::new();
    code.push(Instr::Mov {
        dst: regs::EXN,
        src: Op::I(root_handler as i64),
    });
    let jsr_main_at = code.len();
    code.push(Instr::Jsr(0));
    let halt_at = code.len() as u32;
    code.push(Instr::Halt);
    let uncaught_at = code.len() as u32;
    code.push(Instr::Mov {
        dst: 0,
        src: Op::I(uncaught_msg as i64),
    });
    code.push(Instr::RtCall(RtFn::PrintStr));
    code.push(Instr::Halt);
    // Trap stubs: load the static packet, raise.
    let mut traps: HashMap<Trap, u32> = HashMap::new();
    let mut st2 = st;
    for (t, exn) in TRAPS {
        let packet = st2.packet(exn);
        traps.insert(t, code.len() as u32);
        code.push(Instr::Mov {
            dst: 0,
            src: Op::I(packet as i64),
        });
        // raise sequence
        code.push(Instr::Ld {
            dst: regs::TMP,
            base: regs::EXN,
            off: 8,
        });
        code.push(Instr::Ld {
            dst: regs::TMP2,
            base: regs::EXN,
            off: 16,
        });
        code.push(Instr::Ld {
            dst: regs::EXN,
            base: regs::EXN,
            off: 0,
        });
        code.push(Instr::Mov {
            dst: regs::SP,
            src: Op::R(regs::TMP2),
        });
        code.push(Instr::Jmp(regs::TMP));
    }
    if st2.next >= HEAP_BASE {
        return Err(Diagnostic::ice("link", "static segment overflow"));
    }

    // ---- Function bases (and the profiler's range map).
    let mut base_of: HashMap<Option<Var>, u32> = HashMap::new();
    let mut fun_ranges: Vec<FuncRange> = Vec::new();
    let mut next = code.len() as u32;
    for e in &emitted {
        base_of.insert(e.name, next);
        fun_ranges.push(FuncRange {
            name: fun_label(e.name),
            start: next,
            end: next + e.instrs.len() as u32,
        });
        next += e.instrs.len() as u32;
    }
    let code_label = |v: Var| -> Result<u32> {
        base_of
            .get(&Some(v))
            .copied()
            .ok_or_else(|| Diagnostic::ice("link", format!("undefined code {v}")))
    };

    // ---- Concatenate with relocation.
    let mut tables = GcTables::default();
    tables.stops.insert(halt_at);
    let mut exn_alloc_pcs: Vec<u32> = Vec::new();
    // Typed-heap shape assembly: function index (== signature index)
    // per name for closure code slots, and structural dedup of the
    // shape rows (the sequential loop keeps indices deterministic).
    let fun_index: HashMap<Option<Var>, u32> = emitted
        .iter()
        .enumerate()
        .map(|(i, e)| (e.name, i as u32))
        .collect();
    let mut shape_index: HashMap<HeapShape, u32> = HashMap::new();
    for e in &emitted {
        let base = base_of[&e.name];
        debug_assert_eq!(base as usize, code.len());
        for (i, ins) in e.instrs.iter().enumerate() {
            let mut ins = ins.clone();
            // Shift local branch targets.
            match &mut ins {
                Instr::Br(t) | Instr::Beqz(_, t) | Instr::Bnez(_, t) | Instr::Jsr(t) => {
                    *t += base;
                }
                Instr::Lea { target, .. } => *target += base,
                _ => {}
            }
            let _ = i;
            code.push(ins);
        }
        for (at, r) in &e.relocs {
            let idx = base as usize + at;
            match r {
                Reloc::CodeTarget(v) => {
                    let t = code_label(*v)?;
                    match &mut code[idx] {
                        Instr::Jsr(x) | Instr::Br(x) => *x = t,
                        other => {
                            return Err(Diagnostic::ice(
                                "link",
                                format!("bad CodeTarget reloc on {other}"),
                            ))
                        }
                    }
                }
                Reloc::CodeImm(v) => {
                    let t = code_label(*v)?;
                    match &mut code[idx] {
                        Instr::Mov { src, .. } => *src = Op::I(code_value(t) as i64),
                        other => {
                            return Err(Diagnostic::ice(
                                "link",
                                format!("bad CodeImm reloc on {other}"),
                            ))
                        }
                    }
                }
                Reloc::TrapTarget(t) => {
                    let target = traps[t];
                    match &mut code[idx] {
                        Instr::Bnez(_, x) | Instr::Beqz(_, x) | Instr::Br(x) => *x = target,
                        other => {
                            return Err(Diagnostic::ice(
                                "link",
                                format!("bad TrapTarget reloc on {other}"),
                            ))
                        }
                    }
                }
            }
        }
        for (at, _, fi) in &e.call_sites {
            tables.call_sites.insert(base + *at as u32, fi.clone());
        }
        for (at, _, gp) in &e.gc_points {
            tables.gc_points.insert(base + *at as u32, gp.clone());
        }
        for at in &e.exn_allocs {
            exn_alloc_pcs.push(base + *at as u32);
        }
        for (at, s) in &e.alloc_shapes {
            let idx = intern_shape(s, &fun_index, &mut tables.shapes, &mut shape_index);
            tables.shape_at.insert(base + *at as u32, idx);
        }
    }
    // Patch the main call.
    let main = base_of[&None];
    code[jsr_main_at] = Instr::Jsr(main);
    let sigs: Vec<FunSig> = emitted.iter().map(|e| e.sig.clone()).collect();

    // Seeded corruption of the assembled unit, for testing the
    // machine-code verifier's detection and attribution (no-op unless
    // armed via `mcv::fault::break_emit` / `TIL_BREAK_EMIT`).
    crate::mcv::fault::apply_armed(&mut code, &mut tables, &fun_ranges, &sigs);

    // ---- Layout + image.
    let layout = Layout {
        globals_end: HEAP_BASE,
        heap_base: HEAP_BASE,
        semi_bytes: opts.semi_bytes,
        stack_limit: HEAP_BASE + 2 * opts.semi_bytes,
        stack_top: HEAP_BASE + 2 * opts.semi_bytes + opts.stack_bytes,
    };
    let mut image = st2.image.clone();
    // Root handler: [prev=0, uncaught stub, initial sp].
    image.push((root_handler, 0));
    image.push((root_handler + 8, code_value(uncaught_at)));
    image.push((root_handler + 16, layout.stack_top));

    // Globals table for the collector (nearly tag-free mode).
    for (gid, g) in p.globals.iter().enumerate() {
        if g.traced {
            tables.globals.push((8 * gid as u64, LocRep::Trace));
        }
    }

    let code_bytes = code.len() * 8;
    Ok(Linked {
        code,
        layout,
        tables,
        image,
        traps,
        data_table: p.data_table.clone(),
        mode: if p.tagged {
            GcMode::Tagged
        } else {
            GcMode::NearlyTagFree
        },
        code_bytes,
        static_bytes,
        fun_ranges,
        sigs,
        exn_alloc_pcs,
    })
}

/// Display label for a function: the entry function (`name == None`)
/// is `"main"`; compiled functions use their deterministic `Var` name.
/// Interns one allocation shape (and, depth-first, every nested field
/// shape it links to) into the deduplicated global row table, returning
/// its row index. Children are interned before their parent, so a
/// parent row's `field_shapes` always name already-present rows and
/// structurally equal shapes share one row unit-wide.
fn intern_shape(
    s: &til_lir::AllocShape,
    fun_index: &HashMap<Option<Var>, u32>,
    shapes: &mut Vec<HeapShape>,
    shape_index: &mut HashMap<HeapShape, u32>,
) -> u32 {
    let field_shapes = s
        .field_shapes
        .iter()
        .map(|o| {
            o.as_ref()
                .map(|n| intern_shape(n, fun_index, shapes, shape_index))
        })
        .collect();
    let shape = HeapShape {
        field_reps: s.field_reps.clone(),
        code_sig: s.code_fun.and_then(|v| fun_index.get(&Some(v)).copied()),
        field_shapes,
    };
    match shape_index.get(&shape) {
        Some(&i) => i,
        None => {
            let i = shapes.len() as u32;
            shapes.push(shape.clone());
            shape_index.insert(shape, i);
            i
        }
    }
}

pub fn fun_label(name: Option<Var>) -> String {
    match name {
        None => "main".into(),
        Some(v) => v.to_string(),
    }
}

impl Linked {
    /// Creates a machine loaded with this program.
    // The image was laid out by this same linker, so every address is
    // in range by construction; an out-of-range write here is memory
    // corruption, not a recoverable condition.
    #[allow(clippy::expect_used)]
    pub fn machine(&self) -> til_vm::Machine {
        let mut m = til_vm::Machine::new(self.code.clone(), self.layout.clone());
        for (addr, w) in &self.image {
            m.wr(*addr, *w).expect("image within memory");
        }
        m.traps = self.traps.iter().map(|(t, a)| (*t, *a)).collect();
        m
    }

    /// Creates the matching runtime.
    pub fn runtime(&self) -> til_runtime::Rt {
        til_runtime::Rt::new(self.mode, self.tables.clone(), self.data_table.clone())
    }

    /// Approximate executable size in bytes: code + GC tables + static
    /// data (the paper's Table 5 measure, minus the fixed runtime).
    pub fn executable_bytes(&self) -> usize {
        self.code_bytes + self.tables.byte_size() + self.static_bytes
    }
}

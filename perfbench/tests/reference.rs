//! The pinned Table 1 outputs in `expected/table1.txt`, checked two
//! ways: Checksum, Matmult and Life are recomputed by independent Rust
//! transcriptions of their SML sources; every other program is
//! cross-checked only — its TIL, baseline and O0 compiles must all
//! print the pinned output.

use til::{Compiler, Options};

fn pinned(name: &str) -> String {
    include_str!("../expected/table1.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .find(|(n, _)| *n == name)
        .map(|(_, out)| out.replace("\\n", "\n"))
        .unwrap_or_else(|| panic!("no pinned output for {name}"))
}

const TRANSCRIBED: [&str; 3] = ["Checksum", "Matmult", "Life"];

/// `checksum.sml`: a 16-bit ones-complement checksum over 2048 words,
/// iterated 120 times.
fn checksum() -> String {
    let words = 4096 / 2;
    let buf: Vec<i64> = (0..words).map(|i| (i * 7 + 13) % 65536).collect();
    let carry = |mut s: i64| {
        while s >= 65536 {
            s = s % 65536 + s / 65536;
        }
        s
    };
    let mut last = 0;
    for _ in 0..120 {
        last = 65535 - carry(buf.iter().sum());
    }
    format!("{last}\n")
}

/// `matmult.sml`: the trace of a 40×40 integer matrix product.
fn matmult() -> String {
    let n = 40;
    let a = |i: i64, j: i64| (i + 2 * j) % 17;
    let b = |i: i64, j: i64| (3 * i + j) % 23;
    let c = |i: i64, j: i64| (0..n).map(|k| a(i, k) * b(k, j)).sum::<i64>();
    let trace: i64 = (0..n).map(|i| c(i, i)).sum();
    format!("{trace}\n")
}

/// `life.sml`: 18 generations of the R-pentomino on cell lists, with
/// the source's list order (survivors, then deduplicated births).
fn life() -> String {
    type Cell = (i64, i64);
    fn neighbours((x, y): Cell) -> [Cell; 8] {
        [
            (x - 1, y - 1),
            (x, y - 1),
            (x + 1, y - 1),
            (x - 1, y),
            (x + 1, y),
            (x - 1, y + 1),
            (x, y + 1),
            (x + 1, y + 1),
        ]
    }
    let count =
        |c: Cell, board: &[Cell]| neighbours(c).iter().filter(|n| board.contains(n)).count();
    let mut board: Vec<Cell> = vec![(10, 10), (11, 10), (9, 11), (10, 11), (10, 12)];
    for _ in 0..18 {
        let survivors = board
            .iter()
            .copied()
            .filter(|&c| matches!(count(c, &board), 2 | 3));
        let all: Vec<Cell> = board.iter().flat_map(|&c| neighbours(c)).collect();
        // `dedup` keeps the last occurrence of each cell.
        let candidates = all
            .iter()
            .enumerate()
            .filter(|(i, c)| !all[i + 1..].contains(c));
        let births = candidates
            .map(|(_, &c)| c)
            .filter(|&c| !board.contains(&c) && count(c, &board) == 3);
        board = survivors.chain(births).collect();
    }
    let sum: i64 = board.iter().map(|(x, y)| x + 2 * y).sum();
    format!("{} {sum}\n", board.len())
}

#[test]
fn transcriptions_reproduce_the_pinned_outputs() {
    assert_eq!(checksum(), pinned("Checksum"));
    assert_eq!(matmult(), pinned("Matmult"));
    assert_eq!(life(), pinned("Life"));
}

#[test]
fn other_programs_agree_across_til_baseline_and_o0() {
    for b in til_bench::suite() {
        if TRANSCRIBED.contains(&b.name) {
            continue;
        }
        let want = pinned(b.name);
        for (cfg, opts) in [
            ("til", Options::til()),
            ("baseline", Options::baseline()),
            ("o0", Options::o0()),
        ] {
            let exe = Compiler::new(opts)
                .compile(b.source)
                .unwrap_or_else(|d| panic!("{}/{cfg}: {d}", b.name));
            let out = exe.run_with_gc_mode(til_bench::FUEL, false, til::CollectMode::StopTheWorld);
            let out = out.unwrap_or_else(|e| panic!("{}/{cfg}: {e}", b.name));
            assert_eq!(out.output, want, "{}/{cfg}", b.name);
        }
    }
}

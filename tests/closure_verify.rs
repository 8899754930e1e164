//! Fault injection against the closure-stage per-pass verifier.
//!
//! The closure stage re-typechecks the program after closure
//! conversion itself and after each closure-level optimization pass,
//! attributing any failure to the pass that ran last (same machinery
//! the Bform optimizer uses; `broken_pass_is_named_in_verify_diagnostic`
//! covers the Bform side). These tests arm `til_opt::fault::break_pass` for each
//! breakable closure-stage pass and assert that (a) compilation fails,
//! so a corrupted program can never reach the VM, and (b) the
//! diagnostic names the guilty pass and points at the IR dumps.
//!
//! The fault registry is process-global, so every test that arms it
//! lives in this file and holds [`serial`] while it runs —
//! integration-test files get their own process, which keeps the armed
//! state away from the rest of the suite.

use std::sync::{Mutex, MutexGuard, PoisonError};
use til::{Compiler, Options};

/// Serializes the tests of this file: at most one arms the fault
/// registry (or compiles) at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the registry itself is disarmed
    // by its guard's drop, so later tests may proceed.
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const SRC: &str = r#"
fun add a b = a + b
val inc = add 1
val unused = (add 2 3, add 4 5)
val _ = print (Int.toString (inc 41))
"#;

/// Every breakable pass in the closure stage, in schedule order.
const CLOSURE_PASSES: &[&str] = &["closure-convert", "closure-prune", "closure-dead-code"];

fn compile(src: &str) -> Result<String, String> {
    match Compiler::new(Options::til()).compile(src) {
        Ok(exe) => Ok(exe.run(1_000_000_000).expect("run").output),
        Err(d) => Err(d.to_string()),
    }
}

#[test]
fn closure_stage_breakage_is_attributed_and_never_reaches_the_vm() {
    let _serial = serial();
    // Sanity: the program compiles and runs clean when nothing is armed.
    assert_eq!(compile(SRC).expect("clean compile"), "42");

    for &pass in CLOSURE_PASSES {
        let guard = til_opt::fault::break_pass(pass);
        let err = compile(SRC).expect_err("armed compile must fail, not reach the VM");
        let want = format!("pass `{pass}` broke typing");
        assert!(
            err.contains(&want),
            "diagnostic does not attribute {pass}: {err}"
        );
        assert!(
            err.contains("IR dumps"),
            "diagnostic for {pass} lacks IR dump paths: {err}"
        );
        drop(guard);
        // Disarmed again: the same source compiles and runs.
        assert_eq!(compile(SRC).expect("compile after disarm"), "42");
    }

    // The environment-variable arming path (what CI and command-line
    // reproduction use) hits the same attribution machinery.
    std::env::set_var("TIL_BREAK_PASS", "closure-prune");
    let err = compile(SRC).expect_err("env-armed compile must fail");
    std::env::remove_var("TIL_BREAK_PASS");
    assert!(
        err.contains("pass `closure-prune` broke typing"),
        "env-var arming not attributed: {err}"
    );

    // A name that matches no closure pass leaves the stage untouched
    // (Bform passes are exercised below).
    let guard = til_opt::fault::break_pass("no-such-closure-pass");
    assert_eq!(compile(SRC).expect("unknown pass name is inert"), "42");
    drop(guard);
}

#[test]
fn broken_pass_is_named_in_verify_diagnostic() {
    let _serial = serial();
    // The Bform side of the same machinery: `minimize-fix` is
    // scheduled in both TIL and baseline modes (verification is on by
    // default in both).
    let _guard = til_opt::fault::break_pass("minimize-fix");
    for opts in [Options::til(), Options::baseline()] {
        let err = match Compiler::new(opts).compile("val _ = print (Int.toString (1 + 2))") {
            Err(d) => d,
            Ok(_) => panic!("injected breakage must fail verification"),
        };
        assert_eq!(err.level, til_common::Level::Ice);
        assert!(
            err.message.contains("pass `minimize-fix` broke typing"),
            "diagnostic must name the offending pass: {}",
            err.message
        );
        assert!(
            err.message.contains("IR dumps"),
            "diagnostic must point at the before/after IR dumps: {}",
            err.message
        );
        // The dumps referenced by the diagnostic must exist and hold
        // pretty-printed Bform.
        let mut found = 0;
        for word in err.message.split([' ', ';']) {
            if word.contains("til-verify-") {
                let path = word.trim_end_matches(['/', ',']);
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("dump {path} unreadable: {e}"));
                assert!(!text.trim().is_empty(), "dump {path} is empty");
                found += 1;
            }
        }
        assert_eq!(found, 2, "expected before and after dumps: {}", err.message);
    }
}

//! Differential oracles: two implementations, one generated input, one
//! verdict.
//!
//! The repo carries several pairs of code paths that are contractually
//! equivalent — the `Pipeline` front door vs the free functions it wires,
//! `ExecPolicy::Serial` vs `Parallel { k }`, metrics-on vs metrics-off —
//! plus accounting identities that must survive arbitrary input
//! (`ok + degraded + quarantined == total`). [`check_equiv`] pins such a
//! pair on *generated* corpora: both sides run on every case, any
//! disagreement is shrunk to a minimal witness and reported with a
//! replayable `CAFC_CHECK_SEED`.

use crate::gen::Gen;
use crate::runner::{check_named, check_result, CheckConfig, Failure};
use std::fmt;

/// Render a disagreement between two oracle outputs.
pub fn disagreement<R: fmt::Debug>(left: &R, right: &R) -> String {
    format!("differential oracle disagreement\n    left:  {left:?}\n    right: {right:?}")
}

/// Assert that `left` and `right` compute the same output for every
/// generated input; panics with a shrunk, replayable report otherwise.
pub fn check_equiv<T, R, L, Rt>(name: &str, config: &CheckConfig, gen: &Gen<T>, left: L, right: Rt)
where
    T: fmt::Debug + Clone + 'static,
    R: PartialEq + fmt::Debug,
    L: Fn(&T) -> R,
    Rt: Fn(&T) -> R,
{
    check_named(name, config, gen, move |case| {
        let l = left(case);
        let r = right(case);
        if l == r {
            Ok(())
        } else {
            Err(disagreement(&l, &r))
        }
    });
}

/// Non-panicking [`check_equiv`] for harness-level tests.
pub fn check_equiv_result<T, R, L, Rt>(
    name: &str,
    config: &CheckConfig,
    gen: &Gen<T>,
    left: L,
    right: Rt,
) -> Result<u32, Box<Failure>>
where
    T: fmt::Debug + Clone + 'static,
    R: PartialEq + fmt::Debug,
    L: Fn(&T) -> R,
    Rt: Fn(&T) -> R,
{
    check_result(name, config, gen, move |case| {
        let l = left(case);
        let r = right(case);
        if l == r {
            Ok(())
        } else {
            Err(disagreement(&l, &r))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{i64s, vecs};

    fn cfg() -> CheckConfig {
        CheckConfig::new()
            .with_seed(0xD1FF)
            .with_cases(32)
            .with_replay(None)
    }

    #[test]
    fn agreeing_oracles_pass() {
        let sum_fold = |v: &Vec<i64>| v.iter().sum::<i64>();
        let sum_loop = |v: &Vec<i64>| {
            let mut s = 0;
            for x in v {
                s += x;
            }
            s
        };
        check_equiv(
            "sum impls agree",
            &cfg(),
            &vecs(&i64s(-50, 50), 0, 12),
            sum_fold,
            sum_loop,
        );
    }

    #[test]
    fn disagreeing_oracles_shrink_to_a_minimal_witness() {
        // "Right" is wrong for inputs containing 7+: minimal witness [7].
        let failure = check_equiv_result(
            "buggy max",
            &cfg(),
            &vecs(&i64s(0, 20), 0, 8),
            |v: &Vec<i64>| v.iter().copied().max().unwrap_or(0),
            |v: &Vec<i64>| v.iter().copied().filter(|&x| x < 7).max().unwrap_or(0),
        )
        .expect_err("oracles disagree");
        assert_eq!(failure.minimal, "[7]");
        assert!(failure.error.contains("disagreement"), "{}", failure.error);
    }
}

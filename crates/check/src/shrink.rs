//! Delta-debugging minimization of failing schedules.
//!
//! [`ddmin`] is Zeller–Hildebrandt `ddmin` over an arbitrary element
//! type: given a failing input and a deterministic failure predicate, it
//! returns a 1-minimal failing subsequence — removing any single
//! remaining element makes the failure disappear. [`shrink_case`]
//! instantiates it with [`run_case`] as the predicate, which is sound
//! because the runner re-applies all schedule legality guards (any
//! subsequence of a valid schedule is a valid schedule) and is fully
//! deterministic for a fixed `(seed, perturbation)`.

use crate::runner::{run_case, CaseSpec, RunOptions};
use crate::Step;

/// Splits `items` into `n` contiguous chunks of near-equal length.
fn chunks<T: Clone>(items: &[T], n: usize) -> Vec<Vec<T>> {
    let len = items.len();
    let base = len / n;
    let rem = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < rem);
        out.push(items[start..start + size].to_vec());
        start += size;
    }
    out
}

/// Minimizes a failing input to a 1-minimal failing subsequence.
///
/// `fails` must return `true` when its argument still reproduces the
/// failure. The predicate is assumed deterministic; `ddmin` itself uses
/// no randomness, so the result is a pure function of `(input, fails)`.
///
/// Guarantees (property-tested in `tests/shrinker_props.rs`):
///
/// * the result is a subsequence of `input` — it never grows and never
///   reorders;
/// * the result still satisfies `fails` (or is `input` unchanged, if
///   `input` itself does not fail — a misuse the function tolerates
///   rather than loops on);
/// * the result is 1-minimal: removing any single element makes `fails`
///   return `false`.
pub fn ddmin<T: Clone, F: FnMut(&[T]) -> bool>(input: &[T], mut fails: F) -> Vec<T> {
    let mut current: Vec<T> = input.to_vec();
    if !fails(&current) {
        return current;
    }
    let mut n = 2usize;
    while current.len() >= 2 {
        let parts = chunks(&current, n.min(current.len()));
        let mut reduced = false;

        // Try each chunk alone ("reduce to subset").
        for part in &parts {
            if !part.is_empty() && part.len() < current.len() && fails(part) {
                current = part.clone();
                n = 2;
                reduced = true;
                break;
            }
        }

        // Try each chunk's complement ("reduce to complement").
        if !reduced {
            for i in 0..parts.len() {
                let complement: Vec<T> = parts
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .flat_map(|(_, p)| p.iter().cloned())
                    .collect();
                if complement.len() < current.len() && fails(&complement) {
                    current = complement;
                    n = (n - 1).max(2);
                    reduced = true;
                    break;
                }
            }
        }

        if !reduced {
            if n >= current.len() {
                break; // 1-minimal at granularity == length
            }
            n = (n * 2).min(current.len());
        }
    }
    current
}

/// Shrinks a failing case's schedule to a 1-minimal failing schedule,
/// keeping the seed and perturbation fixed.
///
/// Any failure kind counts as "still failing": shrinking is allowed to
/// trade e.g. a convergence failure for the consistency violation at its
/// root, which is exactly the more informative counterexample.
pub fn shrink_case(spec: &CaseSpec, options: &RunOptions) -> CaseSpec {
    let schedule: Vec<Step> = ddmin(&spec.schedule, |candidate| {
        let candidate_spec = CaseSpec {
            seed: spec.seed,
            perturbation: spec.perturbation,
            schedule: candidate.to_vec(),
        };
        run_case(&candidate_spec, options).is_err()
    });
    CaseSpec {
        seed: spec.seed,
        perturbation: spec.perturbation,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_minimal_interacting_pair() {
        // Fails iff both 3 and 7 are present.
        let input: Vec<u32> = (0..20).collect();
        let result = ddmin(&input, |s| s.contains(&3) && s.contains(&7));
        assert_eq!(result, vec![3, 7]);
    }

    #[test]
    fn single_culprit_shrinks_to_one_element() {
        let input: Vec<u32> = (0..33).collect();
        let result = ddmin(&input, |s| s.contains(&17));
        assert_eq!(result, vec![17]);
    }

    #[test]
    fn non_failing_input_is_returned_unchanged() {
        let input = vec![1, 2, 3];
        let result = ddmin(&input, |_| false);
        assert_eq!(result, input);
    }

    #[test]
    fn empty_input_is_handled() {
        let result = ddmin(&Vec::<u8>::new(), |_| true);
        assert!(result.is_empty());
    }
}

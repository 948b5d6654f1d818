//! Correctness checks on recorded (input, output) pairs. They run
//! outside the timed window; a violation marks the run incorrect.

use engine::Counts;

/// Served tallies must equal the reference run's exactly — same
/// outcomes, same counts — and account for every shot.
pub fn check_tallies(
    what: &str,
    shots: u64,
    served: &Counts,
    reference: &Counts,
) -> Result<(), String> {
    let total: usize = served.values().sum();
    if total as u64 != shots {
        return Err(format!(
            "{what}: tallies sum to {total}, not the {shots} shots requested"
        ));
    }
    if served != reference {
        let mut keys: Vec<&usize> = served.keys().chain(reference.keys()).collect();
        keys.sort_unstable();
        keys.dedup();
        let differing = keys
            .into_iter()
            .find(|k| served.get(k) != reference.get(k))
            .expect("unequal maps differ somewhere");
        return Err(format!(
            "{what}: outcome {differing} served {:?} times, reference {:?}",
            served.get(differing),
            reference.get(differing)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::ghz_circuit;
    use engine::{Backend, Executor};

    #[test]
    fn a_corrupted_tally_is_caught_and_fails_the_run() {
        let circuit = ghz_circuit();
        let shots = 500;
        let reference = Backend::Auto
            .sample_shots(&circuit, shots, &Executor::sequential(9))
            .unwrap();
        assert_eq!(
            check_tallies("op 0", shots as u64, &reference, &reference),
            Ok(())
        );

        // Move one shot from one outcome to another: the sum still
        // matches, only the byte-for-byte comparison can see it.
        let mut moved = reference.clone();
        let mut outcomes: Vec<usize> = moved.keys().copied().collect();
        outcomes.sort_unstable();
        *moved.get_mut(&outcomes[0]).unwrap() -= 1;
        *moved.entry(outcomes[1]).or_insert(0) += 1;
        let err = check_tallies("op 0", shots as u64, &moved, &reference).unwrap_err();
        assert!(err.contains("served"), "{err}");

        // Drop a shot: the sum check names it.
        let mut short = reference.clone();
        *short.get_mut(&outcomes[0]).unwrap() -= 1;
        let err = check_tallies("op 0", shots as u64, &short, &reference).unwrap_err();
        assert!(err.contains("sum to 499"), "{err}");

        // And a violation is what turns the run's exit code non-zero.
        let mut report = crate::report::Report {
            attempted: 1,
            ..Default::default()
        };
        assert_eq!(report.exit_code(), 0);
        if let Err(problem) = check_tallies("op 0", shots as u64, &moved, &reference) {
            report.problems.push(problem);
            report.incorrect = true;
        }
        assert_eq!(report.exit_code(), 1);
    }
}

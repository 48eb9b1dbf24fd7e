//! The two gates of the `exp_suite` experiment runner: kernel agreement
//! and pinned result digests.
//!
//! An experiment records the `Noc`/`System::fingerprint` of every
//! simulated run in run order, and [`Runs::agree`] folds a run repeated
//! under several kernels (or any other variants that must not change the
//! outcome) into one entry. The runner then compares the Fletcher-64
//! digest of that list against the value pinned for the experiment, so
//! any change to a simulated result fails the run, whatever the host.

use std::fmt::{Debug, Display};

use hermes_noc::{snapshot::fletcher64, KernelMode};

/// The kernels every kernel-swept experiment compares, in smoke and full
/// runs alike: the five both `differential.rs` matrices use.
pub const KERNELS: [KernelMode; 5] = [
    KernelMode::Reference,
    KernelMode::Active,
    KernelMode::Parallel { threads: 1 },
    KernelMode::Parallel { threads: 2 },
    KernelMode::Parallel { threads: 8 },
];

/// One experiment's run: its name, whether it is a `--smoke` run, and
/// the fingerprint of every simulated run so far.
#[derive(Debug)]
pub struct Runs {
    name: &'static str,
    /// Whether the runner was given `--smoke`.
    pub smoke: bool,
    fingerprints: Vec<u64>,
}

impl Runs {
    /// Starts recording experiment `name`.
    pub fn new(name: &'static str, smoke: bool) -> Self {
        Self {
            name,
            smoke,
            fingerprints: Vec::new(),
        }
    }

    /// Records the fingerprint of one simulated run.
    pub fn record(&mut self, fingerprint: u64) {
        self.fingerprints.push(fingerprint);
    }

    /// Runs `run` once per variant, in order; each call returns its run's
    /// fingerprint and the result to compare. Every variant must agree
    /// with the first on both. Records the agreed fingerprint once and
    /// returns the first variant's result.
    ///
    /// # Panics
    ///
    /// At the first variant that disagrees, naming the experiment, `what`
    /// and that variant.
    pub fn agree<V: Copy + Debug, T: PartialEq + Debug>(
        &mut self,
        what: impl Display,
        variants: &[V],
        mut run: impl FnMut(V) -> (u64, T),
    ) -> T {
        let (first, rest) = variants.split_first().expect("at least one variant");
        let agreed = run(*first);
        for &variant in rest {
            let got = run(variant);
            assert!(
                got == agreed,
                "{}: {what}: {variant:?} disagrees with {first:?}\n  \
                 {first:?}: {agreed:?}\n  {variant:?}: {got:?}",
                self.name
            );
        }
        self.record(agreed.0);
        agreed.1
    }

    /// Fletcher-64 over the recorded fingerprints in run order.
    fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .fingerprints
            .iter()
            .flat_map(|f| f.to_le_bytes())
            .collect();
        fletcher64(&bytes)
    }

    /// Checks the digest against `pinned`.
    ///
    /// # Errors
    ///
    /// On a mismatch, a message naming the experiment and the computed
    /// digest.
    pub fn check(&self, pinned: u64) -> Result<u64, String> {
        let digest = self.digest();
        if digest == pinned {
            Ok(digest)
        } else {
            Err(format!(
                "{}: result digest {digest:#018x} differs from the pinned {pinned:#018x} \
                 ({} runs); a simulated result changed",
                self.name,
                self.fingerprints.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_follows_the_recorded_fingerprints_in_order() {
        let mut a = Runs::new("x", true);
        let mut b = Runs::new("x", true);
        a.record(1);
        a.record(2);
        b.record(2);
        b.record(1);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.check(a.digest()), Ok(a.digest()));
    }

    #[test]
    fn a_wrong_pin_fails_naming_the_experiment_and_the_computed_digest() {
        let mut runs = Runs::new("chaos", true);
        runs.record(0x9432_967a_9f1e_c84c);
        let computed = runs.digest();
        let err = runs.check(computed ^ 1).unwrap_err();
        assert!(err.starts_with("chaos: "), "{err}");
        assert!(err.contains(&format!("{computed:#018x}")), "{err}");
    }

    #[test]
    fn agreement_records_one_entry_per_agreed_outcome() {
        let mut once = Runs::new("x", false);
        let result = once.agree("row", &KERNELS, |_| (7, "same"));
        assert_eq!(result, "same");
        let mut direct = Runs::new("x", false);
        direct.record(7);
        assert_eq!(once.digest(), direct.digest());
    }

    #[test]
    #[should_panic(
        expected = "recovery: trial 3: Parallel { threads: 2 } disagrees with Reference"
    )]
    fn agreement_fails_at_the_first_disagreeing_kernel() {
        let mut runs = Runs::new("recovery", false);
        runs.agree("trial 3", &KERNELS, |kernel| match kernel {
            KernelMode::Parallel { threads } if threads >= 2 => (1, threads),
            _ => (1, 0),
        });
    }
}

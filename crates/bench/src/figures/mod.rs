//! Every figure harness. Each submodule exposes `run()`, which prints one
//! table or figure of the paper; `all_figures` runs them, all or the ones
//! named on its command line, in one process so they share the sweep
//! engine's baseline memoization cache.

pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod fig25;
pub mod fig26;
pub mod fig27;
pub mod fig_energy;
pub mod fig_multisocket;
pub mod fig_table1;

/// A figure's name and the body that prints it.
pub type Figure = (&'static str, fn());

/// Every figure, in the order `all_figures` reproduces them.
pub const ALL: &[Figure] = &[
    ("fig_table1", fig_table1::run),
    ("fig02", fig02::run),
    ("fig03", fig03::run),
    ("fig04", fig04::run),
    ("fig05", fig05::run),
    ("fig06", fig06::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("fig19", fig19::run),
    ("fig20", fig20::run),
    ("fig21", fig21::run),
    ("fig22", fig22::run),
    ("fig23", fig23::run),
    ("fig24", fig24::run),
    ("fig25", fig25::run),
    ("fig26", fig26::run),
    ("fig27", fig27::run),
    ("fig_energy", fig_energy::run),
    ("fig_multisocket", fig_multisocket::run),
];

/// The figures named in `names`, in the order given, or every figure in
/// [`ALL`]'s order when `names` is empty.
///
/// # Errors
/// Returns the first name that is not in [`ALL`].
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<Figure>, String> {
    if names.is_empty() {
        return Ok(ALL.to_vec());
    }
    names
        .iter()
        .map(|n| {
            let n = n.as_ref();
            ALL.iter()
                .find(|(name, _)| *name == n)
                .copied()
                .ok_or_else(|| n.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_keeps_the_order_given_and_returns_an_unknown_name() {
        let names = |figs: Vec<Figure>| figs.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        let all = select::<&str>(&[]).expect("no names select every figure");
        assert_eq!(names(all), names(ALL.to_vec()));
        let figs = select(&["fig19", "fig_table1", "fig19"]).expect("known names");
        assert_eq!(names(figs), ["fig19", "fig_table1", "fig19"]);
        assert_eq!(
            select(&["fig02", "fig99", "nope"]).err().as_deref(),
            Some("fig99")
        );
    }
}

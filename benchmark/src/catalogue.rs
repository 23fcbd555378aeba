//! The benchmark's declaration: workloads and metrics, read from the
//! repository's `BENCHMARK.json` at compile time so names, units,
//! directions and bounds are written down once.

use std::sync::OnceLock;

use crate::json::{parse, Json};

const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric. `bound` is set for end-to-end metrics only: the
/// share of the base median by which the metric may worsen.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Catalogue {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The declaration compiled into this binary.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| from_text(DECLARATION).expect("BENCHMARK.json is well formed"))
}

fn from_text(text: &str) -> Result<Catalogue, String> {
    let doc = parse(text)?;
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        let list = doc.get(key).ok_or_else(|| format!("no {key:?}"))?;
        list.as_arr()
            .iter()
            .map(|m| {
                let better = match m.str("better")? {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("better must be lower or higher, not {other:?}")),
                };
                Ok(Metric {
                    name: m.str("name")?.to_string(),
                    unit: m.str("unit")?.to_string(),
                    better,
                    bound: m.get("bound").and_then(Json::as_num),
                })
            })
            .collect()
    };
    let workloads = doc
        .get("workloads")
        .ok_or("no \"workloads\"")?
        .as_arr()
        .iter()
        .map(|w| w.str("name").map(str::to_string))
        .collect::<Result<_, _>>()?;
    Ok(Catalogue {
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn declared_names_and_units_are_well_formed_and_unique() {
        let c = catalogue();
        let mut names: Vec<&str> = c.workloads.iter().map(String::as_str).collect();
        names.extend(c.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(c.per_layer.iter().map(|m| m.name.as_str()));
        for n in &names {
            assert!(is_name(n), "bad name {n:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
        }
    }

    #[test]
    fn shape_is_within_the_declared_limits() {
        let c = catalogue();
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        for m in &c.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let largest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    #[test]
    fn malformed_declarations_are_rejected() {
        assert!(from_text("{}").is_err());
        let bad = r#"{"workloads":[],"end_to_end":[{"name":"x","unit":"s","better":"up"}],"per_layer":[]}"#;
        assert!(from_text(bad).unwrap_err().contains("lower or higher"));
    }
}

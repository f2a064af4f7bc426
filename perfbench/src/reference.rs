//! The independent answer reference for the flights program.
//!
//! It never touches the engine: it enumerates flight paths depth-first over
//! the legs the program was given and keeps the `(T, C)` of every path that
//! meets the query's selection `T <= 240 ∨ C <= 150`, where a path of legs
//! `(Tᵢ, Cᵢ)` has `T = ΣTᵢ + 30·(hops − 1)` and `C = ΣCᵢ`.  Since every leg
//! has positive time and cost, both sums only grow along a path, so a
//! prefix with `T > 240 ∧ C > 150` can never reach an answer and is pruned.
//! Paths are walks (the program does not forbid revisiting a city), which
//! the growth argument keeps finite on cyclic networks too.

use std::collections::{BTreeSet, HashMap};

use pcs_engine::Fact;

/// The query's selection on a flight's total time and cost.
pub fn qualifies(time: i64, cost: i64) -> bool {
    time <= 240 || cost <= 150
}

/// A mutable multigraph of `singleleg` facts keyed by city name.
#[derive(Debug, Default, Clone)]
pub struct FlightGraph {
    out: HashMap<String, Vec<(String, i64, i64)>>,
}

impl FlightGraph {
    /// An empty network.
    pub fn new() -> FlightGraph {
        FlightGraph::default()
    }

    /// Adds one leg.
    pub fn add(&mut self, src: &str, dst: &str, time: i64, cost: i64) {
        self.out
            .entry(src.to_string())
            .or_default()
            .push((dst.to_string(), time, cost));
    }

    /// Removes one occurrence of a leg; `false` when it is absent.
    pub fn remove(&mut self, src: &str, dst: &str, time: i64, cost: i64) -> bool {
        let Some(legs) = self.out.get_mut(src) else {
            return false;
        };
        match legs
            .iter()
            .position(|(d, t, c)| d == dst && *t == time && *c == cost)
        {
            Some(i) => {
                legs.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// The `(T, C)` of every qualifying flight from `src` to `dst`.
    pub fn answers(&self, src: &str, dst: &str) -> BTreeSet<(i64, i64)> {
        let mut found = BTreeSet::new();
        // (city, total time, total cost, legs taken)
        let mut stack: Vec<(&str, i64, i64, u32)> = vec![(src, 0, 0, 0)];
        while let Some((city, time, cost, hops)) = stack.pop() {
            let Some(legs) = self.out.get(city) else {
                continue;
            };
            for (next, leg_time, leg_cost) in legs {
                let layover = if hops > 0 { 30 } else { 0 };
                let (t, c) = (time + leg_time + layover, cost + leg_cost);
                if !qualifies(t, c) {
                    continue;
                }
                if next == dst {
                    found.insert((t, c));
                }
                stack.push((next.as_str(), t, c, hops + 1));
            }
        }
        found
    }
}

/// The `(T, C)` pairs of engine answer facts `cheaporshort(S, D, T, C)`;
/// `None` when a fact is not ground or not integral, which the flights
/// program never produces.
pub fn answer_pairs(facts: &[Fact]) -> Option<BTreeSet<(i64, i64)>> {
    facts
        .iter()
        .map(|fact| {
            let values = fact.ground_values()?;
            let number = |i: usize| {
                let r = values.get(i)?.as_num()?;
                if r.is_integer() {
                    i64::try_from(r.numer()).ok()
                } else {
                    None
                }
            };
            Some((number(2)?, number(3)?))
        })
        .collect()
}

/// Parses the `(T, C)` of one rendered answer line of the line protocol,
/// e.g. `  cheaporshort(p0_3, seattle, 290, 150)`.
pub fn parse_answer_line(line: &str) -> Option<(i64, i64)> {
    let inner = line.trim().strip_suffix(')')?;
    let (_, args) = inner.split_once('(')?;
    let mut parts = args.rsplit(',').map(str::trim);
    let cost = parts.next()?.parse().ok()?;
    let time = parts.next()?.parse().ok()?;
    Some((time, cost))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layovers_and_pruning_follow_the_program() {
        let mut g = FlightGraph::new();
        g.add("a", "b", 100, 100);
        g.add("b", "c", 100, 40);
        g.add("a", "c", 300, 200);
        // a-b-c: T = 230, C = 140; the direct leg qualifies on neither.
        assert_eq!(g.answers("a", "c"), BTreeSet::from([(230, 140)]));
        assert!(g.remove("b", "c", 100, 40));
        assert!(!g.remove("b", "c", 100, 40));
        assert!(g.answers("a", "c").is_empty());
    }

    #[test]
    fn cycles_terminate() {
        let mut g = FlightGraph::new();
        g.add("a", "b", 20, 10);
        g.add("b", "a", 20, 10);
        let answers = g.answers("a", "a");
        assert!(answers.contains(&(70, 20)));
        assert!(answers.iter().all(|&(t, c)| qualifies(t, c)));
    }

    #[test]
    fn parses_rendered_answers() {
        assert_eq!(
            parse_answer_line("  cheaporshort(p0_3, seattle, 290, 150)"),
            Some((290, 150))
        );
        assert_eq!(parse_answer_line("answers: 1"), None);
    }
}

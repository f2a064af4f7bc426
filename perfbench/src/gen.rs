//! Seeded input generators.
//!
//! Every generator is a pure function of its seed and sizes: the same seed
//! renders byte-for-byte the same fact text, so two runs (or two commits)
//! measured with one seed see identical inputs.  The generators use their
//! own SplitMix64 stream rather than a library RNG, so a change to any
//! dependency cannot change the inputs.

/// A SplitMix64 pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per purpose by `stream` so the
    /// network and the query pairs of one seed do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One `singleleg(src, dst, time, cost)` fact over cities named `c<i>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Leg {
    /// Source city index.
    pub src: u32,
    /// Destination city index.
    pub dst: u32,
    /// Flight time.
    pub time: i64,
    /// Flight cost.
    pub cost: i64,
}

/// The name of city `i`.
pub fn city(i: u32) -> String {
    format!("c{i}")
}

impl Leg {
    /// The fact text the program receives, e.g. `singleleg(c3, c17, 45, 80).`
    pub fn fact(&self) -> String {
        format!(
            "singleleg(c{}, c{}, {}, {}).",
            self.src, self.dst, self.time, self.cost
        )
    }

    /// The same fact as an engine value.
    pub fn ground_fact(&self) -> pcs_engine::Fact {
        use pcs_engine::Value;
        pcs_engine::Fact::ground(
            "singleleg",
            vec![
                Value::sym(city(self.src)),
                Value::sym(city(self.dst)),
                Value::num(self.time),
                Value::num(self.cost),
            ],
        )
    }

    /// Adds this leg to a reference network.
    pub fn add_to(&self, graph: &mut crate::reference::FlightGraph) {
        graph.add(&city(self.src), &city(self.dst), self.time, self.cost);
    }
}

/// Renders legs as fact text, one fact per line.
pub fn facts_text(legs: &[Leg]) -> String {
    let mut text = String::new();
    for leg in legs {
        text.push_str(&leg.fact());
        text.push('\n');
    }
    text
}

/// The flights program of Example 1.1 with the query `?- cheaporshort(cA,
/// cB, T, C).`; the program text is the same for every workload, only the
/// query constants differ.
pub fn flights_program(src: u32, dst: u32) -> String {
    format!(
        "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n\
         r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n\
         r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.\n\
         r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2), \
         T = T1 + T2 + 30, C = C1 + C2.\n\
         ?- cheaporshort(c{src}, c{dst}, T, C).\n"
    )
}

/// A random DAG of `cities` cities with `legs` distinct legs `ci -> cj`,
/// `i < j`, times in `20..=219` and costs in `10..=309`, plus the direct
/// leg `c0 -> c<cities-1>` (time 200, cost 90).
pub fn dense_network(seed: u64, cities: u32, legs: usize) -> Vec<Leg> {
    let mut rng = Rng::new(seed, 1);
    let mut out = vec![Leg {
        src: 0,
        dst: cities - 1,
        time: 200,
        cost: 90,
    }];
    let mut seen: std::collections::HashSet<Leg> = out.iter().copied().collect();
    while out.len() < legs + 1 {
        let a = rng.range(0, u64::from(cities) - 1) as u32;
        let b = rng.range(0, u64::from(cities) - 1) as u32;
        if a == b {
            continue;
        }
        let leg = Leg {
            src: a.min(b),
            dst: a.max(b),
            time: rng.range(20, 219) as i64,
            cost: rng.range(10, 309) as i64,
        };
        if seen.insert(leg) {
            out.push(leg);
        }
    }
    out
}

/// The source city of every dense-flights query.
pub const DENSE_SOURCE: u32 = 50;

/// Operation `op` of a dense-flights run: its own network (a seeded DAG of
/// `cities` cities and `legs` legs) and the query pair `(DENSE_SOURCE, b)`
/// with a seeded `b` beyond the source.
pub fn dense_op(seed: u64, op: u64, cities: u32, legs: usize) -> (Vec<Leg>, (u32, u32)) {
    let network = dense_network(seed.wrapping_mul(1 << 20).wrapping_add(op), cities, legs);
    let mut rng = Rng::new(seed, 2u64.wrapping_add(op << 8));
    let b = rng.range(u64::from(DENSE_SOURCE) + 1, u64::from(cities) - 1) as u32;
    (network, (DENSE_SOURCE, b))
}

/// The churn network's legs for `seed`: every city keeps `degree` legs to
/// other cities, times `20..=400`, costs `10..=500`.  A retired leg is
/// replaced by a fresh leg from the same city, so out-degrees never drift
/// and one seed's network is as dense as another's.  No leg is ever
/// produced twice, so every retraction names a present fact and a
/// replacement never re-inserts one.
pub struct ChurnStream {
    rng: Rng,
    cities: u32,
    seen: std::collections::HashSet<Leg>,
}

impl ChurnStream {
    /// A stream over `cities` cities.
    pub fn new(seed: u64, cities: u32) -> ChurnStream {
        ChurnStream {
            rng: Rng::new(seed, 3),
            cities,
            seen: std::collections::HashSet::new(),
        }
    }

    /// The starting window: `degree` legs out of every city, in a seeded
    /// order (the order legs retire in).
    pub fn window(&mut self, degree: usize) -> Vec<Leg> {
        let mut legs: Vec<Leg> = (0..self.cities)
            .flat_map(|src| std::iter::repeat_n(src, degree))
            .map(|src| self.fresh_from(src))
            .collect();
        for i in (1..legs.len()).rev() {
            let j = self.rng.range(0, i as u64) as usize;
            legs.swap(i, j);
        }
        legs
    }

    /// A leg out of `src` never produced before.
    pub fn fresh_from(&mut self, src: u32) -> Leg {
        loop {
            let dst = self.rng.range(0, u64::from(self.cities) - 1) as u32;
            if dst == src {
                continue;
            }
            let leg = Leg {
                src,
                dst,
                time: self.rng.range(20, 400) as i64,
                cost: self.rng.range(10, 500) as i64,
            };
            if self.seen.insert(leg) {
                return leg;
            }
        }
    }
}

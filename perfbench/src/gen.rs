//! Seeded workload generator: publisher sequences and churn scripts.
//!
//! Everything a workload feeds the system comes from here, derived from the
//! `--seed` argument alone. Streams are unbounded (a run publishes for as
//! long as its time budget lasts) and drawn in order from the seed, so two
//! runs of one seed agree on every input they both reach.

/// splitmix64 step: a small, well-mixed PRNG whose output is identical on
/// every platform (no dependency on a crate's algorithm choices).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`), by 128-bit multiply-shift.
    pub fn below(&mut self, n: u32) -> u32 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u32
    }
}

/// Stream ids, so the publisher and churn streams of one seed never share
/// random bits.
const PUBLISHERS: u64 = 1;
const CHURN: u64 = 2;

/// Publishers over `0..n` in rounds: each round is a permutation of all
/// `n` peers shuffled from the seed, so every peer publishes once per round
/// and `n` consecutive publications always cover every publisher once.
/// Independent uniform draws would let the few high-degree publishers, whose
/// trees dominate the cost, land unevenly in a window of the run: windows
/// of one run then differed by 25% (quartile distance over median of
/// 2,000-publication windows), rounds of one seed by 4–7%. Each
/// publication gets a fresh nonce.
#[derive(Clone, Debug)]
pub struct Publishers {
    rng: Rng,
    round: Vec<u32>,
    at: usize,
    next_nonce: u64,
}

impl Publishers {
    /// The publisher stream of `seed` over `n` peers.
    pub fn new(seed: u64, n: usize) -> Publishers {
        let n = u32::try_from(n).expect("peer count fits u32");
        Publishers {
            rng: Rng::new(seed, PUBLISHERS),
            round: (0..n).collect(),
            at: n as usize,
            // Nonce 0 is what `publish` uses; start above it so every
            // publication of the run is distinct from any default one.
            next_nonce: 1,
        }
    }

    /// Next peer of the current round, shuffling a new round (Fisher–Yates)
    /// when this one is used up.
    fn next_peer(&mut self) -> u32 {
        if self.at == self.round.len() {
            for i in (1..self.round.len()).rev() {
                let j = self.rng.below(i as u32 + 1) as usize;
                self.round.swap(i, j);
            }
            self.at = 0;
        }
        self.at += 1;
        self.round[self.at - 1]
    }

    /// Next `(publisher, nonce)`; peers `skip` rejects (offline peers under
    /// churn) lose their turn in this round.
    pub fn next_where(&mut self, skip: impl Fn(u32) -> bool) -> (u32, u64) {
        let mut p = self.next_peer();
        while skip(p) {
            p = self.next_peer();
        }
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        (p, nonce)
    }

    /// Next `(publisher, nonce)` with every peer eligible.
    pub fn draw(&mut self) -> (u32, u64) {
        self.next_where(|_| false)
    }
}

/// Churn script: epoch `e` takes its leavers offline and brings epoch
/// `e - 1`'s leavers back. Leavers of consecutive epochs are disjoint, so
/// every leaver is online when it leaves. Epochs are drawn in order, each
/// from its own `(seed, epoch)` stream.
#[derive(Clone, Debug)]
pub struct ChurnScript {
    seed: u64,
    n: u32,
    per_epoch: usize,
    epoch: u64,
    previous: Vec<u32>,
}

impl ChurnScript {
    /// `fraction` of the `n` peers leave per epoch (at least one).
    pub fn new(seed: u64, n: usize, fraction: f64) -> ChurnScript {
        let n32 = u32::try_from(n).expect("peer count fits u32");
        let per_epoch = ((n as f64 * fraction).round() as usize).clamp(1, n / 3);
        ChurnScript {
            seed,
            n: n32,
            per_epoch,
            epoch: 0,
            previous: Vec::new(),
        }
    }

    /// Peers leaving per epoch.
    pub fn per_epoch(&self) -> usize {
        self.per_epoch
    }

    /// The next epoch's `(leavers, returners)`, both sorted: the returners
    /// are the previous epoch's leavers.
    pub fn next_epoch(&mut self) -> (Vec<u32>, Vec<u32>) {
        let salt = self.epoch.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut rng = Rng::new(self.seed, CHURN ^ salt);
        self.epoch += 1;
        let mut out: Vec<u32> = Vec::with_capacity(self.per_epoch);
        while out.len() < self.per_epoch {
            let p = rng.below(self.n);
            if !out.contains(&p) && self.previous.binary_search(&p).is_err() {
                out.push(p);
            }
        }
        out.sort_unstable();
        let returners = std::mem::replace(&mut self.previous, out.clone());
        (out, returners)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishers_repeat_per_seed_and_differ_across_seeds() {
        let take = |seed| {
            let mut s = Publishers::new(seed, 8000);
            (0..64).map(|_| s.draw()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        let nonces: Vec<u64> = take(7).iter().map(|&(_, n)| n).collect();
        assert_eq!(nonces, (1..=64).collect::<Vec<u64>>(), "fresh nonce each");
    }

    #[test]
    fn every_round_covers_every_publisher_once() {
        let mut s = Publishers::new(9, 500);
        let rounds: Vec<Vec<u32>> = (0..3)
            .map(|_| {
                let mut r: Vec<u32> = (0..500).map(|_| s.draw().0).collect();
                let order = r.clone();
                r.sort_unstable();
                assert_eq!(r, (0..500).collect::<Vec<u32>>());
                order
            })
            .collect();
        assert_ne!(rounds[0], rounds[1], "each round is shuffled anew");
    }

    #[test]
    fn publishers_skip_rejected_peers() {
        let mut s = Publishers::new(3, 10);
        for _ in 0..200 {
            assert!(s.next_where(|p| p % 2 == 0).0 % 2 == 1);
        }
    }

    #[test]
    fn churn_script_repeats_per_seed_and_differs_across_seeds() {
        let epochs = |seed| {
            let mut s = ChurnScript::new(seed, 8000, 0.02);
            assert_eq!(s.per_epoch(), 160);
            (0..5).map(|_| s.next_epoch()).collect::<Vec<_>>()
        };
        assert_eq!(epochs(11), epochs(11));
        assert_ne!(epochs(11), epochs(12));
    }

    #[test]
    fn leavers_return_next_epoch_and_never_leave_twice_in_a_row() {
        let mut s = ChurnScript::new(5, 300, 0.2);
        let (mut prev, first_back) = s.next_epoch();
        assert!(first_back.is_empty());
        for _ in 1..20 {
            let (cur, back) = s.next_epoch();
            assert_eq!(back, prev);
            assert_eq!(cur.len(), s.per_epoch());
            assert!(cur.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            assert!(cur.iter().all(|p| prev.binary_search(p).is_err()));
            prev = cur;
        }
    }
}

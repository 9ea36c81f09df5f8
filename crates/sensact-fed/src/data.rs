//! Synthetic CIFAR-10-like dataset with non-IID federated splits.
//!
//! Ten classes, each a Gaussian prototype in a 32-dimensional feature space
//! with class-correlated structure; hard enough that a linear model is
//! clearly beaten by an MLP, small enough to train in milliseconds. Client
//! splits follow the standard shard protocol: sort by label, deal shards, so
//! each client sees only a few classes (non-IID), or a uniform shuffle (IID).

use sensact_math::rng::StdRng;

/// Feature dimension.
pub(crate) const INPUT_DIM: usize = 32;
/// Number of classes.
pub(crate) const CLASSES: usize = 10;

/// One labelled sample.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sample {
    /// Feature vector (length [`INPUT_DIM`]).
    pub features: Vec<f64>,
    /// Class label in `0..CLASSES`.
    pub label: usize,
}

/// A labelled dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    samples: Vec<Sample>,
}

impl Dataset {
    /// Generate `n` samples with a seed.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Class prototypes are *global* (fixed seed): every dataset drawn
        // with any seed describes the same ten classes, so train/test splits
        // are compatible.
        let prototypes: Vec<Vec<f64>> = (0..CLASSES)
            .map(|c| {
                let mut proto_rng = StdRng::seed_from_u64(0xBEEF ^ ((c as u64) << 8));
                (0..INPUT_DIM)
                    .map(|_| gaussian(&mut proto_rng) * 1.5)
                    .collect()
            })
            .collect();
        let samples = (0..n)
            .map(|_| {
                let label = rng.random_range(0..CLASSES);
                let features = prototypes[label]
                    .iter()
                    .map(|&p| p + gaussian(&mut rng) * 0.9)
                    .collect();
                Sample { features, label }
            })
            .collect();
        Dataset { samples }
    }

    /// Build from explicit samples.
    pub(crate) fn from_samples(samples: Vec<Sample>) -> Self {
        Dataset { samples }
    }

    /// All samples.
    pub(crate) fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Non-IID shard split: sort by label, cut into `2 × clients` shards,
    /// deal two shards per client — each client sees ~2 classes.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0`.
    pub fn split_noniid(&self, clients: usize, seed: u64) -> Vec<Dataset> {
        assert!(clients > 0, "need at least one client");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sorted: Vec<&Sample> = self.samples.iter().collect();
        sorted.sort_by_key(|s| s.label);
        let shards = 2 * clients;
        let shard_size = sorted.len() / shards;
        let mut shard_order: Vec<usize> = (0..shards).collect();
        for i in (1..shard_order.len()).rev() {
            let j = rng.random_range(0..=i);
            shard_order.swap(i, j);
        }
        let mut parts = Vec::with_capacity(clients);
        for c in 0..clients {
            let mut samples = Vec::new();
            for &s in &shard_order[2 * c..2 * c + 2] {
                let start = s * shard_size;
                let end = if s == shards - 1 {
                    sorted.len()
                } else {
                    start + shard_size
                };
                samples.extend(sorted[start..end].iter().map(|&s| s.clone()));
            }
            parts.push(Dataset::from_samples(samples));
        }
        parts
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    // Box–Muller (single value; spare discarded for simplicity).
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Class histogram (fractions).
    fn class_distribution(d: &Dataset) -> [f64; CLASSES] {
        let mut hist = [0.0; CLASSES];
        for s in d.samples() {
            hist[s.label] += 1.0 / d.len() as f64;
        }
        hist
    }

    #[test]
    fn generate_counts_and_labels() {
        let d = Dataset::generate(500, 0);
        assert_eq!(d.len(), 500);
        assert!(d.samples().iter().all(|s| s.label < CLASSES));
        assert!(d.samples().iter().all(|s| s.features.len() == INPUT_DIM));
    }

    #[test]
    fn classes_are_separable() {
        // Nearest-prototype classification on held-out data must beat chance
        // by a wide margin — the dataset carries real signal.
        let train = Dataset::generate(1000, 1);
        let test = Dataset::generate(200, 2);
        let mut centroids = vec![vec![0.0; INPUT_DIM]; CLASSES];
        let mut counts = vec![0usize; CLASSES];
        for s in train.samples() {
            for (c, f) in centroids[s.label].iter_mut().zip(&s.features) {
                *c += f;
            }
            counts[s.label] += 1;
        }
        for (c, n) in centroids.iter_mut().zip(&counts) {
            for v in c.iter_mut() {
                *v /= (*n).max(1) as f64;
            }
        }
        let correct = test
            .samples()
            .iter()
            .filter(|s| {
                let best = (0..CLASSES)
                    .min_by(|&a, &b| {
                        let da: f64 = centroids[a]
                            .iter()
                            .zip(&s.features)
                            .map(|(c, f)| (c - f) * (c - f))
                            .sum();
                        let db: f64 = centroids[b]
                            .iter()
                            .zip(&s.features)
                            .map(|(c, f)| (c - f) * (c - f))
                            .sum();
                        da.total_cmp(&db)
                    })
                    .unwrap();
                best == s.label
            })
            .count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.6, "nearest-prototype accuracy {acc}");
    }

    #[test]
    fn noniid_split_concentrated() {
        let d = Dataset::generate(2000, 4);
        let parts = d.split_noniid(5, 0);
        assert_eq!(parts.len(), 5);
        // Each client's top-2 classes should dominate.
        for p in &parts {
            let mut dist = class_distribution(p).to_vec();
            dist.sort_by(|a, b| b.total_cmp(a));
            let top2: f64 = dist[0] + dist[1];
            assert!(top2 > 0.8, "top-2 class mass {top2} too low for non-IID");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Dataset::generate(50, 9);
        let b = Dataset::generate(50, 9);
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_panics() {
        let _ = Dataset::generate(10, 0).split_noniid(0, 0);
    }
}

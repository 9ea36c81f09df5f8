//! Event-camera simulation over moving scenes.
//!
//! Frame cameras integrate absolute intensity at a fixed rate; DVS pixels
//! fire an *event* whenever the log-intensity changes by more than a
//! threshold, asynchronously, with microsecond resolution. We render a small
//! moving scene (textured squares on a background), difference consecutive
//! log-intensity frames at a fine timestep, and emit per-pixel polarity
//! events — plus the exact per-pixel optical flow that makes the stream a
//! supervised MVSEC substitute.

use sensact_math::rng::StdRng;

/// One DVS event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Pixel column.
    pub x: u16,
    /// Pixel row.
    pub y: u16,
    /// Timestep index (fine-grained simulation step).
    pub t: u16,
    /// Polarity: `true` = intensity increase.
    pub polarity: bool,
}

/// An event stream with its sensor geometry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventStream {
    /// Sensor width (pixels).
    pub width: u16,
    /// Sensor height (pixels).
    pub height: u16,
    /// Number of fine timesteps covered.
    pub steps: u16,
    /// The events, time-ordered.
    pub events: Vec<Event>,
}

impl EventStream {
    /// Events per pixel per step — the activity level that drives
    /// event-driven energy costs.
    pub fn event_rate(&self) -> f64 {
        let denom = self.width as f64 * self.height as f64 * self.steps.max(1) as f64;
        self.events.len() as f64 / denom
    }

    /// Bin events into `bins` time slices of a `[2 × height × width]`
    /// polarity grid each (the standard event-volume input encoding).
    pub(crate) fn to_bins(&self, bins: usize) -> Vec<Vec<f64>> {
        let hw = self.height as usize * self.width as usize;
        let mut out = vec![vec![0.0; 2 * hw]; bins];
        if self.events.is_empty() {
            return out;
        }
        let steps = self.steps.max(1) as usize;
        for e in &self.events {
            let b = (e.t as usize * bins / steps).min(bins - 1);
            let ch = usize::from(e.polarity);
            let idx = ch * hw + e.y as usize * self.width as usize + e.x as usize;
            out[b][idx] += 1.0;
        }
        out
    }
}

/// Sensor width (pixels).
const WIDTH: u16 = 16;
/// Sensor height (pixels).
const HEIGHT: u16 = 16;
/// DVS log-intensity threshold.
const THRESHOLD: f64 = 0.15;

/// Configuration of the moving-scene renderer: a 16 × 16 DVS with a 0.15
/// log-intensity threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingSceneConfig {
    /// Number of moving objects.
    pub objects: usize,
    /// Fine timesteps simulated.
    pub steps: u16,
    /// Maximum object speed (pixels/step).
    pub max_speed: f64,
}

impl Default for MovingSceneConfig {
    fn default() -> Self {
        MovingSceneConfig {
            objects: 1,
            steps: 8,
            max_speed: 1.0,
        }
    }
}

/// A rendered moving scene: frames, events and ground-truth flow.
#[derive(Debug, Clone)]
pub struct MovingScene {
    /// First rendered intensity frame (for frame-based fusion models).
    pub first_frame: Vec<f64>,
    /// The event stream over the whole interval.
    pub events: EventStream,
    /// Ground-truth flow per pixel `(u, v)` in pixels/step, averaged over
    /// the interval.
    pub flow: Vec<(f64, f64)>,
}

struct Blob {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    size: f64,
    brightness: f64,
}

impl MovingScene {
    /// Render a scene with the given seed.
    pub fn generate(config: MovingSceneConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, h) = (WIDTH as usize, HEIGHT as usize);
        let total = config.steps as f64;
        // Clamp a velocity component so the blob centre stays inside
        // [1, extent-2] for the whole interval — a blob that exits the frame
        // mid-interval would leave the ground-truth flow empty.
        let fit = |pos: f64, v: f64, extent: f64| -> f64 {
            if total <= 0.0 {
                return v;
            }
            (v * total).clamp(1.0 - pos, (extent - 2.0) - pos) / total
        };
        let blobs: Vec<Blob> = (0..config.objects)
            .map(|_| {
                let angle = rng.random::<f64>() * std::f64::consts::TAU;
                let speed = config.max_speed * (0.4 + 0.6 * rng.random::<f64>());
                let x = 3.0 + (w as f64 - 6.0) * rng.random::<f64>();
                let y = 3.0 + (h as f64 - 6.0) * rng.random::<f64>();
                Blob {
                    x,
                    y,
                    vx: fit(x, speed * angle.cos(), w as f64),
                    vy: fit(y, speed * angle.sin(), h as f64),
                    size: 2.0 + 2.0 * rng.random::<f64>(),
                    brightness: 0.5 + 0.5 * rng.random::<f64>(),
                }
            })
            .collect();

        let render = |blobs: &[Blob], t: f64| -> Vec<f64> {
            let mut frame = vec![0.1f64; w * h]; // background intensity
            for b in blobs {
                let cx = b.x + b.vx * t;
                let cy = b.y + b.vy * t;
                for py in 0..h {
                    for px in 0..w {
                        let dx = px as f64 - cx;
                        let dy = py as f64 - cy;
                        if dx.abs() <= b.size / 2.0 && dy.abs() <= b.size / 2.0 {
                            // Textured square: checkered brightness.
                            let tex = if ((dx.floor() + dy.floor()) as i64).rem_euclid(2) == 0 {
                                b.brightness
                            } else {
                                b.brightness * 0.6
                            };
                            frame[py * w + px] = frame[py * w + px].max(tex);
                        }
                    }
                }
            }
            frame
        };

        // Event generation: threshold log-intensity differences per step.
        let mut events = Vec::new();
        let mut prev = render(&blobs, 0.0);
        let first_frame = prev.clone();
        for step in 1..=config.steps {
            let cur = render(&blobs, step as f64);
            for i in 0..w * h {
                let dlog = (cur[i].max(1e-3)).ln() - (prev[i].max(1e-3)).ln();
                let n_events = (dlog.abs() / THRESHOLD) as usize;
                for _ in 0..n_events.min(3) {
                    events.push(Event {
                        x: (i % w) as u16,
                        y: (i / w) as u16,
                        t: step - 1,
                        polarity: dlog > 0.0,
                    });
                }
            }
            prev = cur;
        }

        // Ground-truth flow: velocity of the blob covering each pixel at the
        // interval midpoint; background pixels have zero flow.
        let mid = config.steps as f64 / 2.0;
        let mut flow = vec![(0.0, 0.0); w * h];
        for b in &blobs {
            let cx = b.x + b.vx * mid;
            let cy = b.y + b.vy * mid;
            for py in 0..h {
                for px in 0..w {
                    let dx = px as f64 - cx;
                    let dy = py as f64 - cy;
                    if dx.abs() <= b.size / 2.0 && dy.abs() <= b.size / 2.0 {
                        flow[py * w + px] = (b.vx, b.vy);
                    }
                }
            }
        }

        MovingScene {
            first_frame,
            events: EventStream {
                width: WIDTH,
                height: HEIGHT,
                steps: config.steps,
                events,
            },
            flow,
        }
    }

    /// Mean ground-truth flow over `regions × regions` image tiles — the
    /// coarse prediction target of the Fig. 9 models.
    pub(crate) fn region_flow(&self, regions: usize) -> Vec<(f64, f64)> {
        let (w, h) = (WIDTH as usize, HEIGHT as usize);
        let mut out = vec![(0.0, 0.0); regions * regions];
        let mut counts = vec![0usize; regions * regions];
        for py in 0..h {
            for px in 0..w {
                let rx = px * regions / w;
                let ry = py * regions / h;
                let r = ry * regions + rx;
                out[r].0 += self.flow[py * w + px].0;
                out[r].1 += self.flow[py * w + px].1;
                counts[r] += 1;
            }
        }
        for (o, c) in out.iter_mut().zip(&counts) {
            if *c > 0 {
                o.0 /= *c as f64;
                o.1 /= *c as f64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_scene_emits_no_events() {
        let config = MovingSceneConfig {
            max_speed: 0.0,
            ..MovingSceneConfig::default()
        };
        let scene = MovingScene::generate(config, 0);
        assert!(
            scene.events.events.is_empty(),
            "{} events",
            scene.events.events.len()
        );
        assert!(scene.flow.iter().all(|&(u, v)| u == 0.0 && v == 0.0));
    }

    #[test]
    fn moving_scene_emits_events_near_object() {
        let scene = MovingScene::generate(MovingSceneConfig::default(), 1);
        assert!(
            scene.events.events.len() > 10,
            "only {} events",
            scene.events.events.len()
        );
        // Event rate stays sparse (the neuromorphic advantage).
        assert!(scene.events.event_rate() < 0.5);
    }

    #[test]
    fn faster_motion_more_events() {
        let slow = MovingScene::generate(
            MovingSceneConfig {
                max_speed: 0.3,
                ..MovingSceneConfig::default()
            },
            2,
        );
        let fast = MovingScene::generate(
            MovingSceneConfig {
                max_speed: 2.0,
                ..MovingSceneConfig::default()
            },
            2,
        );
        assert!(fast.events.events.len() > slow.events.events.len());
    }

    #[test]
    fn flow_magnitude_bounded_by_speed() {
        let config = MovingSceneConfig {
            max_speed: 1.5,
            ..MovingSceneConfig::default()
        };
        let scene = MovingScene::generate(config, 3);
        for &(u, v) in &scene.flow {
            assert!((u * u + v * v).sqrt() <= 1.5 + 1e-9);
        }
        // Some pixels actually move.
        assert!(scene.flow.iter().any(|&(u, v)| u != 0.0 || v != 0.0));
    }

    #[test]
    fn bins_partition_events() {
        let scene = MovingScene::generate(MovingSceneConfig::default(), 4);
        let bins = scene.events.to_bins(4);
        let total: f64 = bins.iter().map(|b| b.iter().sum::<f64>()).sum();
        assert_eq!(total as usize, scene.events.events.len());
        assert_eq!(bins.len(), 4);
        assert_eq!(bins[0].len(), 2 * 16 * 16);
    }

    #[test]
    fn region_flow_averages() {
        let scene = MovingScene::generate(MovingSceneConfig::default(), 6);
        let rf = scene.region_flow(4);
        assert_eq!(rf.len(), 16);
        // Region-mean magnitudes bounded by pixel-level max.
        let max_pixel = scene
            .flow
            .iter()
            .map(|&(u, v)| (u * u + v * v).sqrt())
            .fold(0.0f64, f64::max);
        for &(u, v) in &rf {
            assert!((u * u + v * v).sqrt() <= max_pixel + 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MovingScene::generate(MovingSceneConfig::default(), 7);
        let b = MovingScene::generate(MovingSceneConfig::default(), 7);
        assert_eq!(a.events, b.events);
        assert_eq!(a.flow, b.flow);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;

    /// Binning partitions the event set for any bin count (seeded sweep).
    #[test]
    fn prop_bins_partition_events() {
        let mut rng = StdRng::seed_from_u64(0xE7E47);
        for _ in 0..32 {
            let seed = rng.random_range(0..512u64);
            let bins = rng.random_range(1..10usize);
            let speed = rng.random_range(0.0..2.5);
            let scene = MovingScene::generate(
                MovingSceneConfig {
                    max_speed: speed,
                    ..MovingSceneConfig::default()
                },
                seed,
            );
            let total: f64 = scene
                .events
                .to_bins(bins)
                .iter()
                .map(|b| b.iter().sum::<f64>())
                .sum();
            assert_eq!(total as usize, scene.events.events.len());
        }
    }
}

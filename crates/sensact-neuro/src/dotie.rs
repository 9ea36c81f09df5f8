//! DOTIE-style event clustering: detecting objects through temporal isolation
//! of events with a single-layer spiking architecture.
//!
//! The idea (Nagaraj et al., ICRA'23): fast-moving objects generate dense
//! event bursts; a grid of LIF neurons with per-pixel receptive fields fires
//! only where the local event rate is high, and connected spiking regions
//! become object bounding boxes. No training needed — a pure sensing-to-
//! detection loop in one spiking layer.

use crate::event::EventStream;

/// Membrane leak per timestep, in `(0, 1)`.
const LEAK: f64 = 0.7;

/// Configuration of the spiking event clusterer (membrane leak 0.7 per
/// timestep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DotieConfig {
    /// Spike threshold on the accumulated event count.
    pub threshold: f64,
    /// Minimum spiking pixels per reported cluster.
    pub min_cluster: usize,
}

impl Default for DotieConfig {
    fn default() -> Self {
        DotieConfig {
            threshold: 2.0,
            min_cluster: 3,
        }
    }
}

/// A detected event cluster (pixel-space bounding box).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventCluster {
    /// Minimum pixel column.
    pub min_x: u16,
    /// Minimum pixel row.
    pub min_y: u16,
    /// Maximum pixel column (inclusive).
    pub max_x: u16,
    /// Maximum pixel row (inclusive).
    pub max_y: u16,
    /// Spiking pixels in the cluster.
    pub size: usize,
}

impl EventCluster {
    /// Cluster center (pixels).
    pub fn center(&self) -> (f64, f64) {
        (
            (self.min_x as f64 + self.max_x as f64) / 2.0,
            (self.min_y as f64 + self.max_y as f64) / 2.0,
        )
    }
}

/// Run the single-layer spiking clusterer over a stream.
///
/// Each pixel is one LIF neuron fed by its own events; the per-pixel membrane
/// leaks between timesteps, so only *temporally dense* (fast-motion) activity
/// reaches threshold. Spiking pixels are clustered by 8-connectivity.
pub fn detect_clusters(stream: &EventStream, config: &DotieConfig) -> Vec<EventCluster> {
    let (w, h) = (stream.width as usize, stream.height as usize);
    if w == 0 || h == 0 {
        return Vec::new();
    }
    let mut membrane = vec![0.0f64; w * h];
    let mut spiked = vec![false; w * h];
    // Events grouped by timestep.
    let mut by_t: std::collections::BTreeMap<u16, Vec<usize>> = std::collections::BTreeMap::new();
    for e in &stream.events {
        by_t.entry(e.t)
            .or_default()
            .push(e.y as usize * w + e.x as usize);
    }
    let mut last_t = 0u16;
    for (&t, pixels) in &by_t {
        // Leak for the elapsed steps.
        let decay = LEAK.powi((t - last_t) as i32);
        for v in membrane.iter_mut() {
            *v *= decay;
        }
        last_t = t;
        for &p in pixels {
            membrane[p] += 1.0;
            if membrane[p] >= config.threshold {
                spiked[p] = true;
                membrane[p] = 0.0;
            }
        }
    }

    // 8-connected components over spiking pixels.
    let mut visited = vec![false; w * h];
    let mut clusters = Vec::new();
    for start in 0..w * h {
        if !spiked[start] || visited[start] {
            continue;
        }
        let mut stack = vec![start];
        visited[start] = true;
        let (mut min_x, mut max_x) = (u16::MAX, 0u16);
        let (mut min_y, mut max_y) = (u16::MAX, 0u16);
        let mut size = 0usize;
        while let Some(p) = stack.pop() {
            size += 1;
            let (px, py) = ((p % w) as u16, (p / w) as u16);
            min_x = min_x.min(px);
            max_x = max_x.max(px);
            min_y = min_y.min(py);
            max_y = max_y.max(py);
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    let nx = px as i32 + dx;
                    let ny = py as i32 + dy;
                    if nx < 0 || ny < 0 || nx >= w as i32 || ny >= h as i32 {
                        continue;
                    }
                    let n = ny as usize * w + nx as usize;
                    if spiked[n] && !visited[n] {
                        visited[n] = true;
                        stack.push(n);
                    }
                }
            }
        }
        if size >= config.min_cluster {
            clusters.push(EventCluster {
                min_x,
                min_y,
                max_x,
                max_y,
                size,
            });
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MovingScene, MovingSceneConfig};

    #[test]
    fn fast_object_detected() {
        let scene = MovingScene::generate(
            MovingSceneConfig {
                max_speed: 2.0,
                ..MovingSceneConfig::default()
            },
            1,
        );
        let clusters = detect_clusters(&scene.events, &DotieConfig::default());
        assert!(!clusters.is_empty(), "fast object produced no cluster");
    }

    #[test]
    fn static_scene_produces_nothing() {
        let scene = MovingScene::generate(
            MovingSceneConfig {
                max_speed: 0.0,
                ..MovingSceneConfig::default()
            },
            2,
        );
        let clusters = detect_clusters(&scene.events, &DotieConfig::default());
        assert!(clusters.is_empty());
    }

    #[test]
    fn cluster_near_object_path() {
        let config = MovingSceneConfig {
            max_speed: 2.0,
            objects: 1,
            ..MovingSceneConfig::default()
        };
        let scene = MovingScene::generate(config, 3);
        let clusters = detect_clusters(&scene.events, &DotieConfig::default());
        // Moving pixels (nonzero GT flow) delimit the object's region.
        let w = scene.events.width as usize;
        let moving: Vec<(f64, f64)> = scene
            .flow
            .iter()
            .enumerate()
            .filter(|(_, &(u, v))| u != 0.0 || v != 0.0)
            .map(|(i, _)| ((i % w) as f64, (i / w) as f64))
            .collect();
        assert!(!moving.is_empty());
        let cx: f64 = moving.iter().map(|m| m.0).sum::<f64>() / moving.len() as f64;
        let cy: f64 = moving.iter().map(|m| m.1).sum::<f64>() / moving.len() as f64;
        let closest = clusters
            .iter()
            .map(|c| {
                let (x, y) = c.center();
                ((x - cx).powi(2) + (y - cy).powi(2)).sqrt()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(closest < 6.0, "closest cluster {closest} px from object");
    }

    #[test]
    fn higher_threshold_filters_slow_motion() {
        let slow = MovingScene::generate(
            MovingSceneConfig {
                max_speed: 0.4,
                ..MovingSceneConfig::default()
            },
            4,
        );
        let strict = DotieConfig {
            threshold: 4.0,
            ..DotieConfig::default()
        };
        let relaxed = DotieConfig {
            threshold: 1.0,
            ..DotieConfig::default()
        };
        let n_strict = detect_clusters(&slow.events, &strict).len();
        let n_relaxed = detect_clusters(&slow.events, &relaxed).len();
        assert!(n_strict <= n_relaxed);
    }

    #[test]
    fn empty_stream_ok() {
        let empty = EventStream {
            width: 8,
            height: 8,
            steps: 4,
            events: vec![],
        };
        assert!(detect_clusters(&empty, &DotieConfig::default()).is_empty());
    }
}

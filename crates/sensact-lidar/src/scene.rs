//! Procedural street scenes.
//!
//! A scene is a set of class-labelled axis-aligned boxes on a ground plane:
//! a road corridor along +x with parked/driving cars, pedestrians and
//! cyclists on the verges, and building façades at the sides. The layout
//! statistics loosely follow KITTI's ego-centric geometry (objects between
//! ~5 m and ~70 m ahead of the sensor).

use sensact_math::metrics::Aabb;
use sensact_math::rng::StdRng;

/// Semantic class of a scene object (the three KITTI evaluation classes plus
/// static structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// Passenger car (~4.2 × 1.8 × 1.5 m).
    Car,
    /// Pedestrian (~0.6 × 0.6 × 1.75 m).
    Pedestrian,
    /// Cyclist (~1.8 × 0.6 × 1.75 m).
    Cyclist,
    /// Building façade (static structure; not a detection target).
    Building,
}

impl ObjectClass {
    /// The three classes Table I evaluates.
    pub fn detection_classes() -> [ObjectClass; 3] {
        [
            ObjectClass::Car,
            ObjectClass::Pedestrian,
            ObjectClass::Cyclist,
        ]
    }

    /// Nominal (w, l, h) size in metres, before per-instance jitter.
    pub fn nominal_size(self) -> [f64; 3] {
        match self {
            ObjectClass::Car => [4.2, 1.8, 1.5],
            ObjectClass::Pedestrian => [0.6, 0.6, 1.75],
            ObjectClass::Cyclist => [1.8, 0.6, 1.75],
            ObjectClass::Building => [12.0, 8.0, 8.0],
        }
    }
}

impl std::fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ObjectClass::Car => "Car",
            ObjectClass::Pedestrian => "Pedestrian",
            ObjectClass::Cyclist => "Cyclist",
            ObjectClass::Building => "Building",
        };
        write!(f, "{s}")
    }
}

/// One object in a scene.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneObject {
    /// Semantic class.
    pub class: ObjectClass,
    /// World-frame bounding box (metres; sensor at origin, z up, x forward).
    pub aabb: Aabb,
}

impl SceneObject {
    /// Construct from a class and box.
    pub fn new(class: ObjectClass, aabb: Aabb) -> Self {
        SceneObject { class, aabb }
    }
}

/// A static scene: labelled boxes plus a ground plane at `z = 0`.
#[derive(Debug, Clone, Default)]
pub struct Scene {
    objects: Vec<SceneObject>,
}

impl Scene {
    /// An empty scene (ground plane only).
    pub fn new() -> Self {
        Scene {
            objects: Vec::new(),
        }
    }

    /// Build from an explicit object list.
    pub fn from_objects(objects: Vec<SceneObject>) -> Self {
        Scene { objects }
    }

    /// All objects.
    pub fn objects(&self) -> &[SceneObject] {
        &self.objects
    }

    /// Add an object.
    pub(crate) fn push(&mut self, object: SceneObject) {
        self.objects.push(object);
    }

    /// Objects of one class.
    pub(crate) fn objects_of(&self, class: ObjectClass) -> impl Iterator<Item = &SceneObject> {
        self.objects.iter().filter(move |o| o.class == class)
    }

    /// Ground-truth boxes for a detection class.
    pub fn ground_truth(&self, class: ObjectClass) -> Vec<Aabb> {
        self.objects_of(class).map(|o| o.aabb).collect()
    }
}

/// Configuration of the procedural generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneConfig {
    /// Number of cars.
    pub cars: usize,
    /// Number of pedestrians.
    pub pedestrians: usize,
    /// Number of cyclists.
    pub cyclists: usize,
    /// Number of building façades per side.
    pub buildings_per_side: usize,
    /// Far limit of object placement along +x (metres).
    pub max_range: f64,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            cars: 6,
            pedestrians: 4,
            cyclists: 3,
            buildings_per_side: 4,
            max_range: 70.0,
        }
    }
}

/// Seeded procedural street-scene generator.
#[derive(Debug)]
pub struct SceneGenerator {
    rng: StdRng,
    config: SceneConfig,
}

impl SceneGenerator {
    /// Generator with the default layout config.
    pub fn new(seed: u64) -> Self {
        SceneGenerator {
            rng: StdRng::seed_from_u64(seed),
            config: SceneConfig::default(),
        }
    }

    /// Generator with an explicit config.
    pub fn with_config(seed: u64, config: SceneConfig) -> Self {
        SceneGenerator {
            rng: StdRng::seed_from_u64(seed),
            config,
        }
    }

    fn place(
        &mut self,
        class: ObjectClass,
        x_range: (f64, f64),
        y_range: (f64, f64),
    ) -> SceneObject {
        let nominal = class.nominal_size();
        let jitter = |r: &mut StdRng, v: f64| v * (0.85 + 0.3 * r.random::<f64>());
        let size = [
            jitter(&mut self.rng, nominal[0]),
            jitter(&mut self.rng, nominal[1]),
            jitter(&mut self.rng, nominal[2]),
        ];
        let x = x_range.0 + (x_range.1 - x_range.0) * self.rng.random::<f64>();
        let y = y_range.0 + (y_range.1 - y_range.0) * self.rng.random::<f64>();
        let center = [x, y, size[2] / 2.0];
        SceneObject::new(class, Aabb::from_center_size(center, size))
    }

    /// Generate one scene. Objects never overlap the 3 m sensor clearance at
    /// the origin, and traffic objects are placed collision-free (rejection
    /// sampling with a 1.2 m clearance margin — real road users do not
    /// interpenetrate).
    pub fn generate(&mut self) -> Scene {
        let cfg = self.config;
        let mut scene = Scene::new();
        let clear_of = |scene: &Scene, candidate: &SceneObject| -> bool {
            scene.objects().iter().all(|o| {
                if o.class == ObjectClass::Building {
                    return true;
                }
                let margin = 1.2;
                let a = &candidate.aabb;
                let b = &o.aabb;
                a.min[0] - margin > b.max[0]
                    || b.min[0] - margin > a.max[0]
                    || a.min[1] - margin > b.max[1]
                    || b.min[1] - margin > a.max[1]
            })
        };
        let place_clear = |gen: &mut Self,
                           scene: &mut Scene,
                           class: ObjectClass,
                           xr: (f64, f64),
                           yr: (f64, f64)| {
            for _attempt in 0..20 {
                let candidate = gen.place(class, xr, yr);
                if clear_of(scene, &candidate) {
                    scene.push(candidate);
                    return;
                }
            }
            // Crowded scene: accept the last draw rather than loop forever.
            let candidate = gen.place(class, xr, yr);
            scene.push(candidate);
        };
        // Cars on the road corridor (lanes at y ≈ ±2).
        for _ in 0..cfg.cars {
            let lane = if self.rng.random::<f64>() < 0.5 {
                -2.0
            } else {
                2.0
            };
            place_clear(
                self,
                &mut scene,
                ObjectClass::Car,
                (6.0, cfg.max_range),
                (lane - 0.5, lane + 0.5),
            );
        }
        // Pedestrians on the verges (|y| ≈ 5–8).
        for _ in 0..cfg.pedestrians {
            let side = if self.rng.random::<f64>() < 0.5 {
                -1.0
            } else {
                1.0
            };
            place_clear(
                self,
                &mut scene,
                ObjectClass::Pedestrian,
                (5.0, cfg.max_range * 0.7),
                (side * 5.0, side * 8.0),
            );
        }
        // Cyclists at lane edges (|y| ≈ 3.5–4.5).
        for _ in 0..cfg.cyclists {
            let side = if self.rng.random::<f64>() < 0.5 {
                -1.0
            } else {
                1.0
            };
            place_clear(
                self,
                &mut scene,
                ObjectClass::Cyclist,
                (5.0, cfg.max_range * 0.8),
                (side * 3.5, side * 4.5),
            );
        }
        // Building façades flanking the street (|y| ≈ 10–18).
        for side in [-1.0, 1.0] {
            for b in 0..cfg.buildings_per_side {
                let x0 = 5.0 + b as f64 * (cfg.max_range - 10.0) / cfg.buildings_per_side as f64;
                let mut obj = self.place(
                    ObjectClass::Building,
                    (x0, x0 + 6.0),
                    (side * 12.0, side * 16.0),
                );
                // A façade jittered long can reach back over the origin;
                // slide it forward to keep the 3 m sensor clearance.
                let intrusion = 3.0 - obj.aabb.min[0];
                if intrusion > 0.0 {
                    obj.aabb.min[0] += intrusion;
                    obj.aabb.max[0] += intrusion;
                }
                scene.push(obj);
            }
        }
        scene
    }

    /// Generate a batch of scenes.
    pub fn generate_many(&mut self, n: usize) -> Vec<Scene> {
        (0..n).map(|_| self.generate()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scene_has_expected_population() {
        let scene = SceneGenerator::new(1).generate();
        let cfg = SceneConfig::default();
        assert_eq!(scene.objects_of(ObjectClass::Car).count(), cfg.cars);
        assert_eq!(
            scene.objects_of(ObjectClass::Pedestrian).count(),
            cfg.pedestrians
        );
        assert_eq!(scene.objects_of(ObjectClass::Cyclist).count(), cfg.cyclists);
        assert_eq!(
            scene.objects_of(ObjectClass::Building).count(),
            2 * cfg.buildings_per_side
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SceneGenerator::new(7).generate();
        let b = SceneGenerator::new(7).generate();
        assert_eq!(a.objects(), b.objects());
        let c = SceneGenerator::new(8).generate();
        assert_ne!(a.objects(), c.objects());
    }

    #[test]
    fn objects_sit_on_ground() {
        let scene = SceneGenerator::new(3).generate();
        for o in scene.objects() {
            assert!(o.aabb.min[2].abs() < 1e-9, "{:?} floats", o.class);
            assert!(o.aabb.max[2] > 0.5);
        }
    }

    #[test]
    fn objects_in_front_and_clear_of_sensor() {
        let scene = SceneGenerator::new(4).generate();
        for o in scene.objects() {
            assert!(o.aabb.min[0] > 2.0, "{:?} too close: {:?}", o.class, o.aabb);
        }
    }

    #[test]
    fn sizes_near_nominal() {
        let scene = SceneGenerator::new(5).generate();
        for o in scene.objects_of(ObjectClass::Car) {
            let l = o.aabb.max[0] - o.aabb.min[0];
            assert!((3.0..6.0).contains(&l), "car length {l}");
        }
        for o in scene.objects_of(ObjectClass::Pedestrian) {
            let h = o.aabb.max[2] - o.aabb.min[2];
            assert!((1.3..2.2).contains(&h), "pedestrian height {h}");
        }
    }

    #[test]
    fn ground_truth_filters_class() {
        let scene = SceneGenerator::new(6).generate();
        let cars = scene.ground_truth(ObjectClass::Car);
        assert_eq!(cars.len(), SceneConfig::default().cars);
    }

    #[test]
    fn generate_many_distinct() {
        let mut generator = SceneGenerator::new(0);
        let scenes = generator.generate_many(3);
        assert_eq!(scenes.len(), 3);
        assert_ne!(scenes[0].objects(), scenes[1].objects());
    }

    #[test]
    fn manual_scene_building() {
        let mut scene = Scene::new();
        assert!(scene.objects().is_empty());
        scene.push(SceneObject::new(
            ObjectClass::Car,
            Aabb::from_center_size([10.0, 0.0, 0.75], [4.0, 1.8, 1.5]),
        ));
        assert_eq!(scene.objects().len(), 1);
        assert_eq!(scene.objects()[0].class, ObjectClass::Car);
    }

    #[test]
    fn class_display_and_detection_classes() {
        assert_eq!(ObjectClass::Car.to_string(), "Car");
        assert_eq!(ObjectClass::detection_classes().len(), 3);
        assert!(!ObjectClass::detection_classes().contains(&ObjectClass::Building));
    }
}

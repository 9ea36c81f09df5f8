//! Point-cloud container produced by the LiDAR model.

/// One LiDAR return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// World x (forward, metres).
    pub x: f64,
    /// World y (left, metres).
    pub y: f64,
    /// World z (up, metres).
    pub z: f64,
    /// Measured range from the sensor (metres).
    pub range: f64,
    /// Vertical beam index that produced this return.
    pub beam: u16,
    /// Azimuth step index that produced this return.
    pub azimuth: u16,
}

impl Point {
    /// Position as an array.
    pub fn position(&self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }
}

/// An unordered collection of LiDAR returns from one scan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointCloud {
    points: Vec<Point>,
}

impl PointCloud {
    /// An empty cloud.
    pub fn new() -> Self {
        PointCloud { points: Vec::new() }
    }

    /// Build from a point list.
    pub fn from_points(points: Vec<Point>) -> Self {
        PointCloud { points }
    }

    /// Mutable access to the points (used by corruption models).
    pub fn points_mut(&mut self) -> &mut Vec<Point> {
        &mut self.points
    }

    /// Add a point.
    pub fn push(&mut self, p: Point) {
        self.points.push(p);
    }

    /// Number of returns.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the cloud is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterate points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point> {
        self.points.iter()
    }

    /// Mean range; `0.0` for an empty cloud.
    pub fn mean_range(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.range).sum::<f64>() / self.points.len() as f64
    }

    /// Keep only points satisfying the predicate.
    pub(crate) fn retain(&mut self, f: impl FnMut(&Point) -> bool) {
        self.points.retain(f);
    }

    /// Points within an axis-aligned box.
    pub fn points_in(&self, aabb: &sensact_math::metrics::Aabb) -> usize {
        self.points
            .iter()
            .filter(|p| aabb.contains(p.position()))
            .count()
    }
}

impl FromIterator<Point> for PointCloud {
    fn from_iter<T: IntoIterator<Item = Point>>(iter: T) -> Self {
        PointCloud {
            points: iter.into_iter().collect(),
        }
    }
}

impl Extend<Point> for PointCloud {
    fn extend<T: IntoIterator<Item = Point>>(&mut self, iter: T) {
        self.points.extend(iter);
    }
}

impl<'a> IntoIterator for &'a PointCloud {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl IntoIterator for PointCloud {
    type Item = Point;
    type IntoIter = std::vec::IntoIter<Point>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_math::metrics::Aabb;

    fn pt(x: f64, y: f64, z: f64) -> Point {
        Point {
            x,
            y,
            z,
            range: (x * x + y * y + z * z).sqrt(),
            beam: 0,
            azimuth: 0,
        }
    }

    #[test]
    fn basic_accessors() {
        let mut c = PointCloud::new();
        assert!(c.is_empty());
        c.push(pt(3.0, 4.0, 0.0));
        c.push(pt(1.0, 0.0, 0.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.mean_range(), 3.0);
    }

    #[test]
    fn retain_filters() {
        let mut c: PointCloud = (0..10).map(|i| pt(i as f64, 0.0, 0.0)).collect();
        c.retain(|p| p.range < 5.0);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn points_in_box() {
        let c: PointCloud = (0..10).map(|i| pt(i as f64, 0.0, 0.0)).collect();
        let b = Aabb::new([2.5, -1.0, -1.0], [6.5, 1.0, 1.0]);
        assert_eq!(c.points_in(&b), 4);
    }

    #[test]
    fn iterator_impls() {
        let c: PointCloud = (0..3).map(|i| pt(i as f64, 0.0, 0.0)).collect();
        assert_eq!(c.iter().count(), 3);
        assert_eq!((&c).into_iter().count(), 3);
        let mut c2 = PointCloud::new();
        c2.extend(c.clone());
        assert_eq!(c2.len(), 3);
        assert_eq!(c.into_iter().count(), 3);
    }

    #[test]
    fn empty_cloud_stats() {
        let c = PointCloud::new();
        assert_eq!(c.mean_range(), 0.0);
    }
}

//! The overwrite-oldest ring buffer behind [`Tracer`]'s stage spans and
//! [`FleetTracer`]'s causal spans. (`LoopTelemetry`'s tick records live in
//! its own packed-row ring; its tests keep a ring of whole records as oracle.)
//!
//! [`Tracer`]: crate::trace::Tracer
//! [`FleetTracer`]: crate::trace::FleetTracer

/// A bounded buffer that overwrites its oldest item once full.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    items: Vec<T>,
    /// Oldest item's index once the ring is full.
    head: usize,
    capacity: usize,
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `capacity` items (clamped to ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Ring {
            items: Vec::new(),
            head: 0,
            capacity: capacity.max(1),
        }
    }

    /// Rebuild a ring from items already in chronological order, or `None`
    /// when they exceed `capacity`. The result has `head == 0`: a checkpoint
    /// stores items oldest-first, so a ring snapshotted exactly at its wrap
    /// boundary (where `head` is ambiguous against `len`) restores in order.
    pub(crate) fn from_ordered(capacity: usize, items: Vec<T>) -> Option<Self> {
        let capacity = capacity.max(1);
        (items.len() <= capacity).then_some(Ring {
            items,
            head: 0,
            capacity,
        })
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            self.items[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Retained items, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        let (wrapped, ordered) = self.items.split_at(self.head);
        ordered.iter().chain(wrapped.iter())
    }

    /// Drain every retained item, oldest first.
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.items.rotate_left(self.head);
        self.head = 0;
        std::mem::take(&mut self.items)
    }

    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }
}

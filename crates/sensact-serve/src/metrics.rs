//! `serve.*` metric names.
//!
//! Every counter/gauge/histogram lives in the workspace's own
//! [`MetricsRegistry`](sensact_core::MetricsRegistry) and is published through the existing
//! [`prometheus_text`](sensact_core::export::prometheus_text()) exporter, so
//! the serving front-end appears on the same `/metrics` scrape surface as
//! fleet and loop metrics — no parallel exposition path.

/// Leases granted since start.
pub const LEASES_GRANTED: &str = "serve.leases.granted";
/// Leases rejected by admission control.
pub const LEASES_REJECTED: &str = "serve.leases.rejected";
/// Leases reaped by TTL expiry.
pub const LEASES_EXPIRED: &str = "serve.leases.expired";
/// Leases released by their clients.
pub const LEASES_RELEASED: &str = "serve.leases.released";
/// Live leases (gauge).
pub(crate) const LEASES_ACTIVE: &str = "serve.leases.active";
/// Admission demand as a fraction of worker capacity (gauge).
pub(crate) const UTILIZATION: &str = "serve.utilization";
/// Binary frames decoded from clients.
pub const FRAMES_IN: &str = "serve.frames.in";
/// Binary frames sent to clients.
pub const FRAMES_OUT: &str = "serve.frames.out";
/// Wire protocol errors (connection-fatal).
pub(crate) const WIRE_ERRORS: &str = "serve.wire.errors";
/// Observations served (ticks executed).
pub const OBS_SERVED: &str = "serve.obs.served";
/// Observations shed at ingress.
pub const OBS_SHED: &str = "serve.obs.shed";
/// HTTP control-plane requests.
pub const HTTP_REQUESTS: &str = "serve.http.requests";
/// HTTP parse errors (connection-fatal).
pub(crate) const HTTP_ERRORS: &str = "serve.http.errors";
/// Heartbeats received.
pub(crate) const HEARTBEATS: &str = "serve.heartbeats";
/// Per-flush stacked-GEMM group occupancy (histogram).
pub const BATCH_OCCUPANCY: &str = "serve.batch.occupancy";
/// Client-visible response time per served observation (histogram,
/// virtual seconds).
pub const RESPONSE_S: &str = "serve.response_s";

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_core::export::prometheus_text;
    use sensact_core::MetricsRegistry;

    #[test]
    fn serve_metrics_render_on_the_standard_exposition() {
        let mut reg = MetricsRegistry::new();
        reg.inc(LEASES_GRANTED);
        reg.add(FRAMES_IN, 3);
        reg.set(LEASES_ACTIVE, 1.0);
        reg.observe(BATCH_OCCUPANCY, 4.0);
        reg.observe(RESPONSE_S, 2.5e-5);
        let text = prometheus_text(&reg);
        assert!(text.contains("serve_leases_granted"), "{text}");
        assert!(text.contains("serve_frames_in"), "{text}");
        assert!(text.contains("serve_leases_active"), "{text}");
        assert!(text.contains("serve_batch_occupancy"), "{text}");
        assert!(text.contains("serve_response_s"), "{text}");
    }
}

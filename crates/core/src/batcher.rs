//! Adaptive batch sizing against a latency SLO.
//!
//! Experiment E11 established the cost curve of batched TEE crossings:
//! each crossing pays a fixed overhead (SMC trap, a world-switch round
//! trip, TA dispatch, the supplicant relay round trip), so crossings per
//! window fall as `1/B` — while the *last* window of a batch waits for
//! the whole batch, so per-window latency grows as `B · service +
//! overhead`. The [`AdaptiveBatcher`] walks that curve from the latency
//! side: given the current queue depth and a running estimate of the
//! per-window service time, it picks the largest batch that still meets
//! the SLO — maximum amortization, bounded latency.
//!
//! [`BatchControl`] is the per-crossing policy around it that both the
//! single-session device and the scheduler crate's sharded pipeline run.

use perisec_telemetry::{HealthState, PressureMonitor, SloSpec};
use perisec_tz::cost::CostModel;
use perisec_tz::time::{SimDuration, SimInstant};

use crate::stage::FilteredBatch;

/// Picks `batch_windows` per shard from queue depth against a latency
/// SLO, using the E11 cost curve.
#[derive(Debug, Clone)]
pub struct AdaptiveBatcher {
    slo: SimDuration,
    crossing: SimDuration,
    max_batch: usize,
    service: Option<SimDuration>,
    pressure: HealthState,
}

impl AdaptiveBatcher {
    /// Creates a batcher for a platform's cost model with a per-window
    /// latency SLO and an upper batch bound.
    pub fn new(cost: &CostModel, slo: SimDuration, max_batch: usize) -> Self {
        AdaptiveBatcher {
            slo,
            crossing: AdaptiveBatcher::crossing_overhead(cost),
            max_batch: max_batch.max(1),
            service: None,
            pressure: HealthState::Healthy,
        }
    }

    /// The fixed cost of one TEE crossing under `cost` — the constant the
    /// E11 sweep amortizes: one SMC trap, the world-switch round trip,
    /// one TA dispatch and one supplicant relay round trip.
    pub fn crossing_overhead(cost: &CostModel) -> SimDuration {
        cost.smc_round_trip
            + cost.world_switch
            + cost.world_switch
            + cost.ta_dispatch
            + cost.supplicant_rpc
    }

    /// Folds an observed per-window service time into the running
    /// estimate (EWMA, new observation weighted 1/4).
    pub fn observe(&mut self, per_window: SimDuration) {
        self.service = Some(match self.service {
            None => per_window,
            Some(current) => (current * 3 + per_window) / 4,
        });
    }

    /// The current per-window service estimate (zero before the first
    /// observation).
    pub fn service_estimate(&self) -> SimDuration {
        self.service.unwrap_or(SimDuration::ZERO)
    }

    /// The configured SLO.
    pub fn slo(&self) -> SimDuration {
        self.slo
    }

    /// Feeds the health plane's SLO-pressure verdict (see
    /// `perisec_telemetry::PressureMonitor`). Under `Degraded` pressure
    /// the batcher halves its latency headroom — the EWMA is clearly
    /// underestimating tail service time, so batches shrink before the
    /// SLO is torn further; under `Critical` it falls all the way back to
    /// single-window probes. `Healthy` (the initial state) restores the
    /// pure E11 curve.
    pub fn set_pressure(&mut self, pressure: HealthState) {
        self.pressure = pressure;
    }

    /// The most recent pressure verdict fed to the batcher.
    pub fn pressure(&self) -> HealthState {
        self.pressure
    }

    /// Picks the batch size for the next crossing given `queue_depth`
    /// windows waiting. Returns the largest `B` with
    /// `B · service + overhead <= slo`, clamped to `[1, min(depth, max)]`
    /// — never more than is queued, never zero, and a single window when
    /// the SLO is unattainable (smaller batches cannot help: the crossing
    /// overhead alone already exceeds it). Before the first
    /// [`AdaptiveBatcher::observe`] the batcher has no service estimate
    /// and plays it safe with a batch of one, which doubles as the
    /// measurement probe.
    /// Under SLO pressure (see [`AdaptiveBatcher::set_pressure`]) the
    /// curve is clipped: `Critical` always returns 1, `Degraded` fits the
    /// batch into half the headroom.
    pub fn pick_batch(&self, queue_depth: usize) -> usize {
        if self.pressure == HealthState::Critical {
            return 1;
        }
        let ceiling = self.max_batch.min(queue_depth.max(1));
        let service = match self.service {
            None => return 1,
            Some(service) if service.is_zero() => return ceiling,
            Some(service) => service,
        };
        if self.slo <= self.crossing + service {
            return 1;
        }
        let full = self.slo - self.crossing;
        let headroom = match self.pressure {
            HealthState::Degraded => full / 2,
            _ => full,
        };
        let fit = (headroom.as_nanos() / service.as_nanos()) as usize;
        fit.clamp(1, ceiling)
    }
}

/// The per-crossing batch policy of a secure pipeline: a fixed batch
/// size, or an [`AdaptiveBatcher`] against a latency SLO, optionally
/// steered by a [`PressureMonitor`] — the observability→control loop of
/// the health plane.
#[derive(Debug, Clone)]
pub struct BatchControl {
    fixed: usize,
    batcher: Option<AdaptiveBatcher>,
    pressure: Option<PressureMonitor>,
}

impl BatchControl {
    /// Batches of `fixed_batch` windows, unless `latency_slo` is set: then
    /// an adaptive batcher over `cost` picks them, its curve clipped by
    /// `slo_pressure` (inert without a batcher to steer).
    pub fn new(
        cost: &CostModel,
        fixed_batch: usize,
        latency_slo: Option<SimDuration>,
        slo_pressure: Option<SloSpec>,
    ) -> Self {
        let batcher = latency_slo.map(|slo| AdaptiveBatcher::new(cost, slo, 64));
        let pressure = slo_pressure
            .filter(|_| batcher.is_some())
            .map(PressureMonitor::for_spec);
        BatchControl {
            fixed: fixed_batch.max(1),
            batcher,
            pressure,
        }
    }

    /// The pressure monitor's current verdict, when one is wired.
    pub fn pressure_state(&self) -> Option<HealthState> {
        self.pressure.as_ref().map(PressureMonitor::state)
    }

    /// The next crossing's batch size, never more than `remaining`.
    pub fn next_batch(&self, remaining: usize) -> usize {
        match &self.batcher {
            Some(batcher) => batcher.pick_batch(remaining),
            None => self.fixed,
        }
        .min(remaining)
    }

    /// Feeds one finished crossing back: its filter step carried
    /// `windows` windows from `started` to `now` (each caller's own clock)
    /// into `filtered`. Returns whether the relay is backlogged, which
    /// the caller drains after the scenario's last crossing — so a clean
    /// finish pays no extra TEE crossing.
    pub fn observe(
        &mut self,
        filtered: &FilteredBatch,
        windows: usize,
        started: SimInstant,
        now: SimInstant,
    ) -> bool {
        let backlog = filtered.backlog > 0;
        if let Some(batcher) = &mut self.batcher {
            if !filtered.per_utterance.is_empty() {
                let mean = filtered.per_utterance.iter().copied().sum::<SimDuration>()
                    / filtered.per_utterance.len() as u64;
                batcher.observe(mean);
            }
            // Pressure judges the per-window share of the whole crossing:
            // TA service, injected degradation, cross-core imbalance.
            if let Some(pressure) = &mut self.pressure {
                pressure.observe(now.duration_since(started) / windows.max(1) as u64);
                batcher.set_pressure(pressure.advance(now));
            }
            // Relay backlog overrides any SLO verdict: the TA's bounded
            // unacked buffer is backing up, so fall to single-window
            // probes until the network drains it.
            if backlog {
                batcher.set_pressure(HealthState::Critical);
            }
        }
        backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(slo_us: u64) -> AdaptiveBatcher {
        AdaptiveBatcher::new(
            &CostModel::jetson_agx_xavier(),
            SimDuration::from_micros(slo_us),
            64,
        )
    }

    #[test]
    fn first_batch_is_a_probe() {
        let b = batcher(10_000);
        assert_eq!(b.pick_batch(32), 1);
        assert_eq!(b.service_estimate(), SimDuration::ZERO);
    }

    #[test]
    fn batch_grows_with_slo_and_shrinks_with_service_time() {
        let mut b = batcher(1_000);
        b.observe(SimDuration::from_micros(50));
        let at_1ms = b.pick_batch(64);
        assert!(at_1ms > 1);

        let mut generous = batcher(5_000);
        generous.observe(SimDuration::from_micros(50));
        assert!(generous.pick_batch(64) > at_1ms);

        // Slower service under the same SLO means smaller batches.
        let mut slow = batcher(1_000);
        slow.observe(SimDuration::from_micros(400));
        assert!(slow.pick_batch(64) < at_1ms);
    }

    #[test]
    fn batch_never_exceeds_queue_depth_or_cap() {
        let mut b = AdaptiveBatcher::new(
            &CostModel::jetson_agx_xavier(),
            SimDuration::from_secs(1),
            8,
        );
        b.observe(SimDuration::from_micros(1));
        assert_eq!(b.pick_batch(3), 3);
        assert_eq!(b.pick_batch(100), 8);
        assert_eq!(b.pick_batch(0), 1);
    }

    #[test]
    fn unattainable_slo_degrades_to_single_windows() {
        // The crossing overhead alone exceeds a 1 µs SLO.
        let mut b = batcher(1);
        b.observe(SimDuration::from_micros(100));
        assert_eq!(b.pick_batch(64), 1);
    }

    #[test]
    fn ewma_tracks_service_drift() {
        let mut b = batcher(1_000);
        b.observe(SimDuration::from_micros(100));
        assert_eq!(b.service_estimate(), SimDuration::from_micros(100));
        b.observe(SimDuration::from_micros(200));
        // (3*100 + 200) / 4 = 125 µs.
        assert_eq!(b.service_estimate(), SimDuration::from_micros(125));
    }

    #[test]
    fn slo_pressure_clips_the_batch_curve() {
        let mut b = batcher(5_000);
        b.observe(SimDuration::from_micros(50));
        assert_eq!(b.pressure(), HealthState::Healthy);
        let healthy = b.pick_batch(64);
        assert!(healthy > 2);
        // Degraded pressure halves the headroom, so the batch roughly
        // halves; Critical falls back to single-window probes.
        b.set_pressure(HealthState::Degraded);
        let degraded = b.pick_batch(64);
        assert!(
            degraded < healthy,
            "degraded {degraded} vs healthy {healthy}"
        );
        assert!(degraded >= 1);
        b.set_pressure(HealthState::Critical);
        assert_eq!(b.pick_batch(64), 1);
        // Recovery restores the pure curve exactly.
        b.set_pressure(HealthState::Healthy);
        assert_eq!(b.pick_batch(64), healthy);
    }

    #[test]
    fn crossing_overhead_reflects_the_cost_model() {
        let jetson = AdaptiveBatcher::crossing_overhead(&CostModel::jetson_agx_xavier());
        let quad = AdaptiveBatcher::crossing_overhead(&CostModel::iot_quad_node());
        assert!(quad > jetson);
    }
}

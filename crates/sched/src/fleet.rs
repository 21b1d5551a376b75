//! The sharded fleet harness.
//!
//! [`ShardedFleet`] is the scheduler-aware sibling of
//! [`perisec_core::fleet::PipelineFleet`]: it consumes the very same
//! [`FleetConfig`] — including the `tee_cores` knob PipelineFleet rejects
//! above 1 — and runs every camera device as a
//! [`ShardedVisionPipeline`] over its own secure-core pool. Everything
//! else is the core fleet's path: the shared model set, scenario
//! validation, per-device configs ([`FleetConfig::queue`]), the
//! single-session audio devices, the bounded executor and the merged
//! [`FleetReport`] — so sharded and unsharded fleets are compared with
//! identical instruments.
//!
//! Every [`FleetConfig`] field is honoured or rejected: faults are salted
//! per device, sharded cameras included; an ingest plane serves audio
//! devices only; the telemetry and health planes are rejected, as a
//! sharded fleet returns neither.

use std::sync::Arc;

use perisec_core::executor::{
    run_thread_per_device, DeviceTask, ExecutorConfig, ExecutorStats, FleetExecutor, QueuedDevice,
    StepOutcome,
};
use perisec_core::fleet::{device_task, DeviceReport, FleetConfig, FleetReport, Modality};
use perisec_core::pipeline::{Audio, Camera, SharedModels};
use perisec_core::{CoreError, Result};
use perisec_workload::scenario::{CameraScenario, Scenario};

use crate::pipeline::{ShardedCameraConfig, ShardedScenarioProgress, ShardedVisionPipeline};
use crate::pool::TeePoolConfig;

/// A fleet whose camera devices each run on a multi-core TEE pool.
#[derive(Debug, Clone)]
pub struct ShardedFleet {
    config: FleetConfig,
    models: SharedModels,
}

/// The resumable sharded-camera state machine: a built
/// [`ShardedVisionPipeline`] plus a scenario cursor; each step is one
/// fanned TEE crossing.
struct ShardedCameraTask {
    device: usize,
    scenario: Arc<CameraScenario>,
    pipeline: ShardedVisionPipeline,
    progress: Option<ShardedScenarioProgress>,
}

impl DeviceTask for ShardedCameraTask {
    fn step(&mut self) -> Result<StepOutcome> {
        let mut progress = self.progress.take().expect("task stepped after completion");
        if self.pipeline.step_scenario(&self.scenario, &mut progress)? {
            self.progress = Some(progress);
            return Ok(StepOutcome::Yielded);
        }
        let run = self.pipeline.finish_scenario(&self.scenario, progress);
        Ok(StepOutcome::Complete(Box::new(DeviceReport {
            device: self.device,
            modality: Modality::Camera,
            scenario: self.scenario.name.clone(),
            report: run.report,
        })))
    }
}

impl ShardedFleet {
    /// Builds the fleet, training the shared model set once (lazily per
    /// modality, exactly as [`perisec_core::fleet::PipelineFleet`] does).
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for an empty fleet, for `tee_cores == 0`,
    /// for sharding requested on the single-core constrained platform, or
    /// for a fleet setting a sharded fleet cannot honour (see the module
    /// docs); ML training failures propagate.
    pub fn new(config: FleetConfig) -> Result<Self> {
        ShardedFleet::validate(&config)?;
        let models = config.shared_models()?;
        Ok(ShardedFleet { config, models })
    }

    /// Builds the fleet around an existing model set.
    ///
    /// # Errors
    ///
    /// Same validation as [`ShardedFleet::new`], without training.
    pub fn with_models(config: FleetConfig, models: SharedModels) -> Result<Self> {
        ShardedFleet::validate(&config)?;
        let models = config.adopt_models(models);
        Ok(ShardedFleet { config, models })
    }

    fn validate(config: &FleetConfig) -> Result<()> {
        config.require_devices()?;
        let reason = if config.tee_cores == 0 {
            "sharded fleet needs at least one tee core per camera device"
        } else if config.camera_pipeline.constrained_platform && config.tee_cores > 1 {
            "the constrained platform has a single core; it cannot host a multi-core TEE pool"
        } else if config.telemetry.enabled
            || config.health.is_some()
            || !config.trace_devices.is_empty()
        {
            "a sharded fleet returns neither telemetry nor a health report; run the \
             telemetry and health planes on PipelineFleet"
        } else if config.ingest.is_some() && config.camera_devices > 0 {
            "sharded camera devices relay to their own cloud, not through an ingest plane"
        } else {
            return Ok(());
        };
        Err(CoreError::Config {
            reason: reason.to_owned(),
        })
    }

    /// The per-camera-device pool configuration this fleet implies: the
    /// constrained MCU when the camera config asks for it (validated to
    /// imply `tee_cores == 1`), the Jetson-class pool otherwise.
    fn pool_config(&self) -> TeePoolConfig {
        let mut pool = if self.config.camera_pipeline.constrained_platform {
            TeePoolConfig::constrained_mcu()
        } else {
            TeePoolConfig::jetson(self.config.tee_cores)
        };
        pool.secure_ram_kib = self.config.camera_pipeline.secure_ram_kib;
        pool
    }

    /// The shared model set.
    pub fn models(&self) -> &SharedModels {
        &self.models
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs a mixed fleet: audio devices replay `audio` scenarios on
    /// single-session pipelines; camera devices replay `cameras` scene
    /// schedules, each sharded across `tee_cores` TA sessions; all
    /// multiplexed onto `FleetConfig::workers` executor threads. Audio
    /// devices come first in the merged report.
    ///
    /// # Errors
    ///
    /// Returns the first device failure, or [`CoreError::Config`] when a
    /// modality's devices and scenarios disagree (the same loud-mismatch
    /// contract as the unsharded fleet).
    pub fn run_mixed(&self, audio: &[Scenario], cameras: &[CameraScenario]) -> Result<FleetReport> {
        self.run_mixed_stats(audio, cameras)
            .map(|(report, _)| report)
    }

    /// [`ShardedFleet::run_mixed`], also returning the executor's
    /// host-side telemetry.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedFleet::run_mixed`].
    pub fn run_mixed_stats(
        &self,
        audio: &[Scenario],
        cameras: &[CameraScenario],
    ) -> Result<(FleetReport, ExecutorStats)> {
        let executor = FleetExecutor::new(ExecutorConfig::with_workers(self.config.workers));
        let (reports, stats) = executor.run(self.queued_devices(audio, cameras)?)?;
        Ok((FleetReport::new(reports), stats))
    }

    /// The historical one-thread-per-device harness, kept as the
    /// executor's baseline (shared helper with the unsharded fleet).
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedFleet::run_mixed`].
    pub fn run_mixed_threaded(
        &self,
        audio: &[Scenario],
        cameras: &[CameraScenario],
    ) -> Result<FleetReport> {
        run_thread_per_device(self.queued_devices(audio, cameras)?).map(FleetReport::new)
    }

    /// Validates the scenarios and queues the fleet's devices on the core
    /// fleet's path; only camera devices get their own task, built lazily
    /// like every queued device.
    fn queued_devices(
        &self,
        audio: &[Scenario],
        cameras: &[CameraScenario],
    ) -> Result<Vec<QueuedDevice>> {
        self.config.validate_scenarios(audio, cameras)?;
        let mut tasks = self
            .config
            .queue::<Audio>(audio, |device, scenario, config| {
                device_task::<Audio>(device, scenario, config, self.models.clone(), None, None)
            });
        let pool = self.pool_config();
        tasks.extend(
            self.config
                .queue::<Camera>(cameras, |device, scenario, camera| {
                    let config = ShardedCameraConfig {
                        camera,
                        pool: pool.clone(),
                        ..ShardedCameraConfig::default()
                    };
                    let models = self.models.clone();
                    QueuedDevice::new(device, move || {
                        let mut pipeline = ShardedVisionPipeline::with_models(config, &models)?;
                        let progress = Some(pipeline.begin_scenario());
                        Ok(Box::new(ShardedCameraTask {
                            device,
                            scenario,
                            pipeline,
                            progress,
                        }))
                    })
                }),
        );
        Ok(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perisec_core::pipeline::CameraPipelineConfig;
    use perisec_tz::time::SimDuration;

    #[test]
    fn sharded_fleet_rejects_degenerate_configs() {
        assert!(ShardedFleet::new(FleetConfig {
            devices: 0,
            camera_devices: 0,
            ..FleetConfig::of(0)
        })
        .is_err());
        assert!(ShardedFleet::new(FleetConfig {
            camera_devices: 1,
            tee_cores: 0,
            ..FleetConfig::of(0)
        })
        .is_err());
        assert!(ShardedFleet::new(FleetConfig {
            camera_devices: 1,
            tee_cores: 2,
            camera_pipeline: CameraPipelineConfig {
                constrained_platform: true,
                ..CameraPipelineConfig::default()
            },
            ..FleetConfig::of(0)
        })
        .is_err());
    }

    #[test]
    fn constrained_camera_fleet_runs_on_the_constrained_pool() {
        use perisec_core::pipeline::SharedModels;
        use perisec_ml::classifier::Architecture;
        let models = SharedModels::deferred(Architecture::Cnn, 16, 0xC0).with_vision_spec(96, 0xC0);
        let config = |constrained: bool| FleetConfig {
            devices: 0,
            camera_devices: 1,
            tee_cores: 1,
            camera_pipeline: CameraPipelineConfig {
                constrained_platform: constrained,
                batch_windows: 2,
                ..CameraPipelineConfig::default()
            },
            ..FleetConfig::of(0)
        };
        let cameras = CameraScenario::fleet_cameras(1, 6, 0.4, SimDuration::from_secs(1), 0xC0);
        let constrained = ShardedFleet::with_models(config(true), models.clone())
            .unwrap()
            .run_mixed(&[], &cameras)
            .unwrap();
        let jetson = ShardedFleet::with_models(config(false), models)
            .unwrap()
            .run_mixed(&[], &cameras)
            .unwrap();
        // The MCU's cost model is an order of magnitude slower — if the
        // constrained flag were silently dropped the latencies would match
        // the Jetson run instead.
        assert!(constrained.mean_end_to_end() > jetson.mean_end_to_end() * 3);
        assert_eq!(constrained.leaked_sensitive_utterances(), 0);
    }

    #[test]
    fn camera_fleet_shards_each_device_across_cores() {
        let fleet = ShardedFleet::new(FleetConfig {
            devices: 0,
            camera_devices: 2,
            tee_cores: 2,
            camera_pipeline: CameraPipelineConfig {
                batch_windows: 4,
                ..CameraPipelineConfig::default()
            },
            ..FleetConfig::of(0)
        })
        .unwrap();
        let cameras = CameraScenario::fleet_cameras(2, 8, 0.4, SimDuration::from_secs(1), 0x5F1EE7);
        let (report, stats) = fleet.run_mixed_stats(&[], &cameras).unwrap();
        assert_eq!(report.device_count_of(Modality::Camera), 2);
        assert_eq!(report.total_utterances(), 16);
        assert_eq!(report.leaked_sensitive_utterances(), 0);
        assert!(
            report.total_smc_calls() >= 4,
            "both shards of both devices entered"
        );
        assert!(report.latency_percentiles().p99 > SimDuration::ZERO);
        // The executor bounded residency for sharded devices too.
        assert!(stats.peak_resident <= stats.workers);
        // Scenario-vs-device mismatches stay loud.
        assert!(fleet.run_mixed(&[], &[]).is_err());
        let audio = Scenario::fleet(1, 2, 0.5, SimDuration::from_secs(1), 1);
        assert!(fleet.run_mixed(&audio, &cameras).is_err());
        assert!(fleet.run_mixed_threaded(&audio, &cameras).is_err());
    }

    #[test]
    fn executor_and_threaded_sharded_fleets_agree() {
        use perisec_core::pipeline::SharedModels;
        use perisec_ml::classifier::Architecture;
        let models =
            SharedModels::deferred(Architecture::Cnn, 16, 0x5EED).with_vision_spec(96, 0x5EED);
        let fleet = ShardedFleet::with_models(
            FleetConfig {
                devices: 0,
                camera_devices: 3,
                tee_cores: 2,
                workers: 2,
                camera_pipeline: CameraPipelineConfig {
                    batch_windows: 4,
                    ..CameraPipelineConfig::default()
                },
                ..FleetConfig::of(0)
            },
            models,
        )
        .unwrap();
        let cameras = CameraScenario::fleet_cameras(3, 6, 0.4, SimDuration::from_secs(1), 0x5EED);
        let pooled = fleet.run_mixed(&[], &cameras).unwrap();
        let threaded = fleet.run_mixed_threaded(&[], &cameras).unwrap();
        assert_eq!(pooled.to_json(), threaded.to_json());
    }

    /// The E20 chaos-drill link.
    fn e20_faults() -> perisec_relay::netsim::FaultSpec {
        perisec_relay::netsim::FaultSpec {
            drop_permille: 100,
            duplicate_permille: 60,
            reorder_permille: 40,
            corrupt_permille: 40,
            outage: Some((2, 6)),
            ..perisec_relay::netsim::FaultSpec::none(0xE20)
        }
    }

    fn audio_fleet(faults: Option<perisec_relay::netsim::FaultSpec>) -> FleetConfig {
        FleetConfig {
            devices: 2,
            pipeline: perisec_core::pipeline::PipelineConfig {
                train_utterances: 30,
                ..perisec_core::pipeline::PipelineConfig::default()
            },
            faults,
            ..FleetConfig::of(0)
        }
    }

    #[test]
    fn fleet_faults_reach_every_device() {
        use perisec_core::fleet::PipelineFleet;
        let config = audio_fleet(Some(e20_faults()));
        let models = config.shared_models().unwrap();
        let audio = Scenario::fleet(2, 8, 0.5, SimDuration::from_millis(500), 0xE20);
        let sharded = ShardedFleet::with_models(config.clone(), models.clone())
            .unwrap()
            .run_mixed(&audio, &[])
            .unwrap();
        // The chaos reached the devices, salted per device exactly as on
        // the unsharded fleet: the audio devices' reports are identical.
        assert!(sharded.total_redelivered_records() + sharded.total_rejected_records() > 0);
        let unsharded = PipelineFleet::with_models(config, models.clone())
            .run(&audio)
            .unwrap();
        assert_eq!(sharded.to_json(), unsharded.to_json());

        // Sharded cameras get the salted spec too: chaos costs the relay
        // retries, so the report moves while the decisions do not.
        let camera_fleet = |faults| FleetConfig {
            devices: 0,
            camera_devices: 2,
            tee_cores: 2,
            faults,
            ..FleetConfig::of(0)
        };
        let cameras =
            CameraScenario::fleet_cameras(2, 8, 0.5, SimDuration::from_millis(200), 0xE20);
        let run = |faults| {
            ShardedFleet::with_models(camera_fleet(faults), models.clone())
                .unwrap()
                .run_mixed(&[], &cameras)
                .unwrap()
        };
        let (clean, chaotic) = (run(None), run(Some(e20_faults())));
        assert!(chaotic.total_redelivered_records() + chaotic.total_rejected_records() > 0);
        // Each shard commits in its own order, so chaos may interleave
        // the shards differently — but every device's decisions survive.
        for (a, b) in clean.devices().iter().zip(chaotic.devices()) {
            let (a, b) = (&a.report.cloud.report, &b.report.cloud.report);
            assert_eq!(a.events.len(), b.events.len());
            assert_eq!(a.received_dialog_ids(), b.received_dialog_ids());
        }
    }

    #[test]
    fn ingest_routed_audio_devices_commit_through_the_plane() {
        use perisec_ingest::{IngestPlane, IngestPlaneConfig};
        let config = audio_fleet(None);
        let models = config.shared_models().unwrap();
        let plane = IngestPlane::new(IngestPlaneConfig::new(1, 2).accepting(vec![
            perisec_relay::measurement_of(perisec_core::FILTER_TA_NAME),
        ]));
        let audio = Scenario::fleet(2, 4, 0.0, SimDuration::from_secs(1), 0x1E5);
        let report = ShardedFleet::with_models(
            FleetConfig {
                ingest: Some(Arc::clone(&plane) as _),
                ..config
            },
            models,
        )
        .unwrap()
        .run_mixed(&audio, &[])
        .unwrap();
        // Every device attested and its records were committed by the
        // plane — none went to a private mock cloud.
        assert_eq!(plane.counters().attest_grants, 2);
        assert!(plane.total_committed() > 0);
        let reported: usize = report
            .devices()
            .iter()
            .map(|d| d.report.cloud.report.events.len())
            .sum();
        assert_eq!(plane.total_committed(), reported as u64);
    }

    #[test]
    fn unsupported_fleet_settings_are_rejected() {
        use perisec_ingest::{IngestPlane, IngestPlaneConfig};
        use perisec_telemetry::{HealthConfig, TelemetryConfig};
        let cameras = FleetConfig {
            devices: 0,
            camera_devices: 1,
            tee_cores: 2,
            ..FleetConfig::of(0)
        };
        let rejected = [
            FleetConfig {
                telemetry: TelemetryConfig::metrics(),
                ..cameras.clone()
            },
            FleetConfig {
                health: Some(HealthConfig::with_window(SimDuration::from_secs(1))),
                ..cameras.clone()
            },
            FleetConfig {
                trace_devices: [0].into(),
                ..cameras.clone()
            },
            FleetConfig {
                ingest: Some(IngestPlane::new(IngestPlaneConfig::new(1, 1)) as _),
                ..cameras.clone()
            },
        ];
        for config in rejected {
            assert!(matches!(
                ShardedFleet::new(config),
                Err(CoreError::Config { .. })
            ));
        }
    }
}

//! Golden report hashes: the FNV-1a-64 of `FleetReport::to_json()` for
//! every device path the pipelines, device tasks and fleet runners take,
//! pinned at 1 and 2 executor workers.
//!
//! The hashes were recorded before the pipeline twins were folded into
//! one generic device, so a refactor that changes a single report byte —
//! a latency, a TEE counter, an energy figure, a cloud event — fails
//! here. A deliberate behaviour change must re-record them and say so.

use std::sync::{Arc, OnceLock};

use perisec::core::fleet::{DeviceReport, FleetConfig, FleetReport, Modality, PipelineFleet};
use perisec::core::pipeline::{
    CameraPipelineConfig, DegradeSpec, PipelineConfig, SecureCameraPipeline, SharedModels,
};
use perisec::core::{FILTER_TA_NAME, VISION_TA_NAME};
use perisec::ingest::{IngestPlane, IngestPlaneConfig, ShardFaultSpec};
use perisec::ml::classifier::Architecture;
use perisec::relay::measurement_of;
use perisec::relay::netsim::FaultSpec;
use perisec::sched::pipeline::{ShardedCameraConfig, ShardedVisionPipeline};
use perisec::sched::pool::TeePoolConfig;
use perisec::sched::ShardedFleet;
use perisec::telemetry::{HealthState, SloSpec};
use perisec::tz::time::SimDuration;
use perisec::workload::scenario::{CameraScenario, Scenario};

const TRAIN_UTTERANCES: usize = 40;
const TRAIN_FRAMES: usize = 48;
const MODEL_SEED: u64 = 0x601D;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn report_hash(report: &FleetReport) -> String {
    format!("{:016x}", fnv1a(report.to_json().as_bytes()))
}

/// One model set for every case: both modalities train once per test
/// binary, with the spec every config below repeats.
fn models() -> SharedModels {
    static MODELS: OnceLock<SharedModels> = OnceLock::new();
    MODELS
        .get_or_init(|| {
            SharedModels::deferred(Architecture::Cnn, TRAIN_UTTERANCES, MODEL_SEED)
                .with_vision_spec(TRAIN_FRAMES, MODEL_SEED)
        })
        .clone()
}

fn audio_config() -> PipelineConfig {
    PipelineConfig {
        train_utterances: TRAIN_UTTERANCES,
        corpus_seed: MODEL_SEED,
        batch_windows: 2,
        ..PipelineConfig::default()
    }
}

fn camera_config() -> CameraPipelineConfig {
    CameraPipelineConfig {
        train_frames: TRAIN_FRAMES,
        corpus_seed: MODEL_SEED,
        batch_windows: 2,
        ..CameraPipelineConfig::default()
    }
}

fn degrade() -> Option<DegradeSpec> {
    Some(DegradeSpec {
        after: SimDuration::from_secs(1),
        per_window: SimDuration::from_millis(7),
    })
}

/// The base of every fleet case. Each fleet applies its camera config's
/// training spec to the shared model set, so every case carries the same
/// camera spec — whichever case trains the frame classifier first, it
/// trains the same weights.
fn fleet(workers: usize) -> FleetConfig {
    FleetConfig {
        camera_pipeline: camera_config(),
        workers,
        ..FleetConfig::of(0)
    }
}

/// The E20 chaos-drill link.
fn e20_faults() -> FaultSpec {
    FaultSpec {
        drop_permille: 100,
        duplicate_permille: 60,
        reorder_permille: 40,
        corrupt_permille: 40,
        outage: Some((2, 6)),
        ..FaultSpec::none(0xE20)
    }
}

fn audio_scenarios(devices: usize, seed: u64) -> Vec<Scenario> {
    Scenario::fleet(devices, 10, 0.5, SimDuration::from_millis(200), seed)
}

fn camera_scenarios(devices: usize, seed: u64) -> Vec<CameraScenario> {
    CameraScenario::fleet_cameras(devices, 6, 0.5, SimDuration::from_millis(400), seed)
}

/// Runs `run` at 1 and 2 workers and checks both hashes against `golden`.
fn assert_golden(golden: &str, run: impl Fn(usize) -> FleetReport) {
    for workers in [1usize, 2] {
        let hash = report_hash(&run(workers));
        assert_eq!(hash, golden, "report hash at {workers} workers");
    }
}

#[test]
fn audio_fleet_with_slo_pressure_and_degradation() {
    let scenarios = audio_scenarios(2, 0x601);
    assert_golden("7177af0ab95af735", |workers| {
        let config = FleetConfig {
            devices: 2,
            pipeline: PipelineConfig {
                latency_slo: Some(SimDuration::from_millis(10)),
                slo_pressure: Some(SloSpec::p95("service", SimDuration::from_millis(2))),
                degrade: degrade(),
                ..audio_config()
            },
            ..fleet(workers)
        };
        let report = PipelineFleet::with_models(config, models())
            .run(&scenarios)
            .unwrap();
        // The pressure loop really clipped the batcher: more crossings
        // than the fixed batch of two would pay.
        assert!(report.total_smc_calls() > 10);
        report
    });
}

#[test]
fn camera_fleet_with_degradation() {
    let cameras = camera_scenarios(2, 0x602);
    assert_golden("1c805b5b3df18b83", |workers| {
        let config = FleetConfig {
            camera_devices: 2,
            camera_pipeline: CameraPipelineConfig {
                degrade: degrade(),
                ..camera_config()
            },
            ..fleet(workers)
        };
        PipelineFleet::with_models(config, models())
            .run_mixed(&[], &cameras)
            .unwrap()
    });
}

#[test]
fn mixed_fleet_under_chaos_through_a_crashing_plane() {
    let audio = Scenario::fleet(2, 8, 0.5, SimDuration::from_millis(500), 0x603);
    let cameras = CameraScenario::fleet_cameras(1, 8, 0.5, SimDuration::from_millis(500), 0x603);
    assert_golden("e4d8eb2835c24898", |workers| {
        // A fresh plane per run: sessions, journals and dedup state must
        // not carry over.
        let plane = IngestPlane::new(
            IngestPlaneConfig::new(2, 3)
                .accepting(vec![
                    measurement_of(FILTER_TA_NAME),
                    measurement_of(VISION_TA_NAME),
                ])
                .with_faults(ShardFaultSpec::single(7, 1_500_000_000, 150_000_000)),
        );
        let config = FleetConfig {
            devices: 2,
            pipeline: PipelineConfig {
                batch_windows: 1,
                ..audio_config()
            },
            camera_devices: 1,
            camera_pipeline: CameraPipelineConfig {
                batch_windows: 1,
                ..camera_config()
            },
            faults: Some(e20_faults()),
            ingest: Some(Arc::clone(&plane) as _),
            ..fleet(workers)
        };
        let report = PipelineFleet::with_models(config, models())
            .run_mixed(&audio, &cameras)
            .unwrap();
        // Both chaos planes fired: the link redelivered or corrupted
        // records, and a restarted shard fenced a stale epoch.
        assert!(report.total_redelivered_records() + report.total_rejected_records() > 0);
        assert!(plane.counters().stale_epoch_rejects > 0);
        report
    });
}

#[test]
fn sharded_camera_fleet() {
    let cameras = camera_scenarios(2, 0x604);
    assert_golden("77b682a80452f330", |workers| {
        let config = FleetConfig {
            camera_devices: 2,
            tee_cores: 2,
            ..fleet(workers)
        };
        ShardedFleet::with_models(config, models())
            .unwrap()
            .run_mixed(&[], &cameras)
            .unwrap()
    });
}

#[test]
fn sharded_pipeline_with_slo_pressure_and_work_stealing() {
    let scenario = CameraScenario::ragged_high_fps(16, 1, 16, 96_000, 0.4, 0x605);
    let mut pipeline = ShardedVisionPipeline::with_models(
        ShardedCameraConfig {
            camera: camera_config(),
            pool: TeePoolConfig::jetson(2),
            latency_slo: Some(SimDuration::from_millis(5)),
            slo_pressure: Some(SloSpec::p95("shard.filter", SimDuration::from_micros(50))),
            work_stealing: true,
            ..ShardedCameraConfig::default()
        },
        &models(),
    )
    .unwrap();
    let run = pipeline.run_scenario(&scenario).unwrap();
    assert!(run.stolen_windows > 0);
    assert_eq!(pipeline.pressure_state(), Some(HealthState::Degraded));
    let report = FleetReport::new(vec![DeviceReport {
        device: 0,
        modality: Modality::Camera,
        scenario: scenario.name.clone(),
        report: run.report,
    }]);
    assert_eq!(report_hash(&report), "908c71cde41d6038");
}

#[test]
fn self_trained_camera_pipeline() {
    let scenario = CameraScenario::mixed_scenes(6, 0.5, SimDuration::from_millis(300), 0x606);
    let mut pipeline = SecureCameraPipeline::new(camera_config()).unwrap();
    let report = FleetReport::new(vec![DeviceReport {
        device: 0,
        modality: Modality::Camera,
        scenario: scenario.name.clone(),
        report: pipeline.run_scenario(&scenario).unwrap(),
    }]);
    assert_eq!(report_hash(&report), "a355d8487f4c5e48");
}

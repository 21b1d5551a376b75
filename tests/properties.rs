//! Property-based tests over cross-crate invariants.

use proptest::prelude::*;

use std::sync::OnceLock;

use perisec::core::filter_ta::{
    decode_batch_request, decode_batch_verdicts, encode_batch_request, encode_batch_verdicts,
};
use perisec::core::policy::FilterDecision;
use perisec::core::stage::WindowVerdict;
use perisec::devices::codec::{bytes_to_pcm, mulaw_decode, mulaw_encode, pcm_to_bytes};
use perisec::ml::classifier::{Architecture, TrainConfig};
use perisec::ml::int8::{QuantFrameCnn, QuantSensitiveClassifier};
use perisec::ml::plan::FeaturePlan;
use perisec::ml::vision::{FrameCnn, VisionConfig};
use perisec::ml::SensitiveClassifier;
use perisec::optee::crypto::{aead_open, aead_seal, nonce_from_sequence};
use perisec::optee::TeeError;
use perisec::relay::attest::{
    decode_attest_request, decode_ingest_record, encode_attest_request, encode_ingest_record,
};
use perisec::relay::avs::AvsEvent;
use perisec::relay::netsim::NetworkService;
use perisec::relay::{
    AvsDirective, IngestReply, MockCloudService, RelayError, SecureChannelClient,
    SecureChannelServer, MEASUREMENT_LEN, PSK_LEN,
};
use perisec::sched::scheduler::SessionScheduler;
use perisec::sched::stage::merge_verdicts;
use perisec::secure_driver::camera::FrameWindowCapture;
use perisec::secure_driver::camera_pta::{
    decode_frame_windows_reply, decode_frames_request, encode_frame_windows_reply,
    encode_frames_request,
};
use perisec::secure_driver::driver::{SecureCaptureReport, WindowCapture};
use perisec::secure_driver::pta::{
    decode_windows_reply, decode_windows_request, encode_windows_reply, encode_windows_request,
};
use perisec::secure_driver::SecureFrameReport;
use perisec::tz::secure_mem::SecureRam;
use perisec::tz::stats::TzStats;
use perisec::tz::time::SimDuration;
use perisec::workload::corpus::CorpusGenerator;
use perisec::workload::vocab::Vocabulary;

/// Decodes one drawn `u64` into a verdict (the vendored proptest has no
/// tuple/map strategies; deriving the fields from independent bit ranges
/// of one draw covers the same space).
fn verdict_from_seed(seed: u64) -> WindowVerdict {
    WindowVerdict {
        dialog_id: seed % 32,
        decision: match (seed >> 8) % 3 {
            0 => FilterDecision::Forward,
            1 => FilterDecision::ForwardRedacted,
            _ => FilterDecision::Drop,
        },
        probability_milli: ((seed >> 16) % 1001) as u16,
    }
}

/// One trained CNN classifier plus its int8 deployment form, shared by
/// every proptest case (training once keeps the property fast).
fn quant_pair() -> &'static (SensitiveClassifier, QuantSensitiveClassifier) {
    static PAIR: OnceLock<(SensitiveClassifier, QuantSensitiveClassifier)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let vocabulary = Vocabulary::smart_home();
        let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, 0x18A7);
        let corpus = generator.generate(200);
        let examples: Vec<(Vec<usize>, bool)> = corpus
            .iter()
            .map(|u| (u.tokens.clone(), u.sensitive))
            .collect();
        let mut classifier =
            SensitiveClassifier::new(Architecture::Cnn, TrainConfig::small(vocabulary.len()));
        classifier.fit(&examples).expect("classifier trains");
        let int8 = QuantSensitiveClassifier::from_trained(&classifier).expect("cnn quantizes");
        (classifier, int8)
    })
}

/// One trained frame classifier plus its int8 form.
fn vision_quant_pair() -> &'static (FrameCnn, QuantFrameCnn) {
    static PAIR: OnceLock<(FrameCnn, QuantFrameCnn)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let config = VisionConfig::smart_home();
        let examples: Vec<(Vec<u8>, bool)> = (0..80)
            .map(|i| {
                let sensitive = i % 2 == 0;
                let pixels: Vec<u8> = (0..config.width * config.height)
                    .map(|idx| {
                        let y = idx / config.width;
                        if sensitive {
                            if (y + i) % 4 < 2 {
                                225
                            } else {
                                45
                            }
                        } else {
                            115 + ((idx * 11 + i) % 12) as u8
                        }
                    })
                    .collect();
                (pixels, sensitive)
            })
            .collect();
        let mut cnn = FrameCnn::new(config);
        cnn.fit(&examples).expect("frame cnn trains");
        let int8 = QuantFrameCnn::from_trained(&cnn).expect("frame cnn quantizes");
        (cnn, int8)
    })
}

proptest! {
    /// PCM <-> little-endian byte encoding is lossless for any sample set.
    #[test]
    fn pcm_byte_round_trip(samples in proptest::collection::vec(any::<i16>(), 0..2048)) {
        prop_assert_eq!(bytes_to_pcm(&pcm_to_bytes(&samples)), samples);
    }

    /// µ-law companding bounds the relative error for every sample value.
    #[test]
    fn mulaw_error_is_bounded(samples in proptest::collection::vec(any::<i16>(), 1..512)) {
        let decoded = mulaw_decode(&mulaw_encode(&samples));
        for (&original, &restored) in samples.iter().zip(decoded.iter()) {
            let err = (original as i32 - restored as i32).abs();
            prop_assert!(err <= original.unsigned_abs() as i32 / 8 + 132,
                "sample {original} decoded to {restored}");
        }
    }

    /// The AEAD used by secure storage and the relay round-trips any
    /// payload and any associated data.
    #[test]
    fn aead_round_trip(
        payload in proptest::collection::vec(any::<u8>(), 0..1024),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        key_byte in any::<u8>(),
        sequence in any::<u64>(),
    ) {
        let key = [key_byte; 32];
        let nonce = nonce_from_sequence(sequence);
        let sealed = aead_seal(&key, &nonce, &aad, &payload);
        prop_assert_eq!(aead_open(&key, &nonce, &aad, &sealed).unwrap(), payload);
    }

    /// The secure-RAM allocator never leaks: after dropping every buffer the
    /// pool is back to empty, and it never hands out overlapping addresses.
    #[test]
    fn secure_ram_alloc_free_invariants(sizes in proptest::collection::vec(1usize..8192, 1..32)) {
        let ram = SecureRam::new(0xF000_0000, 1 << 20, TzStats::new());
        let mut buffers = Vec::new();
        for &size in &sizes {
            if let Ok(buf) = ram.alloc(size) {
                buffers.push(buf);
            }
        }
        // No two live buffers overlap.
        for (i, a) in buffers.iter().enumerate() {
            for b in buffers.iter().skip(i + 1) {
                let a_end = a.addr() + a.len() as u64;
                let b_end = b.addr() + b.len() as u64;
                prop_assert!(a_end <= b.addr() || b_end <= a.addr(),
                    "buffers overlap: {:#x}+{} and {:#x}+{}", a.addr(), a.len(), b.addr(), b.len());
            }
        }
        drop(buffers);
        prop_assert_eq!(ram.bytes_in_use(), 0);
    }

    /// Corpus labels always agree with the vocabulary's notion of
    /// sensitivity, for any seed and sensitive fraction.
    #[test]
    fn corpus_labels_are_consistent(seed in any::<u64>(), fraction in 0.0f64..1.0) {
        let vocabulary = Vocabulary::smart_home();
        let mut generator = CorpusGenerator::new(vocabulary.clone(), fraction, seed);
        for utterance in generator.generate(20) {
            prop_assert_eq!(utterance.sensitive, vocabulary.contains_sensitive(&utterance.tokens));
        }
    }

    /// Depth-limited decoding of batched image AVS events: a frame-verdict
    /// record wrapped in up to `MAX_BATCH_DEPTH` batch layers round-trips,
    /// while any crafted nesting beyond the cap is rejected with a codec
    /// error instead of recursing — the same guard the audio batch records
    /// rely on, so untrusted input can never choose the recursion depth.
    #[test]
    fn image_batch_nesting_is_depth_limited(
        dialog_id in any::<u64>(),
        frames in 1u32..64,
        probability_milli in 0u16..=1000,
        depth in 0usize..40,
    ) {
        let leaf = AvsEvent::FrameVerdict { dialog_id, frames, probability_milli };
        let mut event = leaf.clone();
        for _ in 0..depth {
            event = AvsEvent::Batch(vec![event]);
        }
        let decoded = AvsEvent::decode(&event.encode());
        if depth <= AvsEvent::MAX_BATCH_DEPTH {
            // In-cap nesting round-trips exactly, leaf intact.
            let mut inner = decoded.expect("in-cap nesting decodes");
            prop_assert_eq!(&inner, &event);
            for _ in 0..depth {
                inner = match inner {
                    AvsEvent::Batch(mut events) => {
                        prop_assert_eq!(events.len(), 1);
                        events.remove(0)
                    }
                    other => other,
                };
            }
            prop_assert_eq!(inner, leaf);
        } else {
            prop_assert!(decoded.is_err(), "nesting depth {} must be rejected", depth);
        }
    }

    /// Any strict prefix of an encoded batched AVS event fails to decode —
    /// a record truncated in flight can never mis-decode into a shorter
    /// but plausible decision stream (the length-prefixed entries make
    /// every cut detectable).
    #[test]
    fn truncated_batch_records_never_misdecode(
        dialog_ids in proptest::collection::vec(any::<u64>(), 1..8),
        cut in any::<u64>(),
    ) {
        let events: Vec<AvsEvent> = dialog_ids
            .iter()
            .map(|&id| AvsEvent::FrameVerdict {
                dialog_id: id,
                frames: 1 + (id % 16) as u32,
                probability_milli: (id % 1001) as u16,
            })
            .collect();
        let encoded = AvsEvent::Batch(events).encode();
        let cut = (cut as usize) % encoded.len();
        prop_assert!(
            AvsEvent::decode(&encoded[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte batch record decoded",
            encoded.len()
        );
    }

    /// A single bit flipped *anywhere* in a sealed explicit-sequence
    /// record — length header, record type, sequence, ciphertext or tag —
    /// makes the cloud reject it loudly (counted, never committed), and
    /// the intact record still commits afterwards.
    #[test]
    fn bitflipped_sealed_records_are_rejected_and_counted(
        dialog_id in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let psk = [0x42u8; PSK_LEN];
        let cloud = MockCloudService::new(psk);
        let mut client = SecureChannelClient::new(psk, 7);
        let server_hello = cloud.handle(1, &client.client_hello());
        client.process_server_hello(&server_hello).unwrap();
        let batch = AvsEvent::Batch(vec![AvsEvent::FrameVerdict {
            dialog_id,
            frames: 3,
            probability_milli: 500,
        }]);
        let record = client.seal_at(0, &batch.encode()).unwrap();
        let mut tampered = record.clone();
        let bit = (flip as usize) % (tampered.len() * 8);
        tampered[bit / 8] ^= 1 << (bit % 8);
        let response = cloud.handle(1, &tampered);
        prop_assert!(response.is_empty(), "tampered record was acknowledged");
        let report = cloud.report();
        prop_assert!(report.events.is_empty(), "tampered record committed a decision");
        prop_assert_eq!(report.rejected_records, 1);
        prop_assert_eq!(report.committed_records, 0);
        // Rejection is per-record: the intact original still commits.
        let ack = cloud.handle(1, &record);
        prop_assert!(!ack.is_empty());
        let report = cloud.report();
        prop_assert_eq!(report.events.len(), 1);
        prop_assert_eq!(report.committed_records, 1);
    }

    /// Sharded verdict merging is permutation- and partition-invariant:
    /// however the scheduler splits a batch's windows across {1,2,4,8}
    /// sessions, and in whatever order the per-shard replies come back,
    /// the merged verdict list is identical — the property that makes the
    /// sharded pipeline's cloud outcome equal the unsharded pipeline's
    /// (pinned end to end by `tests/shard_parity.rs`).
    #[test]
    fn sharded_verdict_merging_is_partition_invariant(
        verdict_seeds in proptest::collection::vec(any::<u64>(), 0..64),
        order in any::<u64>(),
    ) {
        let verdicts: Vec<WindowVerdict> =
            verdict_seeds.iter().copied().map(verdict_from_seed).collect();
        let reference = merge_verdicts(verdicts.clone());
        for shards in [1usize, 2, 4, 8] {
            // Partition with the real scheduler, exactly as the sharded
            // stages do (weight 1 per window here; any weights give a
            // valid partition).
            let mut scheduler = SessionScheduler::new(shards);
            let assignment = scheduler.assign(&vec![1u64; verdicts.len()]);
            let mut shard_replies: Vec<Vec<WindowVerdict>> = vec![Vec::new(); shards];
            for (verdict, &shard) in verdicts.iter().zip(&assignment) {
                shard_replies[shard].push(*verdict);
            }
            // Shard replies arrive in an arbitrary order.
            let mut rotation = (order as usize) % shards.max(1);
            let mut collected = Vec::with_capacity(verdicts.len());
            for _ in 0..shards {
                collected.extend(shard_replies[rotation].iter().copied());
                rotation = (rotation + 1) % shards;
            }
            prop_assert_eq!(merge_verdicts(collected), reference.clone(),
                "merge diverged at {} shards", shards);
        }
        // The merged list is sorted and free of duplicate dialog ids.
        for pair in reference.windows(2) {
            prop_assert!(pair[0].dialog_id < pair[1].dialog_id);
        }
    }

    /// Virtual durations add up associatively and never go negative.
    #[test]
    fn sim_duration_arithmetic(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        prop_assert_eq!((da - db).as_nanos(), a.saturating_sub(b));
        prop_assert_eq!(da + SimDuration::ZERO, da);
    }

    /// The scheduler's steal pass never drops or duplicates a window, its
    /// load account stays an exact tally of the assignment, the cumulative
    /// makespan never exceeds the greedy scheduler's, and mirrored
    /// schedulers make identical steal decisions — for any batch split of
    /// any ragged weight sequence on any session count, and for any
    /// per-window fixed cost (the crossing + dispatch overhead the steal
    /// weights model on top of frames).
    #[test]
    fn work_stealing_scheduler_invariants(
        weight_seeds in proptest::collection::vec(any::<u64>(), 1..48),
        shape in any::<u64>(),
    ) {
        let sessions = (shape % 7 + 1) as usize;
        let batch = (shape >> 8) as usize % 9 + 1;
        let overhead = (shape >> 16) % 24;
        let weights: Vec<u64> = weight_seeds.iter().map(|s| s % 32).collect();
        let mut stealing = SessionScheduler::with_window_overhead(sessions, overhead);
        let mut mirror = SessionScheduler::with_window_overhead(sessions, overhead);
        for chunk in weights.chunks(batch) {
            // The makespan guarantee is per batch, against the same
            // prior state: stealing never places this batch worse than
            // plain greedy would have from here.
            let mut greedy = stealing.clone();
            greedy.assign(chunk);
            let (assignment, steals) = stealing.assign_with_stealing(chunk);
            let greedy_makespan = greedy.loads().iter().map(|l| l.weight).max().unwrap_or(0);
            let stealing_makespan =
                stealing.loads().iter().map(|l| l.weight).max().unwrap_or(0);
            prop_assert!(
                stealing_makespan <= greedy_makespan,
                "stealing makespan {} exceeds greedy {} on the same batch",
                stealing_makespan,
                greedy_makespan
            );
            // Mirrored schedulers agree on placement *and* steals.
            prop_assert_eq!(
                mirror.assign_with_stealing(chunk),
                (assignment.clone(), steals.clone())
            );
            // Every window placed exactly once, on a real session.
            prop_assert_eq!(assignment.len(), chunk.len());
            for &session in &assignment {
                prop_assert!(session < sessions);
            }
            // Steal records describe the final placement, in effective
            // (overhead-inclusive) weights.
            for steal in &steals {
                prop_assert_eq!(assignment[steal.window], steal.to);
                prop_assert!(steal.from != steal.to);
                prop_assert_eq!(steal.weight, chunk[steal.window].max(1) + overhead);
            }
        }
        // The load account tallies the full sequence: nothing dropped,
        // nothing duplicated.
        let total_windows: u64 = weights.len() as u64;
        let total_weight: u64 = weights.iter().map(|w| (*w).max(1) + overhead).sum();
        prop_assert_eq!(
            stealing.loads().iter().map(|l| l.windows).sum::<u64>(),
            total_windows
        );
        prop_assert_eq!(
            stealing.loads().iter().map(|l| l.weight).sum::<u64>(),
            total_weight
        );
    }

    /// The int8 and f32 forward passes agree within a bounded tolerance
    /// on *random* token sequences — including token ids outside the
    /// vocabulary and degenerate lengths — and the int8 path is
    /// deterministic across independent scratch plans.
    #[test]
    fn int8_and_f32_classifiers_agree_within_tolerance(
        token_seeds in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        let (f32_model, int8_model) = quant_pair();
        let tokens: Vec<usize> = token_seeds.iter().map(|s| (s % 96) as usize).collect();
        let p_f32 = f32_model.predict(&tokens).expect("f32 predicts");
        let mut plan = FeaturePlan::new();
        let p_int8 = int8_model.predict_with(&tokens, &mut plan).expect("int8 predicts");
        prop_assert!(
            (p_f32 - p_int8).abs() <= 0.2,
            "probability drift {} vs {} on {:?}",
            p_f32, p_int8, tokens
        );
        let mut fresh = FeaturePlan::new();
        prop_assert_eq!(
            int8_model.predict_with(&tokens, &mut fresh).expect("int8 repeats"),
            p_int8
        );
    }

    /// The int8 and f32 frame classifiers agree within a bounded
    /// tolerance on random frames.
    #[test]
    fn int8_and_f32_frame_cnns_agree_within_tolerance(pixel_seed in any::<u64>()) {
        let (f32_model, int8_model) = vision_quant_pair();
        let len = f32_model.frame_len();
        let pixels: Vec<u8> = (0..len)
            .map(|i| {
                let mixed = pixel_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i as u64).wrapping_mul(1442695040888963407));
                (mixed >> 33) as u8
            })
            .collect();
        let p_f32 = f32_model.predict(&pixels).expect("f32 predicts");
        let mut plan = FeaturePlan::new();
        let p_int8 = int8_model.predict_with(&pixels, &mut plan).expect("int8 predicts");
        prop_assert!(
            (p_f32 - p_int8).abs() <= 0.25,
            "frame probability drift {} vs {}",
            p_f32, p_int8
        );
    }

    /// The fleet executor never drops or duplicates a device task, for
    /// any fleet size, worker count, steal seed and yield pattern —
    /// every queued device reports exactly once, in device order.
    #[test]
    fn fleet_executor_never_drops_or_duplicates_tasks(
        shape in any::<u64>(),
        yield_seeds in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        use perisec::core::executor::{
            DeviceTask, ExecutorConfig, FleetExecutor, QueuedDevice, StepOutcome,
        };
        use perisec::core::fleet::{DeviceReport, Modality};
        use perisec::core::report::{CloudOutcome, LatencyBreakdown, PipelineReport, WorkloadSummary};

        struct SyntheticTask {
            device: usize,
            yields: usize,
        }
        impl DeviceTask for SyntheticTask {
            fn step(&mut self) -> perisec::core::Result<StepOutcome> {
                if self.yields == 0 {
                    return Ok(StepOutcome::Complete(Box::new(DeviceReport {
                        device: self.device,
                        modality: Modality::Audio,
                        scenario: format!("prop-{}", self.device),
                        report: PipelineReport {
                            pipeline: "synthetic".to_owned(),
                            workload: WorkloadSummary::default(),
                            latency: LatencyBreakdown::default(),
                            cloud: CloudOutcome::default(),
                            tz: Default::default(),
                            energy: perisec::tz::power::EnergyReport {
                                window: SimDuration::ZERO,
                                total_mj: 0.0,
                                per_component: Default::default(),
                            },
                            virtual_time: SimDuration::ZERO,
                            bytes_to_cloud: 0,
                        },
                    })));
                }
                self.yields -= 1;
                Ok(StepOutcome::Yielded)
            }
        }

        let workers = (shape % 6 + 1) as usize;
        let steal_seed = shape >> 8;
        let tasks: Vec<QueuedDevice> = yield_seeds
            .iter()
            .enumerate()
            .map(|(device, &seed)| {
                let yields = (seed % 7) as usize;
                QueuedDevice::new(device, move || {
                    Ok(Box::new(SyntheticTask { device, yields }) as Box<dyn DeviceTask>)
                })
            })
            .collect();
        let devices = tasks.len();
        let executor = FleetExecutor::new(ExecutorConfig {
            workers,
            steal_seed,
            ..ExecutorConfig::default()
        });
        let (reports, stats) = executor.run(tasks).unwrap();
        prop_assert_eq!(reports.len(), devices);
        for (index, report) in reports.iter().enumerate() {
            prop_assert_eq!(report.device, index);
            prop_assert_eq!(&report.scenario, &format!("prop-{}", index));
        }
        prop_assert_eq!(stats.completed, devices);
        prop_assert!(stats.peak_resident <= stats.workers);
    }
}

/// Decodes one drawn `u64` into a device telemetry snapshot: a few
/// histogram recordings and counters over a fixed name set, all derived
/// from independent bit ranges of the draw.
fn device_telemetry_from_seed(seed: u64) -> perisec::telemetry::DeviceTelemetry {
    use perisec::telemetry::{DeviceTelemetry, LogHistogram};
    const NAMES: [&str; 4] = ["stage.filter", "smc.call", "ta.classify", "tee.rpc"];
    let mut telemetry = DeviceTelemetry::default();
    for (i, name) in NAMES.iter().enumerate() {
        let bits = seed >> (i * 16) & 0xFFFF;
        if bits == 0 {
            continue;
        }
        let mut histogram = LogHistogram::new();
        for n in 0..bits % 5 + 1 {
            histogram.record(SimDuration::from_nanos(bits * 37 + n * 13 + 1));
        }
        telemetry.histograms.insert(name, histogram);
        telemetry.counters.insert(name, bits % 5 + 1);
    }
    telemetry.dropped_spans = seed % 3;
    telemetry
}

proptest! {
    /// The fleet telemetry fold is order-invariant and merge is
    /// commutative/associative: absorbing devices in any order, or
    /// folding any partition of them into partial folds and merging
    /// those in any order, yields the same `FleetTelemetry`. This is the
    /// structural property that keeps fleet telemetry deterministic
    /// under work stealing at any worker count.
    #[test]
    fn telemetry_fold_is_order_invariant(
        device_seeds in proptest::collection::vec(any::<u64>(), 1..24),
        split_seed in any::<u64>(),
    ) {
        use perisec::telemetry::FleetTelemetry;
        let devices: Vec<_> = device_seeds
            .iter()
            .map(|&seed| device_telemetry_from_seed(seed))
            .collect();

        let mut forward = FleetTelemetry::new();
        for (i, d) in devices.iter().enumerate() {
            forward.absorb(i, d.clone());
        }
        let mut backward = FleetTelemetry::new();
        for (i, d) in devices.iter().enumerate().rev() {
            backward.absorb(i, d.clone());
        }
        prop_assert_eq!(&forward, &backward);

        // Partition by one seed bit per device, fold each side, merge in
        // both orders: both equal the flat fold (associativity plus
        // commutativity over an arbitrary partition).
        let mut left = FleetTelemetry::new();
        let mut right = FleetTelemetry::new();
        for (i, d) in devices.iter().enumerate() {
            if split_seed >> (i % 64) & 1 == 0 {
                left.absorb(i, d.clone());
            } else {
                right.absorb(i, d.clone());
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        prop_assert_eq!(&lr, &forward);
        prop_assert_eq!(&rl, &forward);
        prop_assert_eq!(forward.devices, devices.len() as u64);
    }
}

/// Builds a batch-capture reply's windows from drawn lengths and one seed.
fn window_captures(lengths: &[usize], seed: u64) -> Vec<WindowCapture> {
    lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let salt = seed.wrapping_mul(i as u64 + 1);
            WindowCapture {
                encoded: (0..len).map(|j| (salt >> (j % 57)) as u8).collect(),
                report: SecureCaptureReport {
                    wire_time: SimDuration::from_nanos(salt >> 3),
                    cpu_time: SimDuration::from_nanos(salt.rotate_left(17) >> 2),
                    ..SecureCaptureReport::default()
                },
            }
        })
        .collect()
}

/// Turns drawn words into `(decision, probability_milli)` verdicts.
fn verdicts_from_seeds(seeds: &[u64]) -> Vec<(FilterDecision, u16)> {
    seeds
        .iter()
        .map(|&seed| {
            let verdict = verdict_from_seed(seed);
            (verdict.decision, (seed >> 24) as u16)
        })
        .collect()
}

proptest! {
    /// The secure capture PTA's window-list request round-trips any list
    /// of `u32` period counts.
    #[test]
    fn windows_request_round_trips(windows in proptest::collection::vec(any::<u32>(), 1..16)) {
        let windows: Vec<usize> = windows.into_iter().map(|w| w as usize).collect();
        prop_assert_eq!(decode_windows_request(&encode_windows_request(&windows)).unwrap(), windows);
    }

    /// A batch-capture reply round-trips every window's audio and
    /// accounting, and no strict prefix of it decodes to the same window
    /// list: a reply cut in flight is an error or visibly short.
    #[test]
    fn windows_reply_round_trips_and_prefixes_never_alias(
        lengths in proptest::collection::vec(0usize..48, 1..6),
        seed in any::<u64>(),
    ) {
        let captures = window_captures(&lengths, seed);
        let reply = encode_windows_reply(&captures);
        let decoded = decode_windows_reply(&reply).unwrap();
        prop_assert_eq!(decoded.len(), captures.len());
        for (window, capture) in decoded.iter().zip(&captures) {
            prop_assert_eq!(window.encoded, capture.encoded.as_slice());
            prop_assert_eq!(window.wire_ns, capture.report.wire_time.as_nanos());
            prop_assert_eq!(window.cpu_ns, capture.report.cpu_time.as_nanos());
        }
        for cut in 0..reply.len() {
            if let Ok(prefix) = decode_windows_reply(&reply[..cut]) {
                prop_assert!(prefix != decoded, "a {cut}-byte prefix decoded to the full reply");
            }
        }
    }

    /// The filter TA's batch request round-trips any `(dialog, periods)`
    /// list.
    #[test]
    fn batch_request_round_trips(
        dialogs in proptest::collection::vec(any::<u64>(), 1..16),
        periods_seed in any::<u64>(),
    ) {
        let windows: Vec<(u64, u32)> = dialogs
            .iter()
            .map(|&d| (d, (d ^ periods_seed) as u32))
            .collect();
        prop_assert_eq!(decode_batch_request(&encode_batch_request(&windows)).unwrap(), windows);
    }

    /// Per-window verdicts round-trip through their wire form.
    #[test]
    fn batch_verdicts_round_trip(seeds in proptest::collection::vec(any::<u64>(), 0..16)) {
        let verdicts = verdicts_from_seeds(&seeds);
        prop_assert_eq!(decode_batch_verdicts(&encode_batch_verdicts(&verdicts)).unwrap(), verdicts);
    }

    /// Arbitrary bytes never panic any of the four batch wire decoders:
    /// each returns `Ok` or a typed error. Small byte values reach the
    /// accepting paths (short lengths, known decision codes) as well as
    /// the rejecting ones.
    #[test]
    fn batch_wire_decoders_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        small in proptest::collection::vec(0u8..4, 0..96),
    ) {
        for data in [&bytes, &small] {
            if let Err(err) = decode_windows_request(data) {
                prop_assert!(matches!(err, TeeError::BadParameters { .. }), "{err:?}");
            }
            if let Err(err) = decode_windows_reply(data) {
                prop_assert!(matches!(err, TeeError::Communication { .. }), "{err:?}");
            }
            if let Err(err) = decode_batch_request(data) {
                prop_assert!(matches!(err, TeeError::BadParameters { .. }), "{err:?}");
            }
            if let Err(err) = decode_batch_verdicts(data) {
                prop_assert!(matches!(err, TeeError::Communication { .. }), "{err:?}");
            }
        }
    }
}

/// Builds a batch frame-capture reply's windows from drawn lengths and one
/// seed.
fn frame_window_captures(lengths: &[usize], seed: u64) -> Vec<FrameWindowCapture> {
    window_captures(lengths, seed)
        .into_iter()
        .zip(lengths)
        .map(|(window, &len)| FrameWindowCapture {
            pixels: window.encoded,
            frames: len.div_ceil(3),
            report: SecureFrameReport {
                wire_time: window.report.wire_time,
                cpu_time: window.report.cpu_time,
                ..SecureFrameReport::default()
            },
        })
        .collect()
}

proptest! {
    /// The camera PTA's frame-window request round-trips any list of
    /// `u32` frame counts.
    #[test]
    fn frames_request_round_trips(windows in proptest::collection::vec(any::<u32>(), 1..16)) {
        let windows: Vec<usize> = windows.into_iter().map(|w| w as usize).collect();
        prop_assert_eq!(decode_frames_request(&encode_frames_request(&windows)).unwrap(), windows);
    }

    /// A batch frame-capture reply round-trips every window's pixels,
    /// frame count, geometry and accounting, and no strict prefix of it
    /// decodes to the same window list.
    #[test]
    fn frame_windows_reply_round_trips_and_prefixes_never_alias(
        lengths in proptest::collection::vec(0usize..48, 1..6),
        seed in any::<u64>(),
        width in any::<u16>(),
        height in any::<u16>(),
    ) {
        let captures = frame_window_captures(&lengths, seed);
        let reply = encode_frame_windows_reply(&captures, width, height);
        let decoded = decode_frame_windows_reply(&reply).unwrap();
        prop_assert_eq!(decoded.len(), captures.len());
        for (window, capture) in decoded.iter().zip(&captures) {
            prop_assert_eq!(window.pixels, capture.pixels.as_slice());
            prop_assert_eq!(window.frames, capture.frames);
            prop_assert_eq!((window.width, window.height), (width, height));
            prop_assert_eq!(window.wire_ns, capture.report.wire_time.as_nanos());
            prop_assert_eq!(window.cpu_ns, capture.report.cpu_time.as_nanos());
        }
        for cut in 0..reply.len() {
            if let Ok(prefix) = decode_frame_windows_reply(&reply[..cut]) {
                prop_assert!(prefix != decoded, "a {cut}-byte prefix decoded to the full reply");
            }
        }
    }

    /// Arbitrary bytes never panic the camera PTA's two wire decoders:
    /// each returns `Ok` or a typed error. Small byte values reach the
    /// accepting paths (short lengths) as well as the rejecting ones.
    #[test]
    fn frame_wire_decoders_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        small in proptest::collection::vec(0u8..4, 0..128),
    ) {
        for data in [&bytes, &small] {
            if let Err(err) = decode_frames_request(data) {
                prop_assert!(matches!(err, TeeError::BadParameters { .. }), "{err:?}");
            }
            if let Err(err) = decode_frame_windows_reply(data) {
                prop_assert!(matches!(err, TeeError::Communication { .. }), "{err:?}");
            }
        }
    }
}

/// Builds one AVS event from a drawn seed and payload bytes; batches
/// nest up to `depth` more levels.
fn avs_event_from_seed(seed: u64, payload: &[u8], depth: usize) -> AvsEvent {
    let dialog_id = seed >> 8;
    let kind = if depth == 0 { seed % 4 } else { seed % 5 };
    match kind {
        0 => AvsEvent::Recognize {
            dialog_id,
            audio: payload.to_vec(),
        },
        1 => AvsEvent::TextMessage {
            dialog_id,
            text: payload.iter().map(|&b| char::from(b'a' + b % 26)).collect(),
        },
        2 => AvsEvent::Ping,
        3 => AvsEvent::FrameVerdict {
            dialog_id,
            frames: (seed >> 16) as u32,
            probability_milli: (seed % 1001) as u16,
        },
        _ => AvsEvent::Batch(
            (0..(seed >> 4) % 4)
                .map(|i| {
                    let child = seed.rotate_left(13 * i as u32 + 7) ^ i;
                    avs_event_from_seed(child, &payload[..payload.len() / 2], depth - 1)
                })
                .collect(),
        ),
    }
}

/// Builds one AVS directive from a drawn seed and payload bytes.
fn avs_directive_from_seed(seed: u64, payload: &[u8]) -> AvsDirective {
    match seed % 3 {
        0 => AvsDirective::Ack { dialog_id: seed },
        1 => AvsDirective::Speak {
            dialog_id: seed >> 2,
            text: String::from_utf8_lossy(payload).into_owned(),
        },
        _ => AvsDirective::BatchAck {
            dialog_ids: payload.iter().map(|&b| seed ^ u64::from(b)).collect(),
        },
    }
}

/// Builds one ingest-plane reply from a drawn seed and payload bytes.
fn ingest_reply_from_seed(seed: u64, payload: &[u8]) -> IngestReply {
    match seed % 6 {
        0 => IngestReply::Ack(payload.to_vec()),
        1 => IngestReply::AttestGrant { epoch: seed >> 3 },
        2 => IngestReply::AttestReject,
        3 => IngestReply::NeedAttest,
        4 => IngestReply::StaleEpoch { granted: seed >> 3 },
        _ => IngestReply::Backpressure { depth: seed >> 3 },
    }
}

/// A client and server with an established secure channel.
fn channel_pair(psk_byte: u8, nonce: u64) -> (SecureChannelClient, SecureChannelServer) {
    let psk = [psk_byte; PSK_LEN];
    let mut client = SecureChannelClient::new(psk, nonce);
    let mut server = SecureChannelServer::new(psk, nonce ^ 0x5A5A);
    let hello = server.process_client_hello(&client.client_hello()).unwrap();
    client.process_server_hello(&hello).unwrap();
    (client, server)
}

/// `data` behind a 4-byte big-endian length header, the record framing
/// the channel unframes first, so arbitrary payloads get past it.
fn framed(data: &[u8]) -> Vec<u8> {
    let mut out = (data.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(data);
    out
}

proptest! {
    /// Every AVS event and directive survives encode -> decode.
    #[test]
    fn avs_messages_round_trip(
        seed in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let event = avs_event_from_seed(seed, &payload, 2);
        prop_assert_eq!(AvsEvent::decode(&event.encode()).unwrap(), event);
        let directive = avs_directive_from_seed(seed, &payload);
        prop_assert_eq!(AvsDirective::decode(&directive.encode()).unwrap(), directive);
    }

    /// Arbitrary bytes never panic the AVS decoders: each returns a
    /// codec error, or a message that re-encodes to bytes decoding to
    /// itself. Valid messages with one byte flipped, or cut short, reach
    /// the accepting and nested paths as well as the rejecting ones.
    #[test]
    fn avs_decoders_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        seed in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let mut inputs = vec![bytes.clone()];
        for valid in [
            avs_event_from_seed(seed, &bytes, 2).encode(),
            avs_directive_from_seed(seed, &bytes).encode(),
        ] {
            let mut flipped = valid.clone();
            let at = (flip as usize) % flipped.len();
            flipped[at] ^= (flip >> 32) as u8 | 1;
            inputs.push(flipped);
            inputs.push(valid[..(flip >> 8) as usize % valid.len()].to_vec());
        }
        for data in &inputs {
            match AvsEvent::decode(data) {
                Ok(event) => prop_assert_eq!(AvsEvent::decode(&event.encode()).unwrap(), event),
                Err(err) => prop_assert!(matches!(err, RelayError::Codec { .. }), "{err:?}"),
            }
            match AvsDirective::decode(data) {
                Ok(directive) => {
                    prop_assert_eq!(AvsDirective::decode(&directive.encode()).unwrap(), directive)
                }
                Err(err) => prop_assert!(matches!(err, RelayError::Codec { .. }), "{err:?}"),
            }
        }
    }

    /// Attestation requests and ingest records round-trip, and the
    /// ingest-record decoder is total: it splits any input of 8 bytes or
    /// more, and only that.
    #[test]
    fn attest_and_ingest_records_round_trip(
        measurement in proptest::collection::vec(any::<u8>(), MEASUREMENT_LEN..MEASUREMENT_LEN + 1),
        counter in any::<u64>(),
        epoch in any::<u64>(),
        event in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let measurement: [u8; MEASUREMENT_LEN] = measurement.try_into().unwrap();
        let request = encode_attest_request(&measurement, counter);
        prop_assert_eq!(decode_attest_request(&request), Some((measurement, counter)));
        for cut in 0..request.len() {
            prop_assert!(decode_attest_request(&request[..cut]).is_none());
        }
        let record = encode_ingest_record(epoch, &event);
        prop_assert_eq!(decode_ingest_record(&record), Some((epoch, event.as_slice())));
    }

    /// Arbitrary bytes never panic the attestation, ingest-record and
    /// ingest-reply decoders; whatever they accept re-encodes to the
    /// same message.
    #[test]
    fn ingest_wire_decoders_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        tag in any::<u8>(),
    ) {
        let mut tagged = bytes.clone();
        tagged.insert(0, tag);
        for data in [&bytes, &tagged] {
            if let Some((measurement, counter)) = decode_attest_request(data) {
                prop_assert_eq!(&encode_attest_request(&measurement, counter), data);
            }
            match decode_ingest_record(data) {
                Some((epoch, event)) => prop_assert_eq!(&encode_ingest_record(epoch, event), data),
                None => prop_assert!(data.len() < 8),
            }
            if let Some(reply) = IngestReply::decode(data) {
                prop_assert_eq!(IngestReply::decode(&reply.encode()), Some(reply));
            }
        }
    }

    /// Every ingest reply survives encode -> decode, and no strict prefix
    /// of a reply with a payload word decodes.
    #[test]
    fn ingest_replies_round_trip(
        seed in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let reply = ingest_reply_from_seed(seed, &payload);
        let wire = reply.encode();
        prop_assert_eq!(IngestReply::decode(&wire), Some(reply.clone()));
        prop_assert!(IngestReply::decode(&[]).is_none());
        if matches!(
            reply,
            IngestReply::AttestGrant { .. } | IngestReply::StaleEpoch { .. } | IngestReply::Backpressure { .. }
        ) {
            for cut in 1..wire.len() {
                prop_assert!(IngestReply::decode(&wire[..cut]).is_none());
            }
        }
    }

    /// Sealed records round-trip in both directions, on the implicit and
    /// the explicit sequence.
    #[test]
    fn sealed_records_round_trip(
        plaintext in proptest::collection::vec(any::<u8>(), 0..96),
        seq in any::<u64>(),
        nonce in any::<u64>(),
    ) {
        let (mut client, mut server) = channel_pair(0x42, nonce);
        let record = client.seal(&plaintext).unwrap();
        prop_assert_eq!(server.open(&record).unwrap(), plaintext.clone());
        let record = server.seal(&plaintext).unwrap();
        prop_assert_eq!(client.open(&record).unwrap(), plaintext.clone());
        let record = client.seal_at(seq, &plaintext).unwrap();
        prop_assert_eq!(server.open_explicit(&record).unwrap(), (seq, plaintext.clone()));
        let record = server.seal_at(seq, &plaintext).unwrap();
        prop_assert_eq!(client.open_explicit(&record).unwrap(), (seq, plaintext));
    }

    /// Arbitrary records, raw or behind a well-formed length header (and,
    /// for the explicit opener, the explicit-record type byte), never
    /// panic `open` / `open_explicit` on either side: each returns a
    /// channel error, since no forged record authenticates.
    #[test]
    fn sealed_record_openers_reject_arbitrary_records(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        nonce in any::<u64>(),
    ) {
        let (mut client, mut server) = channel_pair(0x17, nonce);
        let explicit = client.seal_at(0, b"probe").unwrap();
        let mut typed = explicit[4..5].to_vec();
        typed.extend_from_slice(&bytes);
        for record in [bytes.clone(), framed(&bytes), framed(&typed)] {
            for result in [
                client.open(&record),
                server.open(&record),
                client.open_explicit(&record).map(|(_, plain)| plain),
                server.open_explicit(&record).map(|(_, plain)| plain),
            ] {
                let err = result.expect_err("a forged record authenticated");
                prop_assert!(matches!(err, RelayError::ChannelError { .. }), "{err:?}");
            }
        }
    }
}

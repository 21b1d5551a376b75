//! Oracle for the secure camera capture path.
//!
//! The camera sensor renders the Person and Pet blobs by measuring only
//! the pixels inside each blob's padded bounding box, writes every frame
//! straight onto the end of the caller's buffer, and the secure driver
//! moves each frame through the DMA engine as bytes. This file keeps the
//! path it replaced — a fresh frame `Vec` with a distance evaluated at
//! every pixel, packed into a fresh `Vec<i16>` of DMA words per frame and
//! copied into the window — and checks that both paths produce the same
//! pixels, frame reports, driver statistics and platform clock, counters
//! and energy.

use perisec_devices::camera::{CameraSensor, SceneKind, SceneSource};
use perisec_devices::dma::DmaChannel;
use perisec_secure_driver::camera::{FrameWindowCapture, SecureCameraStats};
use perisec_secure_driver::{SecureCameraDriver, SecureFrameReport};
use perisec_tz::platform::Platform;
use perisec_tz::power::Component;
use perisec_tz::secure_mem::SecureBuf;
use perisec_tz::time::SimDuration;
use perisec_tz::world::World;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Frame geometries under test: the pipeline's 64x48, the smallest
/// accepted frame, an odd byte count (the DMA pads the last word), a
/// one-column-wide blob box, a ragged odd square and a large frame.
const GEOMETRIES: [(u32, u32); 6] = [(64, 48), (2, 2), (7, 5), (3, 97), (33, 17), (128, 96)];

/// The sensor as it was: every pixel of a blob scene measures its
/// distance to the blob's centre.
struct RefSensor {
    width: u32,
    height: u32,
    fps: u32,
    rng: SmallRng,
}

impl RefSensor {
    fn new(width: u32, height: u32, seed: u64) -> Self {
        RefSensor {
            width,
            height,
            fps: 15,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.fps as f64)
    }

    fn capture_frame(&mut self, scene: SceneKind) -> Vec<u8> {
        let (w, h) = (self.width as usize, self.height as usize);
        let mut pixels = vec![0u8; w * h];
        match scene {
            SceneKind::EmptyRoom => {
                for p in pixels.iter_mut() {
                    *p = 120u8.saturating_add(self.rng.gen_range(0..8));
                }
            }
            SceneKind::Person => {
                let cx = self.rng.gen_range(w / 4..3 * w / 4) as f64;
                let cy = self.rng.gen_range(h / 4..3 * h / 4) as f64;
                let radius = (w.min(h) as f64) / 3.0;
                for y in 0..h {
                    for x in 0..w {
                        let d =
                            (((x as f64 - cx).powi(2) + (y as f64 - cy).powi(2)).sqrt()) / radius;
                        let base = 130.0 + self.rng.gen_range(-6.0f64..6.0);
                        let v = if d < 1.0 {
                            base - 90.0 * (1.0 - d)
                        } else {
                            base
                        };
                        pixels[y * w + x] = v.clamp(0.0, 255.0) as u8;
                    }
                }
            }
            SceneKind::Document => {
                for y in 0..h {
                    for x in 0..w {
                        let stripe = if y % 4 < 2 { 230 } else { 40 };
                        let noise: i16 = self.rng.gen_range(-10..10);
                        pixels[y * w + x] = (stripe as i16 + noise).clamp(0, 255) as u8;
                    }
                }
            }
            SceneKind::Pet => {
                let cx = self.rng.gen_range(0..w) as f64;
                let radius = (w.min(h) as f64) / 6.0;
                for y in 0..h {
                    for x in 0..w {
                        let d = (((x as f64 - cx).powi(2) + (y as f64 - (h as f64) * 0.8).powi(2))
                            .sqrt())
                            / radius;
                        let base = 125.0 + self.rng.gen_range(-5.0f64..5.0);
                        let v = if d < 1.0 {
                            base - 40.0 * (1.0 - d)
                        } else {
                            base
                        };
                        pixels[y * w + x] = v.clamp(0.0, 255.0) as u8;
                    }
                }
            }
        }
        pixels
    }
}

/// Deterministic scene schedule shared by a driver and its reference: a
/// 64-bit LCG picks each frame's scene.
struct SceneSchedule(u64);

impl SceneSchedule {
    fn next(&mut self) -> SceneKind {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        SceneKind::ALL[(self.0 >> 33) as usize % SceneKind::ALL.len()]
    }
}

impl SceneSource for SceneSchedule {
    fn next_scene(&mut self) -> SceneKind {
        self.next()
    }
}

/// The secure driver's capture path as it was: a fresh frame per capture,
/// packed into a fresh `Vec<i16>` of DMA words, then copied into the
/// window, with the same per-frame charges.
struct RefDriver {
    platform: Platform,
    sensor: RefSensor,
    scenes: SceneSchedule,
    dma: DmaChannel,
    io: SecureBuf,
    stats: SecureCameraStats,
}

impl RefDriver {
    /// Mirrors `SecureCameraDriver::configure` followed by `start`.
    fn started(platform: Platform, sensor: RefSensor, scenes: SceneSchedule) -> Self {
        let frame_bytes = sensor.width as usize * sensor.height as usize;
        let io = platform.secure_ram().alloc(frame_bytes * 2).unwrap();
        let pages = io.len().div_ceil(4096);
        platform.charge_cpu(
            World::Secure,
            platform.cost().secure_page_alloc * pages as u64,
        );
        platform.charge_cpu(World::Secure, SimDuration::from_micros(50));
        platform.charge_cpu(World::Secure, SimDuration::from_micros(25));
        RefDriver {
            platform,
            sensor,
            scenes,
            dma: DmaChannel::default(),
            io,
            stats: SecureCameraStats::default(),
        }
    }

    fn capture_frames(&mut self, frames: usize) -> (Vec<u8>, SecureFrameReport) {
        let frame_bytes = self.sensor.width as usize * self.sensor.height as usize;
        let mut report = SecureFrameReport {
            frames,
            ..SecureFrameReport::default()
        };
        let mut pixels = Vec::with_capacity(frames * frame_bytes);
        let cpu_before = self.platform.clock().now();
        for _ in 0..frames {
            let scene = self.scenes.next();
            let frame = self.sensor.capture_frame(scene);
            let wire = self.sensor.frame_interval();
            report.wire_time += wire;
            self.platform.record_device_busy(Component::Camera, wire);
            let words: Vec<i16> = frame
                .chunks(2)
                .map(|c| i16::from_le_bytes([c[0], *c.get(1).unwrap_or(&0)]))
                .collect();
            let transfer = self.dma.transfer(&words, self.io.as_mut_slice()).unwrap();
            self.platform
                .record_device_busy(Component::DmaEngine, transfer.bus_time);
            self.platform.stats().record_secure_irq();
            report.secure_irqs += 1;
            self.platform
                .charge_cpu(World::Secure, self.platform.cost().secure_irq_entry);
            self.platform
                .charge_cpu(World::Secure, SimDuration::from_micros(8));
            self.platform
                .charge_compute(World::Secure, frame.len() as u64 / 4);
            pixels.extend_from_slice(&frame);
        }
        report.pixel_bytes = pixels.len();
        report.cpu_time = self.platform.clock().elapsed_since(cpu_before);
        self.stats.frames_captured += frames as u64;
        self.stats.secure_irqs += report.secure_irqs;
        self.stats.bytes_delivered += pixels.len() as u64;
        (pixels, report)
    }

    fn capture_windows(
        &mut self,
        windows: &[usize],
    ) -> (Vec<FrameWindowCapture>, SecureFrameReport) {
        let mut captures = Vec::new();
        let mut total = SecureFrameReport::default();
        for &frames in windows {
            let (pixels, report) = self.capture_frames(frames);
            total.wire_time += report.wire_time;
            total.cpu_time += report.cpu_time;
            total.frames += report.frames;
            total.pixel_bytes += report.pixel_bytes;
            total.secure_irqs += report.secure_irqs;
            captures.push(FrameWindowCapture {
                pixels,
                frames,
                report,
            });
        }
        (captures, total)
    }
}

#[test]
fn every_scene_renders_the_reference_pixels() {
    for (w, h) in GEOMETRIES {
        for scene in SceneKind::ALL {
            for seed in 0..40u64 {
                let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(w * 1000 + h);
                let mut sensor = CameraSensor::new("oracle-cam", w, h, 15, seed).unwrap();
                sensor.start();
                let mut reference = RefSensor::new(w, h, seed);
                // Several frames per seed, so later frames start from an
                // RNG state the earlier ones advanced.
                for i in 0..3 {
                    let frame = sensor.capture_frame(scene).unwrap();
                    assert_eq!(
                        frame.pixels,
                        reference.capture_frame(scene),
                        "{w}x{h} {scene:?} seed {seed:#x} frame {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_scene_streams_render_the_reference_pixels() {
    for (w, h) in GEOMETRIES {
        for seed in 0..8u64 {
            let mut sensor = CameraSensor::new("oracle-cam", w, h, 15, seed).unwrap();
            sensor.start();
            let mut reference = RefSensor::new(w, h, seed);
            let mut scenes = SceneSchedule(seed);
            let mut window = Vec::new();
            for i in 0..24 {
                let scene = scenes.next();
                let start = window.len();
                assert_eq!(sensor.capture_frame_into(scene, &mut window).unwrap(), i);
                assert_eq!(
                    &window[start..],
                    reference.capture_frame(scene).as_slice(),
                    "{w}x{h} seed {seed} frame {i} ({scene:?})"
                );
            }
        }
    }
}

#[test]
fn secure_driver_matches_the_per_frame_copy_path() {
    for (w, h) in GEOMETRIES {
        for seed in [1u64, 0x5EC0, 1_592_598_563] {
            let platform = Platform::jetson_agx_xavier();
            let sensor = CameraSensor::new("oracle-cam", w, h, 15, seed).unwrap();
            let mut driver =
                SecureCameraDriver::new(platform.clone(), sensor, Box::new(SceneSchedule(seed)));
            driver.configure().unwrap();
            driver.start().unwrap();
            let mut reference = RefDriver::started(
                Platform::jetson_agx_xavier(),
                RefSensor::new(w, h, seed),
                SceneSchedule(seed),
            );
            for windows in [&[1usize][..], &[3, 1, 2], &[8], &[2, 5, 1, 1]] {
                let case = format!("{w}x{h} seed {seed} windows {windows:?}");
                let (captures, total) = driver.capture_windows(windows).unwrap();
                let (want, want_total) = reference.capture_windows(windows);
                assert_eq!(captures.len(), want.len(), "{case}");
                for (i, (got, want)) in captures.iter().zip(&want).enumerate() {
                    assert_eq!(got.pixels, want.pixels, "{case}: window {i} pixels");
                    assert_eq!(got.frames, want.frames, "{case}: window {i} frames");
                    assert_eq!(got.report, want.report, "{case}: window {i} report");
                }
                assert_eq!(total, want_total, "{case}: batch report");
                assert_eq!(driver.stats(), reference.stats, "{case}: driver stats");
                let theirs = &reference.platform;
                assert_eq!(
                    platform.clock().now(),
                    theirs.clock().now(),
                    "{case}: clock"
                );
                assert_eq!(
                    platform.stats().snapshot(),
                    theirs.stats().snapshot(),
                    "{case}: platform counters"
                );
                assert_eq!(
                    platform.energy_report(),
                    theirs.energy_report(),
                    "{case}: energy"
                );
            }
        }
    }
}

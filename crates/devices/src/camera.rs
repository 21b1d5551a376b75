//! Camera sensor model.
//!
//! The paper names cameras alongside microphones as the peripherals whose
//! data can leak sensitive information (images of people, documents). The
//! camera model is intentionally lighter than the audio path — the paper's
//! proof of concept focuses on I2S audio — but it produces frames with
//! enough structure for the image-side classifier and for the scalability
//! experiment (E9): every frame carries a small grayscale pixel block whose
//! statistics differ between "scene kinds".

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use perisec_tz::time::SimDuration;

use crate::{DeviceError, Result};

/// What a synthetic frame depicts. Determines the pixel statistics and the
/// ground-truth sensitivity label used in experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SceneKind {
    /// An empty room: low-variance, mid-gray pixels. Not sensitive.
    EmptyRoom,
    /// A person present: high-contrast blob in the frame. Sensitive.
    Person,
    /// A document / screen in view: regular high-frequency stripes. Sensitive.
    Document,
    /// A pet moving through the frame: medium-contrast blob. Not sensitive.
    Pet,
}

impl SceneKind {
    /// Ground-truth sensitivity of the scene, per the paper's threat model
    /// (people and readable documents are private; empty rooms and pets are
    /// not).
    pub fn is_sensitive(self) -> bool {
        matches!(self, SceneKind::Person | SceneKind::Document)
    }

    /// All scene kinds.
    pub const ALL: [SceneKind; 4] = [
        SceneKind::EmptyRoom,
        SceneKind::Person,
        SceneKind::Document,
        SceneKind::Pet,
    ];
}

/// A captured frame: grayscale pixels plus capture metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageFrame {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Row-major grayscale pixels (one byte per pixel).
    pub pixels: Vec<u8>,
    /// The scene the synthetic generator rendered (ground truth for
    /// experiments; a real frame would not carry this).
    pub scene: SceneKind,
    /// Frame sequence number.
    pub sequence: u64,
}

impl ImageFrame {
    /// Size of the pixel payload in bytes.
    pub fn byte_len(&self) -> usize {
        self.pixels.len()
    }

    /// Mean pixel intensity in `[0, 255]`.
    pub fn mean_intensity(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|&p| p as f64).sum::<f64>() / self.pixels.len() as f64
    }

    /// Pixel intensity variance.
    pub fn intensity_variance(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        let mean = self.mean_intensity();
        self.pixels
            .iter()
            .map(|&p| {
                let d = p as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.pixels.len() as f64
    }
}

/// Where the scenes in front of a camera come from.
///
/// This mirrors [`crate::signal::SignalSource`] on the audio side: the
/// "physical world" in front of the sensor is modelled outside the sensor
/// itself, so scenario runners can schedule what the camera sees while the
/// driver that owns the sensor stays oblivious to the ground truth.
pub trait SceneSource: Send {
    /// The scene in front of the camera for the next frame.
    fn next_scene(&mut self) -> SceneKind;

    /// Human-readable description (for traces).
    fn describe(&self) -> String {
        "scene source".to_owned()
    }
}

/// A scene source that always shows the same scene.
#[derive(Debug, Clone, Copy)]
pub struct FixedScene(pub SceneKind);

impl SceneSource for FixedScene {
    fn next_scene(&mut self) -> SceneKind {
        self.0
    }

    fn describe(&self) -> String {
        format!("fixed scene {:?}", self.0)
    }
}

/// A camera sensor producing synthetic frames.
#[derive(Debug)]
pub struct CameraSensor {
    name: String,
    width: u32,
    height: u32,
    fps: u32,
    rng: SmallRng,
    sequence: u64,
    streaming: bool,
}

impl CameraSensor {
    /// Creates a camera named `name` with the given geometry and frame rate.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnsupportedConfig`] for a width or height
    /// below 2 (the Person scene places its blob in the middle half of
    /// each axis, which a 1-pixel axis does not have), for one above
    /// `u16::MAX` (the secure frame-batch reply carries the geometry in
    /// u16 header fields), or for a zero frame rate.
    pub fn new(
        name: impl Into<String>,
        width: u32,
        height: u32,
        fps: u32,
        seed: u64,
    ) -> Result<Self> {
        if width < 2 || height < 2 {
            return Err(DeviceError::UnsupportedConfig {
                reason: format!("camera geometry {width}x{height} is below 2x2"),
            });
        }
        if width > u32::from(u16::MAX) || height > u32::from(u16::MAX) {
            return Err(DeviceError::UnsupportedConfig {
                reason: format!(
                    "camera geometry {width}x{height} exceeds {max}x{max}",
                    max = u16::MAX
                ),
            });
        }
        if fps == 0 {
            return Err(DeviceError::UnsupportedConfig {
                reason: "camera frame rate must be non-zero".to_owned(),
            });
        }
        Ok(CameraSensor {
            name: name.into(),
            width,
            height,
            fps,
            rng: SmallRng::seed_from_u64(seed),
            sequence: 0,
            streaming: false,
        })
    }

    /// A small smart-home style camera (64x48 @ 15 fps) — kept tiny so the
    /// in-TEE image classifier stays within secure-memory budgets, matching
    /// the paper's "smaller ML models" mitigation.
    ///
    /// # Errors
    ///
    /// Never fails for the fixed parameters; the `Result` mirrors
    /// [`CameraSensor::new`].
    pub fn smart_home(name: impl Into<String>, seed: u64) -> Result<Self> {
        CameraSensor::new(name, 64, 48, 15, seed)
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Configured frame rate.
    pub fn fps(&self) -> u32 {
        self.fps
    }

    /// Time between consecutive frames.
    pub fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.fps as f64)
    }

    /// Starts streaming.
    pub fn start(&mut self) {
        self.streaming = true;
    }

    /// Stops streaming.
    pub fn stop(&mut self) {
        self.streaming = false;
    }

    /// Whether the sensor is streaming.
    pub fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Captures one frame of the given scene.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidState`] if the camera is not streaming.
    pub fn capture_frame(&mut self, scene: SceneKind) -> Result<ImageFrame> {
        let mut pixels = Vec::with_capacity(self.width as usize * self.height as usize);
        let sequence = self.capture_frame_into(scene, &mut pixels)?;
        Ok(ImageFrame {
            width: self.width,
            height: self.height,
            pixels,
            scene,
            sequence,
        })
    }

    /// Captures one frame of the given scene onto the end of `out` and
    /// returns its sequence number. Draws the same pixels, in the same
    /// order, as [`CameraSensor::capture_frame`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidState`] if the camera is not
    /// streaming; `out` is untouched in that case.
    pub fn capture_frame_into(&mut self, scene: SceneKind, out: &mut Vec<u8>) -> Result<u64> {
        if !self.streaming {
            return Err(DeviceError::InvalidState {
                operation: "capture frame".to_owned(),
                state: "stopped".to_owned(),
            });
        }
        let (w, h) = (self.width as usize, self.height as usize);
        let start = out.len();
        out.resize(start + w * h, 0);
        let pixels = &mut out[start..];
        let rng = &mut self.rng;
        match scene {
            SceneKind::EmptyRoom => {
                for p in pixels.iter_mut() {
                    *p = 120u8.saturating_add(rng.gen_range(0..8));
                }
            }
            SceneKind::Person => {
                // Background plus a dark high-contrast blob roughly centred.
                let cx = rng.gen_range(w / 4..3 * w / 4) as f64;
                let cy = rng.gen_range(h / 4..3 * h / 4) as f64;
                let radius = (w.min(h) as f64) / 3.0;
                let blob = Blob {
                    cx,
                    cy,
                    radius,
                    background: 130.0,
                    noise: 6.0,
                    depth: 90.0,
                };
                blob.render(pixels, (w, h), rng);
            }
            SceneKind::Document => {
                // High-frequency horizontal stripes (text lines on a bright page).
                for (y, row) in pixels.chunks_exact_mut(w).enumerate() {
                    let stripe: i16 = if y % 4 < 2 { 230 } else { 40 };
                    for p in row {
                        let noise: i16 = rng.gen_range(-10..10);
                        *p = (stripe + noise).clamp(0, 255) as u8;
                    }
                }
            }
            SceneKind::Pet => {
                let cx = rng.gen_range(0..w) as f64;
                let radius = (w.min(h) as f64) / 6.0;
                let blob = Blob {
                    cx,
                    cy: (h as f64) * 0.8,
                    radius,
                    background: 125.0,
                    noise: 5.0,
                    depth: 40.0,
                };
                blob.render(pixels, (w, h), rng);
            }
        }
        let sequence = self.sequence;
        self.sequence += 1;
        Ok(sequence)
    }

    /// Captures one frame of whatever scene the source presents.
    ///
    /// # Errors
    ///
    /// Same as [`CameraSensor::capture_frame`].
    pub fn capture_from(&mut self, source: &mut dyn SceneSource) -> Result<ImageFrame> {
        let scene = source.next_scene();
        self.capture_frame(scene)
    }
}

/// Pixels farther than this beyond a blob's radius, on either axis, are
/// never measured: there `d >= 1`, so the pixel is its background draw.
/// The unpadded box already holds every pixel with `d < 1`; the pad is
/// slack against rounding in `d`.
const BLOB_BOX_PAD: f64 = 1.0;

/// A dark disc over a noisy background: the Person and Pet scenes.
struct Blob {
    cx: f64,
    cy: f64,
    radius: f64,
    /// Mean background level.
    background: f64,
    /// Half-width of the uniform background noise.
    noise: f64,
    /// How much darker the disc's centre is than the background.
    depth: f64,
}

impl Blob {
    /// The indices `i < len` with `|i - centre| <= radius + BLOB_BOX_PAD`:
    /// one axis of the blob's padded bounding box.
    fn span(&self, centre: f64, len: usize) -> Range<usize> {
        let reach = self.radius + BLOB_BOX_PAD;
        let hi = ((centre + reach).floor() + 1.0).clamp(0.0, len as f64) as usize;
        let lo = (centre - reach).ceil().max(0.0) as usize;
        lo.min(hi)..hi
    }

    /// One pixel's background: the mean level plus uniform noise.
    fn draw(&self, rng: &mut SmallRng) -> f64 {
        self.background + rng.gen_range(-self.noise..self.noise)
    }

    /// Renders the `w`x`h` frame `pixels`. Every pixel draws its
    /// background noise from `rng`, in row-major order; the disc darkens
    /// the pixels it covers.
    fn render(&self, pixels: &mut [u8], (w, h): (usize, usize), rng: &mut SmallRng) {
        let cols = self.span(self.cx, w);
        let rows = self.span(self.cy, h);
        for (y, row) in pixels.chunks_exact_mut(w).enumerate() {
            let (left, mid, right) = if rows.contains(&y) {
                let (left, rest) = row.split_at_mut(cols.start);
                let (mid, right) = rest.split_at_mut(cols.len());
                (left, mid, right)
            } else {
                (row, &mut [][..], &mut [][..])
            };
            for p in left {
                *p = to_pixel(self.draw(rng));
            }
            let dy2 = (y as f64 - self.cy).powi(2);
            for (x, p) in cols.clone().zip(mid) {
                let base = self.draw(rng);
                let d = ((x as f64 - self.cx).powi(2) + dy2).sqrt() / self.radius;
                *p = to_pixel(if d < 1.0 {
                    base - self.depth * (1.0 - d)
                } else {
                    base
                });
            }
            for p in right {
                *p = to_pixel(self.draw(rng));
            }
        }
    }
}

fn to_pixel(v: f64) -> u8 {
    v.clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera() -> CameraSensor {
        let mut cam = CameraSensor::smart_home("cam0", 42).unwrap();
        cam.start();
        cam
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(CameraSensor::new("bad", 0, 10, 10, 0).is_err());
        assert!(CameraSensor::new("bad", 10, 10, 0, 0).is_err());
    }

    #[test]
    fn one_pixel_axes_are_rejected_and_two_pixels_render_every_scene() {
        for (w, h) in [(1, 1), (1, 48), (64, 1), (1, 2), (2, 1)] {
            assert!(
                matches!(
                    CameraSensor::new("thin", w, h, 15, 0),
                    Err(DeviceError::UnsupportedConfig { .. })
                ),
                "{w}x{h} accepted"
            );
        }
        for (w, h) in [(2, 2), (2, 9), (9, 2)] {
            let mut cam = CameraSensor::new("small", w, h, 15, 3).unwrap();
            cam.start();
            for scene in SceneKind::ALL {
                let frame = cam.capture_frame(scene).unwrap();
                assert_eq!(frame.byte_len(), (w * h) as usize);
            }
        }
    }

    #[test]
    fn axes_above_u16_max_are_rejected() {
        let max = u32::from(u16::MAX);
        assert!(CameraSensor::new("wide", max, 2, 15, 0).is_ok());
        assert!(CameraSensor::new("tall", 2, max, 15, 0).is_ok());
        for (w, h) in [(max + 1, 2), (2, max + 1), (70_000, 2)] {
            assert!(
                matches!(
                    CameraSensor::new("huge", w, h, 15, 0),
                    Err(DeviceError::UnsupportedConfig { .. })
                ),
                "{w}x{h} accepted"
            );
        }
    }

    #[test]
    fn capture_frame_into_appends_what_capture_frame_returns() {
        let mut a = camera();
        let mut b = camera();
        let mut out = vec![7u8; 5];
        for (i, scene) in SceneKind::ALL.into_iter().cycle().take(8).enumerate() {
            let frame = a.capture_frame(scene).unwrap();
            let start = out.len();
            assert_eq!(b.capture_frame_into(scene, &mut out).unwrap(), i as u64);
            assert_eq!(frame.sequence, i as u64);
            assert_eq!(&out[start..], frame.pixels.as_slice());
        }
        assert_eq!(&out[..5], &[7; 5]);
        b.stop();
        assert!(b.capture_frame_into(SceneKind::Pet, &mut out).is_err());
        assert_eq!(out.len(), 5 + 8 * 64 * 48);
    }

    #[test]
    fn capture_requires_streaming() {
        let mut cam = CameraSensor::smart_home("cam0", 1).unwrap();
        assert!(cam.capture_frame(SceneKind::EmptyRoom).is_err());
        cam.start();
        assert!(cam.capture_frame(SceneKind::EmptyRoom).is_ok());
        cam.stop();
        assert!(cam.capture_frame(SceneKind::EmptyRoom).is_err());
    }

    #[test]
    fn frames_have_expected_geometry_and_sequence() {
        let mut cam = camera();
        let a = cam.capture_frame(SceneKind::EmptyRoom).unwrap();
        let b = cam.capture_frame(SceneKind::Person).unwrap();
        assert_eq!(a.byte_len(), 64 * 48);
        assert_eq!(a.sequence, 0);
        assert_eq!(b.sequence, 1);
        assert_eq!(cam.frame_interval(), SimDuration::from_secs_f64(1.0 / 15.0));
    }

    #[test]
    fn scene_kinds_have_distinguishable_statistics() {
        let mut cam = camera();
        let empty = cam.capture_frame(SceneKind::EmptyRoom).unwrap();
        let person = cam.capture_frame(SceneKind::Person).unwrap();
        let document = cam.capture_frame(SceneKind::Document).unwrap();
        // The empty room is the flattest; documents have by far the most variance.
        assert!(person.intensity_variance() > empty.intensity_variance() * 2.0);
        assert!(document.intensity_variance() > person.intensity_variance());
    }

    #[test]
    fn capture_from_draws_scenes_off_the_source() {
        let mut cam = camera();
        let mut source = FixedScene(SceneKind::Document);
        let frame = cam.capture_from(&mut source).unwrap();
        assert_eq!(frame.scene, SceneKind::Document);
        assert!(source.describe().contains("Document"));
    }

    #[test]
    fn sensitivity_ground_truth_follows_threat_model() {
        assert!(SceneKind::Person.is_sensitive());
        assert!(SceneKind::Document.is_sensitive());
        assert!(!SceneKind::EmptyRoom.is_sensitive());
        assert!(!SceneKind::Pet.is_sensitive());
    }
}

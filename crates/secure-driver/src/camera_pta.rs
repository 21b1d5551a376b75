//! The camera pseudo trusted application.
//!
//! The camera-modality sibling of [`crate::pta::I2sPta`]: it owns the
//! [`SecureCameraDriver`] and exposes configure / start / batched frame
//! capture / stop / stats commands to userland TAs (the vision TA in
//! `perisec-core`). The pixel data it returns never leaves the secure
//! world — its only consumer is the vision TA, which relays verdicts, not
//! frames.

use perisec_optee::{PseudoTa, PtaEnv, TaDescriptor, TeeError, TeeParam, TeeParams, TeeResult};

use crate::camera::{FrameWindowCapture, SecureCameraDriver};

/// Registered name of the camera PTA (its UUID is derived from this).
pub const CAMERA_PTA_NAME: &str = "perisec.camera-pta";

/// Command identifiers understood by the camera PTA.
pub mod cmd {
    /// Configure capture: allocates the secure frame buffers.
    pub const CONFIGURE: u32 = 0;
    /// Start the frame stream.
    pub const START: u32 = 1;
    /// Stop the frame stream.
    pub const STOP: u32 = 3;
    /// Query cumulative statistics: returns `(frames, bytes)` and
    /// `(secure_irqs, 0)` in two value outputs.
    pub const STATS: u32 = 4;
    /// Release all resources.
    pub const SHUTDOWN: u32 = 5;
    /// Batched frame capture: param 0 is an input memref encoding the
    /// window lengths in frames (see
    /// [`super::encode_frames_request`]); returns the
    /// per-window pixels and accounting in an output memref (see
    /// [`super::decode_frame_windows_reply`]) and the
    /// aggregate `(wire_ns, cpu_ns)` in a value output.
    pub const CAPTURE_FRAME_BATCH: u32 = 6;
}

/// Encodes a batch frame-capture request: each window length in frames as
/// a little-endian `u32`.
pub fn encode_frames_request(windows: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(windows.len() * 4);
    for &w in windows {
        out.extend_from_slice(&(w as u32).to_le_bytes());
    }
    out
}

/// Decodes a batch frame-capture request produced by
/// [`encode_frames_request`].
///
/// # Errors
///
/// Returns [`TeeError::BadParameters`] for an empty or ragged buffer.
pub fn decode_frames_request(data: &[u8]) -> TeeResult<Vec<usize>> {
    if data.is_empty() || !data.len().is_multiple_of(4) {
        return Err(TeeError::BadParameters {
            reason: "frame window list must be a non-empty multiple of 4 bytes".to_owned(),
        });
    }
    Ok(data
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")) as usize)
        .collect())
}

/// Encodes a batch frame-capture reply: per window, a `u32` pixel byte
/// length, a `u32` frame count, the frame geometry as two `u16`s, the
/// `(wire_ns, cpu_ns)` accounting as two `u64`s, then the pixels.
pub fn encode_frame_windows_reply(
    captures: &[FrameWindowCapture],
    width: u16,
    height: u16,
) -> Vec<u8> {
    let len = captures
        .iter()
        .map(|c| FRAME_WINDOW_HEADER_LEN + c.pixels.len())
        .sum();
    let mut out = Vec::with_capacity(len);
    for capture in captures {
        out.extend_from_slice(&(capture.pixels.len() as u32).to_le_bytes());
        out.extend_from_slice(&(capture.frames as u32).to_le_bytes());
        out.extend_from_slice(&width.to_le_bytes());
        out.extend_from_slice(&height.to_le_bytes());
        out.extend_from_slice(&capture.report.wire_time.as_nanos().to_le_bytes());
        out.extend_from_slice(&capture.report.cpu_time.as_nanos().to_le_bytes());
        out.extend_from_slice(&capture.pixels);
    }
    out
}

/// Bytes of a window's header in a batch frame-capture reply: the `u32`
/// length and frame count, the two `u16` dimensions and the two `u64`
/// accounting fields.
const FRAME_WINDOW_HEADER_LEN: usize = 28;

/// One decoded window of a batch frame-capture reply, borrowing its pixels
/// from the reply buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameWindowReply<'a> {
    /// Row-major grayscale pixels, frames concatenated.
    pub pixels: &'a [u8],
    /// Number of frames in the window.
    pub frames: usize,
    /// Frame width in pixels.
    pub width: u16,
    /// Frame height in pixels.
    pub height: u16,
    /// Sensor wire time of the window, in nanoseconds.
    pub wire_ns: u64,
    /// Secure CPU time charged for the window, in nanoseconds.
    pub cpu_ns: u64,
}

/// Decodes a batch frame-capture reply produced by
/// [`encode_frame_windows_reply`].
///
/// # Errors
///
/// Returns [`TeeError::Communication`] for truncated buffers.
pub fn decode_frame_windows_reply(data: &[u8]) -> TeeResult<Vec<FrameWindowReply<'_>>> {
    let mut out = Vec::new();
    let mut rest = data;
    while !rest.is_empty() {
        let Some((header, body)) = rest.split_first_chunk::<FRAME_WINDOW_HEADER_LEN>() else {
            return Err(TeeError::Communication {
                reason: "frame batch reply header truncated".to_owned(),
            });
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let frames = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let width = u16::from_le_bytes(header[8..10].try_into().expect("2 bytes"));
        let height = u16::from_le_bytes(header[10..12].try_into().expect("2 bytes"));
        let wire_ns = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        let cpu_ns = u64::from_le_bytes(header[20..].try_into().expect("8 bytes"));
        if body.len() < len {
            return Err(TeeError::Communication {
                reason: "frame batch reply pixels truncated".to_owned(),
            });
        }
        let (pixels, tail) = body.split_at(len);
        out.push(FrameWindowReply {
            pixels,
            frames,
            width,
            height,
            wire_ns,
            cpu_ns,
        });
        rest = tail;
    }
    Ok(out)
}

/// The pseudo trusted application owning the secure camera driver.
pub struct CameraPta {
    driver: SecureCameraDriver,
}

impl std::fmt::Debug for CameraPta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CameraPta")
            .field("driver", &self.driver)
            .finish()
    }
}

impl CameraPta {
    /// Wraps a secure camera driver in the PTA interface.
    pub fn new(driver: SecureCameraDriver) -> Self {
        CameraPta { driver }
    }

    /// Read access to the wrapped driver (for tests and reports).
    pub fn driver(&self) -> &SecureCameraDriver {
        &self.driver
    }
}

/// One frame axis as the u16 of a frame-batch reply header.
/// `CameraSensor::new` bounds both axes by `u16::MAX`, so this fails only
/// if that bound is ever dropped — never by silently truncating.
fn header_axis(pixels: u32) -> TeeResult<u16> {
    u16::try_from(pixels).map_err(|_| TeeError::BadParameters {
        reason: format!("frame axis of {pixels} px does not fit a u16 reply header"),
    })
}

impl PseudoTa for CameraPta {
    fn descriptor(&self) -> TaDescriptor {
        TaDescriptor::new(CAMERA_PTA_NAME, 16, 96)
    }

    fn invoke(&mut self, _env: &mut PtaEnv<'_>, cmd: u32, params: &mut TeeParams) -> TeeResult<()> {
        match cmd {
            cmd::CONFIGURE => self.driver.configure(),
            cmd::START => self.driver.start(),
            cmd::CAPTURE_FRAME_BATCH => {
                let windows = decode_frames_request(params.get(0).as_memref().ok_or(
                    TeeError::BadParameters {
                        reason: "capture-frame-batch expects a memref parameter".to_owned(),
                    },
                )?)?;
                let (width, height) = (
                    header_axis(self.driver.width())?,
                    header_axis(self.driver.height())?,
                );
                let (captures, total) = self.driver.capture_windows(&windows)?;
                params.set(
                    1,
                    TeeParam::MemRefOutput(encode_frame_windows_reply(&captures, width, height)),
                );
                params.set(
                    2,
                    TeeParam::ValueOutput {
                        a: total.wire_time.as_nanos(),
                        b: total.cpu_time.as_nanos(),
                    },
                );
                Ok(())
            }
            cmd::STOP => {
                self.driver.stop();
                Ok(())
            }
            cmd::STATS => {
                let stats = self.driver.stats();
                params.set(
                    0,
                    TeeParam::ValueOutput {
                        a: stats.frames_captured,
                        b: stats.bytes_delivered,
                    },
                );
                params.set(
                    1,
                    TeeParam::ValueOutput {
                        a: stats.secure_irqs,
                        b: 0,
                    },
                );
                Ok(())
            }
            cmd::SHUTDOWN => {
                self.driver.shutdown();
                Ok(())
            }
            other => Err(TeeError::ItemNotFound {
                what: format!("camera pta command {other}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perisec_devices::camera::{CameraSensor, FixedScene, SceneKind};
    use perisec_optee::{Supplicant, TaUuid, TeeCore};
    use perisec_tz::platform::Platform;
    use std::sync::Arc;

    fn registered_pta() -> (Arc<TeeCore>, TaUuid) {
        registered_pta_with(CameraSensor::smart_home("cam", 9).unwrap())
    }

    fn registered_pta_with(sensor: CameraSensor) -> (Arc<TeeCore>, TaUuid) {
        let platform = Platform::jetson_agx_xavier();
        let core = TeeCore::boot(platform.clone(), Arc::new(Supplicant::new()));
        let pta = CameraPta::new(SecureCameraDriver::new(
            platform,
            sensor,
            Box::new(FixedScene(SceneKind::Person)),
        ));
        let uuid = core.register_pta(Box::new(pta)).unwrap();
        (core, uuid)
    }

    #[test]
    fn full_frame_capture_flow_through_the_pta_interface() {
        let (core, uuid) = registered_pta();
        core.invoke_pta(uuid, cmd::CONFIGURE, &mut TeeParams::new())
            .unwrap();
        core.invoke_pta(uuid, cmd::START, &mut TeeParams::new())
            .unwrap();

        let windows = [2usize, 1];
        let mut p =
            TeeParams::new().with(0, TeeParam::MemRefInput(encode_frames_request(&windows)));
        core.invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut p)
            .unwrap();
        let replies = decode_frame_windows_reply(p.get(1).as_memref().unwrap()).unwrap();
        assert_eq!(replies.len(), 2);
        for (reply, frames) in replies.iter().zip(windows) {
            assert_eq!(reply.frames, frames);
            assert_eq!(reply.width, 64);
            assert_eq!(reply.height, 48);
            assert_eq!(reply.pixels.len(), frames * 64 * 48);
            assert!(reply.wire_ns > 0);
            assert!(reply.cpu_ns > 0);
        }
        let (wire_total, _) = p.get(2).as_values().unwrap();
        assert_eq!(wire_total, replies.iter().map(|r| r.wire_ns).sum::<u64>());

        let mut p = TeeParams::new();
        core.invoke_pta(uuid, cmd::STATS, &mut p).unwrap();
        assert_eq!(p.get(0).as_values().unwrap().0, 3);
        core.invoke_pta(uuid, cmd::STOP, &mut TeeParams::new())
            .unwrap();
        core.invoke_pta(uuid, cmd::SHUTDOWN, &mut TeeParams::new())
            .unwrap();
    }

    #[test]
    fn header_axes_are_checked_not_truncated() {
        assert_eq!(header_axis(u32::from(u16::MAX)), Ok(u16::MAX));
        assert!(matches!(
            header_axis(u32::from(u16::MAX) + 1),
            Err(TeeError::BadParameters { .. })
        ));
    }

    #[test]
    fn widest_camera_geometry_survives_the_reply_header() {
        let sensor = CameraSensor::new("wide", u32::from(u16::MAX), 2, 15, 9).unwrap();
        let (core, uuid) = registered_pta_with(sensor);
        core.invoke_pta(uuid, cmd::CONFIGURE, &mut TeeParams::new())
            .unwrap();
        core.invoke_pta(uuid, cmd::START, &mut TeeParams::new())
            .unwrap();
        let mut p = TeeParams::new().with(0, TeeParam::MemRefInput(encode_frames_request(&[1])));
        core.invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut p)
            .unwrap();
        let replies = decode_frame_windows_reply(p.get(1).as_memref().unwrap()).unwrap();
        assert_eq!((replies[0].width, replies[0].height), (u16::MAX, 2));
        assert_eq!(replies[0].pixels.len(), usize::from(u16::MAX) * 2);
    }

    #[test]
    fn bad_commands_and_parameters_are_rejected() {
        let (core, uuid) = registered_pta();
        assert!(core.invoke_pta(uuid, 99, &mut TeeParams::new()).is_err());
        // Batch capture without a memref.
        assert!(core
            .invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut TeeParams::new())
            .is_err());
        // Capture before configure/start.
        let mut p =
            TeeParams::new().with(0, TeeParam::MemRefInput(encode_frames_request(&[1usize])));
        assert!(core
            .invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut p)
            .is_err());
    }

    #[test]
    fn oversized_frame_window_is_rejected_before_any_capture() {
        let (core, uuid) = registered_pta();
        core.invoke_pta(uuid, cmd::CONFIGURE, &mut TeeParams::new())
            .unwrap();
        core.invoke_pta(uuid, cmd::START, &mut TeeParams::new())
            .unwrap();

        // The normal world names a u32::MAX-frame window after a valid
        // one: the batch fails with a typed error, nothing is captured.
        let mut request = encode_frames_request(&[2]);
        request.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut p = TeeParams::new().with(0, TeeParam::MemRefInput(request));
        let err = core
            .invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut p)
            .unwrap_err();
        assert!(
            matches!(
                err,
                TeeError::OutOfMemory { .. } | TeeError::BadParameters { .. }
            ),
            "{err:?}"
        );
        let mut p = TeeParams::new();
        core.invoke_pta(uuid, cmd::STATS, &mut p).unwrap();
        assert_eq!(p.get(0).as_values().unwrap(), (0, 0));
        assert_eq!(p.get(1).as_values().unwrap(), (0, 0));

        // The stream still serves a sane batch afterwards.
        let mut p = TeeParams::new().with(0, TeeParam::MemRefInput(encode_frames_request(&[2])));
        core.invoke_pta(uuid, cmd::CAPTURE_FRAME_BATCH, &mut p)
            .unwrap();
        let replies = decode_frame_windows_reply(p.get(1).as_memref().unwrap()).unwrap();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].pixels.len(), 2 * 64 * 48);
    }

    #[test]
    fn frame_batch_framing_round_trips_and_rejects_garbage() {
        let windows = vec![1usize, 4, 9];
        assert_eq!(
            decode_frames_request(&encode_frames_request(&windows)).unwrap(),
            windows
        );
        assert!(decode_frames_request(&[]).is_err());
        assert!(decode_frames_request(&[1, 2, 3]).is_err());
        assert!(decode_frame_windows_reply(&[0u8; 11]).is_err());
        // Header promising more pixels than present is rejected.
        let mut bogus = vec![0u8; 28];
        bogus[0] = 200;
        assert!(decode_frame_windows_reply(&bogus).is_err());
    }
}

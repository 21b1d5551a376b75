//! DMA engine model.
//!
//! On the real platform the I2S controller's FIFO is drained by a DMA
//! channel into a ring of period buffers in memory; the CPU is only
//! interrupted once per period. The driver (baseline or secure) programs
//! the channel with a destination buffer and a period size, and consumes
//! periods as they complete.
//!
//! The model is synchronous: [`DmaChannel::transfer`] moves samples (and
//! [`DmaChannel::transfer_bytes`] raw bytes, as 16-bit words) into a
//! byte buffer and reports the transfer it performed, including the bus
//! time the transfer would occupy. Period-interrupt pacing is handled by
//! the driver layers, which know about the platform clock.

use serde::{Deserialize, Serialize};

use perisec_tz::time::SimDuration;

use crate::{DeviceError, Result};

/// A completed DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaTransfer {
    /// Bytes written to the destination.
    pub bytes: usize,
    /// Time the transfer occupied on the memory bus.
    pub bus_time: SimDuration,
}

/// Configuration of a DMA channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaConfig {
    /// Burst size in bytes; transfers are rounded up to whole bursts when
    /// computing bus occupancy.
    pub burst_bytes: usize,
    /// Sustained copy bandwidth of the engine in MiB/s.
    pub bandwidth_mib_s: u32,
}

impl DmaConfig {
    /// A Tegra-class audio DMA channel (APE ADMA): 64-byte bursts, ample
    /// bandwidth for audio.
    pub fn audio_default() -> Self {
        DmaConfig {
            burst_bytes: 64,
            bandwidth_mib_s: 1_000,
        }
    }
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig::audio_default()
    }
}

/// A DMA channel that moves 16-bit samples into byte buffers.
#[derive(Debug, Clone)]
pub struct DmaChannel {
    config: DmaConfig,
    transfers: u64,
    bytes_moved: u64,
}

impl DmaChannel {
    /// Creates a channel with the given configuration.
    pub fn new(config: DmaConfig) -> Self {
        DmaChannel {
            config,
            transfers: 0,
            bytes_moved: 0,
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> DmaConfig {
        self.config
    }

    /// Number of transfers performed.
    pub fn transfer_count(&self) -> u64 {
        self.transfers
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Copies `samples` into `dst` as little-endian bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BufferTooSmall`] if `dst` cannot hold all the
    /// samples; nothing is written in that case.
    pub fn transfer(&mut self, samples: &[i16], dst: &mut [u8]) -> Result<DmaTransfer> {
        let required = samples.len() * 2;
        if dst.len() < required {
            return Err(DeviceError::BufferTooSmall {
                required,
                available: dst.len(),
            });
        }
        for (word, s) in dst[..required].chunks_exact_mut(2).zip(samples) {
            word.copy_from_slice(&s.to_le_bytes());
        }
        Ok(self.complete(required))
    }

    /// Copies `bytes` into `dst` as the little-endian 16-bit words
    /// [`DmaChannel::transfer`] moves: two bytes per word, an odd tail
    /// padded with one zero byte. Writes, counts and times exactly what
    /// `transfer` does for the packed words.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BufferTooSmall`] if `dst` cannot hold the
    /// padded bytes; nothing is written in that case.
    pub fn transfer_bytes(&mut self, bytes: &[u8], dst: &mut [u8]) -> Result<DmaTransfer> {
        let required = bytes.len().next_multiple_of(2);
        if dst.len() < required {
            return Err(DeviceError::BufferTooSmall {
                required,
                available: dst.len(),
            });
        }
        dst[..bytes.len()].copy_from_slice(bytes);
        dst[bytes.len()..required].fill(0);
        Ok(self.complete(required))
    }

    /// Counts a transfer of `bytes` and times it on the bus.
    fn complete(&mut self, bytes: usize) -> DmaTransfer {
        self.transfers += 1;
        self.bytes_moved += bytes as u64;
        DmaTransfer {
            bytes,
            bus_time: self.bus_time_for(bytes),
        }
    }

    /// Bus time a transfer of `bytes` occupies, rounded up to whole bursts.
    pub fn bus_time_for(&self, bytes: usize) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let bursts = bytes.div_ceil(self.config.burst_bytes);
        let effective_bytes = bursts * self.config.burst_bytes;
        let bytes_per_sec = self.config.bandwidth_mib_s as f64 * 1024.0 * 1024.0;
        SimDuration::from_secs_f64(effective_bytes as f64 / bytes_per_sec)
    }
}

impl Default for DmaChannel {
    fn default() -> Self {
        DmaChannel::new(DmaConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::bytes_to_pcm;

    #[test]
    fn transfer_round_trips_samples() {
        let mut dma = DmaChannel::default();
        let samples = vec![0i16, 1, -1, i16::MAX, i16::MIN, 12345];
        let mut dst = vec![0u8; samples.len() * 2];
        let t = dma.transfer(&samples, &mut dst).unwrap();
        assert_eq!(t.bytes, 12);
        assert_eq!(bytes_to_pcm(&dst), samples);
        assert_eq!(dma.transfer_count(), 1);
        assert_eq!(dma.bytes_moved(), 12);
    }

    #[test]
    fn transfer_into_small_buffer_fails_cleanly() {
        let mut dma = DmaChannel::default();
        let mut dst = vec![0u8; 4];
        let err = dma.transfer(&[1, 2, 3], &mut dst).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::BufferTooSmall {
                required: 6,
                available: 4
            }
        ));
        assert_eq!(dma.transfer_count(), 0);
        assert!(dst.iter().all(|&b| b == 0));
    }

    #[test]
    fn transfer_bytes_matches_transfer_of_the_packed_words() {
        for len in [0usize, 1, 2, 3, 7, 64, 65, 3072, 3073] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let words: Vec<i16> = bytes
                .chunks(2)
                .map(|c| i16::from_le_bytes([c[0], *c.get(1).unwrap_or(&0)]))
                .collect();
            let (mut by_words, mut by_bytes) = (DmaChannel::default(), DmaChannel::default());
            let mut want = vec![0xAAu8; len + 4];
            let mut got = want.clone();
            let t_words = by_words.transfer(&words, &mut want).unwrap();
            let t_bytes = by_bytes.transfer_bytes(&bytes, &mut got).unwrap();
            assert_eq!(got, want, "{len} bytes");
            assert_eq!(t_bytes, t_words, "{len} bytes");
            assert_eq!(by_bytes.bytes_moved(), by_words.bytes_moved());
            assert_eq!(by_bytes.transfer_count(), by_words.transfer_count());
        }
        // Too small for the padded tail: the same error, nothing written.
        let mut dma = DmaChannel::default();
        let mut dst = vec![0u8; 3];
        let err = dma.transfer_bytes(&[1, 2, 3], &mut dst).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::BufferTooSmall {
                required: 4,
                available: 3
            }
        ));
        assert_eq!(dst, [0; 3]);
        assert_eq!(dma.transfer_count(), 0);
    }

    #[test]
    fn bus_time_rounds_up_to_bursts_and_scales() {
        let dma = DmaChannel::new(DmaConfig {
            burst_bytes: 64,
            bandwidth_mib_s: 1,
        });
        assert_eq!(dma.bus_time_for(0), SimDuration::ZERO);
        let one_burst = dma.bus_time_for(1);
        assert_eq!(one_burst, dma.bus_time_for(64));
        assert_eq!(dma.bus_time_for(65), dma.bus_time_for(128));
        // 1 MiB at 1 MiB/s takes one second.
        let one_mib = dma.bus_time_for(1024 * 1024);
        assert_eq!(one_mib, SimDuration::from_secs(1));
    }
}

//! Shared "physical world" sources feeding the secure drivers.
//!
//! The secure drivers own their sensors, but scenario runners need to feed
//! the outside world into those sensors from outside the TEE simulation:
//!
//! * [`SharedPlayback`] is a [`SignalSource`] backed by a sample queue the
//!   runner refills between utterances; the microphone drains it a FIFO
//!   transfer at a time and reads silence when it is empty.
//! * [`SharedSceneQueue`] is its camera counterpart: a [`SceneSource`]
//!   backed by a scene queue; the camera sensor pops one scene per frame
//!   and sees an empty room when the queue runs dry.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use perisec_devices::camera::{SceneKind, SceneSource};
use perisec_devices::signal::SignalSource;

/// Shared handle used to refill the queue.
#[derive(Debug, Clone, Default)]
pub struct SharedPlayback {
    queue: Arc<Mutex<VecDeque<i16>>>,
}

impl SharedPlayback {
    /// Creates an empty shared playback queue.
    pub fn new() -> Self {
        SharedPlayback::default()
    }

    /// Appends samples to be played next.
    pub fn push(&self, samples: &[i16]) {
        self.queue.lock().extend(samples);
    }

    /// Appends samples padded with trailing silence up to `total_samples`.
    ///
    /// Batched capture queues several utterances back to back; padding each
    /// to its whole-period window keeps later windows aligned to period
    /// boundaries (the unbatched path gets the same effect from clearing
    /// the queue between utterances).
    pub fn push_padded(&self, samples: &[i16], total_samples: usize) {
        let mut queue = self.queue.lock();
        queue.extend(samples);
        let padded = queue.len() + total_samples.saturating_sub(samples.len());
        queue.resize(padded, 0);
    }

    /// Number of queued samples not yet consumed.
    pub fn remaining(&self) -> usize {
        self.queue.lock().len()
    }

    /// Discards everything still queued.
    pub fn clear(&self) {
        self.queue.lock().clear();
    }

    /// Creates the [`SignalSource`] half to hand to a microphone.
    pub fn source(&self) -> Box<dyn SignalSource> {
        Box::new(SharedPlaybackSource {
            queue: Arc::clone(&self.queue),
        })
    }
}

struct SharedPlaybackSource {
    queue: Arc<Mutex<VecDeque<i16>>>,
}

impl SignalSource for SharedPlaybackSource {
    fn next_samples(&mut self, count: usize) -> Vec<i16> {
        let mut out = vec![0; count];
        self.fill(&mut out);
        out
    }

    fn fill(&mut self, out: &mut [i16]) {
        let mut queue = self.queue.lock();
        let n = out.len().min(queue.len());
        let (front, back) = queue.as_slices();
        let from_front = n.min(front.len());
        out[..from_front].copy_from_slice(&front[..from_front]);
        out[from_front..n].copy_from_slice(&back[..n - from_front]);
        queue.drain(..n);
        out[n..].fill(0);
    }

    fn describe(&self) -> String {
        format!(
            "shared playback ({} samples queued)",
            self.queue.lock().len()
        )
    }
}

/// Shared handle used to schedule scenes in front of a camera.
#[derive(Debug, Clone, Default)]
pub struct SharedSceneQueue {
    queue: Arc<Mutex<VecDeque<SceneKind>>>,
}

impl SharedSceneQueue {
    /// Creates an empty scene queue.
    pub fn new() -> Self {
        SharedSceneQueue::default()
    }

    /// Appends `frames` frames of `scene`.
    pub fn push(&self, scene: SceneKind, frames: usize) {
        let mut queue = self.queue.lock();
        for _ in 0..frames {
            queue.push_back(scene);
        }
    }

    /// Number of queued frames not yet consumed.
    pub fn remaining(&self) -> usize {
        self.queue.lock().len()
    }

    /// Discards everything still queued.
    pub fn clear(&self) {
        self.queue.lock().clear();
    }

    /// Creates the [`SceneSource`] half to hand to a camera driver.
    pub fn source(&self) -> Box<dyn SceneSource> {
        Box::new(SharedSceneSource {
            queue: Arc::clone(&self.queue),
        })
    }
}

struct SharedSceneSource {
    queue: Arc<Mutex<VecDeque<SceneKind>>>,
}

impl SceneSource for SharedSceneSource {
    fn next_scene(&mut self) -> SceneKind {
        self.queue
            .lock()
            .pop_front()
            .unwrap_or(SceneKind::EmptyRoom)
    }

    fn describe(&self) -> String {
        format!(
            "shared scene queue ({} frames queued)",
            self.queue.lock().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_queue_is_shared_between_handle_and_source() {
        let scenes = SharedSceneQueue::new();
        let mut source = scenes.source();
        assert_eq!(source.next_scene(), SceneKind::EmptyRoom);
        scenes.push(SceneKind::Person, 2);
        scenes.push(SceneKind::Document, 1);
        assert_eq!(scenes.remaining(), 3);
        assert_eq!(source.next_scene(), SceneKind::Person);
        assert_eq!(source.next_scene(), SceneKind::Person);
        assert_eq!(source.next_scene(), SceneKind::Document);
        assert_eq!(source.next_scene(), SceneKind::EmptyRoom);
        scenes.push(SceneKind::Pet, 5);
        scenes.clear();
        assert_eq!(source.next_scene(), SceneKind::EmptyRoom);
        assert!(source.describe().contains("scene queue"));
    }

    #[test]
    fn fill_reads_across_the_ring_seam() {
        let playback = SharedPlayback::new();
        let mut source = playback.source();
        // Push and partly read until the queue's contents wrap the ring.
        let mut next = 0i16;
        let mut expected = VecDeque::new();
        for _ in 0..64 {
            let chunk: Vec<i16> = (next..next + 5).collect();
            next += 5;
            playback.push_padded(&chunk, 7);
            expected.extend(chunk.iter().copied().chain([0, 0]));
            let mut out = [i16::MIN; 6];
            source.fill(&mut out);
            let want: Vec<i16> = expected.drain(..6).collect();
            assert_eq!(out.as_slice(), want.as_slice());
            let wrapped = !playback.queue.lock().as_slices().1.is_empty();
            if wrapped {
                let mut out = vec![i16::MIN; expected.len() + 3];
                source.fill(&mut out);
                let mut want: Vec<i16> = expected.drain(..).collect();
                want.extend([0, 0, 0]);
                assert_eq!(out, want);
                return;
            }
        }
        panic!("the queue never wrapped");
    }

    #[test]
    fn queue_is_shared_between_handle_and_source() {
        let playback = SharedPlayback::new();
        let mut source = playback.source();
        assert_eq!(source.next_samples(4), vec![0, 0, 0, 0]);
        playback.push(&[1, 2, 3]);
        assert_eq!(playback.remaining(), 3);
        assert_eq!(source.next_samples(2), vec![1, 2]);
        assert_eq!(source.next_samples(4), vec![3, 0, 0, 0]);
        assert_eq!(playback.remaining(), 0);
        playback.push(&[9; 10]);
        playback.clear();
        assert_eq!(source.next_samples(1), vec![0]);
        assert!(source.describe().contains("shared playback"));
    }
}

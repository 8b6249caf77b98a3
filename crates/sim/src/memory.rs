//! Memory-controller bandwidth model.
//!
//! Each channel serves one 64 B line per `line_bytes / bytes_per_cycle`
//! cycles (12.8 GB/s at 2 GHz → 10 cycles per line). Requests queue FIFO
//! behind the channel's next-free time, adding a queueing delay on top of
//! the 120-cycle zero-load latency — enough fidelity to capture the
//! bandwidth pressure of mixes without a full DRAM model.

/// Per-channel service state for all MCUs.
#[derive(Debug, Clone)]
pub struct MemoryChannels {
    next_free: Vec<u64>,
    service_cycles: u64,
    zero_load: u64,
    accesses: u64,
}

impl MemoryChannels {
    /// Creates `channels` channels with the given service rate.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `bytes_per_cycle <= 0`.
    pub fn new(channels: usize, bytes_per_cycle: f64, zero_load: u64) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        Self {
            next_free: vec![0; channels],
            service_cycles: (wp_mem::LINE_BYTES as f64 / bytes_per_cycle).ceil() as u64,
            zero_load,
            accesses: 0,
        }
    }

    /// Issues one line access on `channel` at time `now`; returns total
    /// latency (zero-load + queueing).
    pub fn access(&mut self, channel: usize, now: u64) -> u64 {
        let idx = channel % self.next_free.len();
        let ch = &mut self.next_free[idx];
        let start = (*ch).max(now);
        let queue = start - now;
        *ch = start + self.service_cycles;
        self.accesses += 1;
        self.zero_load + queue
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.next_free.len()
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_channel_has_zero_queue() {
        let mut m = MemoryChannels::new(1, 6.4, 120);
        // Sparse accesses: no queueing.
        assert_eq!(m.access(0, 0), 120);
        assert_eq!(m.access(0, 1000), 120);
    }

    #[test]
    fn saturated_channel_queues() {
        let mut m = MemoryChannels::new(1, 6.4, 120);
        // Burst of 10 simultaneous requests: each waits behind the previous.
        let lats: Vec<u64> = (0..10).map(|_| m.access(0, 0)).collect();
        assert_eq!(lats[0], 120);
        assert!(lats[9] > lats[0]);
        assert_eq!(lats[9], 120 + 9 * 10); // 10-cycle service at 6.4 B/cyc
    }

    #[test]
    fn channels_are_independent() {
        let mut m = MemoryChannels::new(2, 6.4, 120);
        m.access(0, 0);
        assert_eq!(m.access(1, 0), 120, "other channel unaffected");
    }

    #[test]
    fn channel_index_wraps() {
        let mut m = MemoryChannels::new(2, 6.4, 100);
        m.access(5, 0); // maps to channel 1
        assert_eq!(m.access(1, 0), 100 + 10);
    }
}

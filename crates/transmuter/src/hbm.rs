//! Main-memory model: one HBM2 stack with 16 pseudo-channels, each with
//! a sustained service rate and an 80–150 ns access latency window
//! (paper Table II).

/// HBM2 stack model.
///
/// Channels are line-address interleaved. Each channel serialises line
/// transfers at `line_bytes / bytes_per_cycle` cycles per line
/// (bandwidth), while each access additionally experiences a
/// deterministic pseudo-random latency in the configured window
/// (address-hashed, so runs are reproducible).
#[derive(Debug, Clone)]
pub(crate) struct Hbm {
    channels: Vec<u64>,
    line_service_cycles: u64,
    latency_min: u64,
    latency_span: u64,
    reads: u64,
    writes: u64,
    queue_cycles: u64,
}

impl Hbm {
    /// Creates a stack with `channels` pseudo-channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`, `bytes_per_cycle == 0`, or the latency
    /// window is inverted.
    pub fn new(
        channels: usize,
        line_bytes: usize,
        bytes_per_cycle: u64,
        latency_min: u64,
        latency_max: u64,
    ) -> Self {
        assert!(channels > 0, "hbm needs at least one channel");
        assert!(bytes_per_cycle > 0, "hbm bandwidth must be positive");
        assert!(latency_max >= latency_min, "latency window inverted");
        Hbm {
            channels: vec![0; channels],
            line_service_cycles: (line_bytes as u64).div_ceil(bytes_per_cycle),
            latency_min,
            latency_span: latency_max - latency_min + 1,
            reads: 0,
            writes: 0,
            queue_cycles: 0,
        }
    }

    fn channel_of(&self, line: u64) -> usize {
        (line as usize) % self.channels.len()
    }

    /// Deterministic per-line latency in `[min, max]` (splitmix64 hash).
    fn latency_of(&self, line: u64) -> u64 {
        let mut z = line.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        self.latency_min + z % self.latency_span
    }

    /// Issues a demand line read at `cycle`; returns the completion cycle.
    pub fn read(&mut self, line: u64, cycle: u64) -> u64 {
        self.reads += 1;
        self.issue(line, cycle)
    }

    /// Issues a line writeback at `cycle`. Writebacks are off the load
    /// critical path: they consume channel bandwidth (delaying later
    /// accesses) but the caller does not wait on the returned cycle.
    pub fn write(&mut self, line: u64, cycle: u64) -> u64 {
        self.writes += 1;
        self.issue(line, cycle)
    }

    /// Issues a prefetch line read: consumes bandwidth, counted as a read.
    pub fn prefetch(&mut self, line: u64, cycle: u64) -> u64 {
        self.reads += 1;
        self.issue(line, cycle)
    }

    fn issue(&mut self, line: u64, cycle: u64) -> u64 {
        let ch = self.channel_of(line);
        let start = self.channels[ch].max(cycle);
        self.queue_cycles += start - cycle;
        self.channels[ch] = start + self.line_service_cycles;
        start + self.latency_of(line)
    }

    /// Demand + prefetch line reads issued so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Line writebacks issued so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total cycles requests spent waiting for a busy channel
    /// (bandwidth-bound indicator).
    pub fn queue_cycles(&self) -> u64 {
        self.queue_cycles
    }

    /// Resets statistics and channel occupancy.
    pub fn reset(&mut self) {
        self.channels.fill(0);
        self.reads = 0;
        self.writes = 0;
        self.queue_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hbm() -> Hbm {
        Hbm::new(16, 64, 8, 80, 150)
    }

    #[test]
    fn latency_within_window() {
        let h = hbm();
        for line in 0..1000 {
            let l = h.latency_of(line);
            assert!((80..=150).contains(&l), "latency {l} out of window");
        }
    }

    #[test]
    fn latency_deterministic() {
        let h = hbm();
        assert_eq!(h.latency_of(1234), h.latency_of(1234));
    }

    #[test]
    fn same_channel_serialises() {
        let mut h = hbm();
        // Lines 0 and 16 map to channel 0 with 16 channels.
        let a = h.read(0, 0);
        let b = h.read(16, 0);
        // Second access starts after the first's 8-cycle service slot.
        assert!(b >= a.min(8 + 80) && b >= 8 + 80, "b = {b}");
        assert!(h.queue_cycles() >= 8);
    }

    #[test]
    fn different_channels_parallel() {
        let mut h = hbm();
        let _ = h.read(0, 0);
        let before = h.queue_cycles();
        let _ = h.read(1, 0);
        assert_eq!(
            h.queue_cycles(),
            before,
            "different channels must not queue"
        );
    }

    #[test]
    fn counts_reads_and_writes() {
        let mut h = hbm();
        h.read(0, 0);
        h.write(1, 0);
        h.prefetch(2, 0);
        assert_eq!(h.reads(), 2);
        assert_eq!(h.writes(), 1);
    }

    #[test]
    fn reset_clears_state() {
        let mut h = hbm();
        h.read(0, 0);
        h.reset();
        assert_eq!(h.reads(), 0);
        assert_eq!(h.queue_cycles(), 0);
        let t = h.read(0, 0);
        assert!(t <= 150);
    }
}

//! `/proc`-style OS statistics.
//!
//! The paper supplements hardware counters with OS-level data "such as
//! the number of disk writes" read from the proc filesystem (Figure 5:
//! disk writes per second). [`OsStats::render_proc_diskstats`] formats
//! a block the way `/proc/diskstats` would. Nothing in the workspace
//! records into it yet: Figure 5 comes from
//! `dcbench::cluster_experiments::figure5_disk_writes`.

use std::fmt;

/// Accumulated OS-level I/O statistics for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OsStats {
    /// Completed disk write operations.
    pub disk_writes: u64,
    /// Bytes written to disk.
    pub disk_write_bytes: u64,
    /// Completed disk read operations.
    pub disk_reads: u64,
    /// Bytes read from disk.
    pub disk_read_bytes: u64,
    /// Bytes sent on the network.
    pub net_tx_bytes: u64,
    /// Bytes received from the network.
    pub net_rx_bytes: u64,
    /// Wall-clock seconds covered by this sample.
    pub elapsed_secs: f64,
}

impl OsStats {
    /// An empty sample.
    pub fn new() -> Self {
        OsStats::default()
    }

    /// Record a disk write of `bytes` (split into 512-byte sectors, the
    /// granularity `/proc/diskstats` counts).
    pub fn record_disk_write(&mut self, bytes: u64) {
        self.disk_writes += 1;
        self.disk_write_bytes += bytes;
    }

    /// Record a disk read of `bytes`.
    pub fn record_disk_read(&mut self, bytes: u64) {
        self.disk_reads += 1;
        self.disk_read_bytes += bytes;
    }

    /// Record a network transfer of `bytes` from this node.
    pub fn record_net_tx(&mut self, bytes: u64) {
        self.net_tx_bytes += bytes;
    }

    /// Record a network receive of `bytes` into this node.
    pub fn record_net_rx(&mut self, bytes: u64) {
        self.net_rx_bytes += bytes;
    }

    /// Disk write operations per second (Figure 5's metric).
    pub fn disk_writes_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.disk_writes as f64 / self.elapsed_secs
        }
    }

    /// Merge another node's sample into this one (cluster-wide totals;
    /// elapsed time takes the maximum, counts add).
    pub fn merge(&mut self, other: &OsStats) {
        self.disk_writes += other.disk_writes;
        self.disk_write_bytes += other.disk_write_bytes;
        self.disk_reads += other.disk_reads;
        self.disk_read_bytes += other.disk_read_bytes;
        self.net_tx_bytes += other.net_tx_bytes;
        self.net_rx_bytes += other.net_rx_bytes;
        self.elapsed_secs = self.elapsed_secs.max(other.elapsed_secs);
    }

    /// Render in `/proc/diskstats` field order (major minor name reads …
    /// writes sectors-written …) for one synthetic device.
    pub fn render_proc_diskstats(&self, device: &str) -> String {
        format!(
            "   8       0 {} {} 0 {} 0 {} 0 {} 0 0 0 0",
            device,
            self.disk_reads,
            self.disk_read_bytes / 512,
            self.disk_writes,
            self.disk_write_bytes / 512,
        )
    }
}

impl fmt::Display for OsStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "disk: {} writes ({} MiB), {} reads ({} MiB); net: {} MiB tx, {} MiB rx over {:.1}s",
            self.disk_writes,
            self.disk_write_bytes >> 20,
            self.disk_reads,
            self.disk_read_bytes >> 20,
            self.net_tx_bytes >> 20,
            self.net_rx_bytes >> 20,
            self.elapsed_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut s = OsStats::new();
        s.record_disk_write(4096);
        s.record_disk_write(8192);
        s.record_disk_read(512);
        s.record_net_tx(1000);
        s.record_net_rx(2000);
        assert_eq!(s.disk_writes, 2);
        assert_eq!(s.disk_write_bytes, 12_288);
        assert_eq!(s.disk_reads, 1);
        assert_eq!(s.net_tx_bytes, 1000);
        assert_eq!(s.net_rx_bytes, 2000);
    }

    #[test]
    fn writes_per_second() {
        let mut s = OsStats::new();
        for _ in 0..300 {
            s.record_disk_write(4096);
        }
        s.elapsed_secs = 2.0;
        assert!((s.disk_writes_per_sec() - 150.0).abs() < 1e-12);
        let empty = OsStats::new();
        assert_eq!(empty.disk_writes_per_sec(), 0.0);
    }

    #[test]
    fn merge_adds_counts_and_maxes_time() {
        let mut a = OsStats {
            disk_writes: 5,
            elapsed_secs: 3.0,
            ..Default::default()
        };
        let b = OsStats {
            disk_writes: 7,
            elapsed_secs: 2.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.disk_writes, 12);
        assert!((a.elapsed_secs - 3.0).abs() < 1e-12);
    }

    #[test]
    fn proc_render_has_sector_counts() {
        let mut s = OsStats::new();
        s.record_disk_write(1024);
        let line = s.render_proc_diskstats("sda");
        assert!(line.contains("sda"));
        assert!(line.contains(" 2 "), "1024 bytes = 2 sectors: {line}");
    }

    #[test]
    fn display_mentions_units() {
        let s = OsStats::new();
        let out = s.to_string();
        assert!(out.contains("disk"));
        assert!(out.contains("net"));
    }
}

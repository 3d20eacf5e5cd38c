//! Shared configuration vocabulary.
//!
//! Centralizes the knobs that appear throughout the paper: HDFS block size
//! (64 MB default), merge factor `F` (`io.sort.factor`), map output buffer
//! size (`io.sort.mb`), and reducer memory.

/// Bytes in one kibibyte.
pub const KIB: u64 = 1024;
/// Bytes in one mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// Bytes in one gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// Default HDFS block size used by the paper's cluster (§II-A).
pub const DEFAULT_BLOCK_SIZE: u64 = 64 * MIB;

/// Default multi-pass merge factor `F` (Hadoop's `io.sort.factor` default
/// is 10; §II-A describes merging whenever on-disk file count reaches F).
pub const DEFAULT_MERGE_FACTOR: usize = 10;

/// The fractions of map progress at which MapReduce Online (HOP)
/// snapshots its reducers' state (§III-D: 25%, 50% and 75%).
pub const HOP_SNAPSHOTS: &[f64] = &[0.25, 0.50, 0.75];

/// Format a byte count with a binary-unit suffix (e.g. `1.5 GiB`).
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if bytes >= GIB {
        format!("{:.2} GiB", b / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.2} MiB", b / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.2} KiB", b / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

/// Format a duration given in seconds as `Xm Ys` / `Y.Zs`.
pub fn fmt_secs(secs: f64) -> String {
    if secs >= 60.0 {
        let m = (secs / 60.0).floor() as u64;
        let s = secs - m as f64 * 60.0;
        format!("{m}m {s:.0}s")
    } else {
        format!("{secs:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2 * KIB), "2.00 KiB");
        assert_eq!(fmt_bytes(64 * MIB), "64.00 MiB");
        assert_eq!(fmt_bytes(256 * GIB), "256.00 GiB");
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(12.34), "12.3s");
        assert_eq!(fmt_secs(76.0 * 60.0), "76m 0s");
        assert_eq!(fmt_secs(61.0), "1m 1s");
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(DEFAULT_BLOCK_SIZE, 67_108_864);
        assert_eq!(GIB / MIB, 1024);
    }
}

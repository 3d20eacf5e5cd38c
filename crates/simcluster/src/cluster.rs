//! Cluster topology: nodes with cores, disks and NICs, under the three
//! storage architectures of §III (single HDD; HDD + SSD for intermediate
//! data; separated storage and compute subsystems).

use crate::model::DeviceProfile;

/// Storage architecture variants (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageConfig {
    /// Baseline: one HDD per node serves DFS input/output *and*
    /// intermediate data — "the disk is often maxed out and subject to
    /// random I/Os".
    SingleHdd,
    /// §III-C experiment 1: add an SSD per node, dedicated to
    /// intermediate data (map output + reduce spill); the HDD keeps
    /// DFS traffic.
    HddPlusSsd,
    /// §III-C experiment 2: half the nodes become storage-only (DFS);
    /// compute nodes keep their local disk exclusively for intermediate
    /// data but must read input / write output over the network.
    Separated,
}

impl StorageConfig {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            StorageConfig::SingleHdd => "single-hdd",
            StorageConfig::HddPlusSsd => "hdd+ssd",
            StorageConfig::Separated => "separated-storage",
        }
    }
}

/// Cluster hardware specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Worker nodes (the paper's 10 compute nodes).
    pub nodes: usize,
    /// CPU cores per node.
    pub cores_per_node: usize,
    /// Concurrent map task slots per node.
    pub map_slots_per_node: usize,
    /// Storage architecture.
    pub storage: StorageConfig,
    /// Data (DFS) disk profile.
    pub data_disk: DeviceProfile,
    /// Intermediate-data disk profile (equals `data_disk` under
    /// `SingleHdd`; the SSD under `HddPlusSsd`).
    pub inter_disk: DeviceProfile,
    /// NIC profile.
    pub nic: DeviceProfile,
    /// DFS block size, MB.
    pub block_mb: f64,
}

impl ClusterSpec {
    /// The paper's 10-node cluster under the given storage architecture.
    pub fn paper_cluster(storage: StorageConfig) -> Self {
        let inter_disk = match storage {
            StorageConfig::HddPlusSsd => DeviceProfile::ssd(),
            _ => DeviceProfile::hdd(),
        };
        ClusterSpec {
            nodes: 10,
            cores_per_node: 4,
            map_slots_per_node: 4,
            storage,
            data_disk: DeviceProfile::hdd(),
            inter_disk,
            nic: DeviceProfile::gige(),
            block_mb: 64.0,
        }
    }

    /// Compute nodes (those running tasks). Under `Separated`, half the
    /// nodes are storage-only.
    pub fn compute_nodes(&self) -> usize {
        match self.storage {
            StorageConfig::Separated => (self.nodes / 2).max(1),
            _ => self.nodes,
        }
    }

    /// Storage-only nodes (zero except under `Separated`).
    pub fn storage_nodes(&self) -> usize {
        match self.storage {
            StorageConfig::Separated => self.nodes - self.compute_nodes(),
            _ => 0,
        }
    }

    /// Total CPU cores available for tasks.
    pub fn total_cores(&self) -> usize {
        self.compute_nodes() * self.cores_per_node
    }

    /// Does reading DFS data traverse the network?
    pub fn dfs_is_remote(&self) -> bool {
        self.storage == StorageConfig::Separated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_defaults() {
        let c = ClusterSpec::paper_cluster(StorageConfig::SingleHdd);
        assert_eq!(c.nodes, 10);
        assert_eq!(c.compute_nodes(), 10);
        assert_eq!(c.storage_nodes(), 0);
        assert_eq!(c.total_cores(), 40);
        assert!(!c.dfs_is_remote());
        assert_eq!(c.data_disk, c.inter_disk);
    }

    #[test]
    fn ssd_config_uses_fast_intermediate_disk() {
        let c = ClusterSpec::paper_cluster(StorageConfig::HddPlusSsd);
        assert!(c.inter_disk.bandwidth_mb_s > c.data_disk.bandwidth_mb_s);
    }

    #[test]
    fn separated_splits_nodes() {
        let c = ClusterSpec::paper_cluster(StorageConfig::Separated);
        assert_eq!(c.compute_nodes(), 5);
        assert_eq!(c.storage_nodes(), 5);
        assert_eq!(c.total_cores(), 20);
        assert!(c.dfs_is_remote());
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            StorageConfig::SingleHdd.label(),
            StorageConfig::HddPlusSsd.label(),
            StorageConfig::Separated.label(),
        ];
        assert_eq!(
            labels
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
    }
}

//! HDFS-like distributed block store: placement and locality.
//!
//! §II-A: "The Hadoop Distributed File System (HDFS) handles fault
//! tolerance and replication … the unit of data storage is a 64 MB block
//! [which serves] as the task granularity for MapReduce jobs." The
//! paper's cluster ran with replication turned down to 1, and so does
//! the simulator: each block has one replica.
//!
//! Placement follows HDFS's rack-unaware default: blocks rotate
//! round-robin over the data nodes. The simulator's JobTracker uses
//! [`Dfs::primary_blocks`] for locality-aware scheduling — a map task
//! whose block is not on its node pays a network read.

/// The block-placement map of one input file over `data_nodes`.
#[derive(Debug, Clone)]
pub struct Dfs {
    data_nodes: usize,
    blocks: usize,
}

impl Dfs {
    /// Place `blocks` blocks over `data_nodes` nodes.
    pub fn place(blocks: usize, data_nodes: usize) -> Self {
        assert!(data_nodes >= 1, "need at least one data node");
        Dfs { data_nodes, blocks }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The node holding `block`.
    pub fn primary(&self, block: usize) -> usize {
        block % self.data_nodes
    }

    /// Blocks held on `node` (the node's natural work list for
    /// locality-first scheduling).
    pub fn primary_blocks(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.blocks).filter(move |&b| self.primary(b) == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_place_round_robin() {
        let dfs = Dfs::place(10, 4);
        assert_eq!(dfs.primary(0), 0);
        assert_eq!(dfs.primary(5), 1);
        assert_eq!(dfs.primary(6), 2);
    }

    #[test]
    fn primary_blocks_partition_the_file() {
        let dfs = Dfs::place(11, 3);
        let mut all: Vec<usize> = (0..3).flat_map(|n| dfs.primary_blocks(n)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn load_balance_metric() {
        let dfs = Dfs::place(100, 10);
        assert_eq!(dfs.blocks(), 100);
        for node in 0..10 {
            assert_eq!(dfs.primary_blocks(node).count(), 10);
        }
    }
}

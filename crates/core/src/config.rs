//! Interface parameters of the SP-GiST framework (paper Section 3.1).

use spgist_storage::{Codec, StorageError, StorageResult};

/// How the index tree shrinks single-child paths (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathShrink {
    /// No shrinking: one decomposition per level.
    NeverShrink,
    /// Shrink single-child chains only at the leaf level (patricia-style).
    LeafShrink,
    /// Shrink single-child chains anywhere in the tree: inner nodes carry a
    /// multi-level prefix predicate.
    TreeShrink,
}

/// Whether empty partitions are kept in the tree (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeShrink {
    /// Keep all partitions, even empty ones (space-driven trees such as the
    /// PMR quadtree keep all four quadrants).
    KeepEmpty,
    /// Omit empty partitions (forest trie); children are added on demand.
    OmitEmpty,
}

/// The SP-GiST interface parameters (paper Section 3.1, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpGistConfig {
    /// Number of disjoint partitions produced at each decomposition
    /// (`NoOfSpacePartitions`): 27 for the dictionary trie, 2 for the kd-tree,
    /// 4 for quadtrees.
    pub partitions: u32,
    /// Maximum number of data items a leaf (data) node can hold
    /// (`BucketSize`).
    pub bucket_size: usize,
    /// Maximum number of space decompositions (`Resolution`); beyond this
    /// depth leaves are allowed to grow past `bucket_size`.
    pub resolution: u32,
    /// Path-shrinking mode (`PathShrink`).
    pub path_shrink: PathShrink,
    /// Whether empty partitions are kept (`NodeShrink`).
    pub node_shrink: NodeShrink,
    /// When true a leaf overflow splits the node exactly once per insert,
    /// leaving children temporarily overfull — the PMR-quadtree splitting
    /// rule.
    pub split_once: bool,
}

impl Default for SpGistConfig {
    fn default() -> Self {
        SpGistConfig {
            partitions: 2,
            bucket_size: 8,
            resolution: 64,
            path_shrink: PathShrink::NeverShrink,
            node_shrink: NodeShrink::OmitEmpty,
            split_once: false,
        }
    }
}

impl SpGistConfig {
    /// Returns a copy with a different bucket size.
    pub fn with_bucket_size(mut self, bucket_size: usize) -> Self {
        self.bucket_size = bucket_size.max(1);
        self
    }
}

impl Codec for PathShrink {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            PathShrink::NeverShrink => 0,
            PathShrink::LeafShrink => 1,
            PathShrink::TreeShrink => 2,
        });
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(PathShrink::NeverShrink),
            1 => Ok(PathShrink::LeafShrink),
            2 => Ok(PathShrink::TreeShrink),
            tag => Err(StorageError::Decode(format!(
                "invalid PathShrink tag {tag}"
            ))),
        }
    }
}

impl Codec for NodeShrink {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            NodeShrink::KeepEmpty => 0,
            NodeShrink::OmitEmpty => 1,
        });
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(NodeShrink::KeepEmpty),
            1 => Ok(NodeShrink::OmitEmpty),
            tag => Err(StorageError::Decode(format!(
                "invalid NodeShrink tag {tag}"
            ))),
        }
    }
}

/// The durable catalog persists every index's interface parameters so a
/// reopened index runs with exactly the configuration it was created with.
///
/// The last byte is reserved and always `0`: it held the tag of a node→page
/// placement policy until the two alternatives to parent-first placement
/// were deleted, and `0` was parent-first's tag, so every config written
/// before then still decodes.
impl Codec for SpGistConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.partitions.encode(out);
        (self.bucket_size as u64).encode(out);
        self.resolution.encode(out);
        self.path_shrink.encode(out);
        self.node_shrink.encode(out);
        self.split_once.encode(out);
        out.push(0);
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        let config = SpGistConfig {
            partitions: u32::decode(buf)?,
            bucket_size: u64::decode(buf)? as usize,
            resolution: u32::decode(buf)?,
            path_shrink: PathShrink::decode(buf)?,
            node_shrink: NodeShrink::decode(buf)?,
            split_once: bool::decode(buf)?,
        };
        let reserved = u8::decode(buf)?;
        let meaning = match reserved {
            0 => return Ok(config),
            1 => "the removed first-fit placement",
            2 => "the removed new-page-per-node placement",
            _ => "nothing",
        };
        Err(StorageError::Decode(format!(
            "reserved config byte is {reserved}, which selects {meaning}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = SpGistConfig::default();
        assert!(cfg.bucket_size >= 1);
        assert!(cfg.resolution > 0);
    }

    #[test]
    fn config_codec_roundtrips() {
        let cfg = SpGistConfig {
            partitions: 27,
            bucket_size: 16,
            resolution: 128,
            path_shrink: PathShrink::TreeShrink,
            node_shrink: NodeShrink::OmitEmpty,
            split_once: true,
        };
        assert_eq!(SpGistConfig::from_bytes(&cfg.to_bytes()).unwrap(), cfg);
        // Golden bytes, captured from the build that still wrote a placement
        // tag (parent-first = 0) in the last position: every config the
        // catalog ever persisted reads back, and is rewritten identically.
        assert_eq!(
            SpGistConfig::default().to_bytes(),
            [2, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 1, 0, 0]
        );
        assert_eq!(
            cfg.to_bytes(),
            [27, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 2, 1, 1, 0]
        );
        // A bad enum tag is a decode error, not a panic — the tags of the
        // two removed placement policies included, by name.
        let mut bytes = cfg.to_bytes();
        let last = bytes.len() - 1;
        for (tag, needle) in [(1, "first-fit"), (2, "new-page-per-node"), (9, "nothing")] {
            bytes[last] = tag;
            match SpGistConfig::from_bytes(&bytes) {
                Err(StorageError::Decode(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("tag {tag} must be a decode error, got {other:?}"),
            }
        }
    }

    #[test]
    fn builders_override_fields() {
        let cfg = SpGistConfig::default().with_bucket_size(0);
        assert_eq!(cfg.bucket_size, 1, "bucket size is clamped to at least 1");
    }
}

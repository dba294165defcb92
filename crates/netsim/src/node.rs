//! Nodes and static routing.
//!
//! A node is a host or router with a per-destination routing table and an
//! optional default route. Routing is static: the experiments use fixed
//! dumbbell and parking-lot topologies, so tables are filled once at
//! construction time by [`crate::topology`] helpers (or by hand for custom
//! topologies).

use crate::ids::{LinkId, NodeId};

/// A host or router.
///
/// The routing table is dense: a `Vec` indexed by the destination
/// [`NodeId`], with `None` where the node has no specific route.
/// [`Node::route`] runs for every packet at every hop, so it is one
/// bounds-checked load whatever the table size. Node ids are small arena
/// indices, so a router's table is at most one slot per node in the
/// topology (a few thousand entries on a 1,024-flow parking lot), and
/// hosts, which only default-route, keep an empty one.
#[derive(Debug, Default, Clone)]
pub struct Node {
    /// Out-link per destination index; `None` falls back to the default.
    routes: Vec<Option<LinkId>>,
    default_route: Option<LinkId>,
}

impl Node {
    /// An empty node with no routes.
    pub fn new() -> Self {
        Node::default()
    }

    /// Install a route: packets for `dst` leave on `link`. Re-adding a
    /// destination replaces its entry.
    pub fn add_route(&mut self, dst: NodeId, link: LinkId) {
        if self.routes.len() <= dst.index() {
            self.routes.resize(dst.index() + 1, None);
        }
        self.routes[dst.index()] = Some(link);
    }

    /// Install the default route used when no per-destination entry
    /// matches (typical for stub hosts with a single uplink).
    pub fn set_default_route(&mut self, link: LinkId) {
        self.default_route = Some(link);
    }

    /// Outgoing link for `dst`, if the node knows one.
    #[inline]
    pub fn route(&self, dst: NodeId) -> Option<LinkId> {
        match self.routes.get(dst.index()) {
            Some(&Some(link)) => Some(link),
            _ => self.default_route,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn specific_route_wins_over_default() {
        let mut n = Node::new();
        let dst = NodeId::from_index(7);
        let specific = LinkId::from_index(1);
        let fallback = LinkId::from_index(2);
        n.set_default_route(fallback);
        n.add_route(dst, specific);
        assert_eq!(n.route(dst), Some(specific));
        assert_eq!(n.route(NodeId::from_index(8)), Some(fallback));
    }

    #[test]
    fn no_route_when_empty() {
        let n = Node::new();
        assert_eq!(n.route(NodeId::from_index(0)), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// The dense table answers every lookup exactly like a `BTreeMap`
        /// of the installed routes with the default as fallback: over
        /// random install sequences (destinations re-added with a new
        /// link), lookups past the end of the table, and a default route
        /// set at a random point of the sequence, or never.
        #[test]
        fn dense_table_matches_btreemap_oracle(
            ops in prop::collection::vec(0u64..u64::MAX, 0..64),
            default_at in 0usize..80,
            default_link in 0usize..8,
        ) {
            let mut node = Node::new();
            let mut oracle: BTreeMap<NodeId, LinkId> = BTreeMap::new();
            let mut default = None;
            for (i, op) in ops.iter().enumerate() {
                if i == default_at {
                    node.set_default_route(LinkId::from_index(default_link));
                    default = Some(LinkId::from_index(default_link));
                }
                // Destinations cluster below 48 so re-adds are common.
                let dst = NodeId::from_index((op % 48) as usize);
                let link = LinkId::from_index((op >> 8) as usize % 8);
                node.add_route(dst, link);
                oracle.insert(dst, link);
                // Probe past the end of the table, not only inside it.
                for probe in 0..64 {
                    let d = NodeId::from_index(probe);
                    let want = oracle.get(&d).copied().or(default);
                    prop_assert_eq!(node.route(d), want, "dst {} after op {}", d, i);
                }
            }
            if default_at >= ops.len() {
                node.set_default_route(LinkId::from_index(default_link));
                default = Some(LinkId::from_index(default_link));
            }
            for probe in [0usize, 47, 48, 1_000, u32::MAX as usize] {
                let d = NodeId::from_index(probe);
                prop_assert_eq!(node.route(d), oracle.get(&d).copied().or(default));
            }
        }
    }
}

//! Output checks. Every publication a workload makes is checked here; a
//! failed check fails the run and counts every delivery of that
//! publication as not made.

use select_core::RoutingTree;
use std::collections::HashSet;
use std::fmt;

/// Why a publication's output was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// A delivered path is empty or does not start at the publisher.
    WrongStart { path: usize },
    /// A path ends at a peer that is not an online subscriber.
    NotSubscriber { peer: u32 },
    /// Two paths (or a path and a failure entry) name one subscriber.
    Duplicate { peer: u32 },
    /// A hop crosses no current overlay connection of its sender.
    NotConnected { from: u32, to: u32 },
    /// Delivered plus failed does not account for every subscriber.
    Unaccounted {
        subscribers: usize,
        accounted: usize,
    },
    /// The acked set differs from the set the tree delivers to.
    AckMismatch { missing: usize, unexpected: usize },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Path totals of one checked tree, for the hop and relay means.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathStats {
    pub delivered: usize,
    pub hops: usize,
    /// Intermediate peers on delivered paths that are not subscribers.
    pub relays: usize,
}

/// Checks `tree` against the publication's `subscribers` (ascending):
/// every delivered path starts at the publisher and ends at a distinct
/// online subscriber, every subscriber is either delivered or listed as
/// failed, and — when `connected` is given — every hop is a current overlay
/// connection of its sender.
pub fn check_tree(
    tree: &RoutingTree,
    subscribers: &[u32],
    online: impl Fn(u32) -> bool,
    mut connected: Option<&mut dyn FnMut(u32, u32) -> bool>,
) -> Result<PathStats, CheckError> {
    let mut seen = vec![false; subscribers.len()];
    let mut mark = |peer: u32| -> Result<(), CheckError> {
        let i = subscribers
            .binary_search(&peer)
            .map_err(|_| CheckError::NotSubscriber { peer })?;
        if std::mem::replace(&mut seen[i], true) {
            return Err(CheckError::Duplicate { peer });
        }
        Ok(())
    };
    let mut stats = PathStats::default();
    for (i, path) in tree.paths().enumerate() {
        if path.len() < 2 || path[0] != tree.publisher {
            return Err(CheckError::WrongStart { path: i });
        }
        let end = path[path.len() - 1];
        if !online(end) {
            return Err(CheckError::NotSubscriber { peer: end });
        }
        mark(end)?;
        if let Some(connected) = connected.as_deref_mut() {
            if let Some(w) = path.windows(2).find(|w| !connected(w[0], w[1])) {
                return Err(CheckError::NotConnected {
                    from: w[0],
                    to: w[1],
                });
            }
        }
        stats.delivered += 1;
        stats.hops += path.len() - 1;
        stats.relays += path[1..path.len() - 1]
            .iter()
            .filter(|q| subscribers.binary_search(q).is_err())
            .count();
    }
    for &peer in &tree.failed {
        mark(peer)?;
    }
    let accounted = stats.delivered + tree.failed.len();
    if accounted != subscribers.len() {
        return Err(CheckError::Unaccounted {
            subscribers: subscribers.len(),
            accounted,
        });
    }
    Ok(stats)
}

/// Checks a wire publication: the acked set must equal the set of peers
/// the tree delivers to (every path node but the publisher).
pub fn check_acks(tree: &RoutingTree, acked: &HashSet<u32>) -> Result<(), CheckError> {
    let expect: HashSet<u32> = tree
        .paths()
        .flat_map(|p| p.iter().copied())
        .filter(|&q| q != tree.publisher)
        .collect();
    let missing = expect.difference(acked).count();
    let unexpected = acked.difference(&expect).count();
    if missing + unexpected > 0 {
        return Err(CheckError::AckMismatch {
            missing,
            unexpected,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Publisher 0 with subscribers 1, 2, 4; 3 is a non-subscriber relay.
    fn good() -> RoutingTree {
        RoutingTree::from_paths(0, [vec![0, 1], vec![0, 1, 2], vec![0, 3, 4]])
    }

    const SUBS: &[u32] = &[1, 2, 4];
    const LINKS: &[(u32, u32)] = &[(0, 1), (1, 2), (0, 3), (3, 4)];

    fn linked(a: u32, b: u32) -> bool {
        LINKS.contains(&(a, b))
    }

    fn check(tree: &RoutingTree) -> Result<PathStats, CheckError> {
        let mut hop = linked;
        check_tree(tree, SUBS, |_| true, Some(&mut hop))
    }

    #[test]
    fn a_correct_tree_passes_with_its_hop_and_relay_totals() {
        let stats = check(&good()).unwrap();
        assert_eq!(
            stats,
            PathStats {
                delivered: 3,
                hops: 5,
                relays: 1
            }
        );
    }

    #[test]
    fn corrupted_trees_are_rejected() {
        let wrong_start = RoutingTree::from_paths(0, [vec![0, 1], vec![1, 2], vec![0, 3, 4]]);
        assert_eq!(check(&wrong_start), Err(CheckError::WrongStart { path: 1 }));

        let dup = RoutingTree::from_paths(0, [vec![0, 1], vec![0, 1], vec![0, 3, 4]]);
        assert_eq!(check(&dup), Err(CheckError::Duplicate { peer: 1 }));

        let stranger = RoutingTree::from_paths(0, [vec![0, 1], vec![0, 1, 2], vec![0, 3]]);
        assert_eq!(check(&stranger), Err(CheckError::NotSubscriber { peer: 3 }));

        let shortcut = RoutingTree::from_paths(0, [vec![0, 1], vec![0, 2], vec![0, 3, 4]]);
        assert_eq!(
            check(&shortcut),
            Err(CheckError::NotConnected { from: 0, to: 2 })
        );

        let mut short = RoutingTree::from_paths(0, [vec![0, 1], vec![0, 1, 2]]);
        assert_eq!(
            check(&short),
            Err(CheckError::Unaccounted {
                subscribers: 3,
                accounted: 2
            })
        );
        short.failed.push(4);
        assert!(check(&short).is_ok(), "a listed failure accounts for 4");

        let offline = check_tree(&good(), SUBS, |p| p != 2, None);
        assert_eq!(offline, Err(CheckError::NotSubscriber { peer: 2 }));
    }

    #[test]
    fn acks_must_match_the_tree_exactly() {
        let tree = good();
        let all: HashSet<u32> = [1, 2, 3, 4].into();
        assert!(check_acks(&tree, &all).is_ok());
        let missing: HashSet<u32> = [1, 2, 3].into();
        assert_eq!(
            check_acks(&tree, &missing),
            Err(CheckError::AckMismatch {
                missing: 1,
                unexpected: 0
            })
        );
        let extra: HashSet<u32> = [1, 2, 3, 4, 9].into();
        assert_eq!(
            check_acks(&tree, &extra),
            Err(CheckError::AckMismatch {
                missing: 0,
                unexpected: 1
            })
        );
    }
}

//! Popularity-based layout (PL): reference counting, exponential grouping,
//! and migration planning.
//!
//! Paper Section 4.2: the controller counts DMA references per page, ages
//! the counters each interval, and periodically recomputes a layout that
//! packs the pages responsible for `p` (default 60 %) of recent accesses
//! into a small set of hot chips. The hot chips are subdivided into `K - 1`
//! groups with exponentially growing sizes (1, 2, 4, ...); the last group is
//! the cold group. With `K = 2` there is just one hot group — the paper's
//! best configuration.

use iobus::PageId;

use crate::config::PlConfig;
use crate::layout::PageMap;

/// Per-page DMA reference counters with periodic aging.
///
/// # Example
///
/// ```
/// use dmamem::controller::pl::PopularityTracker;
///
/// let mut t = PopularityTracker::new(4);
/// t.record(1);
/// t.record(1);
/// t.record(3);
/// assert_eq!(t.count(1), 2);
/// t.age();
/// assert_eq!(t.count(1), 1);
/// assert_eq!(t.count(3), 0);
/// ```
#[derive(Debug, Clone)]
pub struct PopularityTracker {
    counts: Vec<u32>,
    total: u64,
}

impl PopularityTracker {
    /// Creates zeroed counters for `pages` pages.
    pub fn new(pages: usize) -> Self {
        PopularityTracker {
            counts: vec![0; pages],
            total: 0,
        }
    }

    /// Records one DMA reference to `page` (saturating).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn record(&mut self, page: PageId) {
        let c = &mut self.counts[page as usize];
        if *c < u32::MAX {
            *c += 1;
            self.total += 1;
        }
    }

    /// Reference count of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn count(&self, page: PageId) -> u32 {
        self.counts[page as usize]
    }

    /// Sum of all counters.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Ages every counter by a right shift (paper Section 4.2.1), so the
    /// layout adapts to workload drift without forgetting instantly.
    pub fn age(&mut self) {
        self.total = 0;
        for c in &mut self.counts {
            *c >>= 1;
            self.total += u64::from(*c);
        }
    }

    /// Pages with nonzero counts, hottest first (ties: lower page id
    /// first, for determinism).
    pub fn ranked(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = (0..self.counts.len() as u64)
            .filter(|&p| self.counts[p as usize] > 0)
            .collect();
        pages.sort_by(|&a, &b| {
            self.counts[b as usize]
                .cmp(&self.counts[a as usize])
                .then(a.cmp(&b))
        });
        pages
    }
}

/// The chip partition for one interval: `group_chips[i]` chips belong to
/// group `i` (hottest first); the final entry is the cold group. Groups own
/// contiguous chip-index ranges starting at chip 0, which keeps the hot
/// chips stable across intervals and minimizes shuffling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupLayout {
    group_chips: Vec<usize>,
}

impl GroupLayout {
    /// Splits `n_hot` hot chips (plus `total - n_hot` cold ones) into
    /// `groups` groups. The `groups - 1` hot groups grow exponentially
    /// (1, 2, 4, ...) with the last hot group absorbing the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `groups < 2`, `total` is zero, or `n_hot >= total` (at
    /// least one chip must stay cold).
    pub fn new(groups: usize, n_hot: usize, total: usize) -> Self {
        assert!(groups >= 2, "need a hot and a cold group");
        assert!(total > 0, "no chips");
        assert!(n_hot < total, "at least one chip must stay cold");
        let hot_groups = groups - 1;
        let mut group_chips = Vec::with_capacity(groups);
        let mut remaining = n_hot;
        for i in 0..hot_groups {
            let is_last_hot = i + 1 == hot_groups;
            let size = if is_last_hot {
                remaining
            } else {
                remaining.min(1 << i)
            };
            group_chips.push(size);
            remaining -= size;
        }
        group_chips.push(total - n_hot);
        GroupLayout { group_chips }
    }

    /// Number of groups (including the cold group).
    pub fn groups(&self) -> usize {
        self.group_chips.len()
    }

    /// Chips in group `g`.
    pub fn chips_in(&self, g: usize) -> usize {
        self.group_chips[g]
    }

    /// The contiguous chip-index range `[start, end)` owned by group `g`.
    pub fn chip_range(&self, g: usize) -> (usize, usize) {
        let start: usize = self.group_chips[..g].iter().sum();
        (start, start + self.group_chips[g])
    }

    /// The group owning chip index `chip`.
    pub fn group_of_chip(&self, chip: usize) -> usize {
        let mut acc = 0;
        for (g, &n) in self.group_chips.iter().enumerate() {
            acc += n;
            if chip < acc {
                return g;
            }
        }
        self.group_chips.len() - 1
    }

    /// The hot groups that own chips, as `(group, chip range)`, hottest
    /// first.
    fn owning_hot_groups(&self) -> impl Iterator<Item = (usize, (usize, usize))> + '_ {
        (0..self.groups() - 1)
            .map(|g| (g, self.chip_range(g)))
            .filter(|(_, (start, end))| start < end)
    }
}

/// Whether a `groups`-group plan at `n_hot` hot chips (of `total`) is the
/// two-group plan: its hot groups that own chips are the two-group
/// layout's, with the same indices and chip ranges.
///
/// [`plan_and_apply_observed`] reads `groups` only through
/// [`GroupLayout::new`], and a hot group with no chips targets no pages
/// and makes no moves, so from equal inputs such a plan produces the
/// same moves as the two-group plan. For `groups > 2` this holds exactly
/// when `n_hot <= 1`, and agreement at `n_hot` implies agreement at every
/// smaller count: a run whose largest plan agreed agreed at every plan.
///
/// # Panics
///
/// Panics if `groups < 2`, `total` is zero, or `n_hot >= total` (see
/// [`GroupLayout::new`]).
pub fn agrees_with_two_groups(groups: usize, n_hot: usize, total: usize) -> bool {
    GroupLayout::new(groups, n_hot, total)
        .owning_hot_groups()
        .eq(GroupLayout::new(2, n_hot, total).owning_hot_groups())
}

/// One planned page move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Page to relocate.
    pub page: PageId,
    /// Source chip.
    pub from: usize,
    /// Destination chip.
    pub to: usize,
}

/// Plans one interval's migrations: assigns ranked-hot pages to the hot
/// groups (capacity permitting) and produces the moves — including
/// evictions of cold pages that make room — that realize the layout.
/// Executes against a *copy* of the map logic by actually applying moves to
/// `map`, so the returned plan is guaranteed feasible in order.
///
/// Returns the applied moves; `map` reflects the new layout on return.
pub fn plan_and_apply(
    tracker: &PopularityTracker,
    map: &mut PageMap,
    config: &PlConfig,
    frames_per_chip: usize,
) -> Vec<Move> {
    plan_and_apply_with_floor(tracker, map, config, frames_per_chip, 1)
}

/// What one planning interval decided, for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Pages in the hot set (the prefix covering `p` of recent traffic).
    pub hot_pages: usize,
    /// Chips assigned to the hot groups.
    pub hot_chips: usize,
}

/// [`plan_and_apply`] with a capacity floor on the hot-chip count:
/// concentrating `p` of the traffic onto fewer chips than can absorb its
/// bandwidth would oversubscribe them (queueing instead of alignment), so
/// the caller passes `min_hot_chips = ceil(p * total_bus_bw / Rm)`.
pub fn plan_and_apply_with_floor(
    tracker: &PopularityTracker,
    map: &mut PageMap,
    config: &PlConfig,
    frames_per_chip: usize,
    min_hot_chips: usize,
) -> Vec<Move> {
    plan_and_apply_observed(tracker, map, config, frames_per_chip, min_hot_chips).0
}

/// [`plan_and_apply_with_floor`], additionally reporting the interval's
/// planning statistics for the observability layer.
pub fn plan_and_apply_observed(
    tracker: &PopularityTracker,
    map: &mut PageMap,
    config: &PlConfig,
    frames_per_chip: usize,
    min_hot_chips: usize,
) -> (Vec<Move>, PlanStats) {
    let total = tracker.total();
    if total == 0 {
        return (Vec::new(), PlanStats::default());
    }
    let ranked = tracker.ranked();

    // Hot set: smallest prefix of ranked pages covering p of the traffic.
    let target = (config.p * total as f64).ceil() as u64;
    let mut acc = 0u64;
    let mut hot_len = 0;
    for &p in &ranked {
        acc += u64::from(tracker.count(p));
        hot_len += 1;
        if acc >= target {
            break;
        }
    }
    let hot = &ranked[..hot_len];

    // Chips needed to hold the hot set (bandwidth floor included); leave
    // at least one cold chip.
    let n_hot = hot_len
        .div_ceil(frames_per_chip)
        .max(min_hot_chips)
        .min(map.chips() - 1)
        .max(1);
    let stats = PlanStats {
        hot_pages: hot_len,
        hot_chips: n_hot,
    };
    let layout = GroupLayout::new(config.groups, n_hot, map.chips());

    // Target group per hot page: hottest pages fill group 0, then 1, ...
    // Each group's page capacity is its chip count times frames_per_chip.
    let mut moves = Vec::new();
    let mut target_of: std::collections::BTreeMap<PageId, usize> =
        std::collections::BTreeMap::new();
    {
        let mut cursor = 0usize;
        for g in 0..layout.groups() - 1 {
            let capacity = layout.chips_in(g) * frames_per_chip;
            for &p in &hot[cursor..(cursor + capacity).min(hot_len)] {
                target_of.insert(p, g);
            }
            cursor = (cursor + capacity).min(hot_len);
        }
    }
    let mut cursor = 0usize; // index into `hot`
    for g in 0..layout.groups() - 1 {
        let (start, end) = layout.chip_range(g);
        let capacity = layout.chips_in(g) * frames_per_chip;
        let pages_for_group: Vec<PageId> = hot[cursor..(cursor + capacity).min(hot_len)].to_vec();
        cursor += pages_for_group.len();
        for page in pages_for_group {
            if moves.len() >= config.max_moves_per_interval {
                return (moves, stats);
            }
            let cur = map.chip_of(page);
            if (start..end).contains(&cur) {
                continue; // already placed
            }
            if config.min_count_to_migrate > 0 && tracker.count(page) < config.min_count_to_migrate
            {
                continue; // cost-benefit gate: too cold to pay for a move
            }
            // Destination: first group chip with a free frame.
            let dst = (start..end).find(|&c| map.free_frames(c) > 0);
            let dst = match dst {
                Some(c) => c,
                None => {
                    // Make room: evict a non-hot page from a group chip,
                    // preferably into a free cold-side frame; when memory
                    // is fully occupied, fall back to a direct swap with
                    // the incoming hot page (two copies either way).
                    let mut chosen = None;
                    'search: for c in start..end {
                        let incoming_chip = map.chip_of(page);
                        // A victim is any page not targeted at this group
                        // (cold pages, or hot pages belonging elsewhere).
                        if let Some(victim) =
                            map.find_victim(c, |p| target_of.get(&p) != Some(&g) && p != page)
                        {
                            let cold_dst = (0..map.chips())
                                .filter(|&cc| !(start..end).contains(&cc))
                                .find(|&cc| map.free_frames(cc) > 0);
                            if let Some(cc) = cold_dst {
                                let vfrom = map.chip_of(victim);
                                if map.move_page(victim, cc) {
                                    moves.push(Move {
                                        page: victim,
                                        from: vfrom,
                                        to: cc,
                                    });
                                    chosen = Some(c);
                                    break 'search;
                                }
                            } else if map.swap_pages(page, victim) {
                                // Fully occupied memory: swap in place.
                                moves.push(Move {
                                    page,
                                    from: incoming_chip,
                                    to: c,
                                });
                                moves.push(Move {
                                    page: victim,
                                    from: c,
                                    to: incoming_chip,
                                });
                                chosen = None; // already placed via swap
                                break 'search;
                            }
                        }
                    }
                    match chosen {
                        Some(c) => c,
                        None => continue, // placed by swap, or nowhere to go
                    }
                }
            };
            let from = map.chip_of(page);
            if map.move_page(page, dst) {
                moves.push(Move {
                    page,
                    from,
                    to: dst,
                });
            }
        }
    }
    (moves, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use mempower::PowerModel;

    fn small_map(pages: usize, chips: usize, frames: usize) -> (PageMap, SystemConfig) {
        let config = SystemConfig {
            chips,
            power_model: PowerModel::rdram().with_chip_bytes(frames as u64 * 8192),
            pages,
            ..Default::default()
        };
        (PageMap::new_sequential(&config), config)
    }

    #[test]
    fn tracker_records_and_ages() {
        let mut t = PopularityTracker::new(8);
        for _ in 0..5 {
            t.record(2);
        }
        t.record(7);
        assert_eq!(t.total(), 6);
        assert_eq!(t.ranked(), vec![2, 7]);
        t.age();
        assert_eq!(t.count(2), 2);
        assert_eq!(t.count(7), 0);
        assert_eq!(t.total(), 2);
        assert_eq!(t.ranked(), vec![2]);
    }

    #[test]
    fn ranked_breaks_ties_by_page_id() {
        let mut t = PopularityTracker::new(5);
        t.record(4);
        t.record(1);
        t.record(3);
        assert_eq!(t.ranked(), vec![1, 3, 4]);
    }

    #[test]
    fn group_layout_two_groups() {
        let l = GroupLayout::new(2, 4, 32);
        assert_eq!(l.groups(), 2);
        assert_eq!(l.chips_in(0), 4);
        assert_eq!(l.chips_in(1), 28);
        assert_eq!(l.chip_range(0), (0, 4));
        assert_eq!(l.chip_range(1), (4, 32));
        assert_eq!(l.group_of_chip(0), 0);
        assert_eq!(l.group_of_chip(4), 1);
        assert_eq!(l.group_of_chip(31), 1);
    }

    #[test]
    fn group_layout_exponential_sizes() {
        // 6 groups, 16 hot chips: hot groups 1, 2, 4, 8, then remainder 1.
        let l = GroupLayout::new(6, 16, 32);
        assert_eq!(
            (0..6).map(|g| l.chips_in(g)).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 1, 16]
        );
    }

    #[test]
    fn group_layout_small_hot_set() {
        // 3 groups but only 1 hot chip: [1, 0, cold].
        let l = GroupLayout::new(3, 1, 8);
        assert_eq!(
            (0..3).map(|g| l.chips_in(g)).collect::<Vec<_>>(),
            vec![1, 0, 7]
        );
    }

    #[test]
    fn layouts_agree_with_two_groups_only_up_to_one_hot_chip() {
        let total = 32;
        for groups in 3..=8 {
            let agrees: Vec<bool> = (0..total)
                .map(|n_hot| agrees_with_two_groups(groups, n_hot, total))
                .collect();
            for (n_hot, &a) in agrees.iter().enumerate() {
                // n_hot = 0 is the stats of an empty tracker's plan.
                assert_eq!(a, n_hot <= 1, "K = {groups}, n_hot = {n_hot}");
                // Monotone: agreement at n_hot holds at every smaller count,
                // so a run's largest hot-chip count decides for all its plans.
                if a {
                    assert!(agrees[..n_hot].iter().all(|&b| b), "K = {groups}");
                }
            }
        }
        // Two groups always agree with themselves.
        assert!((0..total).all(|n_hot| agrees_with_two_groups(2, n_hot, total)));
    }

    #[test]
    fn plan_concentrates_hot_pages() {
        // 16 pages over 4 chips (4 frames each, full). Make pages 12..16
        // (on chip 3) hot; they should migrate toward chip 0.
        let (mut map, _) = small_map(16, 4, 8); // 8 frames/chip: half free
        let mut t = PopularityTracker::new(16);
        for _ in 0..10 {
            for p in 12..16 {
                t.record(p);
            }
        }
        // A trickle on everything else.
        for p in 0..12 {
            t.record(p);
        }
        let moves = plan_and_apply(&t, &mut map, &PlConfig::new(2), 8);
        assert!(!moves.is_empty());
        map.check_invariants();
        // All four hot pages now live on chip 0 (one chip holds them all).
        for p in 12..16u64 {
            assert_eq!(map.chip_of(p), 0, "page {p} not on hot chip");
        }
    }

    #[test]
    fn observed_plan_reports_hot_set() {
        let (mut map, _) = small_map(16, 4, 8);
        let mut t = PopularityTracker::new(16);
        for _ in 0..10 {
            for p in 12..16 {
                t.record(p);
            }
        }
        // p = 0.6 of 40 accesses = 24, covered by the 3 hottest pages; one
        // 8-frame chip holds them all.
        let (moves, stats) = plan_and_apply_observed(&t, &mut map, &PlConfig::new(2), 8, 1);
        assert!(!moves.is_empty());
        assert_eq!(
            stats,
            PlanStats {
                hot_pages: 3,
                hot_chips: 1
            }
        );
        // Empty tracker: default stats.
        let empty = PopularityTracker::new(16);
        let (m2, s2) = plan_and_apply_observed(&empty, &mut map, &PlConfig::new(2), 8, 1);
        assert!(m2.is_empty());
        assert_eq!(s2, PlanStats::default());
    }

    #[test]
    fn plan_is_identical_across_repeated_runs() {
        // Regression for the `target_of` container: a hash-ordered map
        // here would make the eviction victim choice depend on the hash
        // seed. Plan from identical inputs many times — with heavy count
        // ties so ranking and victim selection are maximally contestable
        // — and require byte-identical move lists.
        let mut reference: Option<Vec<Move>> = None;
        for _ in 0..8 {
            let (mut map, _) = small_map(32, 4, 8);
            let mut t = PopularityTracker::new(32);
            // Two tiers, each internally tied: 8 hot pages with count 5,
            // 24 lukewarm pages with count 1.
            for p in 24..32 {
                for _ in 0..5 {
                    t.record(p);
                }
            }
            for p in 0..24 {
                t.record(p);
            }
            let moves = plan_and_apply(&t, &mut map, &PlConfig::new(3), 8);
            map.check_invariants();
            match &reference {
                None => reference = Some(moves),
                Some(first) => assert_eq!(first, &moves, "plan diverged across runs"),
            }
        }
        assert!(!reference.expect("ran at least once").is_empty());
    }

    #[test]
    fn plan_is_idempotent_once_placed() {
        let (mut map, _) = small_map(16, 4, 8);
        let mut t = PopularityTracker::new(16);
        for _ in 0..10 {
            for p in 12..16 {
                t.record(p);
            }
        }
        let first = plan_and_apply(&t, &mut map, &PlConfig::new(2), 8);
        assert!(!first.is_empty());
        let second = plan_and_apply(&t, &mut map, &PlConfig::new(2), 8);
        assert!(second.is_empty(), "re-plan moved pages again: {second:?}");
    }

    #[test]
    fn plan_evicts_when_hot_chip_full() {
        // Full occupancy: every move needs an eviction first.
        let (mut map, _) = small_map(16, 4, 4);
        let mut t = PopularityTracker::new(16);
        for _ in 0..10 {
            for p in 12..16 {
                t.record(p);
            }
        }
        let moves = plan_and_apply(&t, &mut map, &PlConfig::new(2), 4);
        map.check_invariants();
        // p = 0.6 of 40 accesses = 24, covered by the 3 hottest pages;
        // each needs a swap (2 copies): 6 moves, all via swaps.
        assert_eq!(moves.len(), 6, "{moves:?}");
        for p in 12..15u64 {
            assert_eq!(map.chip_of(p), 0);
        }
        // The fourth page fell outside the 60% hot set and stayed put.
        assert_eq!(map.chip_of(15), 3);
    }

    #[test]
    fn max_moves_caps_the_plan() {
        let (mut map, _) = small_map(16, 4, 8);
        let mut t = PopularityTracker::new(16);
        for _ in 0..10 {
            for p in 12..16 {
                t.record(p);
            }
        }
        let config = PlConfig {
            max_moves_per_interval: 2,
            ..PlConfig::new(2)
        };
        let moves = plan_and_apply(&t, &mut map, &config, 8);
        assert!(moves.len() <= 2);
        map.check_invariants();
    }

    #[test]
    fn min_count_gate_skips_lukewarm_pages() {
        let (mut map, _) = small_map(16, 4, 8);
        let mut t = PopularityTracker::new(16);
        // Page 15 is hot, page 14 lukewarm; p=0.6 hot set includes both.
        for _ in 0..20 {
            t.record(15);
        }
        for _ in 0..8 {
            t.record(14);
        }
        let config = PlConfig {
            min_count_to_migrate: 10,
            ..PlConfig::new(2)
        };
        let moves = plan_and_apply(&t, &mut map, &config, 8);
        assert!(moves.iter().any(|m| m.page == 15));
        assert!(!moves.iter().any(|m| m.page == 14));
    }

    #[test]
    fn empty_tracker_plans_nothing() {
        let (mut map, _) = small_map(16, 4, 8);
        let t = PopularityTracker::new(16);
        assert!(plan_and_apply(&t, &mut map, &PlConfig::new(2), 8).is_empty());
    }
}

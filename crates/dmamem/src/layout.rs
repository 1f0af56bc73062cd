//! The physical page map: logical pages to (chip, frame) placements.
//!
//! Both techniques operate on physical placement (paper Section 4): the
//! controller resolves every DMA-memory request's page through this map
//! (the `<old_location, new_location>` translation-table role), and PL
//! migrates pages by rewriting it.

use iobus::PageId;

use crate::config::SystemConfig;

/// Location of a page: which chip, which frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLoc {
    /// Chip index.
    pub chip: usize,
    /// Frame index within the chip.
    pub frame: usize,
}

/// Logical-page to physical-frame mapping with free-frame tracking.
///
/// # Example
///
/// ```
/// use dmamem::{PageMap, SystemConfig};
///
/// let config = SystemConfig::default();
/// let mut map = PageMap::new_sequential(&config);
/// let from = map.chip_of(0);
/// let dst = (from + 1) % config.chips;
/// assert!(map.move_page(0, dst));
/// assert_eq!(map.chip_of(0), dst);
/// ```
#[derive(Debug, Clone)]
pub struct PageMap {
    loc: Vec<PageLoc>,
    /// The sequential layout: chip `c` holds pages `starts[c]..starts[c +
    /// 1]` in frames `0..`, and its remaining frames are free.
    starts: Vec<usize>,
    frames_per_chip: usize,
    /// The frame side of the map, built on the first move: only PL moves
    /// pages, and most simulations run without it. `None` means the map
    /// still holds the sequential layout.
    tables: Option<Tables>,
    moves: u64,
}

#[derive(Debug, Clone)]
struct Tables {
    /// Per chip: frame -> occupying page.
    frames: Vec<Vec<Option<PageId>>>,
    /// Per chip: free frame indices (LIFO).
    free: Vec<Vec<usize>>,
}

impl Tables {
    fn sequential(starts: &[usize], frames_per_chip: usize) -> Self {
        let (frames, free) = starts
            .windows(2)
            .map(|run| {
                let mut frames = vec![None; frames_per_chip];
                for (frame, page) in frames.iter_mut().zip(run[0]..run[1]) {
                    *frame = Some(page as PageId);
                }
                let free = (run[1] - run[0]..frames_per_chip).rev().collect();
                (frames, free)
            })
            .unzip();
        Tables { frames, free }
    }
}

impl PageMap {
    /// Lays pages out sequentially, spreading the working set evenly across
    /// all chips (each chip gets a contiguous run of `pages / chips` logical
    /// pages, leaving its remaining frames free).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]).
    pub fn new_sequential(config: &SystemConfig) -> Self {
        config.validate();
        let chips = config.chips;
        let fpc = config.frames_per_chip();
        // Page p sits on chip p * chips / pages, so chip c's run starts
        // at the first page with p * chips >= c * pages.
        let starts: Vec<usize> = (0..=chips)
            .map(|c| (c * config.pages).div_ceil(chips))
            .collect();
        let mut loc = Vec::with_capacity(config.pages);
        for (chip, run) in starts.windows(2).enumerate() {
            assert!(
                run[1] - run[0] <= fpc,
                "chip {chip} overflow during initial layout"
            );
            loc.extend((0..run[1] - run[0]).map(|frame| PageLoc { chip, frame }));
        }
        PageMap {
            loc,
            starts,
            frames_per_chip: fpc,
            tables: None,
            moves: 0,
        }
    }

    /// The frame tables, built from the sequential layout on first use.
    fn tables(&mut self) -> &mut Tables {
        self.tables
            .get_or_insert_with(|| Tables::sequential(&self.starts, self.frames_per_chip))
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of logical pages.
    pub fn pages(&self) -> usize {
        self.loc.len()
    }

    /// The chip currently holding `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn chip_of(&self, page: PageId) -> usize {
        self.loc[page as usize].chip
    }

    /// The full location of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn loc_of(&self, page: PageId) -> PageLoc {
        self.loc[page as usize]
    }

    /// Free frames remaining on `chip`.
    pub fn free_frames(&self, chip: usize) -> usize {
        match &self.tables {
            Some(t) => t.free[chip].len(),
            None => self.frames_per_chip - (self.starts[chip + 1] - self.starts[chip]),
        }
    }

    /// Total page moves performed.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Iterates over the pages resident on `chip`, in frame order.
    pub fn pages_on_chip(&self, chip: usize) -> impl Iterator<Item = PageId> + '_ {
        let (run, table) = match &self.tables {
            Some(t) => (None, Some(t.frames[chip].iter().filter_map(|f| *f))),
            None => (Some(self.starts[chip]..self.starts[chip + 1]), None),
        };
        let run = run.into_iter().flatten().map(|p| p as PageId);
        run.chain(table.into_iter().flatten())
    }

    /// Moves `page` to a free frame on `dst` chip. Returns `false` (and
    /// does nothing) if `dst` has no free frame or the page is already
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if `page` or `dst` is out of range.
    pub fn move_page(&mut self, page: PageId, dst: usize) -> bool {
        let cur = self.loc[page as usize];
        if cur.chip == dst {
            return false;
        }
        let t = self.tables();
        let Some(frame) = t.free[dst].pop() else {
            return false;
        };
        t.frames[cur.chip][cur.frame] = None;
        t.free[cur.chip].push(cur.frame);
        t.frames[dst][frame] = Some(page);
        self.loc[page as usize] = PageLoc { chip: dst, frame };
        self.moves += 1;
        true
    }

    /// Exchanges the frames of two pages (the paper's swap-bounded
    /// shuffling when both sides are full). No-op returning `false` when
    /// the pages already share a chip.
    ///
    /// # Panics
    ///
    /// Panics if either page is out of range or `a == b`.
    pub fn swap_pages(&mut self, a: PageId, b: PageId) -> bool {
        assert_ne!(a, b, "cannot swap a page with itself");
        let la = self.loc[a as usize];
        let lb = self.loc[b as usize];
        if la.chip == lb.chip {
            return false;
        }
        let t = self.tables();
        t.frames[la.chip][la.frame] = Some(b);
        t.frames[lb.chip][lb.frame] = Some(a);
        self.loc[a as usize] = lb;
        self.loc[b as usize] = la;
        self.moves += 2;
        true
    }

    /// Finds a page on `chip` for which `victim_ok` holds (used to make
    /// room by evicting a cold page). Deterministic: scans frames in order.
    pub fn find_victim(&self, chip: usize, victim_ok: impl Fn(PageId) -> bool) -> Option<PageId> {
        self.pages_on_chip(chip).find(|&p| victim_ok(p))
    }

    /// Checks internal invariants (every page in exactly one frame, free
    /// lists consistent). Used by tests and debug assertions.
    pub fn check_invariants(&self) {
        let sequential;
        let tables = match &self.tables {
            Some(t) => t,
            None => {
                sequential = Tables::sequential(&self.starts, self.frames_per_chip);
                &sequential
            }
        };
        let mut seen = vec![false; self.loc.len()];
        for (chip, frames) in tables.frames.iter().enumerate() {
            let mut occupied = 0;
            for (fi, f) in frames.iter().enumerate() {
                if let Some(p) = *f {
                    occupied += 1;
                    assert_eq!(
                        self.loc[p as usize],
                        PageLoc { chip, frame: fi },
                        "page {p} location mismatch"
                    );
                    assert!(!seen[p as usize], "page {p} mapped twice");
                    seen[p as usize] = true;
                }
            }
            assert_eq!(
                occupied + tables.free[chip].len(),
                frames.len(),
                "chip {chip} free-list inconsistent"
            );
            assert_eq!(
                tables.free[chip].len(),
                self.free_frames(chip),
                "chip {chip} free count"
            );
            assert!(
                self.pages_on_chip(chip)
                    .eq(frames.iter().filter_map(|f| *f)),
                "chip {chip} page order"
            );
        }
        assert!(seen.iter().all(|&s| s), "some page unmapped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SystemConfig {
        // 4 chips x 8 frames, 16 pages (half full).
        SystemConfig {
            chips: 4,
            power_model: mempower::PowerModel::rdram().with_chip_bytes(8 * 8192),
            pages: 16,
            ..Default::default()
        }
    }

    #[test]
    fn sequential_layout_spreads_evenly() {
        let map = PageMap::new_sequential(&small_config());
        map.check_invariants();
        for chip in 0..4 {
            assert_eq!(map.pages_on_chip(chip).count(), 4);
            assert_eq!(map.free_frames(chip), 4);
        }
        assert_eq!(map.chip_of(0), 0);
        assert_eq!(map.chip_of(15), 3);
        // Contiguous runs.
        assert_eq!(map.chip_of(4), 1);
        assert_eq!(map.chip_of(7), 1);
    }

    #[test]
    fn move_page_updates_everything() {
        let mut map = PageMap::new_sequential(&small_config());
        assert!(map.move_page(0, 3));
        assert_eq!(map.chip_of(0), 3);
        assert_eq!(map.free_frames(0), 5);
        assert_eq!(map.free_frames(3), 3);
        assert_eq!(map.moves(), 1);
        map.check_invariants();
    }

    #[test]
    fn move_to_same_chip_is_noop() {
        let mut map = PageMap::new_sequential(&small_config());
        assert!(!map.move_page(0, 0));
        assert_eq!(map.moves(), 0);
    }

    #[test]
    fn move_fails_when_full() {
        let mut map = PageMap::new_sequential(&small_config());
        // Fill chip 0 (4 free frames) with pages from chip 1.
        for page in 4..8 {
            assert!(map.move_page(page, 0));
        }
        assert_eq!(map.free_frames(0), 0);
        assert!(!map.move_page(8, 0), "move into full chip must fail");
        map.check_invariants();
    }

    #[test]
    fn find_victim_respects_predicate() {
        let map = PageMap::new_sequential(&small_config());
        // Chip 2 holds pages 8..12; only odd pages are evictable.
        let v = map.find_victim(2, |p| p % 2 == 1);
        assert_eq!(v, Some(9));
        assert_eq!(map.find_victim(2, |_| false), None);
    }

    #[test]
    fn full_occupancy_layout() {
        // pages == frames: no free frames anywhere.
        let config = SystemConfig {
            chips: 4,
            power_model: mempower::PowerModel::rdram().with_chip_bytes(8 * 8192),
            pages: 32,
            ..Default::default()
        };
        let map = PageMap::new_sequential(&config);
        map.check_invariants();
        for chip in 0..4 {
            assert_eq!(map.free_frames(chip), 0);
        }
    }

    #[test]
    fn fewer_pages_than_chips_leave_empty_runs() {
        let config = SystemConfig {
            pages: 3,
            ..small_config()
        };
        let mut map = PageMap::new_sequential(&config);
        map.check_invariants();
        let chips: Vec<usize> = (0..3).map(|p| map.chip_of(p)).collect();
        assert_eq!(chips, [0, 1, 2]);
        assert_eq!(map.pages_on_chip(3).count(), 0);
        assert_eq!(map.free_frames(3), 8);
        assert!(map.move_page(2, 3));
        assert_eq!(map.loc_of(2), PageLoc { chip: 3, frame: 0 });
        map.check_invariants();
    }

    #[test]
    fn first_move_keeps_the_sequential_frames() {
        let mut map = PageMap::new_sequential(&small_config());
        let before: Vec<Vec<PageId>> = (0..4).map(|c| map.pages_on_chip(c).collect()).collect();
        assert!(map.swap_pages(0, 15));
        let after: Vec<Vec<PageId>> = (0..4).map(|c| map.pages_on_chip(c).collect()).collect();
        assert_eq!(after[0], [15, 1, 2, 3]);
        assert_eq!(after[3], [12, 13, 14, 0]);
        assert_eq!(after[1..3], before[1..3]);
        map.check_invariants();
    }

    #[test]
    fn moves_roundtrip_preserves_invariants() {
        let mut map = PageMap::new_sequential(&small_config());
        for i in 0..16u64 {
            let dst = ((i * 7) % 4) as usize;
            map.move_page(i, dst);
        }
        map.check_invariants();
    }
}

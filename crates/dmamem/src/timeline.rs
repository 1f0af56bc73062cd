//! Per-chip power/activity timelines (the paper's Figure 2(a) and Figure 3
//! time-line diagrams, as data).
//!
//! A [`TimelineRecorder`] captures, inside a bounded observation window,
//! every change of each chip's activity state. The simulator feeds it
//! from its event stream; the renderer turns it into the paper's up-down
//! timeline pictures in ASCII.

use simcore::{SimDuration, SimTime};

use crate::obs::SimEvent;

/// What a chip is doing, as drawn in the paper's timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipActivity {
    /// Actively serving a DMA-memory request or processor access.
    Serving,
    /// Active but idle between DMA-memory requests.
    IdleDma,
    /// Active and idle with no transfer in flight.
    IdleOther,
    /// Transitioning between power modes.
    Transitioning,
    /// In a low-power mode.
    LowPower,
}

impl ChipActivity {
    /// One-character glyph for ASCII rendering.
    pub fn glyph(self) -> char {
        match self {
            ChipActivity::Serving => '#',
            ChipActivity::IdleDma => '~',
            ChipActivity::IdleOther => '.',
            ChipActivity::Transitioning => '/',
            ChipActivity::LowPower => '_',
        }
    }

    /// Stable snake_case tag used in exported events.
    pub fn name(self) -> &'static str {
        match self {
            ChipActivity::Serving => "serving",
            ChipActivity::IdleDma => "idle_dma",
            ChipActivity::IdleOther => "idle_other",
            ChipActivity::Transitioning => "transitioning",
            ChipActivity::LowPower => "low_power",
        }
    }
}

/// One recorded state segment: `[start, end)` in `activity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Chip index.
    pub chip: usize,
    /// Segment start.
    pub start: SimTime,
    /// Segment end.
    pub end: SimTime,
    /// Activity during the segment.
    pub activity: ChipActivity,
}

/// Records chip-activity segments inside an observation window.
///
/// # Example
///
/// ```
/// use dmamem::timeline::{ChipActivity, TimelineRecorder};
/// use simcore::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let mut rec = TimelineRecorder::new(t0, t0 + SimDuration::from_ns(100), 4);
/// rec.record(0, t0, ChipActivity::Serving);
/// rec.record(0, t0 + SimDuration::from_ns(10), ChipActivity::IdleDma);
/// rec.finish(t0 + SimDuration::from_ns(30));
/// assert_eq!(rec.segments().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TimelineRecorder {
    window_start: SimTime,
    window_end: SimTime,
    open: Vec<Option<(SimTime, ChipActivity)>>,
    segments: Vec<Segment>,
}

impl TimelineRecorder {
    /// Creates a recorder observing `[start, end)` for `chips` chips.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn new(start: SimTime, end: SimTime, chips: usize) -> Self {
        assert!(start < end, "empty observation window");
        TimelineRecorder {
            window_start: start,
            window_end: end,
            open: vec![None; chips],
            segments: Vec::new(),
        }
    }

    /// The observation window.
    pub fn window(&self) -> (SimTime, SimTime) {
        (self.window_start, self.window_end)
    }

    /// Consumes one engine event: chip-activity changes extend the
    /// timeline, every other fact is ignored.
    pub fn on(&mut self, ev: &SimEvent) {
        if let SimEvent::Activity { at, chip, activity } = *ev {
            self.record(chip, at, activity);
        }
    }

    /// Records that `chip` entered `activity` at `now`, closing any open
    /// segment. Events outside the window are clipped.
    pub fn record(&mut self, chip: usize, now: SimTime, activity: ChipActivity) {
        if let Some((_, act)) = self.open[chip] {
            if act == activity {
                return; // no state change
            }
        }
        let now = now.max(self.window_start).min(self.window_end);
        if let Some((start, act)) = self.open[chip].take() {
            if now > start {
                self.segments.push(Segment {
                    chip,
                    start,
                    end: now,
                    activity: act,
                });
            }
        }
        if now < self.window_end {
            self.open[chip] = Some((now, activity));
        }
    }

    /// Closes all open segments at `now` (call once at the end of the
    /// simulation).
    pub fn finish(&mut self, now: SimTime) {
        for chip in 0..self.open.len() {
            // Close by re-recording the same activity at the clip point;
            // the open slot is dropped because `now` may exceed the
            // window end.
            if let Some((start, act)) = self.open[chip].take() {
                let end = now.max(self.window_start).min(self.window_end);
                if end > start {
                    self.segments.push(Segment {
                        chip,
                        start,
                        end,
                        activity: act,
                    });
                }
            }
        }
        self.segments.sort_by_key(|s| (s.chip, s.start));
    }

    /// The recorded segments (sorted by chip, then time, after
    /// [`TimelineRecorder::finish`]).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Renders the chips that have any recorded activity as ASCII timelines,
    /// `width` characters across the observation window. Glyphs: `#`
    /// serving, `~` idle between DMA requests, `.` other active idle, `/`
    /// transitioning, `_` low power.
    pub fn render(&self, width: usize) -> String {
        let chips: Vec<usize> = {
            let mut c: Vec<usize> = self.segments.iter().map(|s| s.chip).collect();
            c.sort_unstable();
            c.dedup();
            c
        };
        self.render_chips(width, &chips)
    }

    /// Like [`TimelineRecorder::render`] but only for chips that actually
    /// served or idled on DMA work in the window (hides the rows of chips
    /// that slept throughout).
    pub fn render_active(&self, width: usize) -> String {
        let chips: Vec<usize> = {
            let mut c: Vec<usize> = self
                .segments
                .iter()
                .filter(|s| matches!(s.activity, ChipActivity::Serving | ChipActivity::IdleDma))
                .map(|s| s.chip)
                .collect();
            c.sort_unstable();
            c.dedup();
            c
        };
        self.render_chips(width, &chips)
    }

    /// Renders the given chips' rows.
    pub fn render_chips(&self, width: usize, chips: &[usize]) -> String {
        let width = width.max(10);
        let span = self.window_end - self.window_start;
        let mut out = String::new();
        out.push_str(&format!(
            "window {} .. {} ({} per column)\n",
            self.window_start,
            self.window_end,
            span / width as u64
        ));
        for &chip in chips {
            let mut row = vec![' '; width];
            for s in self.segments.iter().filter(|s| s.chip == chip) {
                let a = (s.start - self.window_start).as_ps() as u128 * width as u128
                    / span.as_ps() as u128;
                let b = (s.end - self.window_start).as_ps() as u128 * width as u128
                    / span.as_ps() as u128;
                let b = (b.max(a + 1) as usize).min(width);
                for cell in &mut row[a as usize..b] {
                    *cell = s.activity.glyph();
                }
            }
            out.push_str(&format!(
                "chip {chip:>3} |{}|\n",
                row.iter().collect::<String>()
            ));
        }
        out.push_str("legend: # serving  ~ idle-DMA  . idle  / transition  _ low power\n");
        out
    }

    /// The fraction of recorded (non-low-power, non-transition) active time
    /// spent serving — the windowed utilization factor.
    pub fn windowed_uf(&self) -> f64 {
        let mut serving = SimDuration::ZERO;
        let mut idle_dma = SimDuration::ZERO;
        for s in &self.segments {
            match s.activity {
                ChipActivity::Serving => serving += s.end - s.start,
                ChipActivity::IdleDma => idle_dma += s.end - s.start,
                _ => {}
            }
        }
        let tot = serving + idle_dma;
        if tot.is_zero() {
            1.0
        } else {
            serving.ratio(tot)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(n)
    }

    #[test]
    fn segments_are_closed_and_clipped() {
        let mut rec = TimelineRecorder::new(ns(10), ns(50), 2);
        rec.record(0, ns(0), ChipActivity::LowPower); // clipped to 10
        rec.record(0, ns(20), ChipActivity::Serving);
        rec.record(1, ns(30), ChipActivity::IdleDma);
        rec.finish(ns(100)); // clipped to 50
        let segs = rec.segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].start, ns(10));
        assert_eq!(segs[0].end, ns(20));
        assert_eq!(segs[1].activity, ChipActivity::Serving);
        assert_eq!(segs[1].end, ns(50));
        assert_eq!(segs[2].chip, 1);
    }

    #[test]
    fn events_past_window_open_nothing() {
        let mut rec = TimelineRecorder::new(ns(0), ns(10), 1);
        rec.record(0, ns(50), ChipActivity::Serving);
        rec.finish(ns(60));
        assert!(rec.segments().is_empty());
    }

    #[test]
    fn render_shows_glyph_rows() {
        let mut rec = TimelineRecorder::new(ns(0), ns(12), 1);
        rec.record(0, ns(0), ChipActivity::Serving);
        rec.record(0, ns(4), ChipActivity::IdleDma);
        rec.finish(ns(12));
        let art = rec.render(12);
        assert!(art.contains("chip   0 |####~~~~~~~~|"), "render:\n{art}");
        assert!(art.contains("legend"));
    }

    #[test]
    fn windowed_uf_matches_figure2a() {
        let mut rec = TimelineRecorder::new(ns(0), ns(12), 1);
        rec.record(0, ns(0), ChipActivity::Serving);
        rec.record(0, ns(4), ChipActivity::IdleDma);
        rec.finish(ns(12));
        assert!((rec.windowed_uf() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_length_changes_do_not_emit() {
        let mut rec = TimelineRecorder::new(ns(0), ns(10), 1);
        rec.record(0, ns(5), ChipActivity::Serving);
        rec.record(0, ns(5), ChipActivity::IdleDma);
        rec.finish(ns(10));
        assert_eq!(rec.segments().len(), 1);
        assert_eq!(rec.segments()[0].activity, ChipActivity::IdleDma);
    }
}

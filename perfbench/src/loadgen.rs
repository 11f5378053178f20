//! Open-loop load accounting: frame latency from the due time, generator
//! lateness, backlog detection and the highest sustainable ladder rate.
//!
//! An open-loop generator sends each frame when it is due, whether or not
//! earlier frames have been answered, so a stall shows up as latency on
//! every later frame. Latency is therefore measured from the due time,
//! not from the moment the generator got round to sending.

use crate::stats;
use std::time::Duration;

/// Due time of frame `i` at `rate_hz`, relative to the step start.
pub fn due(i: usize, rate_hz: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_hz)
}

/// What happened to one frame of a ladder step (times relative to the
/// step start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    pub due: Duration,
    /// When the generator sent the frame's first window.
    pub sent: Duration,
    /// When the frame's last reply arrived; `None` if some window never
    /// got a reply.
    pub done: Option<Duration>,
    /// Every window answered OK and the reassembled frame was correct.
    pub ok: bool,
}

impl FrameRecord {
    /// Due-to-last-reply latency; a failed frame misses every limit.
    pub fn latency_ms(&self) -> f64 {
        match (self.ok, self.done) {
            (true, Some(done)) => ms(done.saturating_sub(self.due)),
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent the frame.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.due))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The backlog grows when frames due late in the step wait much longer
/// than frames due early: the median latency of the last third exceeds
/// twice that of the first third and by more than a millisecond. Failed
/// frames count as infinitely late.
pub fn backlog_growing(latencies_in_due_order: &[f64]) -> bool {
    let n = latencies_in_due_order.len();
    if n < 3 {
        return false;
    }
    let third = n / 3;
    let first = stats::median(&latencies_in_due_order[..third]);
    let last = stats::median(&latencies_in_due_order[n - third..]);
    last > 2.0 * first && last - first > 1.0
}

/// Summary of one ladder step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSummary {
    pub rate_hz: f64,
    pub frames: usize,
    pub failed: usize,
    pub p50_ms: f64,
    /// `(percentile, value)` by [`stats::tail`].
    pub tail_ms: Option<(f64, f64)>,
    pub late_tail_ms: Option<(f64, f64)>,
    pub backlog_growing: bool,
    /// Tail within `limit_ms`, no failed frame and no growing backlog.
    pub meets_limit: bool,
}

pub fn summarize(rate_hz: f64, records: &[FrameRecord], limit_ms: f64) -> StepSummary {
    let lat: Vec<f64> = records.iter().map(FrameRecord::latency_ms).collect();
    let late: Vec<f64> = records.iter().map(FrameRecord::late_ms).collect();
    let failed = records.iter().filter(|r| !r.ok).count();
    let tail_ms = stats::tail(&lat);
    let backlog = backlog_growing(&lat);
    StepSummary {
        rate_hz,
        frames: records.len(),
        failed,
        p50_ms: stats::median(&lat),
        tail_ms,
        late_tail_ms: stats::tail(&late),
        backlog_growing: backlog,
        meets_limit: failed == 0 && !backlog && tail_ms.is_some_and(|(_, v)| v <= limit_ms),
    }
}

/// The highest ladder rate that meets the latency limit.
pub fn max_rate(steps: &[StepSummary]) -> Option<f64> {
    steps
        .iter()
        .filter(|s| s.meets_limit)
        .map(|s| s.rate_hz)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(due_ms: u64, sent_ms: u64, done_ms: Option<u64>, ok: bool) -> FrameRecord {
        FrameRecord {
            due: Duration::from_millis(due_ms),
            sent: Duration::from_millis(sent_ms),
            done: done_ms.map(Duration::from_millis),
            ok,
        }
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let r = rec(10, 15, Some(22), true);
        assert_eq!(r.latency_ms(), 12.0);
        assert_eq!(r.late_ms(), 5.0);
        // Sent early (never happens, but must not underflow).
        assert_eq!(rec(10, 9, Some(12), true).late_ms(), 0.0);
    }

    #[test]
    fn failed_frames_miss_every_limit() {
        assert!(rec(0, 0, Some(1), false).latency_ms().is_infinite());
        assert!(rec(0, 0, None, true).latency_ms().is_infinite());
        let mut recs: Vec<FrameRecord> = (0..20).map(|i| rec(i, i, Some(i + 2), true)).collect();
        assert!(summarize(10.0, &recs, 5.0).meets_limit);
        recs[3].ok = false;
        let s = summarize(10.0, &recs, 5.0);
        assert_eq!(s.failed, 1);
        assert!(!s.meets_limit);
    }

    #[test]
    fn a_generator_stall_shows_as_latency_and_lateness() {
        // 30 frames due every 10 ms; the generator stalls until 250 ms
        // before frame 10, so frames 10..24 go out late and finish late.
        let recs: Vec<FrameRecord> = (0..30u64)
            .map(|i| {
                let due = i * 10;
                let sent = if i >= 10 { due.max(250) } else { due };
                rec(due, sent, Some(sent + 2), true)
            })
            .collect();
        let s = summarize(100.0, &recs, 20.0);
        assert_eq!(recs[10].latency_ms(), 152.0);
        // Lateness 150, 140, .., 10 ms: ten samples lie beyond 50 ms.
        assert_eq!(s.late_tail_ms.unwrap().1, 50.0);
        assert!(!s.meets_limit);
    }

    #[test]
    fn backlog_detection() {
        let flat: Vec<f64> = (0..30).map(|i| 5.0 + (i % 3) as f64 * 0.1).collect();
        assert!(!backlog_growing(&flat));
        let rising: Vec<f64> = (0..30).map(|i| 2.0 + i as f64 * 2.0).collect();
        assert!(backlog_growing(&rising));
        // Sub-millisecond growth is noise, not a backlog.
        let tiny: Vec<f64> = (0..30).map(|i| 0.1 + i as f64 * 0.01).collect();
        assert!(!backlog_growing(&tiny));
        let mut failing_late = flat.clone();
        for v in &mut failing_late[20..] {
            *v = f64::INFINITY;
        }
        assert!(backlog_growing(&failing_late));
    }

    #[test]
    fn max_rate_is_highest_step_meeting_the_limit() {
        let step = |rate_hz: f64, meets_limit: bool| StepSummary {
            rate_hz,
            frames: 20,
            failed: 0,
            p50_ms: 1.0,
            tail_ms: None,
            late_tail_ms: None,
            backlog_growing: false,
            meets_limit,
        };
        let ladder = [step(10.0, true), step(40.0, true), step(160.0, false)];
        assert_eq!(max_rate(&ladder), Some(40.0));
        assert_eq!(max_rate(&[step(10.0, false)]), None);
    }

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due(0, 50.0), Duration::ZERO);
        assert_eq!(due(5, 50.0), Duration::from_millis(100));
    }
}

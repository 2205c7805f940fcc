//! Fixed-capacity ring buffer used for the streaming window.
//!
//! Section 6.2 of the paper: "The implementation uses one ring buffer of
//! length `L` for each time series `s` and an offset `O` into the ring
//! buffers to efficiently update the streaming window.  The value at time
//! `t_n` is located at `s[O]` and the oldest value at `s[(O+1)%L]`."
//!
//! [`RingBuffer`] reproduces exactly this layout so that the TKCM imputer
//! (`tkcm-core`) can use the same index arithmetic as Algorithm 1, while also
//! offering safer "age based" accessors (`recent(0)` = newest value).
//! Advancing the window is O(1) (Lemma 6.1).

use std::fmt;
use std::ops::Range;

use crate::errors::TsError;

/// Fixed-capacity circular buffer over `f64` slots that may be missing.
///
/// The buffer always holds exactly `capacity` logical slots.  Before the
/// buffer has been filled once, the not-yet-written slots read as missing
/// (`None`).
#[derive(Clone, PartialEq)]
pub struct RingBuffer {
    // `pub(crate)` so the snapshot codec (`persist`) can persist/restore the
    // exact ring layout without exposing it beyond the crate.
    pub(crate) slots: Vec<Option<f64>>,
    /// Index of the most recently written slot (the paper's offset `O`).
    pub(crate) offset: usize,
    /// Number of values pushed so far, saturating at `capacity`.
    pub(crate) filled: usize,
}

impl RingBuffer {
    /// Creates a buffer of the given capacity with every slot missing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer {
            slots: vec![None; capacity],
            offset: capacity - 1,
            filled: 0,
        }
    }

    /// Creates a buffer pre-filled with `values` (the last `capacity` values
    /// are kept if more are given).
    pub fn from_values(capacity: usize, values: impl IntoIterator<Item = Option<f64>>) -> Self {
        let mut rb = RingBuffer::new(capacity);
        for v in values {
            rb.push(v);
        }
        rb
    }

    /// The fixed capacity `L` of the buffer.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of values pushed so far, saturating at the capacity.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Whether the buffer has wrapped at least once (i.e. holds `capacity`
    /// logical values).
    pub fn is_full(&self) -> bool {
        self.filled == self.capacity()
    }

    /// The paper's offset `O`: raw index of the newest slot.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Pushes the value for the next time point, overwriting the oldest slot.
    ///
    /// This is the O(1) window advance of Lemma 6.1.
    pub fn push(&mut self, value: Option<f64>) {
        self.offset = (self.offset + 1) % self.capacity();
        self.slots[self.offset] = value;
        if self.filled < self.capacity() {
            self.filled += 1;
        }
    }

    /// Raw slot access using the paper's modular index arithmetic
    /// (`s[(O ± x) % L]`).  `raw_index` is taken modulo the capacity.
    pub fn raw(&self, raw_index: usize) -> Option<f64> {
        self.slots[raw_index % self.capacity()]
    }

    /// Overwrites a raw slot; used by Algorithm 1 to store the imputed value
    /// back into `s[O]`.
    pub fn set_raw(&mut self, raw_index: usize, value: Option<f64>) {
        let cap = self.capacity();
        self.slots[raw_index % cap] = value;
    }

    /// Value `age` steps in the past: `recent(0)` is the newest value,
    /// `recent(capacity-1)` the oldest.
    ///
    /// Returns `None` when the slot is missing *or* `age` exceeds the number
    /// of values pushed so far.
    pub fn recent(&self, age: usize) -> Option<f64> {
        if age >= self.filled {
            return None;
        }
        let cap = self.capacity();
        let idx = (self.offset + cap - age) % cap;
        self.slots[idx]
    }

    /// Overwrites the value `age` steps in the past (0 = newest).
    ///
    /// Slots that have not been pushed yet cannot be written; such writes are
    /// ignored and `false` is returned.
    pub fn set_recent(&mut self, age: usize, value: Option<f64>) -> bool {
        if age >= self.filled {
            return false;
        }
        let cap = self.capacity();
        let idx = (self.offset + cap - age) % cap;
        self.slots[idx] = value;
        true
    }

    /// The chronological run of `len` slots whose oldest slot lies
    /// `oldest_age` steps in the past — ages `oldest_age`, `oldest_age − 1`,
    /// …, `oldest_age + 1 − len`, in that order — as two contiguous slices:
    /// the run up to the physical end of the ring, then the part that wraps
    /// to its front (empty when the run does not wrap).  Reading a run this
    /// way costs one modulo per run instead of one per slot.
    ///
    /// Returns [`TsError::InvalidParameter`] when the run starts before the
    /// oldest pushed slot (`oldest_age ≥ len()`) or would run past the
    /// newest one (`len > oldest_age + 1`).
    pub fn chronological_run(
        &self,
        oldest_age: usize,
        len: usize,
    ) -> Result<RingRun<'_, Option<f64>>, TsError> {
        check_run(oldest_age, len, self.filled)?;
        let cap = self.capacity();
        let start = (self.offset + cap - oldest_age) % cap;
        let (head, tail) = split_run(start, len, cap);
        Ok((&self.slots[head], &self.slots[tail]))
    }

    /// Returns the window contents ordered from oldest to newest, including
    /// missing slots, but only for slots that have actually been pushed.
    pub fn to_chronological(&self) -> Vec<Option<f64>> {
        (0..self.filled)
            .rev()
            .map(|age| {
                let cap = self.capacity();
                let idx = (self.offset + cap - age) % cap;
                self.slots[idx]
            })
            .collect()
    }

    /// Iterator over ages `0..len()` yielding `(age, value)` pairs, newest first.
    pub fn iter_recent(&self) -> impl Iterator<Item = (usize, Option<f64>)> + '_ {
        (0..self.filled).map(move |age| (age, self.recent(age)))
    }

    /// Number of missing slots among the pushed values.
    pub fn missing_count(&self) -> usize {
        self.iter_recent().filter(|(_, v)| v.is_none()).count()
    }

    /// Mean of the observed values in the buffer, or `None` if none observed.
    pub fn mean(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (_, v) in self.iter_recent() {
            if let Some(x) = v {
                sum += x;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

/// A chronological run of ring slots as two contiguous slices: the part up
/// to the ring's physical end, then the part that wrapped to its front
/// (empty when the run does not wrap).
pub type RingRun<'a, T> = (&'a [T], &'a [T]);

/// Validates a chronological run request of `len` slots starting
/// `oldest_age` steps back against `filled` pushed slots (shared by the
/// value rings and the window's provenance ring).
pub(crate) fn check_run(oldest_age: usize, len: usize, filled: usize) -> Result<(), TsError> {
    if oldest_age >= filled {
        return Err(TsError::invalid(
            "oldest_age",
            format!("run starts at age {oldest_age} but only {filled} slots were pushed"),
        ));
    }
    if len > oldest_age + 1 {
        return Err(TsError::invalid(
            "len",
            format!("a run of {len} slots starting at age {oldest_age} passes the newest slot"),
        ));
    }
    Ok(())
}

/// Raw-index ranges of a run of `len` consecutive ring slots starting at raw
/// index `start` in a ring of `capacity` slots: the part up to the end of
/// the ring, then the part that wraps to its front.
pub(crate) fn split_run(start: usize, len: usize, capacity: usize) -> (Range<usize>, Range<usize>) {
    let end = start + len;
    if end <= capacity {
        (start..end, 0..0)
    } else {
        (start..capacity, 0..end - capacity)
    }
}

impl fmt::Debug for RingBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingBuffer")
            .field("capacity", &self.capacity())
            .field("len", &self.filled)
            .field("offset", &self.offset)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_buffer_is_all_missing() {
        let rb = RingBuffer::new(4);
        assert_eq!(rb.capacity(), 4);
        assert!(rb.is_empty());
        assert!(!rb.is_full());
        assert_eq!(rb.recent(0), None);
        assert_eq!(rb.missing_count(), 0); // nothing pushed yet
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = RingBuffer::new(0);
    }

    #[test]
    fn push_and_recent_track_ages() {
        let mut rb = RingBuffer::new(3);
        rb.push(Some(1.0));
        rb.push(Some(2.0));
        assert_eq!(rb.len(), 2);
        assert_eq!(rb.recent(0), Some(2.0));
        assert_eq!(rb.recent(1), Some(1.0));
        assert_eq!(rb.recent(2), None); // not yet pushed
        rb.push(Some(3.0));
        rb.push(Some(4.0)); // evicts 1.0
        assert!(rb.is_full());
        assert_eq!(rb.recent(0), Some(4.0));
        assert_eq!(rb.recent(1), Some(3.0));
        assert_eq!(rb.recent(2), Some(2.0));
        assert_eq!(rb.to_chronological(), vec![Some(2.0), Some(3.0), Some(4.0)]);
    }

    #[test]
    fn missing_values_round_trip() {
        let mut rb = RingBuffer::new(3);
        rb.push(Some(1.0));
        rb.push(None);
        rb.push(Some(3.0));
        assert_eq!(rb.missing_count(), 1);
        assert_eq!(rb.recent(1), None);
        assert!(rb.set_recent(1, Some(2.5)));
        assert_eq!(rb.recent(1), Some(2.5));
        assert_eq!(rb.missing_count(), 0);
    }

    #[test]
    fn set_recent_rejects_unpushed_slots() {
        let mut rb = RingBuffer::new(5);
        rb.push(Some(1.0));
        assert!(!rb.set_recent(3, Some(9.0)));
        assert_eq!(rb.recent(3), None);
    }

    #[test]
    fn raw_indexing_matches_paper_layout() {
        // After pushing values 10, 20, 30 into a capacity-3 buffer the newest
        // value must live at slots[offset] and the oldest at slots[(O+1)%L].
        let mut rb = RingBuffer::new(3);
        rb.push(Some(10.0));
        rb.push(Some(20.0));
        rb.push(Some(30.0));
        let o = rb.offset();
        assert_eq!(rb.raw(o), Some(30.0));
        assert_eq!(rb.raw(o + 1), Some(10.0)); // oldest
        assert_eq!(rb.raw(o + 2), Some(20.0));
        rb.set_raw(o, Some(31.0));
        assert_eq!(rb.recent(0), Some(31.0));
    }

    #[test]
    fn from_values_keeps_last_capacity_values() {
        let rb = RingBuffer::from_values(3, (1..=5).map(|i| Some(i as f64)));
        assert_eq!(rb.to_chronological(), vec![Some(3.0), Some(4.0), Some(5.0)]);
    }

    #[test]
    fn mean_ignores_missing() {
        let rb = RingBuffer::from_values(4, vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(rb.mean(), Some(2.0));
        let empty = RingBuffer::from_values(4, vec![None, None]);
        assert_eq!(empty.mean(), None);
    }

    #[test]
    fn debug_is_compact() {
        let rb = RingBuffer::new(2);
        let s = format!("{rb:?}");
        assert!(s.contains("capacity"));
    }

    /// Concatenated run, for comparing against `recent`.
    fn run(rb: &RingBuffer, oldest_age: usize, len: usize) -> Vec<Option<f64>> {
        let (head, tail) = rb.chronological_run(oldest_age, len).unwrap();
        head.iter().chain(tail).copied().collect()
    }

    #[test]
    fn chronological_run_matches_recent_across_the_wrap() {
        let mut rb = RingBuffer::new(5);
        for i in 0..8 {
            rb.push(if i == 6 { None } else { Some(i as f64) });
        }
        // Every run of every length reads the same values as `recent`, in
        // chronological (oldest-first) order, whether or not it wraps.
        for oldest_age in 0..5 {
            for len in 0..=oldest_age + 1 {
                let expected: Vec<Option<f64>> =
                    (0..len).map(|i| rb.recent(oldest_age - i)).collect();
                assert_eq!(run(&rb, oldest_age, len), expected, "{oldest_age}/{len}");
            }
        }
        // The full window as a run is the chronological contents, and it
        // wraps: the ring's physical end falls inside it.
        let (head, tail) = rb.chronological_run(4, 5).unwrap();
        assert!(!head.is_empty() && !tail.is_empty());
        assert_eq!(run(&rb, 4, 5), rb.to_chronological());
    }

    #[test]
    fn chronological_run_covers_a_partially_filled_buffer() {
        let mut rb = RingBuffer::new(6);
        for i in 0..3 {
            rb.push(Some(i as f64));
        }
        // `len == filled`: the whole pushed history.
        assert_eq!(run(&rb, 2, 3), vec![Some(0.0), Some(1.0), Some(2.0)]);
        assert_eq!(run(&rb, 1, 1), vec![Some(1.0)]);
    }

    #[test]
    fn chronological_run_out_of_range_is_a_typed_error() {
        let mut rb = RingBuffer::new(4);
        assert!(matches!(
            rb.chronological_run(0, 1),
            Err(TsError::InvalidParameter { .. })
        ));
        for i in 0..6 {
            rb.push(Some(i as f64));
        }
        // Older than the oldest pushed slot.
        assert!(matches!(
            rb.chronological_run(4, 1),
            Err(TsError::InvalidParameter { .. })
        ));
        // Past the newest slot.
        assert!(matches!(
            rb.chronological_run(1, 3),
            Err(TsError::InvalidParameter { .. })
        ));
        assert!(rb.chronological_run(3, 4).is_ok());
    }

    #[test]
    fn capacity_one_buffer_keeps_only_latest() {
        let mut rb = RingBuffer::new(1);
        rb.push(Some(1.0));
        rb.push(Some(2.0));
        assert_eq!(rb.recent(0), Some(2.0));
        assert_eq!(rb.recent(1), None);
        assert_eq!(rb.to_chronological(), vec![Some(2.0)]);
    }
}

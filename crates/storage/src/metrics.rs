//! One metrics surface: a snapshot of named counters and gauges.
//!
//! Every engine counter is cumulative and lives where it is incremented —
//! the buffer pool, each tree's latch table and epoch manager, the
//! checkpointer, the write-ahead log.  Nothing here runs on a hot path: a
//! [`Metrics`] snapshot is built only when someone asks for one
//! (`Database::metrics` in the catalog crate), by reading those counters
//! once.  A window is metered by diffing two snapshots with
//! [`Metrics::delta_since`]; no counter is ever reset.
//!
//! Names are `<section>.<field>`: `buffer.logical_reads`,
//! `checkpoint.journal_bytes`, `index.<table>.<index>.latch_waits`.  The
//! typed views ([`IoStats`](crate::IoStats),
//! [`ConcurrencyStats`](crate::ConcurrencyStats),
//! [`CheckpointStats`](crate::CheckpointStats)) are declared through
//! [`metric_view!`](crate::metric_view), so each field has one kind and
//! the typed and the named delta follow the same rule
//! ([`MetricKind::delta`]).

use std::fmt;

/// How a metric behaves across a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Cumulative since its source was created; a delta subtracts.
    Counter,
    /// A level at the moment of the snapshot; a delta keeps the later value.
    Gauge,
}

impl MetricKind {
    /// The one delta rule: a counter subtracts its earlier value, a gauge
    /// keeps its value `now`.  A counter below its earlier value was
    /// re-created in between (a dropped and re-created index of the same
    /// name), so it counts from zero.
    pub fn delta(self, now: u64, earlier: u64) -> u64 {
        match self {
            MetricKind::Counter => now.checked_sub(earlier).unwrap_or(now),
            MetricKind::Gauge => now,
        }
    }
}

/// A snapshot of named metrics, in the order they were recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    entries: Vec<(String, MetricKind, u64)>,
}

impl Metrics {
    /// Records one metric.
    pub fn push(&mut self, name: impl Into<String>, kind: MetricKind, value: u64) {
        self.entries.push((name.into(), kind, value));
    }

    /// The value of the metric called `name`, if the snapshot has it.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.iter().find(|m| m.0 == name).map(|m| m.2)
    }

    /// Every metric as `(name, kind, value)`, in recorded order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricKind, u64)> {
        self.entries.iter().map(|(n, k, v)| (n.as_str(), *k, *v))
    }

    /// This snapshot relative to `earlier`, metric by metric under
    /// [`MetricKind::delta`].  A name new since `earlier` counts from zero;
    /// a name `earlier` has and this snapshot lacks is dropped.
    pub fn delta_since(&self, earlier: &Metrics) -> Metrics {
        let entries = self.iter().map(|(name, kind, now)| {
            let before = earlier.get(name).unwrap_or(0);
            (name.to_string(), kind, kind.delta(now, before))
        });
        Metrics {
            entries: entries.collect(),
        }
    }
}

/// One `name value` line per metric.
impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.iter()
            .try_for_each(|(name, _, value)| writeln!(f, "{name} {value}"))
    }
}

/// Declares a typed view over a group of `u64` metrics: a plain struct with
/// one public field per metric and `Debug`, `Default`, `Clone`, `Copy`,
/// `PartialEq` and `Eq`, plus `delta_since` (field by field under
/// [`MetricKind::delta`]) and `export` (every field into a [`Metrics`] as
/// `<prefix>.<field>`).  Each field names its kind:
///
/// ```
/// spgist_storage::metric_view! {
///     /// Two example metrics.
///     pub struct Example {
///         /// Events so far.
///         events: Counter,
///         /// Events in flight.
///         in_flight: Gauge,
///     }
/// }
///
/// let before = Example { events: 3, in_flight: 2 };
/// let after = Example { events: 5, in_flight: 1 };
/// assert_eq!(after.delta_since(&before), Example { events: 2, in_flight: 1 });
/// let mut metrics = spgist_storage::Metrics::default();
/// after.export("example", &mut metrics);
/// assert_eq!(metrics.to_string(), "example.events 5\nexample.in_flight 1\n");
/// ```
#[macro_export]
macro_rules! metric_view {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* $field:ident: $kind:ident,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        impl $name {
            /// Field-by-field difference from `earlier`: counters subtract,
            /// gauges keep their current value.
            pub fn delta_since(&self, earlier: &$name) -> $name {
                $name {
                    $($field: $crate::MetricKind::$kind.delta(self.$field, earlier.$field),)*
                }
            }

            /// Records every field into `metrics` as `<prefix>.<field>`.
            pub fn export(&self, prefix: &str, metrics: &mut $crate::Metrics) {
                $(metrics.push(
                    format!("{prefix}.{}", stringify!($field)),
                    $crate::MetricKind::$kind,
                    self.$field,
                );)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(entries: &[(&str, MetricKind, u64)]) -> Metrics {
        let mut metrics = Metrics::default();
        for &(name, kind, value) in entries {
            metrics.push(name, kind, value);
        }
        metrics
    }

    #[test]
    fn one_delta_rule_for_every_name() {
        use MetricKind::*;
        let before = snapshot(&[("a", Counter, 5), ("g", Gauge, 9), ("gone", Counter, 7)]);
        let after = snapshot(&[("a", Counter, 8), ("g", Gauge, 2), ("new", Counter, 4)]);
        let delta = after.delta_since(&before);
        let expected = snapshot(&[("a", Counter, 3), ("g", Gauge, 2), ("new", Counter, 4)]);
        assert_eq!(delta, expected);
        assert_eq!(delta.get("gone"), None);
        assert_eq!(delta.to_string(), "a 3\ng 2\nnew 4\n");
    }

    #[test]
    fn a_counter_that_went_back_was_recreated() {
        let before = snapshot(&[("index.t.i.latch_acquisitions", MetricKind::Counter, 50)]);
        let after = snapshot(&[("index.t.i.latch_acquisitions", MetricKind::Counter, 3)]);
        assert_eq!(
            after
                .delta_since(&before)
                .get("index.t.i.latch_acquisitions"),
            Some(3)
        );
    }
}

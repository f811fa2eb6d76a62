//! Store tuning knobs. The config-lint sweep (`tools/config-lint.sh`)
//! checks that no struct literal of [`StoreConfig`] appears outside this
//! module.

/// Tuning for checkpoint cadence. Every journal append is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreConfig {
    /// Write a full snapshot every this many units of progress (jobs for
    /// the crawl, pages for ingest, iterations already journal per-step for
    /// k-means/HAC). Must be at least 1.
    pub checkpoint_every: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            checkpoint_every: 64,
        }
    }
}

impl StoreConfig {
    /// The default configuration.
    pub fn new() -> Self {
        StoreConfig::default()
    }

    /// Set the snapshot cadence (clamped up to 1).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_setters() {
        let c = StoreConfig::new();
        assert_eq!(c.checkpoint_every, 64);
        let c = c.with_checkpoint_every(0);
        assert_eq!(c.checkpoint_every, 1, "cadence clamps up to 1");
    }
}

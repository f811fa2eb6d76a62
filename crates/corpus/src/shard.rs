//! Sharded form-page generation for the 10^5–10^6 scale regime.
//!
//! [`crate::web::generate`] builds the full §3.1 web — backlinks, hubs,
//! portal — which is what the paper-scale experiments need but is far too
//! heavy (and inherently sequential: one `SmallRng` threads through the
//! whole build) for throughput benchmarking at a million pages. This
//! module generates *form pages only*, with each page an independent pure
//! function of `(seed, page_index)`:
//!
//! ```text
//! page_rng(i) = SmallRng::seed_from_u64(Seed::new(seed).derive(i).value())
//! ```
//!
//! Because no RNG state is shared between pages, any partition of the
//! index range into shards — and any execution policy — yields the same
//! pages byte for byte. Page `i` of a 10^6-page corpus is identical to
//! page `i` of a 100-page corpus under the same seed, so small-scale
//! assertions transfer directly to the large runs. The page mix reuses
//! `web.rs` internals (size classes, text mixes, hybrid Music/Movie
//! pages), so the Table-1 shape of the corpus is preserved.
//!
//! Shards feed `FormPageCorpus::from_shards` (cafc-core), whose merge is
//! likewise invariant to the shard partition; together they make the
//! whole batch pipeline reproducible at any scale. See DESIGN.md §17.

use crate::domain::Domain;
use crate::formgen::LabelStyle;
use crate::pagegen::{self, FormPageParams};
use crate::text_gen;
use crate::web::SizeClass;
use cafc_check::Seed;
use cafc_exec::{par_map, ExecPolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for a sharded form-page corpus.
///
/// `Default`/[`ShardedCorpusConfig::new`] give a small smoke-test corpus;
/// scale up with [`with_total_form_pages`](Self::with_total_form_pages).
/// `shard_pages` controls only the work-unit size handed to the exec
/// layer — the generated pages are a pure function of `(seed, index)`
/// and do not depend on it.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ShardedCorpusConfig {
    /// Total form pages to generate.
    pub total_form_pages: usize,
    /// Pages per shard (work-unit size; output-invariant).
    pub shard_pages: usize,
    /// RNG seed; same seed → identical pages at every scale.
    pub seed: u64,
}

impl Default for ShardedCorpusConfig {
    fn default() -> Self {
        ShardedCorpusConfig {
            total_form_pages: 1_000,
            shard_pages: 1_024,
            seed: 0,
        }
    }
}

impl ShardedCorpusConfig {
    /// The default configuration (10^3 pages, 1024-page shards, seed 0).
    pub fn new() -> Self {
        ShardedCorpusConfig::default()
    }

    /// Set the total page count.
    pub fn with_total_form_pages(mut self, total: usize) -> Self {
        self.total_form_pages = total;
        self
    }

    /// Set the shard size (clamped to ≥ 1 at use sites).
    pub fn with_shard_pages(mut self, pages: usize) -> Self {
        self.shard_pages = pages;
        self
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of shards the index range splits into.
    pub fn num_shards(&self) -> usize {
        self.total_form_pages.div_ceil(self.shard_pages.max(1))
    }
}

/// The gold domain label of page `index` (round-robin over the eight
/// domains, so every prefix of the corpus is near-balanced).
pub fn page_domain(index: usize) -> Domain {
    Domain::ALL[index % Domain::ALL.len()]
}

/// Generate page `index`: a pure function of `(config.seed, index)`.
pub fn generate_page(config: &ShardedCorpusConfig, index: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(Seed::new(config.seed).derive(index as u64).value());
    let domain = page_domain(index);
    // Same single-attribute share as the paper's corpus (56 of 454).
    let single = rng.random_bool(56.0 / 454.0);
    let (single_style, class) = if single {
        let style = match rng.random_range(0..10) {
            0..=5 => LabelStyle::Inside,
            6..=8 => LabelStyle::Outside,
            _ => LabelStyle::None,
        };
        (Some(style), SizeClass::Tiny)
    } else {
        (None, SizeClass::sample(&mut rng))
    };
    let hybrid =
        matches!(domain, Domain::Music | Domain::Movie) && !single && rng.random_bool(0.16);
    let site_name = format!(
        "{}{}",
        text_gen::title_phrase(&mut rng, domain).replace(' ', ""),
        index
    );
    let params = FormPageParams {
        domain,
        single: single_style,
        form_term_budget: class.form_budget(&mut rng),
        page_term_budget: class.page_budget(&mut rng),
        site_name,
        hybrid,
    };
    pagegen::form_page(&mut rng, &params)
}

/// Generate shard `shard_index` (pages `[s·shard_pages, min((s+1)·shard_pages, n))`).
///
/// Returns an empty vector for a shard index past the end.
pub fn generate_shard(config: &ShardedCorpusConfig, shard_index: usize) -> Vec<String> {
    let shard_pages = config.shard_pages.max(1);
    let start = shard_index.saturating_mul(shard_pages);
    let end = start
        .saturating_add(shard_pages)
        .min(config.total_form_pages);
    (start..end.max(start))
        .map(|i| generate_page(config, i))
        .collect()
}

/// Generate the whole corpus as shards in shard order on the exec layer.
///
/// Bit-identical across policies: each shard is a pure function of
/// `(config, shard_index)` and the exec layer merges in shard order.
pub fn generate_sharded(config: &ShardedCorpusConfig, policy: ExecPolicy) -> Vec<Vec<String>> {
    let cfg = config.clone();
    par_map(policy, config.num_shards(), move |s| {
        generate_shard(&cfg, s)
    })
}

/// [`generate_sharded`] under its former name. It stays as a forwarder
/// because the repository benchmark (`crates/benchmark`, frozen with its
/// workload definitions) calls it by this name.
pub fn generate_sharded_exec(config: &ShardedCorpusConfig, policy: ExecPolicy) -> Vec<Vec<String>> {
    generate_sharded(config, policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, shard: usize, seed: u64) -> ShardedCorpusConfig {
        ShardedCorpusConfig::new()
            .with_total_form_pages(n)
            .with_shard_pages(shard)
            .with_seed(seed)
    }

    #[test]
    fn page_is_pure_function_of_seed_and_index() {
        let a = cfg(100, 16, 7);
        let b = cfg(10, 3, 7); // different scale + shard size, same seed
        for i in 0..10 {
            assert_eq!(generate_page(&a, i), generate_page(&b, i), "page {i}");
        }
        assert_ne!(
            generate_page(&a, 0),
            generate_page(&cfg(100, 16, 8), 0),
            "seed must matter"
        );
    }

    #[test]
    fn shard_partition_is_output_invariant() {
        let n = 53;
        let flat =
            |shards: Vec<Vec<String>>| -> Vec<String> { shards.into_iter().flatten().collect() };
        let base = flat(generate_sharded(&cfg(n, 7, 3), ExecPolicy::Serial));
        assert_eq!(base.len(), n);
        for shard in [1, 8, 53, 100] {
            assert_eq!(
                flat(generate_sharded(&cfg(n, shard, 3), ExecPolicy::Serial)),
                base,
                "shard {shard}"
            );
        }
    }

    #[test]
    fn exec_policies_agree_exactly() {
        let c = cfg(40, 6, 11);
        let serial = generate_sharded(&c, ExecPolicy::Serial);
        let parallel = generate_sharded(&c, ExecPolicy::Parallel { threads: 4 });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn shard_sizes_and_count() {
        let c = cfg(10, 4, 0);
        assert_eq!(c.num_shards(), 3);
        let shards = generate_sharded(&c, ExecPolicy::Serial);
        assert_eq!(shards.iter().map(Vec::len).collect::<Vec<_>>(), [4, 4, 2]);
        assert!(generate_shard(&c, 5).is_empty(), "past-the-end shard");
    }

    #[test]
    fn degenerate_configs() {
        assert_eq!(cfg(0, 8, 0).num_shards(), 0);
        assert!(generate_sharded(&cfg(0, 8, 0), ExecPolicy::Serial).is_empty());
        // shard_pages == 0 is clamped to 1, not a panic or a hang.
        let c = cfg(3, 0, 0);
        assert_eq!(c.num_shards(), 3);
        assert_eq!(
            generate_sharded(&c, ExecPolicy::Serial)
                .into_iter()
                .flatten()
                .count(),
            3
        );
    }

    #[test]
    fn pages_parse_and_carry_one_form() {
        let c = cfg(24, 8, 5);
        let mut singles = 0usize;
        for (i, page) in generate_sharded(&c, ExecPolicy::Serial)
            .into_iter()
            .flatten()
            .enumerate()
        {
            let doc = cafc_html::parse(&page);
            let forms = cafc_html::extract_forms(&doc);
            assert_eq!(forms.len(), 1, "page {i}");
            singles += usize::from(forms[0].is_single_attribute());
        }
        assert!(singles < 24, "not everything should be single-attribute");
    }

    #[test]
    fn domains_round_robin() {
        assert_eq!(page_domain(0), Domain::ALL[0]);
        assert_eq!(page_domain(8), Domain::ALL[0]);
        assert_eq!(page_domain(9), Domain::ALL[1]);
    }
}

//! End-to-end torture tests: the seeded HTML mutator feeding the hardened
//! ingestion pipeline. Determinism (same seed ⇒ byte-identical corpus),
//! the accounting invariant (ok + degraded + quarantined == total), and
//! panic-freedom across every mutation kind are all checked here, at the
//! same integration level the `cafc torture` subcommand operates at.

use cafc::{ExecPolicy, FormPageCorpus, IngestLimits, ModelOptions, Obs, PageOutcome};
use cafc_corpus::{generate, mutate_page, page_rng, CorpusConfig, Mutation};

/// The clean HTML of every form page in a small synthetic web.
fn clean_pages(corpus_seed: u64) -> Vec<String> {
    let web = generate(&CorpusConfig::small(corpus_seed));
    web.form_pages
        .iter()
        .map(|rec| web.graph.html(rec.page).unwrap_or("").to_owned())
        .collect()
}

fn mutate_all(pages: &[String], seed: u64, menu: &[Mutation], per_page: usize) -> Vec<String> {
    pages
        .iter()
        .enumerate()
        .map(|(i, html)| mutate_page(html, menu, per_page, &mut page_rng(seed, i)))
        .collect()
}

#[test]
fn mutator_is_deterministic_across_runs() {
    let pages = clean_pages(5);
    let a = mutate_all(&pages, 7, &Mutation::ALL, 3);
    let b = mutate_all(&pages, 7, &Mutation::ALL, 3);
    assert_eq!(a, b, "same seed must produce byte-identical corpora");

    let c = mutate_all(&pages, 8, &Mutation::ALL, 3);
    assert_ne!(a, c, "a different seed must mutate differently");
}

#[test]
fn mutator_is_independent_of_batching() {
    // Page i's mutation depends only on (seed, i), not on which other
    // pages were mutated before it.
    let pages = clean_pages(5);
    let full = mutate_all(&pages, 7, &Mutation::ALL, 2);
    let solo = mutate_page(&pages[9], &Mutation::ALL, 2, &mut page_rng(7, 9));
    assert_eq!(full[9], solo);
}

#[test]
fn ingest_accounting_invariant_holds_under_torture() {
    let pages = clean_pages(11);
    for seed in [0u64, 7, 42] {
        let mutated = mutate_all(&pages, seed, &Mutation::ALL, 3);
        let (corpus, report) = FormPageCorpus::from_shards(
            [&mutated],
            &ModelOptions::default(),
            &IngestLimits::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert_eq!(report.total(), pages.len());
        assert_eq!(
            report.ok() + report.degraded() + report.quarantined(),
            report.total(),
            "seed {seed}: every page must have exactly one outcome"
        );
        assert!(report.is_accounted(), "seed {seed}");
        assert_eq!(corpus.len(), report.kept.len(), "seed {seed}");
        // kept maps corpus rows to input pages, in order, skipping exactly
        // the quarantined ones.
        let expected_kept: Vec<usize> = report
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_kept())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(report.kept, expected_kept, "seed {seed}");
    }
}

#[test]
fn every_single_mutation_ingests_without_panic() {
    let pages = clean_pages(3);
    for mutation in Mutation::ALL {
        let mutated = mutate_all(&pages, 13, &[mutation], 3);
        let (_, report) = FormPageCorpus::from_shards(
            [&mutated],
            &ModelOptions::default(),
            &IngestLimits::default(),
            ExecPolicy::Serial,
            &Obs::disabled(),
        );
        assert!(report.is_accounted(), "{}", mutation.label());
    }
}

#[test]
fn clean_corpus_ingests_mostly_ok() {
    let pages = clean_pages(5);
    let (corpus, report) = FormPageCorpus::from_shards(
        [&pages],
        &ModelOptions::default(),
        &IngestLimits::default(),
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert_eq!(corpus.len(), pages.len(), "clean pages all survive");
    assert_eq!(report.quarantined(), 0);
    assert!(
        report.ok() * 10 >= report.total() * 9,
        "at least 90% of clean pages should be pristine: {} of {}",
        report.ok(),
        report.total()
    );
}

#[test]
fn tight_limits_quarantine_rather_than_panic() {
    let pages = clean_pages(5);
    let limits = IngestLimits::new()
        .with_hard_max_bytes(512)
        .with_soft_max_bytes(256)
        .with_max_terms(16);
    let (corpus, report) = FormPageCorpus::from_shards(
        [&pages],
        &ModelOptions::default(),
        &limits,
        ExecPolicy::Serial,
        &Obs::disabled(),
    );
    assert!(report.is_accounted());
    assert_eq!(corpus.len(), report.kept.len());
    // With a 512-byte hard limit most generated pages are rejected whole.
    assert!(report.quarantined() > 0);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        if let PageOutcome::Quarantined { .. } = outcome {
            assert!(!report.kept.contains(&i));
        }
    }
}

//! Workload statistics — the numbers behind the paper's §6.2 and
//! Figure 19.

use crate::preferences::Sensitivity;
use p3p_policy::model::Policy;

/// Corpus-level statistics (paper §6.2).
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    pub policies: usize,
    pub total_statements: usize,
    pub min_kb: f64,
    pub max_kb: f64,
    pub avg_kb: f64,
    pub avg_statements_per_policy: f64,
}

/// Compute corpus statistics from serialized policy sizes.
pub fn corpus_stats(corpus: &[Policy]) -> CorpusStats {
    let sizes: Vec<usize> = corpus.iter().map(|p| p.to_xml().len()).collect();
    let total_statements: usize = corpus.iter().map(|p| p.statements.len()).sum();
    let kb = |b: usize| b as f64 / 1000.0;
    CorpusStats {
        policies: corpus.len(),
        total_statements,
        min_kb: kb(sizes.iter().copied().min().unwrap_or(0)),
        max_kb: kb(sizes.iter().copied().max().unwrap_or(0)),
        avg_kb: kb(sizes.iter().sum::<usize>()) / corpus.len().max(1) as f64,
        avg_statements_per_policy: total_statements as f64 / corpus.len().max(1) as f64,
    }
}

/// One row of Figure 19.
#[derive(Debug, Clone, PartialEq)]
pub struct PreferenceStats {
    pub level: Sensitivity,
    pub rules: usize,
    pub size_kb: f64,
    pub published_rules: usize,
    pub published_size_kb: f64,
}

/// Compute the Figure 19 table (generated vs published).
pub fn preference_stats() -> Vec<PreferenceStats> {
    Sensitivity::ALL
        .iter()
        .map(|&level| {
            let rs = level.ruleset();
            PreferenceStats {
                level,
                rules: rs.rule_count(),
                size_kb: rs.to_xml().len() as f64 / 1000.0,
                published_rules: level.published_rule_count(),
                published_size_kb: level.published_size_kb(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::corpus;

    #[test]
    fn corpus_stats_reproduce_section_6_2() {
        let stats = corpus_stats(&corpus(42));
        assert_eq!(stats.policies, 29);
        assert_eq!(stats.total_statements, 54);
        // Paper: sizes 1.6–11.9 KB, average 4.4 KB, ~2 statements/policy.
        assert!((stats.min_kb - 1.6).abs() < 0.3, "{stats:?}");
        assert!((stats.max_kb - 11.9).abs() < 0.8, "{stats:?}");
        assert!((stats.avg_kb - 4.4).abs() < 0.4, "{stats:?}");
        assert!((stats.avg_statements_per_policy - 1.86).abs() < 0.2);
    }

    #[test]
    fn preference_stats_reproduce_figure_19() {
        let rows = preference_stats();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(row.rules, row.published_rules, "{:?}", row.level);
            assert!(
                (row.size_kb - row.published_size_kb).abs() / row.published_size_kb < 0.25,
                "{row:?}"
            );
        }
        // Average rule count: paper reports 4.8.
        let avg = rows.iter().map(|r| r.rules).sum::<usize>() as f64 / 5.0;
        assert!((avg - 4.8).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_corpus_stats_do_not_panic() {
        let stats = corpus_stats(&[]);
        assert_eq!(stats.policies, 0);
        assert_eq!(stats.total_statements, 0);
    }
}

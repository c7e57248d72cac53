//! Robustness: no parser in the suite may panic on arbitrary input —
//! they must return errors. (A policy server parses attacker-supplied
//! preferences; a client parses site-supplied policies.)
//!
//! Formerly `proptest` properties; the build environment has no
//! crates.io access, so each parser now runs over a deterministic
//! stream of pseudo-random inputs from an inline SplitMix64 generator.

struct TestRng(u64);

impl TestRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn index(&mut self, n: usize) -> usize {
        (((self.next() as u128) * (n as u128)) >> 64) as usize
    }

    /// Arbitrary printable text (ASCII printable plus a sprinkling of
    /// multi-byte characters), up to `max_len` characters.
    fn printable(&mut self, max_len: usize) -> String {
        const EXOTIC: &[char] = &['é', 'ß', 'λ', '中', '🙂', '\u{2028}'];
        (0..self.index(max_len + 1))
            .map(|_| match self.index(100) {
                0..=93 => (b' ' + self.index(95) as u8) as char,
                _ => EXOTIC[self.index(EXOTIC.len())],
            })
            .collect()
    }

    /// Token soup from a fixed vocabulary, up to `max_tokens` tokens.
    fn soup(&mut self, tokens: &[&str], max_tokens: usize) -> String {
        (0..self.index(max_tokens + 1))
            .map(|_| tokens[self.index(tokens.len())])
            .collect()
    }
}

/// The XML parser never panics.
#[test]
fn xml_parser_total() {
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.printable(200);
        let _ = p3p_suite::xmldom::parse_document(&input);
        let _ = p3p_suite::xmldom::parse_element(&input);
    }
}

/// XML-ish input with markup characters.
#[test]
fn xml_parser_total_markupish() {
    const TOKENS: &[&str] = &[
        "<", ">", "/", "a", "B", "xY", "\"", "'", "=", " ", "&", ";", "!", "?", "[", "]", "-",
        "<!--", "]]>", "<?", "&amp", "&#", "CDATA",
    ];
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.soup(TOKENS, 60);
        let _ = p3p_suite::xmldom::parse_document(&input);
    }
}

/// The SQL parser never panics.
#[test]
fn sql_parser_total() {
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.printable(200);
        let _ = p3p_suite::minidb::sql::parse_statement(&input);
    }
}

/// SQL-ish input with keywords and punctuation.
#[test]
fn sql_parser_total_sqlish() {
    const TOKENS: &[&str] = &[
        "SELECT", "FROM", "WHERE", "EXISTS", "AND", "OR", "NOT", "INSERT", "VALUES", "'", "(", ")",
        ",", "*", "=", "t", "x1", "a.b", " ", "0",
    ];
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.soup(TOKENS, 30);
        let _ = p3p_suite::minidb::sql::parse_statement(&input);
    }
}

/// The XQuery parser never panics.
#[test]
fn xquery_parser_total() {
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.printable(200);
        let _ = p3p_suite::xquery::parse_xquery(&input);
    }
}

/// XQuery-ish input.
#[test]
fn xquery_parser_total_queryish() {
    const TOKENS: &[&str] = &[
        "if", "then", "document", "not", "only", "and", "or", "(", ")", "[", "]", "/", "@", "=",
        "\"", "<", ">", "A", "bc", "X-Y", " ", "-",
    ];
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.soup(TOKENS, 40);
        let _ = p3p_suite::xquery::parse_xquery(&input);
    }
}

/// Policy parsing never panics, even on well-formed XML that is not
/// P3P.
#[test]
fn policy_parser_total() {
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.printable(200);
        let _ = p3p_suite::policy::model::Policy::parse(&input);
    }
}

/// APPEL parsing never panics.
#[test]
fn appel_parser_total() {
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.printable(200);
        let _ = p3p_suite::appel::Ruleset::parse(&input);
    }
}

/// Reference-file parsing never panics.
#[test]
fn reference_parser_total() {
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.printable(200);
        let _ = p3p_suite::policy::reference::ReferenceFile::parse(&input);
    }
}

/// Compact-policy header parsing is total (it has no failure mode).
#[test]
fn compact_header_total() {
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.printable(100);
        let _ = p3p_suite::policy::compact::CompactPolicy::parse_header(&input);
    }
}

/// Executing arbitrary SQL strings against a live database returns
/// errors, never panics, and never corrupts later queries.
#[test]
fn database_execute_total() {
    const TOKENS: &[&str] = &[
        "SELECT",
        "CREATE TABLE",
        "DROP",
        "INSERT INTO",
        "DELETE FROM",
        "UPDATE",
        "t",
        "x",
        "y",
        "INT",
        "VARCHAR",
        "'v'",
        "1",
        "(",
        ")",
        ",",
        "=",
        " ",
    ];
    for seed in 0..512 {
        let mut rng = TestRng(seed);
        let input = rng.soup(TOKENS, 20);
        let mut db = p3p_suite::minidb::Database::new();
        db.execute("CREATE TABLE t (x INT, y VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'v')").unwrap();
        let _ = db.execute(&input);
        // The database still answers correctly afterwards.
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert!(r.scalar().is_some(), "seed {seed}: {input}");
    }
}

/// Parsing is linear in the input: a ruleset of about 1 MiB (the Very
/// High JRC preference's rules repeated, with entity references in the
/// descriptions so every text node is unescaped) parses well inside a
/// generous bound. A parser that recounted lines from the start of the
/// input for each attribute and text node took 16 s on it in a release
/// build on a 2-vCPU x86-64 VM, and minutes in a debug build.
#[test]
fn megabyte_ruleset_parses_in_linear_time() {
    use p3p_suite::appel::model::Ruleset;
    let base = p3p_suite::workload::Sensitivity::VeryHigh.ruleset();
    let mut rules: Vec<_> = base
        .rules
        .iter()
        .filter(|r| !r.otherwise)
        .cloned()
        .collect();
    for rule in &mut rules {
        rule.description = Some("block <sharing> & \"profiling\"".to_string());
    }
    let copies = (1 << 20) / Ruleset::new(rules.clone()).to_xml().len() + 1;
    let big = Ruleset::new(
        rules
            .iter()
            .cycle()
            .take(copies * rules.len())
            .cloned()
            .collect(),
    );
    let xml = big.to_xml();
    assert!(xml.len() > 1_000_000, "{} bytes", xml.len());
    assert!(
        xml.contains("&amp;"),
        "descriptions carry entity references"
    );
    let start = std::time::Instant::now();
    let parsed = Ruleset::parse(&xml).expect("the ruleset parses");
    let took = start.elapsed();
    assert_eq!(parsed, big);
    assert!(
        took < std::time::Duration::from_secs(5),
        "{} bytes took {took:?}",
        xml.len()
    );
}

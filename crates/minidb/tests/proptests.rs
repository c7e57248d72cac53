//! Randomised tests for the relational engine.
//!
//! These were property-based tests on `proptest`; the build environment
//! has no crates.io access, so each property is now exercised over a
//! deterministic stream of pseudo-random cases from an inline SplitMix64
//! generator. Coverage is equivalent in spirit: every case that fails
//! reproduces from its printed seed.

use p3p_minidb::{Database, ExecOptions, Value};

/// SplitMix64 — the same generator `p3p_workload::rng` uses.
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

    fn label(&mut self) -> String {
        let len = 1 + self.index(6);
        (0..len)
            .map(|_| (b'a' + self.index(26) as u8) as char)
            .collect()
    }
}

/// Random case: a sorted deduplicated parent set and a child fan-out.
fn random_case(rng: &mut TestRng) -> (Vec<i64>, Vec<(i64, String)>) {
    let parent_count = rng.index(12);
    let parents: std::collections::BTreeSet<i64> =
        (0..parent_count).map(|_| rng.index(50) as i64).collect();
    let child_count = rng.index(24);
    let children = (0..child_count)
        .map(|_| (rng.index(50) as i64, rng.label()))
        .collect();
    (parents.into_iter().collect(), children)
}

/// Fresh two-table database with `parents` rows and child rows fanned
/// out under them.
fn build_db(parents: &[i64], children: &[(i64, String)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE parent (id INT NOT NULL, PRIMARY KEY (id))")
        .unwrap();
    db.execute("CREATE TABLE child (parent_id INT NOT NULL, label VARCHAR NOT NULL)")
        .unwrap();
    db.execute("CREATE INDEX idx_child ON child (parent_id)")
        .unwrap();
    for p in parents {
        db.execute(&format!("INSERT INTO parent VALUES ({p})"))
            .unwrap();
    }
    db.set_check_foreign_keys(false);
    for (p, l) in children {
        db.execute(&format!("INSERT INTO child VALUES ({p}, '{l}')"))
            .unwrap();
    }
    db
}

/// Index-assisted execution returns exactly what pure nested-loop
/// execution returns, for scans, joins, and correlated EXISTS.
#[test]
fn index_use_is_semantically_invisible() {
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let (parents, children) = random_case(&mut rng);
        let probe = rng.index(50) as i64;
        let db = build_db(&parents, &children);
        let mut db_slow = build_db(&parents, &children);
        db_slow.set_options(ExecOptions {
            indexes: false,
            ..ExecOptions::default()
        });
        let queries = [
            format!("SELECT * FROM child WHERE parent_id = {probe}"),
            format!(
                "SELECT id FROM parent WHERE EXISTS (SELECT * FROM child WHERE child.parent_id = parent.id) AND id = {probe}"
            ),
            "SELECT p.id, c.label FROM parent p, child c WHERE c.parent_id = p.id ORDER BY p.id, c.label".to_string(),
            "SELECT id FROM parent WHERE NOT EXISTS (SELECT * FROM child WHERE child.parent_id = parent.id) ORDER BY id".to_string(),
        ];
        for q in &queries {
            assert_eq!(
                db.query(q).unwrap(),
                db_slow.query(q).unwrap(),
                "seed {seed}: {q}"
            );
        }
    }
}

/// COUNT(*) grouped by parent matches a manual tally.
#[test]
fn group_count_matches_manual() {
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let (parents, children) = random_case(&mut rng);
        let db = build_db(&parents, &children);
        let r = db
            .query(
                "SELECT parent_id, COUNT(*) AS n FROM child GROUP BY parent_id ORDER BY parent_id",
            )
            .unwrap();
        let mut manual: std::collections::BTreeMap<i64, i64> = Default::default();
        for (p, _) in &children {
            *manual.entry(*p).or_default() += 1;
        }
        let got: Vec<(i64, i64)> = r
            .rows
            .iter()
            .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
            .collect();
        let want: Vec<(i64, i64)> = manual.into_iter().collect();
        assert_eq!(got, want, "seed {seed}");
    }
}

/// EXISTS agrees with a membership-based reformulation.
#[test]
fn exists_agrees_with_count() {
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let (parents, children) = random_case(&mut rng);
        let db = build_db(&parents, &children);
        let with_exists = db
            .query("SELECT id FROM parent WHERE EXISTS (SELECT * FROM child WHERE child.parent_id = parent.id) ORDER BY id")
            .unwrap();
        let have_children: std::collections::BTreeSet<i64> =
            children.iter().map(|(p, _)| *p).collect();
        let expected: Vec<i64> = parents
            .iter()
            .copied()
            .filter(|p| have_children.contains(p))
            .collect();
        let got: Vec<i64> = with_exists
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(got, expected, "seed {seed}");
    }
}

/// DELETE removes exactly the rows the same WHERE clause selects.
#[test]
fn delete_matches_select() {
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let (parents, children) = random_case(&mut rng);
        let probe = rng.index(50) as i64;
        let mut db = build_db(&parents, &children);
        let before = db
            .query(&format!("SELECT * FROM child WHERE parent_id = {probe}"))
            .unwrap()
            .rows
            .len();
        let total = db.table("child").unwrap().len();
        db.execute(&format!("DELETE FROM child WHERE parent_id = {probe}"))
            .unwrap();
        assert_eq!(db.table("child").unwrap().len(), total - before);
        let remaining = db
            .query(&format!("SELECT * FROM child WHERE parent_id = {probe}"))
            .unwrap();
        assert!(remaining.is_empty(), "seed {seed}");
    }
}

/// ORDER BY produces a sorted, permutation-preserving result.
#[test]
fn order_by_sorts() {
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let (_, children) = random_case(&mut rng);
        let db = build_db(&[], &children);
        let r = db.query("SELECT label FROM child ORDER BY label").unwrap();
        let mut expected: Vec<String> = children.iter().map(|(_, l)| l.clone()).collect();
        expected.sort();
        let got: Vec<String> = r
            .rows
            .iter()
            .map(|row| row[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(got, expected, "seed {seed}");
    }
}

/// LIMIT n returns a prefix of the unlimited result.
#[test]
fn limit_is_prefix() {
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let (_, children) = random_case(&mut rng);
        let n = rng.index(30);
        let db = build_db(&[], &children);
        let all = db.query("SELECT label FROM child ORDER BY label").unwrap();
        let limited = db
            .query(&format!("SELECT label FROM child ORDER BY label LIMIT {n}"))
            .unwrap();
        assert_eq!(limited.rows.len(), n.min(all.rows.len()), "seed {seed}");
        assert_eq!(
            &all.rows[..limited.rows.len()],
            &limited.rows[..],
            "seed {seed}"
        );
    }
}

/// String literals with doubled quotes survive the round trip.
#[test]
fn string_escaping_roundtrip() {
    const ALPHABET: &[char] = &['a', 'b', 'z', '\'', ' '];
    for seed in 0..64 {
        let mut rng = TestRng(seed);
        let len = rng.index(13);
        let s: String = (0..len)
            .map(|_| *ALPHABET.get(rng.index(ALPHABET.len())).unwrap())
            .collect();
        let mut db = Database::new();
        db.execute("CREATE TABLE t (v VARCHAR)").unwrap();
        let quoted = s.replace('\'', "''");
        db.execute(&format!("INSERT INTO t VALUES ('{quoted}')"))
            .unwrap();
        let r = db.query("SELECT v FROM t").unwrap();
        assert_eq!(r.rows[0][0].clone(), Value::Text(s), "seed {seed}");
    }
}

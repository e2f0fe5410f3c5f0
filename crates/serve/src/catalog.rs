//! The versioned, persistent rule catalog.
//!
//! A [`RuleCatalog`] is the durable artifact between *mining* and
//! *serving*: DMine runs once (or periodically) and exports its retained
//! rule set Σ with mining-time support/confidence statistics; the serving
//! engine loads the catalog next to a (possibly newer) graph and answers
//! identification queries from it.
//!
//! Catalogs are persisted with the workspace's compact binary codec
//! (patterns via [`gpar_pattern::codec`], shared varint primitives via
//! [`gpar_graph::io::bin`]). The header carries a **format version** (for
//! future layout evolution) and a **catalog version** — a counter bumped
//! on every mutation so replicas and caches can detect staleness cheaply.

use gpar_core::{ConfStats, Confidence, Gpar, Predicate};
use gpar_graph::io::bin::{self, BinError};
use gpar_graph::Vocab;
use gpar_mine::MineResult;
use gpar_pattern::{read_pattern_binary, write_pattern_binary, CanonicalCode};
use rustc_hash::FxHashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic header of the binary catalog format.
pub const CATALOG_MAGIC: &[u8; 8] = b"GPARC01\n";

/// Layout version written after the magic; readers reject anything newer.
pub const CATALOG_FORMAT_VERSION: u64 = 1;

/// One cataloged rule with its mining-time statistics.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The rule `R(x, y): Q ⇒ q`.
    pub rule: Arc<Gpar>,
    /// Global support/confidence counts from the mining evaluation.
    pub stats: ConfStats,
}

impl CatalogEntry {
    /// The BF confidence implied by the stored counts.
    pub fn confidence(&self) -> Confidence {
        self.stats.conf()
    }

    /// `supp(R, G)` at mining time.
    pub fn support(&self) -> u64 {
        self.stats.supp_r
    }
}

/// Errors raised by catalog construction and persistence.
#[derive(Debug)]
pub enum CatalogError {
    /// Binary-codec failure (I/O, bad magic, malformed content).
    Codec(BinError),
    /// The stream's format version is newer than this build understands.
    UnsupportedVersion(u64),
    /// A deserialized rule failed GPAR validation.
    BadRule(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Codec(e) => write!(f, "catalog codec error: {e}"),
            CatalogError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "catalog format version {v} is newer than supported ({CATALOG_FORMAT_VERSION})"
                )
            }
            CatalogError::BadRule(msg) => write!(f, "catalog contains an invalid rule: {msg}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<BinError> for CatalogError {
    fn from(e: BinError) -> Self {
        CatalogError::Codec(e)
    }
}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        CatalogError::Codec(BinError::Io(e))
    }
}

/// A versioned collection of mined GPARs, grouped by consequent predicate.
#[derive(Debug, Clone)]
pub struct RuleCatalog {
    vocab: Arc<Vocab>,
    entries: Vec<CatalogEntry>,
    by_predicate: FxHashMap<Predicate, Vec<usize>>,
    codes: rustc_hash::FxHashSet<CanonicalCode>,
    version: u64,
}

impl RuleCatalog {
    /// An empty catalog over `vocab` at version 0.
    pub fn new(vocab: Arc<Vocab>) -> Self {
        Self {
            vocab,
            entries: Vec::new(),
            by_predicate: FxHashMap::default(),
            codes: Default::default(),
            version: 0,
        }
    }

    /// Builds a catalog from a mining run: every retained rule of Σ (not
    /// just the diversified top-k) is exported with its assembled global
    /// statistics, deduplicated by canonical code.
    pub fn from_mine_result(res: &MineResult, vocab: Arc<Vocab>) -> Self {
        let mut cat = Self::new(vocab);
        cat.merge_mine_result(res);
        cat
    }

    /// Merges a mining run into this catalog, skipping rules already
    /// present (by canonical code of `P_R`). Bumps the catalog version
    /// once if anything was added; returns how many rules were added.
    pub fn merge_mine_result(&mut self, res: &MineResult) -> usize {
        let mut added = 0;
        for mr in res.unique_sigma() {
            if self.insert_inner(mr.rule.clone(), mr.stats) {
                added += 1;
            }
        }
        if added > 0 {
            self.version += 1;
        }
        added
    }

    /// Inserts one rule with its statistics. Returns `false` (and leaves
    /// the catalog unchanged) if an automorphic rule is already cataloged.
    /// Bumps the version on success.
    pub fn insert(&mut self, rule: Arc<Gpar>, stats: ConfStats) -> bool {
        let inserted = self.insert_inner(rule, stats);
        if inserted {
            self.version += 1;
        }
        inserted
    }

    fn insert_inner(&mut self, rule: Arc<Gpar>, stats: ConfStats) -> bool {
        if !self.codes.insert(rule.pr().canonical_code()) {
            return false;
        }
        let idx = self.entries.len();
        self.by_predicate.entry(*rule.predicate()).or_default().push(idx);
        self.entries.push(CatalogEntry { rule, stats });
        true
    }

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Arc<Vocab> {
        &self.vocab
    }

    /// The mutation counter; persisted, so replicas can detect staleness.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of cataloged rules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[CatalogEntry] {
        &self.entries
    }

    /// The distinct consequent predicates, in no particular order.
    pub fn predicates(&self) -> impl Iterator<Item = &Predicate> {
        self.by_predicate.keys()
    }

    /// Entry indices pertaining to `pred` (empty if unknown).
    pub fn indices_for(&self, pred: &Predicate) -> &[usize] {
        self.by_predicate.get(pred).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Entries pertaining to `pred`, in insertion order.
    pub fn rules_for(&self, pred: &Predicate) -> Vec<&CatalogEntry> {
        self.indices_for(pred).iter().map(|&i| &self.entries[i]).collect()
    }

    /// The `k` highest-confidence entries for `pred` (mining-time
    /// confidence; ties broken by support, then insertion order).
    pub fn top_rules(&self, pred: &Predicate, k: usize) -> Vec<&CatalogEntry> {
        let mut out = self.rules_for(pred);
        out.sort_by(|a, b| {
            b.confidence()
                .ranking_value()
                .total_cmp(&a.confidence().ranking_value())
                .then(b.support().cmp(&a.support()))
        });
        out.truncate(k);
        out
    }

    /// Writes the catalog in the binary format.
    pub fn save(&self, mut w: impl Write) -> Result<(), CatalogError> {
        let w = &mut w;
        bin::write_magic(w, CATALOG_MAGIC)?;
        bin::write_uvarint(w, CATALOG_FORMAT_VERSION)?;
        bin::write_uvarint(w, self.version)?;
        bin::write_uvarint(w, self.entries.len() as u64)?;
        for e in &self.entries {
            // The antecedent pattern designates both x and y, so the rule
            // is fully reconstructible from (Q, q-label).
            write_pattern_binary(e.rule.antecedent(), &mut *w)?;
            // Resolve through the rule's own vocabulary: entries imported
            // from a mining run share the catalog vocab, but resolving
            // locally keeps save correct even for mixed provenance.
            let q = e.rule.antecedent().vocab().resolve(e.rule.predicate().label);
            bin::write_str(w, &q)?;
            let ConfStats { supp_r, supp_q_ante, supp_q, supp_qbar, supp_q_qbar } = e.stats;
            for v in [supp_r, supp_q_ante, supp_q, supp_qbar, supp_q_qbar] {
                bin::write_uvarint(w, v)?;
            }
        }
        Ok(())
    }

    /// Writes the catalog to a file.
    pub fn save_path(&self, path: impl AsRef<Path>) -> Result<(), CatalogError> {
        let f = std::fs::File::create(path)?;
        self.save(std::io::BufWriter::new(f))
    }

    /// Reads a catalog in the binary format, interning labels into
    /// `vocab`.
    pub fn load(mut r: impl Read, vocab: Arc<Vocab>) -> Result<Self, CatalogError> {
        let r = &mut r;
        bin::read_magic(r, CATALOG_MAGIC)?;
        let fv = bin::read_uvarint(r)?;
        if fv > CATALOG_FORMAT_VERSION {
            return Err(CatalogError::UnsupportedVersion(fv));
        }
        let version = bin::read_uvarint(r)?;
        let n = bin::read_count(r, 1 << 24, "catalog entry")?;
        let mut cat = Self::new(vocab.clone());
        for _ in 0..n {
            let antecedent = read_pattern_binary(&mut *r, vocab.clone())?;
            let q = vocab.intern(&bin::read_str(r)?);
            let mut counts = [0u64; 5];
            for c in &mut counts {
                *c = bin::read_uvarint(r)?;
            }
            // The strict constructor: save can only ever emit nontrivial
            // rules (insert takes `Gpar`s built via `Gpar::new`), so an
            // empty-antecedent entry here is corruption or a crafted
            // stream — and a trivial rule would make *every* candidate a
            // customer if it slipped into the serving index.
            let rule =
                Gpar::new(antecedent, q).map_err(|e| CatalogError::BadRule(e.to_string()))?;
            let stats = ConfStats {
                supp_r: counts[0],
                supp_q_ante: counts[1],
                supp_q: counts[2],
                supp_qbar: counts[3],
                supp_q_qbar: counts[4],
            };
            cat.insert_inner(Arc::new(rule), stats);
        }
        cat.version = version;
        Ok(cat)
    }

    /// Reads a catalog from a file.
    pub fn load_path(path: impl AsRef<Path>, vocab: Arc<Vocab>) -> Result<Self, CatalogError> {
        let f = std::fs::File::open(path)?;
        Self::load(std::io::BufReader::new(f), vocab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpar_pattern::PatternBuilder;

    fn rule(vocab: &Arc<Vocab>, via: &str, q: &str) -> Arc<Gpar> {
        let cust = vocab.intern("cust");
        let rest = vocab.intern("rest");
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node(cust);
        let y = b.node(rest);
        b.edge(x, y, vocab.intern(via));
        Arc::new(Gpar::new(b.designate(x, y).build().unwrap(), vocab.intern(q)).unwrap())
    }

    fn stats(supp_r: u64, qqbar: u64) -> ConfStats {
        ConfStats {
            supp_r,
            supp_q_ante: supp_r + qqbar,
            supp_q: 20,
            supp_qbar: 5,
            supp_q_qbar: qqbar,
        }
    }

    #[test]
    fn insert_dedups_and_versions() {
        let vocab = Vocab::new();
        let mut cat = RuleCatalog::new(vocab.clone());
        assert_eq!(cat.version(), 0);
        assert!(cat.insert(rule(&vocab, "like", "visit"), stats(10, 2)));
        assert_eq!(cat.version(), 1);
        // Automorphic duplicate is rejected and does not bump the version.
        assert!(!cat.insert(rule(&vocab, "like", "visit"), stats(9, 3)));
        assert_eq!(cat.version(), 1);
        assert!(cat.insert(rule(&vocab, "follow", "visit"), stats(8, 1)));
        assert_eq!((cat.len(), cat.version()), (2, 2));
    }

    #[test]
    fn grouping_and_top_rules_rank_by_confidence() {
        let vocab = Vocab::new();
        let mut cat = RuleCatalog::new(vocab.clone());
        let r1 = rule(&vocab, "like", "visit");
        let pred = *r1.predicate();
        cat.insert(r1, stats(10, 10)); // conf = 10*5/(10*20) = 0.25
        cat.insert(rule(&vocab, "follow", "visit"), stats(16, 2)); // conf = 2.0
        cat.insert(rule(&vocab, "like", "recommend"), stats(4, 1));
        assert_eq!(cat.rules_for(&pred).len(), 2);
        let top = cat.top_rules(&pred, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].support(), 16, "higher-confidence rule must rank first");
        assert_eq!(cat.predicates().count(), 2);
    }

    #[test]
    fn save_load_roundtrip_preserves_rules_stats_and_version() {
        let vocab = Vocab::new();
        let mut cat = RuleCatalog::new(vocab.clone());
        cat.insert(rule(&vocab, "like", "visit"), stats(10, 2));
        cat.insert(rule(&vocab, "follow", "visit"), stats(7, 0));
        let mut buf = Vec::new();
        cat.save(&mut buf).unwrap();

        let fresh = Vocab::new();
        let back = RuleCatalog::load(buf.as_slice(), fresh.clone()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.version(), cat.version());
        for (a, b) in cat.entries().iter().zip(back.entries()) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.confidence(), b.confidence());
            assert_eq!(a.rule.antecedent().edge_count(), b.rule.antecedent().edge_count());
        }
        // Labels resolve by *name* in the fresh vocabulary.
        let visit = fresh.get("visit").expect("interned on load");
        assert!(back.entries().iter().all(|e| e.rule.predicate().label == visit));
    }

    #[test]
    fn load_rejects_corruption_and_future_versions() {
        let vocab = Vocab::new();
        let mut cat = RuleCatalog::new(vocab.clone());
        cat.insert(rule(&vocab, "like", "visit"), stats(10, 2));
        let mut buf = Vec::new();
        cat.save(&mut buf).unwrap();

        let mut bad = buf.clone();
        bad[3] = b'X';
        assert!(matches!(
            RuleCatalog::load(bad.as_slice(), Vocab::new()).unwrap_err(),
            CatalogError::Codec(BinError::BadMagic { .. })
        ));

        for cut in 0..buf.len() {
            assert!(RuleCatalog::load(&buf[..cut], Vocab::new()).is_err(), "cut {cut}");
        }

        // Format version 999 must be rejected as unsupported.
        let mut future = Vec::new();
        bin::write_magic(&mut future, CATALOG_MAGIC).unwrap();
        bin::write_uvarint(&mut future, 999).unwrap();
        assert!(matches!(
            RuleCatalog::load(future.as_slice(), Vocab::new()).unwrap_err(),
            CatalogError::UnsupportedVersion(999)
        ));
    }

    #[test]
    fn load_rejects_trivial_rules() {
        // A crafted stream carrying an edgeless antecedent: `save` can
        // never produce one, and if accepted the trivial rule would make
        // every x-labeled node a "customer" at serving time.
        let vocab = Vocab::new();
        let cust = vocab.intern("cust");
        let rest = vocab.intern("rest");
        let p = gpar_pattern::Pattern::from_parts(
            vec![gpar_pattern::NodeCond::Label(cust), gpar_pattern::NodeCond::Label(rest)],
            vec![],
            gpar_pattern::PNodeId(0),
            Some(gpar_pattern::PNodeId(1)),
            vocab.clone(),
        )
        .unwrap();
        let mut buf = Vec::new();
        bin::write_magic(&mut buf, CATALOG_MAGIC).unwrap();
        bin::write_uvarint(&mut buf, CATALOG_FORMAT_VERSION).unwrap();
        bin::write_uvarint(&mut buf, 1).unwrap(); // catalog version
        bin::write_uvarint(&mut buf, 1).unwrap(); // one entry
        write_pattern_binary(&p, &mut buf).unwrap();
        bin::write_str(&mut buf, "visit").unwrap();
        for _ in 0..5 {
            bin::write_uvarint(&mut buf, 0).unwrap();
        }
        let err = RuleCatalog::load(buf.as_slice(), vocab).unwrap_err();
        assert!(matches!(&err, CatalogError::BadRule(m) if m.contains("antecedent")), "{err}");
    }
}

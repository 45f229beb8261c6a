//! Disk-backed, content-addressed persistence for the invocation cache.
//!
//! A testing campaign's cost model is optimizer invocations (§5.3.1), and
//! the in-memory [`OptCache`](crate::OptCache) already dedupes repeats
//! within one process. This module extends that saving across process
//! boundaries: computed `(tree, mask, budgets)` entries are written to a
//! versioned JSONL snapshot, and a later run with `--cache-dir` answers
//! those probes from disk without re-computing.
//!
//! Three properties shape the design:
//!
//! * **Content addressing.** Entries are keyed by the *exact* serialized
//!   [`CacheKey`] (canonical compact JSON, sorted object keys), never by a
//!   lossy fingerprint, so a collision can't serve a wrong plan. The
//!   snapshot as a whole is guarded by a campaign fingerprint (catalog
//!   hash, rule-catalog hash, seed, scale): if the rule catalog changed,
//!   the whole snapshot is rejected rather than risking poisoned entries.
//! * **Determinism.** Serialized floats round-trip bit-exactly (hex
//!   `f64::to_bits`), entries are written sorted by key, and each entry
//!   carries the [`ProfileSample`] its original compute produced so a
//!   warm hit can replay the exact telemetry of a cold compute. Hashes
//!   use FNV-1a (self-contained, stable across processes and releases) —
//!   `DefaultHasher` is documented as unstable and never touches disk.
//! * **Atomicity.** Every file is written to a temp sibling and renamed
//!   into place, so a `kill -9` mid-save leaves the previous snapshot
//!   intact. Shards serialize independently and load lazily on first
//!   probe.

use crate::cache::CacheKey;
use crate::optimizer::OptimizeResult;
use crate::physical::{PhysOp, PhysicalPlan};
use crate::rule::Rule;
use ruletest_common::{ColId, DataType, Fnv64, RuleId, TableId, Value};
use ruletest_expr::{AggCall, AggFunc, BinOp, Expr};
use ruletest_logical::{ColumnInfo, JoinKind, LogicalTree, Operator, SortKey};
use ruletest_storage::Catalog;
/// The wire value every [`Codec`] reads and writes.
pub use ruletest_telemetry::Json;
use ruletest_telemetry::ProfileSample;
use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Snapshot layout version; bump on breaking serialization changes. A
/// version mismatch rejects the snapshot the same way a fingerprint
/// mismatch does.
pub const FORMAT_VERSION: u64 = 1;

/// Fixed number of on-disk shard files. Independent of the in-memory
/// cache's shard count so either can change without invalidating
/// snapshots.
pub const DISK_SHARDS: usize = 16;

/// The campaign fingerprint guarding a snapshot: schema catalog, rule
/// catalog (names, kinds, preconditions, in id order), database seed and
/// scale, and the snapshot format version. Budgets and masks are *not*
/// included — they are per-entry key components.
pub fn campaign_fingerprint<'a>(
    catalog: &Catalog,
    rules: impl Iterator<Item = &'a Rule>,
    db_seed: u64,
    scale: u64,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(FORMAT_VERSION);
    for def in catalog.tables() {
        h.write_u64(u64::from(def.id.0)).write_str(&def.name);
        for col in &def.columns {
            h.write_str(&col.name)
                .write_str(col.data_type.enc().as_str().expect("a type name"))
                .write_u64(u64::from(col.nullable));
        }
        for &pk in &def.primary_key {
            h.write_u64(pk as u64);
        }
    }
    for (i, rule) in rules.enumerate() {
        h.write_u64(i as u64)
            .write_str(rule.name)
            .write_u64(matches!(rule.kind, crate::rule::RuleKind::Exploration) as u64)
            .write_str(rule.precondition);
    }
    h.write_u64(db_seed).write_u64(scale);
    h.finish()
}

// ---------------------------------------------------------------------
// The wire codec. Each persisted type states its JSON form once, as a
// [`Codec`] impl, and encoding and decoding both follow from it.
// Canonical: `Json::Obj` is a BTreeMap, so `to_string_compact` yields
// sorted keys and a stable byte form.

/// One JSON wire form per type: `T::dec(&x.enc())` reproduces `x`
/// exactly, and equal values encode to equal bytes.
///
/// Structs and `op`-tagged enums state their form as a `field: "key"`
/// listing through [`codec!`](crate::codec); field-less enums as one
/// name table. A `u64` above 2^53 is written as a decimal string (a JSON
/// number is an `f64` and would round it); smaller values stay numbers.
pub trait Codec: Sized {
    fn enc(&self) -> Json;
    fn dec(j: &Json) -> Result<Self, String>;
}

static NULL: Json = Json::Null;

/// Decodes member `name` of object `j`. An absent member decodes as
/// `null`, so an `Option` member may be written as `null` or omitted,
/// and any other type reports it missing. Errors carry the member path.
pub fn field<T: Codec>(j: &Json, name: &str) -> Result<T, String> {
    T::dec(j.get(name).unwrap_or(&NULL)).map_err(|e| format!("{name}: {e}"))
}

/// States the wire form of a struct or of an enum tagged by one member.
///
/// ```ignore
/// codec!(struct SortKey { col: "col", descending: "desc" });
/// codec!(struct Entry { sql: "sql" if Some, .. }); // omit `None`, not `null`
/// codec!(enum Operator as "op" { Distinct "distinct" {}, Top "top" { n: "n", .. }, .. });
/// ```
#[macro_export]
macro_rules! codec {
    (struct $ty:ident { $($f:ident: $k:literal $(if $some:ident)?),* $(,)? }) => {
        impl $crate::persist::Codec for $ty {
            fn enc(&self) -> $crate::persist::Json {
                let mut members = ::std::collections::BTreeMap::new();
                $($crate::codec!(@put members, $k, &self.$f $(, $some)?);)*
                $crate::persist::Json::Obj(members)
            }
            fn dec(j: &$crate::persist::Json) -> ::std::result::Result<Self, ::std::string::String> {
                Ok($ty { $($f: $crate::persist::field(j, $k)?),* })
            }
        }
    };
    (enum $ty:ident as $tag:literal {
        $($v:ident $name:literal { $($f:ident: $k:literal),* $(,)? }),* $(,)?
    }) => {
        impl $crate::persist::Codec for $ty {
            fn enc(&self) -> $crate::persist::Json {
                let mut members = ::std::collections::BTreeMap::new();
                match self {
                    $($ty::$v { $($f),* } => {
                        members.insert($tag.to_string(), $crate::persist::Json::str($name));
                        $($crate::codec!(@put members, $k, $f);)*
                    })*
                }
                $crate::persist::Json::Obj(members)
            }
            fn dec(j: &$crate::persist::Json) -> ::std::result::Result<Self, ::std::string::String> {
                match j.get($tag).and_then($crate::persist::Json::as_str) {
                    $(Some($name) => Ok($ty::$v { $($f: $crate::persist::field(j, $k)?),* }),)*
                    _ => Err(format!("{}: unknown {}", $tag, stringify!($ty))),
                }
            }
        }
    };
    (@put $members:ident, $k:literal, $v:expr) => {
        $members.insert($k.to_string(), $crate::persist::Codec::enc($v))
    };
    (@put $members:ident, $k:literal, $v:expr, Some) => {
        if let Some(v) = $v {
            $members.insert($k.to_string(), $crate::persist::Codec::enc(v));
        }
    };
}

/// Largest `u64` a JSON number (an `f64`) holds exactly.
const EXACT_U64: u64 = 1 << 53;

impl Codec for u64 {
    fn enc(&self) -> Json {
        if *self <= EXACT_U64 {
            Json::count(*self)
        } else {
            Json::str(self.to_string())
        }
    }
    fn dec(j: &Json) -> Result<Self, String> {
        match j {
            Json::Str(s) => s.parse().ok(),
            _ => j.as_u64(),
        }
        .ok_or_else(|| "expected an unsigned integer".to_string())
    }
}

impl Codec for usize {
    fn enc(&self) -> Json {
        (*self as u64).enc()
    }
    fn dec(j: &Json) -> Result<Self, String> {
        usize::try_from(u64::dec(j)?).map_err(|e| e.to_string())
    }
}

impl Codec for bool {
    fn enc(&self) -> Json {
        Json::Bool(*self)
    }
    fn dec(j: &Json) -> Result<Self, String> {
        j.as_bool().ok_or_else(|| "expected a bool".to_string())
    }
}

impl Codec for String {
    fn enc(&self) -> Json {
        Json::str(self.clone())
    }
    fn dec(j: &Json) -> Result<Self, String> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    }
}

/// Floats travel as the hex digits of their bit pattern: costs must
/// compare bit-identical across processes, and decimal text may not.
impl Codec for f64 {
    fn enc(&self) -> Json {
        Json::f64_bits(*self)
    }
    fn dec(j: &Json) -> Result<Self, String> {
        j.as_f64_bits()
            .ok_or_else(|| "expected hex float bits".to_string())
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self) -> Json {
        Json::Arr(self.iter().map(T::enc).collect())
    }
    fn dec(j: &Json) -> Result<Self, String> {
        j.as_arr()
            .ok_or_else(|| "expected an array".to_string())?
            .iter()
            .map(T::dec)
            .collect()
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn enc(&self) -> Json {
        Json::Arr(self.iter().map(T::enc).collect())
    }
    fn dec(j: &Json) -> Result<Self, String> {
        Ok(Vec::<T>::dec(j)?.into_iter().collect())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn enc(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::enc)
    }
    fn dec(j: &Json) -> Result<Self, String> {
        match j {
            Json::Null => Ok(None),
            _ => T::dec(j).map(Some),
        }
    }
}

macro_rules! id_codec {
    ($($ty:ident($inner:ty)),*) => {$(
        impl Codec for $ty {
            fn enc(&self) -> Json {
                Json::count(u64::from(self.0))
            }
            fn dec(j: &Json) -> Result<Self, String> {
                j.as_u64()
                    .and_then(|v| <$inner>::try_from(v).ok())
                    .map($ty)
                    .ok_or_else(|| concat!("expected a ", stringify!($ty)).to_string())
            }
        }
    )*};
}

id_codec!(ColId(u32), TableId(u32), RuleId(u16));

macro_rules! name_codec {
    ($ty:ident { $($v:ident: $name:literal),* $(,)? }) => {
        impl Codec for $ty {
            fn enc(&self) -> Json {
                Json::str(match self {
                    $($ty::$v => $name,)*
                })
            }
            fn dec(j: &Json) -> Result<Self, String> {
                match j.as_str() {
                    $(Some($name) => Ok($ty::$v),)*
                    _ => Err(concat!("unknown ", stringify!($ty)).to_string()),
                }
            }
        }
    };
}

name_codec!(BinOp {
    Eq: "eq",
    Ne: "ne",
    Lt: "lt",
    Le: "le",
    Gt: "gt",
    Ge: "ge",
    Add: "add",
    Sub: "sub",
    Mul: "mul",
    And: "and",
    Or: "or",
});
name_codec!(AggFunc {
    CountStar: "count_star",
    Count: "count",
    Sum: "sum",
    Min: "min",
    Max: "max",
});
name_codec!(JoinKind {
    Inner: "inner",
    LeftOuter: "left_outer",
    RightOuter: "right_outer",
    FullOuter: "full_outer",
    LeftSemi: "left_semi",
    LeftAnti: "left_anti",
});
name_codec!(DataType {
    Bool: "bool",
    Int: "int",
    Str: "str",
});

/// `null`, a bool, `{"int": "<decimal>"}` (an i64 exceeds 2^53) or
/// `{"str": s}`.
impl Codec for Value {
    fn enc(&self) -> Json {
        match self {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::Int(i) => Json::obj(vec![("int", Json::str(i.to_string()))]),
            Value::Str(s) => Json::obj(vec![("str", s.enc())]),
        }
    }
    fn dec(j: &Json) -> Result<Self, String> {
        match j {
            Json::Null => Ok(Value::Null),
            Json::Bool(b) => Ok(Value::Bool(*b)),
            _ => match (j.get("int"), j.get("str")) {
                (Some(i), _) => i
                    .as_str()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Int)
                    .ok_or_else(|| "int: expected a decimal i64".to_string()),
                (None, Some(s)) => String::dec(s).map(Value::Str),
                (None, None) => Err("expected a value".to_string()),
            },
        }
    }
}

/// Keyed by the variant: `{"col": id}`, `{"lit": v}`,
/// `{"bin": op, "l": e, "r": e}`, `{"not": e}` or `{"is_null": e}`.
impl Codec for Expr {
    fn enc(&self) -> Json {
        match self {
            Expr::Col(c) => Json::obj(vec![("col", c.enc())]),
            Expr::Lit(v) => Json::obj(vec![("lit", v.enc())]),
            Expr::Bin { op, left, right } => Json::obj(vec![
                ("bin", op.enc()),
                ("l", left.enc()),
                ("r", right.enc()),
            ]),
            Expr::Not(x) => Json::obj(vec![("not", x.enc())]),
            Expr::IsNull(x) => Json::obj(vec![("is_null", x.enc())]),
        }
    }
    fn dec(j: &Json) -> Result<Self, String> {
        if let Some(c) = j.get("col") {
            ColId::dec(c).map(Expr::Col)
        } else if let Some(v) = j.get("lit") {
            Value::dec(v).map(Expr::Lit)
        } else if let Some(op) = j.get("bin") {
            Ok(Expr::bin(BinOp::dec(op)?, field(j, "l")?, field(j, "r")?))
        } else if let Some(x) = j.get("not") {
            Expr::dec(x).map(Expr::not)
        } else if let Some(x) = j.get("is_null") {
            Expr::dec(x).map(Expr::is_null)
        } else {
            Err("expected an expression".to_string())
        }
    }
}

/// A projection output: `{"col": id, "expr": e}`.
impl Codec for (ColId, Expr) {
    fn enc(&self) -> Json {
        Json::obj(vec![("col", self.0.enc()), ("expr", self.1.enc())])
    }
    fn dec(j: &Json) -> Result<Self, String> {
        Ok((field(j, "col")?, field(j, "expr")?))
    }
}

/// A rule pair (dependency or target): `[a, b]`.
impl Codec for (RuleId, RuleId) {
    fn enc(&self) -> Json {
        Json::Arr(vec![self.0.enc(), self.1.enc()])
    }
    fn dec(j: &Json) -> Result<Self, String> {
        match j.as_arr() {
            Some([a, b]) => Ok((RuleId::dec(a)?, RuleId::dec(b)?)),
            _ => Err("expected a rule pair".to_string()),
        }
    }
}

codec!(struct SortKey { col: "col", descending: "desc" });
codec!(struct AggCall { func: "func", arg: "arg", output: "out" });
codec!(struct ColumnInfo { id: "id", data_type: "type", nullable: "nullable" });

// A logical tree serializes exactly, column ids and all. SQL text is
// deliberately *not* the wire form: re-parsing renumbers column ids, and
// a key that round-trips inexactly would never match again.
codec!(struct LogicalTree { op: "o", children: "c" });
codec!(enum Operator as "op" {
    Get "get" { table: "table", cols: "cols" },
    Select "select" { predicate: "pred" },
    Project "project" { outputs: "outputs" },
    Join "join" { kind: "kind", predicate: "pred" },
    GbAgg "gbagg" { group_by: "group_by", aggs: "aggs" },
    UnionAll "union_all" { outputs: "outputs", left_cols: "left_cols", right_cols: "right_cols" },
    Distinct "distinct" {},
    Sort "sort" { keys: "keys" },
    Top "top" { n: "n", keys: "keys" },
});

codec!(struct PhysicalPlan {
    op: "o",
    children: "c",
    schema: "schema",
    est_rows: "est_rows",
    est_cost: "est_cost",
});
codec!(enum PhysOp as "op" {
    SeqScan "seq_scan" { table: "table", cols: "cols" },
    IndexSeek "index_seek" { table: "table", cols: "cols", key: "key", residual: "residual" },
    Filter "filter" { predicate: "pred" },
    Compute "compute" { outputs: "outputs" },
    NLJoin "nl_join" { kind: "kind", predicate: "pred" },
    HashJoin "hash_join" {
        kind: "kind",
        left_keys: "left_keys",
        right_keys: "right_keys",
        residual: "residual",
    },
    MergeJoin "merge_join" { left_key: "left_key", right_key: "right_key", residual: "residual" },
    HashAgg "hash_agg" { group_by: "group_by", aggs: "aggs" },
    StreamAgg "stream_agg" { group_by: "group_by", aggs: "aggs" },
    Concat "concat" { outputs: "outputs", left_cols: "left_cols", right_cols: "right_cols" },
    HashDistinct "hash_distinct" {},
    SortOp "sort" { keys: "keys" },
    TopN "top_n" { n: "n", keys: "keys" },
});

codec!(struct OptimizeResult {
    plan: "plan",
    cost: "cost",
    rule_set: "rule_set",
    rule_dependencies: "rule_deps",
    groups: "groups",
    exprs: "exprs",
    truncated: "truncated",
});

/// Canonical byte form of a cache key: compact JSON with sorted object
/// keys. Content-addresses the snapshot entries (no lossy hashing), so a
/// key is only ever encoded. `hard_max_exprs` is omitted when unset so
/// default-config keys keep the exact canonical bytes older snapshots
/// were addressed by.
pub fn canonical_key(key: &CacheKey) -> String {
    let mut members = vec![
        ("tree", key.tree().enc()),
        (
            "disabled",
            Json::Arr(key.disabled().iter().map(RuleId::enc).collect()),
        ),
        ("max_exprs", key.max_exprs().enc()),
        ("max_passes", key.max_passes().enc()),
    ];
    members.extend(key.hard_max_exprs().map(|h| ("hard_max_exprs", h.enc())));
    Json::obj(members).to_string_compact()
}

// ---------------------------------------------------------------------
// The snapshot store.

/// Atomic write: temp sibling + rename. A crash mid-write leaves the old
/// file (or no file), never a torn one. Campaign checkpoints use it too.
pub fn write_atomic(path: &Path, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// A warm entry handed back by [`SnapshotStore::peek_warm`].
pub struct WarmHit {
    pub result: Arc<OptimizeResult>,
    /// The profile sample the original compute produced, replayed by the
    /// warm hit so cold and warm span trees match exactly.
    pub sample: Option<ProfileSample>,
    /// True when the entry's telemetry is already included in an absorbed
    /// checkpoint report (`--resume`): the warm hit must NOT re-record it.
    pub counted_in_base: bool,
}

/// Boundary stamp meaning "recorded outside any checkpointed campaign" —
/// such entries are never considered part of a resumed base report.
const NO_BOUNDARY: u64 = u64::MAX;

struct StoredEntry {
    result: Arc<OptimizeResult>,
    sample: Option<ProfileSample>,
    /// Checkpoint boundary whose report snapshot first covers this
    /// entry's telemetry (see [`SnapshotStore::set_boundary`]).
    boundary: u64,
}

type Shard = Mutex<Option<HashMap<String, StoredEntry>>>;

/// Disk-backed warm store for the invocation cache.
///
/// Layout under `<dir>/cache/`: `MANIFEST.json` (format version +
/// campaign fingerprint) and `shard-<i>.jsonl` files (one entry per
/// line, sorted by canonical key). Shards load lazily on the first probe
/// that maps to them; `save` writes every shard atomically.
pub struct SnapshotStore {
    dir: PathBuf,
    fingerprint: u64,
    /// A snapshot existed but its fingerprint (or format) didn't match —
    /// it is ignored wholesale and will be overwritten on save.
    rejected: bool,
    /// A matching snapshot exists on disk to load shards from.
    has_snapshot: bool,
    /// Resume mode: entries stamped with a boundary `<=` this value are
    /// already counted in the absorbed base report.
    counted_through: Option<u64>,
    /// Stamp applied to freshly recorded entries (the checkpoint boundary
    /// whose snapshot will cover them).
    boundary: AtomicU64,
    shards: Vec<Shard>,
}

impl SnapshotStore {
    /// Opens (or initializes) the store under `dir`. `counted_through`
    /// is resume mode: disk entries stamped with a checkpoint boundary
    /// `<=` the value are already counted in the absorbed base report and
    /// must not re-record on a warm hit. Never fails on a *stale*
    /// snapshot — that sets [`SnapshotStore::rejected`] and starts cold.
    pub fn open(
        dir: &Path,
        fingerprint: u64,
        counted_through: Option<u64>,
    ) -> std::io::Result<Self> {
        let dir = dir.join("cache");
        fs::create_dir_all(&dir)?;
        let manifest = dir.join("MANIFEST.json");
        let (rejected, has_snapshot) = match fs::read_to_string(&manifest) {
            Ok(text) => {
                let ok = Json::parse(&text).ok().is_some_and(|doc| {
                    doc.get("format").and_then(Json::as_u64) == Some(FORMAT_VERSION)
                        && doc.get("fingerprint").and_then(Json::as_str)
                            == Some(format!("{fingerprint:016x}").as_str())
                });
                (!ok, ok)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (false, false),
            Err(e) => return Err(e),
        };
        Ok(SnapshotStore {
            dir,
            fingerprint,
            rejected,
            has_snapshot,
            counted_through,
            boundary: AtomicU64::new(NO_BOUNDARY),
            shards: (0..DISK_SHARDS).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// Sets the checkpoint boundary stamped onto subsequently recorded
    /// entries. A checkpointed campaign calls this when entering stage
    /// `b`, then snapshots its report after saving — so a later
    /// `--resume` from boundary `b` knows exactly which disk entries that
    /// snapshot already counted. Never called → entries are stamped as
    /// boundary-less and never treated as part of a resumed base.
    pub fn set_boundary(&self, b: u64) {
        self.boundary.store(b, Ordering::Relaxed);
    }

    /// True when a snapshot was found but discarded (stale fingerprint or
    /// format). Telemetry counts this as `cache.fingerprint_rejected`.
    pub fn rejected(&self) -> bool {
        self.rejected
    }

    fn shard_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("shard-{idx}.jsonl"))
    }

    fn load_shard(&self, idx: usize) -> HashMap<String, StoredEntry> {
        let mut map = HashMap::new();
        if !self.has_snapshot {
            return map;
        }
        // Chaos site: an injected cache-I/O fault degrades this shard to
        // a cold start — exactly the graceful path a real read error takes.
        if let Err(e) = ruletest_common::chaos::point("cache.load") {
            eprintln!("warning: cache shard {idx} load failed ({e}); starting cold");
            return map;
        }
        let text = match fs::read_to_string(self.shard_path(idx)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return map,
            Err(e) => {
                eprintln!("warning: cache shard {idx} unreadable ({e}); starting cold");
                return map;
            }
        };
        let mut corrupted = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            // A malformed line (truncated write from a pre-atomic-rename
            // era, disk corruption, manual edit) only loses that entry's
            // warmth; intact lines in the same shard stay usable.
            let Some((key_str, entry)) = parse_entry_line(line) else {
                corrupted += 1;
                continue;
            };
            map.insert(key_str, entry);
        }
        if corrupted > 0 {
            eprintln!(
                "warning: cache shard {idx}: skipped {corrupted} corrupted entr{} (kept {})",
                if corrupted == 1 { "y" } else { "ies" },
                map.len()
            );
        }
        map
    }

    fn locked_shard(&self, idx: usize) -> MutexGuard<'_, Option<HashMap<String, StoredEntry>>> {
        let mut guard = self.shards[idx].lock().expect("snapshot shard poisoned");
        if guard.is_none() {
            *guard = Some(self.load_shard(idx));
        }
        guard
    }

    fn shard_index(key_str: &str) -> usize {
        (Fnv64::of(key_str.as_bytes()) % DISK_SHARDS as u64) as usize
    }

    /// Returns the warm entry for `key`, leaving it in the store. Peek
    /// (rather than take) semantics keep racing probes consistent: both
    /// see the same entry, and the in-memory cache's first-insertion-wins
    /// dedup decides who records telemetry.
    pub fn peek_warm(&self, key: &CacheKey) -> Option<WarmHit> {
        let key_str = canonical_key(key);
        let idx = Self::shard_index(&key_str);
        let guard = self.locked_shard(idx);
        let map = guard.as_ref().expect("shard loaded above");
        map.get(&key_str).map(|e| WarmHit {
            result: Arc::clone(&e.result),
            sample: e.sample.clone(),
            counted_in_base: self.counted_through.is_some_and(|ct| e.boundary <= ct),
        })
    }

    /// Registers a freshly computed result (with the sample its compute
    /// produced) for the next save. Idempotent: an existing entry for the
    /// key is kept (optimization is deterministic, values are identical).
    pub fn record_fresh(
        &self,
        key: &CacheKey,
        result: &Arc<OptimizeResult>,
        sample: Option<&ProfileSample>,
    ) {
        let key_str = canonical_key(key);
        let idx = Self::shard_index(&key_str);
        let mut guard = self.locked_shard(idx);
        let map = guard.as_mut().expect("shard loaded above");
        map.entry(key_str).or_insert_with(|| StoredEntry {
            result: Arc::clone(result),
            sample: sample.cloned(),
            boundary: self.boundary.load(Ordering::Relaxed),
        });
    }

    /// Writes the manifest and every shard (disk entries merged with
    /// fresh ones, sorted by key) via atomic renames. Returns the number
    /// of entries persisted.
    pub fn save(&self) -> std::io::Result<u64> {
        // Chaos site: an injected fault skips the save — the previous
        // snapshot stays intact (same guarantee a failed atomic rename
        // gives), the process just loses this round of warmth.
        if let Err(e) = ruletest_common::chaos::point("cache.save") {
            eprintln!("warning: cache snapshot save skipped ({e})");
            return Ok(0);
        }
        let mut persisted = 0u64;
        for idx in 0..DISK_SHARDS {
            let guard = self.locked_shard(idx);
            let map = guard.as_ref().expect("shard loaded above");
            let mut keys: Vec<&String> = map.keys().collect();
            keys.sort_unstable();
            let mut out = String::new();
            for key_str in keys {
                let e = &map[key_str];
                out.push_str(&entry_line(key_str, e));
                out.push('\n');
                persisted += 1;
            }
            write_atomic(&self.shard_path(idx), &out)?;
        }
        let manifest = Json::obj(vec![
            ("format", Json::count(FORMAT_VERSION)),
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
        ]);
        write_atomic(&self.dir.join("MANIFEST.json"), manifest.to_string_pretty())?;
        Ok(persisted)
    }

    /// Entries currently resident (loaded or fresh); loads nothing.
    pub fn resident_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("snapshot shard poisoned")
                    .as_ref()
                    .map_or(0, HashMap::len)
            })
            .sum()
    }
}

fn entry_line(key_str: &str, e: &StoredEntry) -> String {
    // The key is embedded as raw JSON (not re-quoted): parsing the line
    // and compact-printing the "key" field reproduces `key_str` exactly,
    // because compact printing with sorted keys is canonical.
    let sample = match &e.sample {
        Some(s) => s.to_json().to_string_compact(),
        None => "null".to_string(),
    };
    // The boundary stamp is omitted for boundary-less entries (u64::MAX
    // exceeds a Json number's exact integer range).
    let boundary = if e.boundary == NO_BOUNDARY {
        String::new()
    } else {
        format!(",\"b\":{}", e.boundary)
    };
    format!(
        "{{\"key\":{key_str},\"result\":{},\"sample\":{sample}{boundary}}}",
        e.result.enc().to_string_compact()
    )
}

fn parse_entry_line(line: &str) -> Option<(String, StoredEntry)> {
    let doc = Json::parse(line).ok()?;
    let key_str = doc.get("key")?.to_string_compact();
    let result = OptimizeResult::dec(doc.get("result")?).ok()?;
    let sample = match doc.get("sample") {
        None | Some(Json::Null) => None,
        Some(s) => Some(ProfileSample::from_json(s).ok()?),
    };
    let boundary = doc.get("b").and_then(Json::as_u64).unwrap_or(NO_BOUNDARY);
    Some((
        key_str,
        StoredEntry {
            result: Arc::new(result),
            sample,
            boundary,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::RuleMask;
    use crate::optimizer::OptimizerConfig;
    use ruletest_common::Rng;
    use ruletest_expr::Expr;

    fn leaf(tag: u32) -> LogicalTree {
        LogicalTree::get_with_cols(TableId(tag), vec![ColId(tag), ColId(tag + 1)])
    }

    fn sample_tree() -> LogicalTree {
        let join = LogicalTree::join(
            JoinKind::LeftOuter,
            leaf(0),
            leaf(10),
            Expr::eq(Expr::col(ColId(0)), Expr::col(ColId(10))),
        );
        let select = LogicalTree::select(
            join,
            Expr::and(
                Expr::not(Expr::is_null(Expr::col(ColId(1)))),
                Expr::bin(
                    BinOp::Ge,
                    Expr::col(ColId(11)),
                    Expr::lit(Value::Int(-9_007_199_254_740_993)), // beyond 2^53
                ),
            ),
        );
        let agg = LogicalTree::gbagg(
            select,
            vec![ColId(0)],
            vec![
                AggCall::new(AggFunc::CountStar, None, ColId(20)),
                AggCall::new(AggFunc::Max, Some(ColId(11)), ColId(21)),
            ],
        );
        LogicalTree::top(
            agg,
            7,
            vec![SortKey::desc(ColId(20)), SortKey::asc(ColId(0))],
        )
    }

    #[test]
    fn tree_round_trips_exactly() {
        let tree = sample_tree();
        let back = LogicalTree::dec(&tree.enc()).unwrap();
        assert_eq!(back, tree);
        // Union + distinct + sort + project cover the remaining operators.
        let union = LogicalTree::union_all(
            leaf(0),
            leaf(10),
            vec![ColId(30), ColId(31)],
            vec![ColId(0), ColId(1)],
            vec![ColId(10), ColId(11)],
        );
        let proj = LogicalTree::project(
            LogicalTree::sort(LogicalTree::distinct(union), vec![SortKey::asc(ColId(30))]),
            vec![(ColId(40), Expr::col(ColId(30)))],
        );
        let back = LogicalTree::dec(&proj.enc()).unwrap();
        assert_eq!(back, proj);
    }

    #[test]
    fn canonical_key_is_stable_and_mask_canonical() {
        let tree = leaf(0);
        let a = CacheKey::new(
            &tree,
            &OptimizerConfig {
                mask: RuleMask::disabling(&[RuleId(5), RuleId(2)]),
                ..Default::default()
            },
        );
        let b = CacheKey::new(
            &tree,
            &OptimizerConfig {
                mask: RuleMask::disabling(&[RuleId(2), RuleId(5)]),
                ..Default::default()
            },
        );
        assert_eq!(canonical_key(&a), canonical_key(&b));
        // Round-tripping the canonical form through the parser reproduces
        // it byte-for-byte (the content-addressing invariant).
        let parsed = Json::parse(&canonical_key(&a)).unwrap();
        assert_eq!(parsed.to_string_compact(), canonical_key(&a));
    }

    fn dummy_result(cost: f64) -> Arc<OptimizeResult> {
        Arc::new(OptimizeResult {
            plan: PhysicalPlan {
                op: PhysOp::SeqScan {
                    table: TableId(0),
                    cols: vec![ColId(0), ColId(1)],
                },
                children: vec![],
                schema: vec![
                    ColumnInfo {
                        id: ColId(0),
                        data_type: DataType::Int,
                        nullable: false,
                    },
                    ColumnInfo {
                        id: ColId(1),
                        data_type: DataType::Str,
                        nullable: true,
                    },
                ],
                est_rows: 10.25,
                est_cost: cost,
            },
            cost,
            rule_set: [RuleId(1), RuleId(4)].into_iter().collect(),
            rule_dependencies: [(RuleId(1), RuleId(4))].into_iter().collect(),
            groups: 3,
            exprs: 9,
            truncated: false,
        })
    }

    #[test]
    fn result_round_trips() {
        let r = dummy_result(0.1 + 0.2);
        let back = OptimizeResult::dec(&r.enc()).unwrap();
        assert_eq!(back.cost.to_bits(), r.cost.to_bits());
        assert_eq!(back.rule_set, r.rule_set);
        assert_eq!(back.rule_dependencies, r.rule_dependencies);
        assert_eq!((back.groups, back.exprs, back.truncated), (3, 9, false));
        assert_eq!(back.plan.schema, r.plan.schema);
        assert!(back.plan.same_shape(&r.plan));
    }

    #[test]
    fn u64_above_2_pow_53_travels_as_a_decimal_string() {
        let exact = 1u64 << 53;
        assert_eq!(exact.enc().to_string_compact(), "9007199254740992");
        assert_eq!(
            (exact + 1).enc().to_string_compact(),
            "\"9007199254740993\""
        );
        for v in [0, exact - 1, exact, exact + 1, u64::MAX] {
            let text = v.enc().to_string_compact();
            assert_eq!(u64::dec(&Json::parse(&text).unwrap()), Ok(v), "{text}");
        }
    }

    #[test]
    fn malformed_members_report_their_path() {
        let tree = r#"{"c":[],"o":{"cols":[1099511627776],"op":"get","table":1}}"#;
        let err = LogicalTree::dec(&Json::parse(tree).unwrap()).unwrap_err();
        assert_eq!(err, "o: cols: expected a ColId");
        let err = SortKey::dec(&Json::parse(r#"{"col":1}"#).unwrap()).unwrap_err();
        assert_eq!(err, "desc: expected a bool");
    }

    /// A plan node whose schema and estimates vary with its shape.
    fn node(op: PhysOp, children: Vec<PhysicalPlan>, est_rows: f64) -> PhysicalPlan {
        let schema = vec![ColumnInfo {
            id: ColId(children.len() as u32),
            data_type: DataType::Bool,
            nullable: children.is_empty(),
        }];
        let est_cost = est_rows * 1.5 + 0.1;
        PhysicalPlan {
            op,
            children,
            schema,
            est_rows,
            est_cost,
        }
    }

    /// One snapshot entry whose key tree uses all 9 logical operators and
    /// whose result plan uses all 13 physical operators.
    fn golden_entry() -> (CacheKey, StoredEntry) {
        let c = |i: u32| Expr::col(ColId(i));
        let cols = |ids: &[u32]| ids.iter().map(|&i| ColId(i)).collect::<Vec<_>>();
        let truth = |b: bool| Expr::lit(Value::Bool(b));
        let pred = Expr::and(
            Expr::bin(BinOp::Ne, c(1), Expr::lit(Value::Str("a\"b\n".into()))),
            Expr::or(
                Expr::not(Expr::is_null(c(2))),
                Expr::bin(
                    BinOp::Lt,
                    Expr::bin(BinOp::Mul, c(3), Expr::lit(Value::Int(i64::MIN))),
                    Expr::lit(Value::Null),
                ),
            ),
        );
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, None, ColId(20)),
            AggCall::new(AggFunc::Sum, Some(ColId(3)), ColId(21)),
        ];
        let keys = vec![SortKey::desc(ColId(20)), SortKey::asc(ColId(0))];
        let get = |t: u32| LogicalTree::get_with_cols(TableId(t), cols(&[t, t + 1]));

        let join = LogicalTree::join(JoinKind::LeftAnti, get(0), get(10), Expr::eq(c(0), c(10)));
        let agg = LogicalTree::gbagg(
            LogicalTree::select(join, pred.clone()),
            cols(&[0]),
            aggs.clone(),
        );
        let project =
            LogicalTree::project(get(4), vec![(ColId(30), Expr::bin(BinOp::Sub, c(4), c(5)))]);
        let union = LogicalTree::union_all(agg, project, cols(&[40]), cols(&[0]), cols(&[30]));
        let sort = LogicalTree::sort(LogicalTree::distinct(union), keys.clone());
        let key = CacheKey::new(
            &LogicalTree::top(sort, 7, keys.clone()),
            &crate::optimizer::OptimizerConfig {
                mask: crate::mask::RuleMask::disabling(&[RuleId(9), RuleId(2)]),
                hard_max_exprs: Some(500),
                ..Default::default()
            },
        );

        let scan = |t: u32| {
            let op = PhysOp::SeqScan {
                table: TableId(t),
                cols: cols(&[t]),
            };
            node(op, vec![], 0.1 + 0.2)
        };
        let seek = PhysOp::IndexSeek {
            table: TableId(1),
            cols: cols(&[1, 2]),
            key: Value::Int(-9_007_199_254_740_993),
            residual: truth(true),
        };
        let hash_join = PhysOp::HashJoin {
            kind: JoinKind::FullOuter,
            left_keys: cols(&[0]),
            right_keys: cols(&[1]),
            residual: truth(false),
        };
        let plan = node(hash_join, vec![scan(0), node(seek, vec![], 1.0)], 12.5);
        let merge_join = PhysOp::MergeJoin {
            left_key: ColId(0),
            right_key: ColId(5),
            residual: truth(true),
        };
        let plan = node(merge_join, vec![plan, scan(5)], 1e300);
        let nl_join = PhysOp::NLJoin {
            kind: JoinKind::LeftSemi,
            predicate: pred.clone(),
        };
        let plan = node(nl_join, vec![plan, scan(6)], f64::MIN_POSITIVE);
        let plan = node(PhysOp::Filter { predicate: pred }, vec![plan], -0.0);
        let hash_agg = PhysOp::HashAgg {
            group_by: cols(&[0]),
            aggs: aggs.clone(),
        };
        let left = node(hash_agg, vec![plan], 3.0);
        let outputs = vec![(ColId(31), Expr::bin(BinOp::Add, c(7), c(8)))];
        let compute = node(PhysOp::Compute { outputs }, vec![scan(7)], 2.0);
        let stream_agg = PhysOp::StreamAgg {
            group_by: vec![],
            aggs,
        };
        let right = node(stream_agg, vec![compute], 1.0);
        let concat = PhysOp::Concat {
            outputs: cols(&[40]),
            left_cols: cols(&[0]),
            right_cols: cols(&[21]),
        };
        let plan = node(concat, vec![left, right], 4.0);
        let plan = node(PhysOp::HashDistinct, vec![plan], 4.0);
        let plan = node(PhysOp::SortOp { keys: keys.clone() }, vec![plan], 4.0);
        let plan = node(PhysOp::TopN { n: 7, keys }, vec![plan], 4.0);
        let result = OptimizeResult {
            cost: plan.est_cost,
            plan,
            rule_set: [RuleId(0), RuleId(3), RuleId(65535)].into(),
            rule_dependencies: [(RuleId(0), RuleId(3)), (RuleId(3), RuleId(0))].into(),
            groups: 17,
            exprs: 42,
            truncated: true,
        };
        let entry = StoredEntry {
            result: Arc::new(result),
            sample: None,
            boundary: 2,
        };
        (key, entry)
    }

    /// [`golden_entry`] as the format-1 codec writes it. Any change to
    /// these bytes invalidates every snapshot on disk.
    const GOLDEN_ENTRY_LINE: &str = include_str!("testdata/golden_entry.jsonl");

    #[test]
    fn entry_line_wire_format_is_pinned() {
        let (key, entry) = golden_entry();
        let key_str = canonical_key(&key);
        let line = entry_line(&key_str, &entry);
        assert_eq!(line, GOLDEN_ENTRY_LINE.trim_end());
        let (back_key, back) = parse_entry_line(&line).expect("golden line decodes");
        assert_eq!(back_key, key_str);
        assert_eq!(entry_line(&back_key, &back), line, "decode + re-encode");
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut rng = Rng::new(std::process::id() as u64);
        let dir = std::env::temp_dir().join(format!(
            "ruletest-persist-{tag}-{}-{}",
            std::process::id(),
            rng.next_u64()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_round_trips_and_warms() {
        let dir = temp_dir("roundtrip");
        let key = CacheKey::new(&sample_tree(), &OptimizerConfig::default());
        {
            let store = SnapshotStore::open(&dir, 42, None).unwrap();
            assert!(!store.rejected());
            assert!(store.peek_warm(&key).is_none(), "store starts cold");
            store.record_fresh(&key, &dummy_result(5.5), None);
            assert_eq!(store.save().unwrap(), 1);
        }
        let store = SnapshotStore::open(&dir, 42, None).unwrap();
        assert!(!store.rejected());
        let hit = store.peek_warm(&key).expect("warm hit after reopen");
        assert_eq!(hit.result.cost.to_bits(), 5.5f64.to_bits());
        assert!(!hit.counted_in_base);
        // Peek leaves the entry in place.
        assert!(store.peek_warm(&key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_rejects_the_snapshot() {
        let dir = temp_dir("reject");
        let key = CacheKey::new(&leaf(3), &OptimizerConfig::default());
        {
            let store = SnapshotStore::open(&dir, 1, None).unwrap();
            store.record_fresh(&key, &dummy_result(1.0), None);
            store.save().unwrap();
        }
        let store = SnapshotStore::open(&dir, 2, None).unwrap();
        assert!(store.rejected(), "stale fingerprint must be rejected");
        assert!(store.peek_warm(&key).is_none(), "no poisoned entries");
        // Saving under the new fingerprint replaces the stale snapshot.
        store.record_fresh(&key, &dummy_result(2.0), None);
        store.save().unwrap();
        let store = SnapshotStore::open(&dir, 2, None).unwrap();
        assert!(!store.rejected());
        assert!(store.peek_warm(&key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_mode_marks_disk_entries_counted() {
        let dir = temp_dir("resume");
        let key = CacheKey::new(&leaf(7), &OptimizerConfig::default());
        let key2 = CacheKey::new(&leaf(8), &OptimizerConfig::default());
        {
            let store = SnapshotStore::open(&dir, 9, None).unwrap();
            store.set_boundary(1);
            store.record_fresh(&key, &dummy_result(1.0), None);
            store.set_boundary(2);
            store.record_fresh(&key2, &dummy_result(2.0), None);
            store.save().unwrap();
        }
        // Resuming from the stage-1 checkpoint: the stage-1 entry is
        // already counted in the base report; the stage-2 entry is not.
        let store = SnapshotStore::open(&dir, 9, Some(1)).unwrap();
        assert!(store.peek_warm(&key).unwrap().counted_in_base);
        assert!(!store.peek_warm(&key2).unwrap().counted_in_base);
        // A cold open counts nothing as already reported.
        let cold = SnapshotStore::open(&dir, 9, None).unwrap();
        assert!(!cold.peek_warm(&key).unwrap().counted_in_base);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shard_degrades_to_the_intact_entries() {
        let dir = temp_dir("truncate");
        let keys: Vec<CacheKey> = (0..8)
            .map(|i| CacheKey::new(&leaf(i), &OptimizerConfig::default()))
            .collect();
        {
            let store = SnapshotStore::open(&dir, 5, None).unwrap();
            for k in &keys {
                store.record_fresh(k, &dummy_result(3.0), None);
            }
            store.save().unwrap();
        }
        // Chop the tail off every non-empty shard, mid-record: the last
        // line becomes unparseable garbage, earlier lines stay intact.
        let mut chopped = 0usize;
        for i in 0..DISK_SHARDS {
            let path = dir.join("cache").join(format!("shard-{i}.jsonl"));
            let text = fs::read_to_string(&path).unwrap();
            if text.len() < 40 {
                continue;
            }
            fs::write(&path, &text[..text.len() - 30]).unwrap();
            chopped += 1;
        }
        assert!(chopped > 0, "no shard was large enough to truncate");
        // Reopen: no panic, no error — every entry on an intact line is
        // still warm, only the torn records lost their warmth.
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        assert!(!store.rejected());
        let warm = keys.iter().filter(|k| store.peek_warm(k).is_some()).count();
        assert!(warm < keys.len(), "truncation must cost some warmth");
        // A fresh save repairs the snapshot.
        for k in &keys {
            store.record_fresh(k, &dummy_result(3.0), None);
        }
        store.save().unwrap();
        let repaired = SnapshotStore::open(&dir, 5, None).unwrap();
        assert_eq!(
            keys.iter()
                .filter(|k| repaired.peek_warm(k).is_some())
                .count(),
            keys.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hard_cap_extends_the_canonical_key_without_perturbing_defaults() {
        let tree = leaf(2);
        let plain = canonical_key(&CacheKey::new(&tree, &OptimizerConfig::default()));
        assert!(
            !plain.contains("hard_max_exprs"),
            "default keys must keep their historical byte form: {plain}"
        );
        let capped = canonical_key(&CacheKey::new(
            &tree,
            &OptimizerConfig {
                hard_max_exprs: Some(500),
                ..Default::default()
            },
        ));
        assert!(capped.contains("\"hard_max_exprs\":500"), "{capped}");
        assert_ne!(plain, capped);
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let write = |dir: &Path, reversed: bool| {
            let store = SnapshotStore::open(dir, 7, None).unwrap();
            let mut keys: Vec<CacheKey> = (0..20)
                .map(|i| CacheKey::new(&leaf(i), &OptimizerConfig::default()))
                .collect();
            // Insertion order differs between the two runs.
            if reversed {
                keys.reverse();
            }
            for k in &keys {
                store.record_fresh(k, &dummy_result(1.0), None);
            }
            store.save().unwrap();
        };
        let (a, b) = (temp_dir("det-a"), temp_dir("det-b"));
        write(&a, false);
        write(&b, true);
        for i in 0..DISK_SHARDS {
            let fa = fs::read_to_string(a.join("cache").join(format!("shard-{i}.jsonl"))).unwrap();
            let fb = fs::read_to_string(b.join("cache").join(format!("shard-{i}.jsonl"))).unwrap();
            assert_eq!(fa, fb, "shard {i} bytes differ");
        }
        let _ = fs::remove_dir_all(&a);
        let _ = fs::remove_dir_all(&b);
    }
}

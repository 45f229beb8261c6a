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
use ruletest_logical::{ColumnInfo, JoinKind, LogicalTree, Operator, Schema, SortKey};
use ruletest_storage::Catalog;
use ruletest_telemetry::{Json, ProfileSample};
use std::collections::HashMap;
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
                .write_str(data_type_name(col.data_type))
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
// JSON serializers. Canonical: `Json::Obj` is a BTreeMap, so
// `to_string_compact` yields sorted keys and a stable byte form.

fn err(what: &str) -> String {
    format!("cache snapshot: malformed {what}")
}

fn u64_field(j: &Json, field: &str) -> Result<u64, String> {
    j.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| err(field))
}

fn str_field<'a>(j: &'a Json, field: &str) -> Result<&'a str, String> {
    j.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| err(field))
}

fn arr_field<'a>(j: &'a Json, field: &str) -> Result<&'a [Json], String> {
    j.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| err(field))
}

fn f64_field(j: &Json, field: &str) -> Result<f64, String> {
    j.get(field)
        .and_then(Json::as_f64_bits)
        .ok_or_else(|| err(field))
}

fn col_list(cols: &[ColId]) -> Json {
    Json::Arr(cols.iter().map(|c| Json::count(u64::from(c.0))).collect())
}

fn cols_from(j: &Json, field: &str) -> Result<Vec<ColId>, String> {
    arr_field(j, field)?
        .iter()
        .map(|c| {
            c.as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .map(ColId)
                .ok_or_else(|| err(field))
        })
        .collect()
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        // i64 exceeds 2^53: decimal string keeps it exact.
        Value::Int(i) => Json::obj(vec![("int", Json::str(i.to_string()))]),
        Value::Str(s) => Json::obj(vec![("str", Json::str(s.clone()))]),
    }
}

fn value_from_json(j: &Json) -> Result<Value, String> {
    match j {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        _ => {
            if let Some(s) = j.get("int").and_then(Json::as_str) {
                s.parse().map(Value::Int).map_err(|_| err("int value"))
            } else if let Some(s) = j.get("str").and_then(Json::as_str) {
                Ok(Value::Str(s.to_string()))
            } else {
                Err(err("value"))
            }
        }
    }
}

fn binop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::And => "and",
        BinOp::Or => "or",
    }
}

fn binop_from(name: &str) -> Result<BinOp, String> {
    Ok(match name {
        "eq" => BinOp::Eq,
        "ne" => BinOp::Ne,
        "lt" => BinOp::Lt,
        "le" => BinOp::Le,
        "gt" => BinOp::Gt,
        "ge" => BinOp::Ge,
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        _ => return Err(err("binary operator")),
    })
}

fn expr_to_json(e: &Expr) -> Json {
    match e {
        Expr::Col(c) => Json::obj(vec![("col", Json::count(u64::from(c.0)))]),
        Expr::Lit(v) => Json::obj(vec![("lit", value_to_json(v))]),
        Expr::Bin { op, left, right } => Json::obj(vec![
            ("bin", Json::str(binop_name(*op))),
            ("l", expr_to_json(left)),
            ("r", expr_to_json(right)),
        ]),
        Expr::Not(x) => Json::obj(vec![("not", expr_to_json(x))]),
        Expr::IsNull(x) => Json::obj(vec![("is_null", expr_to_json(x))]),
    }
}

fn expr_from_json(j: &Json) -> Result<Expr, String> {
    if let Some(c) = j.get("col") {
        let id = c
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| err("column reference"))?;
        Ok(Expr::Col(ColId(id)))
    } else if let Some(v) = j.get("lit") {
        Ok(Expr::Lit(value_from_json(v)?))
    } else if let Some(op) = j.get("bin").and_then(Json::as_str) {
        Ok(Expr::bin(
            binop_from(op)?,
            expr_from_json(j.get("l").ok_or_else(|| err("bin.l"))?)?,
            expr_from_json(j.get("r").ok_or_else(|| err("bin.r"))?)?,
        ))
    } else if let Some(x) = j.get("not") {
        Ok(Expr::not(expr_from_json(x)?))
    } else if let Some(x) = j.get("is_null") {
        Ok(Expr::is_null(expr_from_json(x)?))
    } else {
        Err(err("expression"))
    }
}

fn sort_keys_to_json(keys: &[SortKey]) -> Json {
    Json::Arr(
        keys.iter()
            .map(|k| {
                Json::obj(vec![
                    ("col", Json::count(u64::from(k.col.0))),
                    ("desc", Json::Bool(k.descending)),
                ])
            })
            .collect(),
    )
}

fn sort_keys_from(j: &Json, field: &str) -> Result<Vec<SortKey>, String> {
    arr_field(j, field)?
        .iter()
        .map(|k| {
            let col = u64_field(k, "col")
                .and_then(|v| u32::try_from(v).map_err(|_| err("sort column")))?;
            let descending = k
                .get("desc")
                .and_then(Json::as_bool)
                .ok_or_else(|| err("sort direction"))?;
            Ok(SortKey {
                col: ColId(col),
                descending,
            })
        })
        .collect()
}

fn agg_func_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::CountStar => "count_star",
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
    }
}

fn agg_func_from(name: &str) -> Result<AggFunc, String> {
    Ok(match name {
        "count_star" => AggFunc::CountStar,
        "count" => AggFunc::Count,
        "sum" => AggFunc::Sum,
        "min" => AggFunc::Min,
        "max" => AggFunc::Max,
        _ => return Err(err("aggregate function")),
    })
}

fn aggs_to_json(aggs: &[AggCall]) -> Json {
    Json::Arr(
        aggs.iter()
            .map(|a| {
                Json::obj(vec![
                    ("func", Json::str(agg_func_name(a.func))),
                    (
                        "arg",
                        a.arg.map_or(Json::Null, |c| Json::count(u64::from(c.0))),
                    ),
                    ("out", Json::count(u64::from(a.output.0))),
                ])
            })
            .collect(),
    )
}

fn aggs_from(j: &Json, field: &str) -> Result<Vec<AggCall>, String> {
    arr_field(j, field)?
        .iter()
        .map(|a| {
            let func = agg_func_from(str_field(a, "func")?)?;
            let arg = match a.get("arg") {
                None | Some(Json::Null) => None,
                Some(v) => Some(ColId(
                    v.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| err("aggregate argument"))?,
                )),
            };
            let output = ColId(
                u64_field(a, "out")
                    .and_then(|v| u32::try_from(v).map_err(|_| err("aggregate output")))?,
            );
            Ok(AggCall { func, arg, output })
        })
        .collect()
}

fn join_kind_name(k: JoinKind) -> &'static str {
    match k {
        JoinKind::Inner => "inner",
        JoinKind::LeftOuter => "left_outer",
        JoinKind::RightOuter => "right_outer",
        JoinKind::FullOuter => "full_outer",
        JoinKind::LeftSemi => "left_semi",
        JoinKind::LeftAnti => "left_anti",
    }
}

fn join_kind_from(name: &str) -> Result<JoinKind, String> {
    Ok(match name {
        "inner" => JoinKind::Inner,
        "left_outer" => JoinKind::LeftOuter,
        "right_outer" => JoinKind::RightOuter,
        "full_outer" => JoinKind::FullOuter,
        "left_semi" => JoinKind::LeftSemi,
        "left_anti" => JoinKind::LeftAnti,
        _ => return Err(err("join kind")),
    })
}

fn operator_to_json(op: &Operator) -> Json {
    match op {
        Operator::Get { table, cols } => Json::obj(vec![
            ("op", Json::str("get")),
            ("table", Json::count(u64::from(table.0))),
            ("cols", col_list(cols)),
        ]),
        Operator::Select { predicate } => Json::obj(vec![
            ("op", Json::str("select")),
            ("pred", expr_to_json(predicate)),
        ]),
        Operator::Project { outputs } => Json::obj(vec![
            ("op", Json::str("project")),
            (
                "outputs",
                Json::Arr(
                    outputs
                        .iter()
                        .map(|(c, e)| {
                            Json::obj(vec![
                                ("col", Json::count(u64::from(c.0))),
                                ("expr", expr_to_json(e)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Operator::Join { kind, predicate } => Json::obj(vec![
            ("op", Json::str("join")),
            ("kind", Json::str(join_kind_name(*kind))),
            ("pred", expr_to_json(predicate)),
        ]),
        Operator::GbAgg { group_by, aggs } => Json::obj(vec![
            ("op", Json::str("gbagg")),
            ("group_by", col_list(group_by)),
            ("aggs", aggs_to_json(aggs)),
        ]),
        Operator::UnionAll {
            outputs,
            left_cols,
            right_cols,
        } => Json::obj(vec![
            ("op", Json::str("union_all")),
            ("outputs", col_list(outputs)),
            ("left_cols", col_list(left_cols)),
            ("right_cols", col_list(right_cols)),
        ]),
        Operator::Distinct => Json::obj(vec![("op", Json::str("distinct"))]),
        Operator::Sort { keys } => Json::obj(vec![
            ("op", Json::str("sort")),
            ("keys", sort_keys_to_json(keys)),
        ]),
        Operator::Top { n, keys } => Json::obj(vec![
            ("op", Json::str("top")),
            ("n", Json::count(*n)),
            ("keys", sort_keys_to_json(keys)),
        ]),
    }
}

fn operator_from_json(j: &Json) -> Result<Operator, String> {
    let projections = |field: &str| -> Result<Vec<(ColId, Expr)>, String> {
        arr_field(j, field)?
            .iter()
            .map(|o| {
                let col = u64_field(o, "col")
                    .and_then(|v| u32::try_from(v).map_err(|_| err("projection column")))?;
                let expr = expr_from_json(o.get("expr").ok_or_else(|| err("projection expr"))?)?;
                Ok((ColId(col), expr))
            })
            .collect()
    };
    Ok(match str_field(j, "op")? {
        "get" => Operator::Get {
            table: TableId(
                u64_field(j, "table")
                    .and_then(|v| u32::try_from(v).map_err(|_| err("table id")))?,
            ),
            cols: cols_from(j, "cols")?,
        },
        "select" => Operator::Select {
            predicate: expr_from_json(j.get("pred").ok_or_else(|| err("select predicate"))?)?,
        },
        "project" => Operator::Project {
            outputs: projections("outputs")?,
        },
        "join" => Operator::Join {
            kind: join_kind_from(str_field(j, "kind")?)?,
            predicate: expr_from_json(j.get("pred").ok_or_else(|| err("join predicate"))?)?,
        },
        "gbagg" => Operator::GbAgg {
            group_by: cols_from(j, "group_by")?,
            aggs: aggs_from(j, "aggs")?,
        },
        "union_all" => Operator::UnionAll {
            outputs: cols_from(j, "outputs")?,
            left_cols: cols_from(j, "left_cols")?,
            right_cols: cols_from(j, "right_cols")?,
        },
        "distinct" => Operator::Distinct,
        "sort" => Operator::Sort {
            keys: sort_keys_from(j, "keys")?,
        },
        "top" => Operator::Top {
            n: u64_field(j, "n")?,
            keys: sort_keys_from(j, "keys")?,
        },
        _ => return Err(err("operator tag")),
    })
}

/// Serializes a logical tree exactly — column ids and all. SQL text is
/// deliberately *not* used as the wire form: re-parsing renumbers column
/// ids, and a key that round-trips inexactly would never match again.
pub fn tree_to_json(tree: &LogicalTree) -> Json {
    Json::obj(vec![
        ("o", operator_to_json(&tree.op)),
        (
            "c",
            Json::Arr(tree.children.iter().map(tree_to_json).collect()),
        ),
    ])
}

pub fn tree_from_json(j: &Json) -> Result<LogicalTree, String> {
    let op = operator_from_json(j.get("o").ok_or_else(|| err("tree operator"))?)?;
    let children = arr_field(j, "c")?
        .iter()
        .map(tree_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LogicalTree { op, children })
}

fn data_type_name(t: DataType) -> &'static str {
    match t {
        DataType::Bool => "bool",
        DataType::Int => "int",
        DataType::Str => "str",
    }
}

fn data_type_from(name: &str) -> Result<DataType, String> {
    Ok(match name {
        "bool" => DataType::Bool,
        "int" => DataType::Int,
        "str" => DataType::Str,
        _ => return Err(err("data type")),
    })
}

fn schema_to_json(schema: &Schema) -> Json {
    Json::Arr(
        schema
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("id", Json::count(u64::from(c.id.0))),
                    ("type", Json::str(data_type_name(c.data_type))),
                    ("nullable", Json::Bool(c.nullable)),
                ])
            })
            .collect(),
    )
}

fn schema_from(j: &Json, field: &str) -> Result<Schema, String> {
    arr_field(j, field)?
        .iter()
        .map(|c| {
            Ok(ColumnInfo {
                id: ColId(
                    u64_field(c, "id")
                        .and_then(|v| u32::try_from(v).map_err(|_| err("schema column id")))?,
                ),
                data_type: data_type_from(str_field(c, "type")?)?,
                nullable: c
                    .get("nullable")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| err("schema nullability"))?,
            })
        })
        .collect()
}

fn phys_op_to_json(op: &PhysOp) -> Json {
    match op {
        PhysOp::SeqScan { table, cols } => Json::obj(vec![
            ("op", Json::str("seq_scan")),
            ("table", Json::count(u64::from(table.0))),
            ("cols", col_list(cols)),
        ]),
        PhysOp::IndexSeek {
            table,
            cols,
            key,
            residual,
        } => Json::obj(vec![
            ("op", Json::str("index_seek")),
            ("table", Json::count(u64::from(table.0))),
            ("cols", col_list(cols)),
            ("key", value_to_json(key)),
            ("residual", expr_to_json(residual)),
        ]),
        PhysOp::Filter { predicate } => Json::obj(vec![
            ("op", Json::str("filter")),
            ("pred", expr_to_json(predicate)),
        ]),
        PhysOp::Compute { outputs } => Json::obj(vec![
            ("op", Json::str("compute")),
            (
                "outputs",
                Json::Arr(
                    outputs
                        .iter()
                        .map(|(c, e)| {
                            Json::obj(vec![
                                ("col", Json::count(u64::from(c.0))),
                                ("expr", expr_to_json(e)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        PhysOp::NLJoin { kind, predicate } => Json::obj(vec![
            ("op", Json::str("nl_join")),
            ("kind", Json::str(join_kind_name(*kind))),
            ("pred", expr_to_json(predicate)),
        ]),
        PhysOp::HashJoin {
            kind,
            left_keys,
            right_keys,
            residual,
        } => Json::obj(vec![
            ("op", Json::str("hash_join")),
            ("kind", Json::str(join_kind_name(*kind))),
            ("left_keys", col_list(left_keys)),
            ("right_keys", col_list(right_keys)),
            ("residual", expr_to_json(residual)),
        ]),
        PhysOp::MergeJoin {
            left_key,
            right_key,
            residual,
        } => Json::obj(vec![
            ("op", Json::str("merge_join")),
            ("left_key", Json::count(u64::from(left_key.0))),
            ("right_key", Json::count(u64::from(right_key.0))),
            ("residual", expr_to_json(residual)),
        ]),
        PhysOp::HashAgg { group_by, aggs } => Json::obj(vec![
            ("op", Json::str("hash_agg")),
            ("group_by", col_list(group_by)),
            ("aggs", aggs_to_json(aggs)),
        ]),
        PhysOp::StreamAgg { group_by, aggs } => Json::obj(vec![
            ("op", Json::str("stream_agg")),
            ("group_by", col_list(group_by)),
            ("aggs", aggs_to_json(aggs)),
        ]),
        PhysOp::Concat {
            outputs,
            left_cols,
            right_cols,
        } => Json::obj(vec![
            ("op", Json::str("concat")),
            ("outputs", col_list(outputs)),
            ("left_cols", col_list(left_cols)),
            ("right_cols", col_list(right_cols)),
        ]),
        PhysOp::HashDistinct => Json::obj(vec![("op", Json::str("hash_distinct"))]),
        PhysOp::SortOp { keys } => Json::obj(vec![
            ("op", Json::str("sort")),
            ("keys", sort_keys_to_json(keys)),
        ]),
        PhysOp::TopN { n, keys } => Json::obj(vec![
            ("op", Json::str("top_n")),
            ("n", Json::count(*n)),
            ("keys", sort_keys_to_json(keys)),
        ]),
    }
}

fn phys_op_from_json(j: &Json) -> Result<PhysOp, String> {
    let table = || -> Result<TableId, String> {
        u64_field(j, "table")
            .and_then(|v| u32::try_from(v).map_err(|_| err("table id")))
            .map(TableId)
    };
    let col_of = |field: &str| -> Result<ColId, String> {
        u64_field(j, field)
            .and_then(|v| u32::try_from(v).map_err(|_| err("column id")))
            .map(ColId)
    };
    let expr_of = |field: &str| -> Result<Expr, String> {
        expr_from_json(j.get(field).ok_or_else(|| err(field))?)
    };
    Ok(match str_field(j, "op")? {
        "seq_scan" => PhysOp::SeqScan {
            table: table()?,
            cols: cols_from(j, "cols")?,
        },
        "index_seek" => PhysOp::IndexSeek {
            table: table()?,
            cols: cols_from(j, "cols")?,
            key: value_from_json(j.get("key").ok_or_else(|| err("seek key"))?)?,
            residual: expr_of("residual")?,
        },
        "filter" => PhysOp::Filter {
            predicate: expr_of("pred")?,
        },
        "compute" => PhysOp::Compute {
            outputs: arr_field(j, "outputs")?
                .iter()
                .map(|o| {
                    let col = u64_field(o, "col")
                        .and_then(|v| u32::try_from(v).map_err(|_| err("compute column")))?;
                    let expr = expr_from_json(o.get("expr").ok_or_else(|| err("compute expr"))?)?;
                    Ok((ColId(col), expr))
                })
                .collect::<Result<Vec<_>, String>>()?,
        },
        "nl_join" => PhysOp::NLJoin {
            kind: join_kind_from(str_field(j, "kind")?)?,
            predicate: expr_of("pred")?,
        },
        "hash_join" => PhysOp::HashJoin {
            kind: join_kind_from(str_field(j, "kind")?)?,
            left_keys: cols_from(j, "left_keys")?,
            right_keys: cols_from(j, "right_keys")?,
            residual: expr_of("residual")?,
        },
        "merge_join" => PhysOp::MergeJoin {
            left_key: col_of("left_key")?,
            right_key: col_of("right_key")?,
            residual: expr_of("residual")?,
        },
        "hash_agg" => PhysOp::HashAgg {
            group_by: cols_from(j, "group_by")?,
            aggs: aggs_from(j, "aggs")?,
        },
        "stream_agg" => PhysOp::StreamAgg {
            group_by: cols_from(j, "group_by")?,
            aggs: aggs_from(j, "aggs")?,
        },
        "concat" => PhysOp::Concat {
            outputs: cols_from(j, "outputs")?,
            left_cols: cols_from(j, "left_cols")?,
            right_cols: cols_from(j, "right_cols")?,
        },
        "hash_distinct" => PhysOp::HashDistinct,
        "sort" => PhysOp::SortOp {
            keys: sort_keys_from(j, "keys")?,
        },
        "top_n" => PhysOp::TopN {
            n: u64_field(j, "n")?,
            keys: sort_keys_from(j, "keys")?,
        },
        _ => return Err(err("physical operator tag")),
    })
}

pub fn plan_to_json(plan: &PhysicalPlan) -> Json {
    Json::obj(vec![
        ("o", phys_op_to_json(&plan.op)),
        (
            "c",
            Json::Arr(plan.children.iter().map(plan_to_json).collect()),
        ),
        ("schema", schema_to_json(&plan.schema)),
        ("est_rows", Json::f64_bits(plan.est_rows)),
        ("est_cost", Json::f64_bits(plan.est_cost)),
    ])
}

pub fn plan_from_json(j: &Json) -> Result<PhysicalPlan, String> {
    Ok(PhysicalPlan {
        op: phys_op_from_json(j.get("o").ok_or_else(|| err("plan operator"))?)?,
        children: arr_field(j, "c")?
            .iter()
            .map(plan_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        schema: schema_from(j, "schema")?,
        est_rows: f64_field(j, "est_rows")?,
        est_cost: f64_field(j, "est_cost")?,
    })
}

fn rule_ids_to_json(ids: impl Iterator<Item = RuleId>) -> Json {
    Json::Arr(ids.map(|r| Json::count(u64::from(r.0))).collect())
}

fn rule_id_from(j: &Json) -> Result<RuleId, String> {
    j.as_u64()
        .and_then(|v| u16::try_from(v).ok())
        .map(RuleId)
        .ok_or_else(|| err("rule id"))
}

pub fn result_to_json(result: &OptimizeResult) -> Json {
    Json::obj(vec![
        ("plan", plan_to_json(&result.plan)),
        ("cost", Json::f64_bits(result.cost)),
        (
            "rule_set",
            rule_ids_to_json(result.rule_set.iter().copied()),
        ),
        (
            "rule_deps",
            Json::Arr(
                result
                    .rule_dependencies
                    .iter()
                    .map(|&(a, b)| {
                        Json::Arr(vec![
                            Json::count(u64::from(a.0)),
                            Json::count(u64::from(b.0)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("groups", Json::count(result.groups as u64)),
        ("exprs", Json::count(result.exprs as u64)),
        ("truncated", Json::Bool(result.truncated)),
    ])
}

pub fn result_from_json(j: &Json) -> Result<OptimizeResult, String> {
    let rule_set = arr_field(j, "rule_set")?
        .iter()
        .map(rule_id_from)
        .collect::<Result<_, _>>()?;
    let rule_dependencies = arr_field(j, "rule_deps")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| err("rule dependency"))?;
            Ok((rule_id_from(&pair[0])?, rule_id_from(&pair[1])?))
        })
        .collect::<Result<_, String>>()?;
    Ok(OptimizeResult {
        plan: plan_from_json(j.get("plan").ok_or_else(|| err("result plan"))?)?,
        cost: f64_field(j, "cost")?,
        rule_set,
        rule_dependencies,
        groups: u64_field(j, "groups")? as usize,
        exprs: u64_field(j, "exprs")? as usize,
        truncated: j
            .get("truncated")
            .and_then(Json::as_bool)
            .ok_or_else(|| err("truncated flag"))?,
    })
}

pub fn key_to_json(key: &CacheKey) -> Json {
    let mut fields = vec![
        ("tree", tree_to_json(key.tree())),
        ("disabled", rule_ids_to_json(key.disabled().iter().copied())),
        ("max_exprs", Json::count(key.max_exprs() as u64)),
        ("max_passes", Json::count(key.max_passes() as u64)),
    ];
    // Omitted when unset so default-config keys keep the exact canonical
    // bytes older snapshots were addressed by.
    if let Some(hard) = key.hard_max_exprs() {
        fields.push(("hard_max_exprs", Json::count(hard as u64)));
    }
    Json::obj(fields)
}

/// Canonical byte form of a cache key: compact JSON with sorted object
/// keys. Content-addresses the snapshot entries (no lossy hashing).
pub fn canonical_key(key: &CacheKey) -> String {
    key_to_json(key).to_string_compact()
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
        result_to_json(&e.result).to_string_compact()
    )
}

fn parse_entry_line(line: &str) -> Option<(String, StoredEntry)> {
    let doc = Json::parse(line).ok()?;
    let key_str = doc.get("key")?.to_string_compact();
    let result = result_from_json(doc.get("result")?).ok()?;
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
        let back = tree_from_json(&tree_to_json(&tree)).unwrap();
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
        let back = tree_from_json(&tree_to_json(&proj)).unwrap();
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
        let back = result_from_json(&result_to_json(&r)).unwrap();
        assert_eq!(back.cost.to_bits(), r.cost.to_bits());
        assert_eq!(back.rule_set, r.rule_set);
        assert_eq!(back.rule_dependencies, r.rule_dependencies);
        assert_eq!((back.groups, back.exprs, back.truncated), (3, 9, false));
        assert_eq!(back.plan.schema, r.plan.schema);
        assert!(back.plan.same_shape(&r.plan));
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
        let write = |dir: &Path| {
            let store = SnapshotStore::open(dir, 7, None).unwrap();
            // Insertion order differs between the two runs.
            let keys: Vec<CacheKey> = (0..20)
                .map(|i| CacheKey::new(&leaf(i), &OptimizerConfig::default()))
                .collect();
            for k in keys.iter() {
                store.record_fresh(k, &dummy_result(1.0), None);
            }
            store.save().unwrap();
        };
        let write_rev = |dir: &Path| {
            let store = SnapshotStore::open(dir, 7, None).unwrap();
            let keys: Vec<CacheKey> = (0..20)
                .map(|i| CacheKey::new(&leaf(i), &OptimizerConfig::default()))
                .collect();
            for k in keys.iter().rev() {
                store.record_fresh(k, &dummy_result(1.0), None);
            }
            store.save().unwrap();
        };
        let (a, b) = (temp_dir("det-a"), temp_dir("det-b"));
        write(&a);
        write_rev(&b);
        for i in 0..DISK_SHARDS {
            let fa = fs::read_to_string(a.join("cache").join(format!("shard-{i}.jsonl"))).unwrap();
            let fb = fs::read_to_string(b.join("cache").join(format!("shard-{i}.jsonl"))).unwrap();
            assert_eq!(fa, fb, "shard {i} bytes differ");
        }
        let _ = fs::remove_dir_all(&a);
        let _ = fs::remove_dir_all(&b);
    }
}

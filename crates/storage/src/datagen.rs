//! Deterministic synthetic data generation for the TPC-H schema.
//!
//! All values derive from the configured seed. Foreign keys reference
//! existing parent keys; nullable columns receive NULL with the configured
//! probability, so that null-sensitive rules (outer-join simplification,
//! anti-join rewrites) are genuinely exercised. Value distributions are
//! skewed slightly (modular patterns) so equality predicates have varied
//! selectivities.

use crate::table::Database;
use crate::tpch::{table_ids::*, TpchConfig};
use ruletest_common::{Result, Rng, Row, Value};

const REGION_NAMES: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const SEGMENTS: &[&str] = &[
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const STATUSES: &[&str] = &["F", "O", "P"];
const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const BRANDS: &[&str] = &["Brand#11", "Brand#12", "Brand#21", "Brand#22", "Brand#31"];
const FLAGS: &[&str] = &["A", "N", "R"];

fn maybe_null(rng: &mut Rng, p: f64, v: Value) -> Value {
    if rng.gen_bool(p) {
        Value::Null
    } else {
        v
    }
}

/// Populates all eight TPC-H tables in `db` according to `config`.
pub fn populate_tpch(db: &mut Database, config: &TpchConfig) -> Result<()> {
    let mut rng = Rng::new(config.seed);
    let p = config.null_probability;

    // region
    let rows: Vec<Row> = (0..config.regions)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Str(REGION_NAMES[i % REGION_NAMES.len()].to_string()),
            ]
        })
        .collect();
    db.load_table(REGION, rows)?;

    // nation
    let mut r = rng.fork(1);
    let rows: Vec<Row> = (0..config.nations)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Str(format!("NATION_{i:02}")),
                Value::Int(r.gen_index(config.regions) as i64),
            ]
        })
        .collect();
    db.load_table(NATION, rows)?;

    // supplier
    let mut r = rng.fork(2);
    let rows: Vec<Row> = (0..config.suppliers)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Str(format!("Supplier#{i:04}")),
                Value::Int(r.gen_index(config.nations) as i64),
                {
                    let v = Value::Int(r.gen_range_i64(-999, 9999));
                    maybe_null(&mut r, p, v)
                },
            ]
        })
        .collect();
    db.load_table(SUPPLIER, rows)?;

    // part
    let mut r = rng.fork(3);
    let rows: Vec<Row> = (0..config.parts)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Str(format!("part_{i:04}")),
                Value::Str(BRANDS[r.gen_index(BRANDS.len())].to_string()),
                Value::Int(r.gen_range_i64(1, 50)),
                {
                    let v = Value::Int(r.gen_range_i64(100, 2000));
                    maybe_null(&mut r, p, v)
                },
            ]
        })
        .collect();
    db.load_table(PART, rows)?;

    // partsupp: distinct (partkey, suppkey) pairs.
    let mut r = rng.fork(4);
    let max_pairs = config.parts * config.suppliers;
    let n_ps = config.partsupps.min(max_pairs);
    let mut pair_ids = r.sample_indices(max_pairs, n_ps);
    pair_ids.sort_unstable();
    let rows: Vec<Row> = pair_ids
        .into_iter()
        .map(|pid| {
            vec![
                Value::Int((pid / config.suppliers) as i64),
                Value::Int((pid % config.suppliers) as i64),
                Value::Int(r.gen_range_i64(0, 1000)),
                {
                    let v = Value::Int(r.gen_range_i64(1, 100));
                    maybe_null(&mut r, p, v)
                },
            ]
        })
        .collect();
    db.load_table(PARTSUPP, rows)?;

    // customer
    let mut r = rng.fork(5);
    let rows: Vec<Row> = (0..config.customers)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Str(format!("Customer#{i:05}")),
                Value::Int(r.gen_index(config.nations) as i64),
                {
                    let v = Value::Int(r.gen_range_i64(-999, 9999));
                    maybe_null(&mut r, p, v)
                },
                Value::Str(SEGMENTS[r.gen_index(SEGMENTS.len())].to_string()),
            ]
        })
        .collect();
    db.load_table(CUSTOMER, rows)?;

    // orders
    let mut r = rng.fork(6);
    let rows: Vec<Row> = (0..config.orders)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(r.gen_index(config.customers) as i64),
                Value::Str(STATUSES[r.gen_index(STATUSES.len())].to_string()),
                Value::Int(r.gen_range_i64(1000, 500_000)),
                Value::Int(r.gen_range_i64(8000, 10_000)),
                {
                    let v = Value::Str(PRIORITIES[r.gen_index(PRIORITIES.len())].to_string());
                    maybe_null(&mut r, p, v)
                },
            ]
        })
        .collect();
    db.load_table(ORDERS, rows)?;

    // lineitem: line numbers are dense per order.
    let mut r = rng.fork(7);
    let mut rows: Vec<Row> = Vec::with_capacity(config.lineitems);
    let mut order = 0usize;
    let mut line = 1i64;
    for _ in 0..config.lineitems {
        if line > 7 || (line > 1 && r.gen_bool(0.4)) {
            order = (order + 1) % config.orders;
            line = 1;
        }
        rows.push(vec![
            Value::Int(order as i64),
            Value::Int(line),
            Value::Int(r.gen_index(config.parts) as i64),
            Value::Int(r.gen_index(config.suppliers) as i64),
            Value::Int(r.gen_range_i64(1, 50)),
            Value::Int(r.gen_range_i64(100, 100_000)),
            Value::Int(r.gen_range_i64(0, 10)),
            Value::Str(FLAGS[r.gen_index(FLAGS.len())].to_string()),
            {
                let v = Value::Int(r.gen_range_i64(8000, 10_000));
                maybe_null(&mut r, p, v)
            },
        ]);
        line += 1;
        if r.gen_bool(0.5) {
            order = (order + 1) % config.orders;
            line = 1;
        }
    }
    // Ensure PK (l_orderkey, l_linenumber) uniqueness even after wrap-around
    // of the order counter: dedup by renumbering collisions.
    let mut seen = std::collections::HashSet::new();
    for row in &mut rows {
        let mut key = (row[0].clone(), row[1].clone());
        while !seen.insert(key.clone()) {
            let ln = key.1.as_int().expect("linenumber is non-null int") + 1;
            row[1] = Value::Int(ln);
            key = (row[0].clone(), row[1].clone());
        }
    }
    db.load_table(LINEITEM, rows)?;

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::tpch_database;
    use std::collections::HashSet;

    #[test]
    fn foreign_keys_resolve() {
        let db = tpch_database(&TpchConfig::default()).unwrap();
        for def in db.catalog.tables().to_vec() {
            let child = db.table(def.id).unwrap();
            for fk in &def.foreign_keys {
                let parent = db.table(fk.ref_table).unwrap();
                let parent_keys: HashSet<Vec<Value>> = parent
                    .rows
                    .iter()
                    .map(|r| fk.ref_columns.iter().map(|&c| r[c].clone()).collect())
                    .collect();
                for row in &child.rows {
                    let key: Vec<Value> = fk.columns.iter().map(|&c| row[c].clone()).collect();
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    assert!(
                        parent_keys.contains(&key),
                        "dangling FK {key:?} in {}",
                        def.name
                    );
                }
            }
        }
    }

    #[test]
    fn primary_keys_are_unique_and_non_null() {
        let db = tpch_database(&TpchConfig::default()).unwrap();
        for def in db.catalog.tables().to_vec() {
            let t = db.table(def.id).unwrap();
            let mut seen = HashSet::new();
            for row in &t.rows {
                let key: Vec<Value> = def.primary_key.iter().map(|&c| row[c].clone()).collect();
                assert!(
                    !key.iter().any(Value::is_null),
                    "NULL in PK of {}",
                    def.name
                );
                assert!(seen.insert(key), "duplicate PK in {}", def.name);
            }
        }
    }

    #[test]
    fn nullable_columns_actually_contain_nulls() {
        let cfg = TpchConfig {
            null_probability: 0.3,
            ..TpchConfig::default()
        };
        let db = tpch_database(&cfg).unwrap();
        let sup = db.table(SUPPLIER).unwrap();
        let nulls = sup.rows.iter().filter(|r| r[3].is_null()).count();
        assert!(nulls > 0, "expected some NULL s_acctbal values");
    }

    #[test]
    fn non_nullable_columns_contain_no_nulls() {
        let db = tpch_database(&TpchConfig::default()).unwrap();
        for def in db.catalog.tables().to_vec() {
            let t = db.table(def.id).unwrap();
            for (c, cd) in def.columns.iter().enumerate() {
                if !cd.nullable {
                    assert!(
                        t.rows.iter().all(|r| !r[c].is_null()),
                        "NULL in non-nullable {}.{}",
                        def.name,
                        cd.name
                    );
                }
            }
        }
    }

    #[test]
    fn partsupp_pairs_are_distinct() {
        let db = tpch_database(&TpchConfig::default()).unwrap();
        let ps = db.table(PARTSUPP).unwrap();
        let mut seen = HashSet::new();
        for row in &ps.rows {
            assert!(seen.insert((row[0].clone(), row[1].clone())));
        }
    }
}

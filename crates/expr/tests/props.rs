//! Property tests for the expression analyses that rule preconditions rely
//! on — above all, that the *syntactic* null-rejection test is sound with
//! respect to actual three-valued evaluation. Runs on the in-repo `check`
//! harness; random expressions are derived from a seed via local
//! recursive builders.

use ruletest_common::check::{gen, CheckConfig, Gen};
use ruletest_common::{ensure, ensure_eq, ensure_ne, forall};
use ruletest_common::{ColId, Rng, Value};
use ruletest_expr::{
    columns_of, conjoin, conjuncts, eval, is_null_rejecting, remap_columns, substitute, BinOp, Expr,
};
use std::collections::{BTreeSet, HashMap};

const CMP_OPS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

fn cmp_op(rng: &mut Rng) -> BinOp {
    CMP_OPS[rng.gen_index(CMP_OPS.len())]
}

/// Random integer-valued expression over columns c0..c4, mirroring the
/// old recursive strategy: comparisons, IS NULL, and ANDs of derived
/// comparisons, bottoming out at column/literal leaves.
fn int_expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.5) {
            Expr::col(ColId(rng.gen_index(5) as u32))
        } else {
            Expr::lit(rng.gen_range_i64(-5, 5))
        };
    }
    match rng.gen_index(3) {
        0 => {
            let op = cmp_op(rng);
            let a = int_expr(rng, depth - 1);
            let b = int_expr(rng, depth - 1);
            Expr::bin(op, a, b)
        }
        1 => Expr::is_null(int_expr(rng, depth - 1)),
        _ => {
            let cmp = |rng: &mut Rng| {
                let op = cmp_op(rng);
                let a = int_expr(rng, depth - 1);
                let b = int_expr(rng, depth - 1);
                Expr::bin(op, a, b)
            };
            let a = cmp(rng);
            let b = cmp(rng);
            Expr::and(a, b)
        }
    }
}

/// A random boolean predicate (comparisons combined with AND/OR/NOT).
fn predicate(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_index(3) {
            0 => {
                let c = ColId(rng.gen_index(5) as u32);
                let v = rng.gen_range_i64(-5, 5);
                let op = cmp_op(rng);
                Expr::bin(op, Expr::col(c), Expr::lit(v))
            }
            1 => {
                let a = ColId(rng.gen_index(5) as u32);
                let b = ColId(rng.gen_index(5) as u32);
                let op = cmp_op(rng);
                Expr::bin(op, Expr::col(a), Expr::col(b))
            }
            _ => Expr::is_null(Expr::col(ColId(rng.gen_index(5) as u32))),
        };
    }
    match rng.gen_index(3) {
        0 => {
            let a = predicate(rng, depth - 1);
            let b = predicate(rng, depth - 1);
            Expr::and(a, b)
        }
        1 => {
            let a = predicate(rng, depth - 1);
            let b = predicate(rng, depth - 1);
            Expr::or(a, b)
        }
        _ => Expr::not(predicate(rng, depth - 1)),
    }
}

fn expr_gen() -> impl Gen<Value = Expr> {
    gen::from_fn(|rng: &mut Rng| {
        let depth = rng.gen_index(4);
        int_expr(rng, depth)
    })
}

fn predicate_gen() -> impl Gen<Value = Expr> {
    gen::from_fn(|rng: &mut Rng| {
        let depth = rng.gen_index(4);
        predicate(rng, depth)
    })
}

/// Five column bindings, NULL with probability 1/4.
fn binding_gen() -> impl Gen<Value = Vec<Value>> {
    gen::vecs(
        gen::from_fn(|rng: &mut Rng| {
            if rng.gen_bool(0.25) {
                Value::Null
            } else {
                Value::Int(rng.gen_range_i64(-5, 5))
            }
        }),
        5..6,
    )
}

fn eval_with(pred: &Expr, binding: &HashMap<ColId, Value>) -> Value {
    eval(pred, &mut |c| {
        binding.get(&c).cloned().unwrap_or(Value::Null)
    })
}

/// Soundness of the null-rejection analysis: if the analysis says a
/// predicate rejects NULLs of column c, then no binding with c = NULL can
/// make the predicate TRUE.
#[test]
fn null_rejection_is_sound() {
    forall!(CheckConfig::default();
            pred in predicate_gen(),
            vals in gen::vecs(gen::i64s(-5..5), 5..6),
            target in gen::usizes(0..5) => {
        let target = target as u32;
        let cols = BTreeSet::from([ColId(target)]);
        if is_null_rejecting(&pred, &cols) {
            let mut binding: HashMap<ColId, Value> = vals
                .iter()
                .enumerate()
                .map(|(i, &v)| (ColId(i as u32), Value::Int(v)))
                .collect();
            binding.insert(ColId(target), Value::Null);
            ensure_ne!(
                eval_with(&pred, &binding),
                Value::Bool(true),
                "analysis claimed rejection but predicate is TRUE: {}",
                pred
            );
        }
        Ok(())
    });
}

/// `conjoin(conjuncts(p))` is truth-equivalent to `p` under any binding.
#[test]
fn conjunct_roundtrip_preserves_truth() {
    forall!(CheckConfig::default();
            pred in predicate_gen(), vals in binding_gen() => {
        let binding: HashMap<ColId, Value> = vals
            .into_iter()
            .enumerate()
            .map(|(i, v)| (ColId(i as u32), v))
            .collect();
        let parts = conjuncts(&pred);
        let rebuilt = conjoin(parts);
        ensure_eq!(eval_with(&pred, &binding), eval_with(&rebuilt, &binding));
        Ok(())
    });
}

/// Column remapping is invertible and consistent with the column set.
#[test]
fn remap_roundtrip() {
    forall!(CheckConfig::default(); expr in expr_gen() => {
        let forward: HashMap<ColId, ColId> =
            (0..5).map(|i| (ColId(i), ColId(i + 100))).collect();
        let back: HashMap<ColId, ColId> =
            (0..5).map(|i| (ColId(i + 100), ColId(i))).collect();
        let mapped = remap_columns(&expr, &forward);
        for c in columns_of(&mapped) {
            ensure!(c.0 >= 100, "column {c} escaped the remap");
        }
        ensure_eq!(remap_columns(&mapped, &back), expr);
        Ok(())
    });
}

/// Substituting identity expressions is a no-op.
#[test]
fn identity_substitution_is_noop() {
    forall!(CheckConfig::default(); expr in expr_gen() => {
        let identity: HashMap<ColId, Expr> =
            (0..5).map(|i| (ColId(i), Expr::col(ColId(i)))).collect();
        ensure_eq!(substitute(&expr, &identity), expr);
        Ok(())
    });
}

/// Evaluation never panics on well-typed integer predicates, and produces
/// only NULL/TRUE/FALSE for boolean shapes.
#[test]
fn predicates_evaluate_to_three_values() {
    forall!(CheckConfig::default();
            pred in predicate_gen(), vals in binding_gen() => {
        let binding: HashMap<ColId, Value> = vals
            .into_iter()
            .enumerate()
            .map(|(i, v)| (ColId(i as u32), v))
            .collect();
        let v = eval_with(&pred, &binding);
        ensure!(matches!(v, Value::Null | Value::Bool(_)), "got {v:?}");
        Ok(())
    });
}

//! The five workspace invariant rules.
//!
//! Each rule walks a file's token stream (see [`crate::lexer`]) and emits
//! findings as `(line, message)` pairs; the engine attaches file paths,
//! applies `lint:allow` suppressions, and aggregates the panic budget
//! across files. Scope decisions (which files a rule applies to) live in
//! [`crate::engine::Policy`], not here — the rules themselves are pure
//! token matchers.

use crate::lexer::{Token, TokenKind};

/// Names of every rule, used to validate `lint:allow(rule)` annotations.
/// The first five are the per-file token rules of PR 2; `float_order` is
/// token-level too; the last three run on the workspace call graph (see
/// [`crate::graph`]).
pub const RULE_NAMES: [&str; 9] = [
    "determinism",
    "lock_hygiene",
    "par_reduction",
    "truncating_cast",
    "panic_budget",
    "float_order",
    "lock_order",
    "alloc_hot_path",
    "panic_path",
];

/// A rule finding before suppression handling: line plus message.
#[derive(Debug, Clone)]
pub struct RuleFinding {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

fn ident_at(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn punct_at(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// Rule `determinism`: ambient wall-clock and entropy sources are banned
/// outside the sanctioned timing module and the bench/CLI crates.
///
/// A clock read is a report, never an input: a decision that follows one
/// changes from run to run, and ambient RNGs (`thread_rng`, `from_entropy`)
/// break the bit-identical builds and scorer preparations pinned by
/// `tests/determinism.rs`.
pub fn determinism(tokens: &[Token]) -> Vec<RuleFinding> {
    const BANNED: [&str; 4] = ["Instant", "SystemTime", "thread_rng", "from_entropy"];
    tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident && BANNED.contains(&t.text.as_str()))
        .map(|t| RuleFinding {
            line: t.line,
            message: format!(
                "ambient time/entropy source `{}`: route timing through \
                 `elsi_indices::timing` and seed RNGs explicitly",
                t.text
            ),
        })
        .collect()
}

/// Rule `lock_hygiene`: `.lock()` is banned outside the lock-helper module.
///
/// A bare `.lock().unwrap()` turns one panicking rayon worker into a
/// cascade of poison-panics on every thread that shares the builder; all
/// call sites must go through `elsi::lock_unpoisoned`, which recovers the
/// guard (no workspace mutex protects a multi-step invariant).
pub fn lock_hygiene(tokens: &[Token]) -> Vec<RuleFinding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if punct_at(tokens, i, ".")
            && ident_at(tokens, i + 1, "lock")
            && punct_at(tokens, i + 2, "(")
            && punct_at(tokens, i + 3, ")")
        {
            out.push(RuleFinding {
                line: tokens[i + 1].line,
                message: "bare `.lock()`: call `elsi::lock_unpoisoned(&mutex)` so a \
                          poisoned mutex cannot cascade panics across rayon workers"
                    .to_string(),
            });
        }
    }
    out
}

/// Rule `par_reduction`: order-dependent reductions inside parallel
/// iterator chains.
///
/// `.sum()` / `.product()` / `.reduce()` on a `par_iter`-family chain
/// combine partial results in scheduling order; for floats that changes
/// the result between runs and thread counts, silently breaking the
/// reproducibility contract. Deterministic alternative: collect ordered
/// per-chunk partials and fold them sequentially (see
/// `ZmIndex::compute_composed_bounds`). Integer reductions are exact —
/// annotate those sites with `// lint:allow(par_reduction): integral`.
pub fn par_reduction(tokens: &[Token]) -> Vec<RuleFinding> {
    const PAR_SOURCES: [&str; 5] = [
        "par_iter",
        "par_iter_mut",
        "into_par_iter",
        "par_bridge",
        "par_chunks",
    ];
    const REDUCERS: [&str; 3] = ["sum", "product", "reduce"];
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !PAR_SOURCES.contains(&t.text.as_str()) {
            continue;
        }
        // Scan the rest of the enclosing expression: stop at a `;` at this
        // nesting depth or when the expression's own delimiter closes.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < tokens.len() {
            let tj = &tokens[j];
            if tj.kind == TokenKind::Punct {
                match tj.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            if tj.kind == TokenKind::Ident
                && REDUCERS.contains(&tj.text.as_str())
                && punct_at(tokens, j - 1, ".")
            {
                out.push(RuleFinding {
                    line: tj.line,
                    message: format!(
                        "`.{}()` in a `{}` chain combines partials in scheduling \
                         order: float results vary across runs; reduce over ordered \
                         chunk partials instead (or annotate integral reductions)",
                        tj.text, t.text
                    ),
                });
            }
            j += 1;
        }
    }
    out
}

/// Rule `truncating_cast`: raw integer `as` casts in curve code.
///
/// The space-filling-curve encoders define every learned key mapping;
/// a silently truncating `as u32` there corrupts keys for out-of-contract
/// inputs instead of failing fast. All conversions must go through the
/// `debug_assert!`-checked helpers in `elsi_spatial::curve::convert`.
pub fn truncating_cast(tokens: &[Token]) -> Vec<RuleFinding> {
    const INT_TYPES: [&str; 12] = [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if ident_at(tokens, i, "as")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident && INT_TYPES.contains(&t.text.as_str()))
        {
            out.push(RuleFinding {
                line: tokens[i].line,
                message: format!(
                    "raw `as {}` cast in curve code: use the checked conversion \
                     helpers in `elsi_spatial::curve::convert`",
                    tokens[i + 1].text
                ),
            });
        }
    }
    out
}

/// Rule `float_order`: `.partial_cmp()` calls are banned workspace-wide.
///
/// Every `partial_cmp` in this codebase compares `f64` keys, and
/// `partial_cmp(..).unwrap()` / `.expect(..)` turns a single NaN — one bad
/// coordinate, one 0/0 in a distance — into a panic inside a sort, which
/// under rayon poisons shared state on every worker. The canonical
/// alternatives are total: `f64::total_cmp` for bare keys and the
/// `(dist², id)` comparators in `elsi_spatial::order` for points (the PR 6
/// kNN fix). Definitions of `PartialOrd::partial_cmp` are not flagged —
/// only calls (`.partial_cmp(`).
pub fn float_order(tokens: &[Token]) -> Vec<RuleFinding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if punct_at(tokens, i, ".")
            && ident_at(tokens, i + 1, "partial_cmp")
            && punct_at(tokens, i + 2, "(")
        {
            out.push(RuleFinding {
                line: tokens[i + 1].line,
                message: "NaN-unsafe `.partial_cmp()`: use `f64::total_cmp` or the \
                          canonical comparators in `elsi_spatial::order`"
                    .to_string(),
            });
        }
    }
    out
}

/// Rule `panic_budget` support: every `unwrap()` / `expect(` / `panic!`
/// site in a file. The engine aggregates these per crate against the
/// ratcheting ceilings in the policy.
pub fn panic_sites(tokens: &[Token]) -> Vec<RuleFinding> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let hit = (ident_at(tokens, i, "unwrap") && punct_at(tokens, i + 1, "("))
            || (ident_at(tokens, i, "expect") && punct_at(tokens, i + 1, "("))
            || (ident_at(tokens, i, "panic") && punct_at(tokens, i + 1, "!"));
        if hit {
            out.push(RuleFinding {
                line: tokens[i].line,
                message: format!("`{}` site", tokens[i].text),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn determinism_flags_instant_but_not_strings() {
        let f = determinism(&lex("let t = Instant::now();").tokens);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Instant"));
        assert!(determinism(&lex(r#"let s = "Instant::now()";"#).tokens).is_empty());
        assert_eq!(
            determinism(&lex("thread_rng().gen::<u8>()").tokens).len(),
            1
        );
    }

    #[test]
    fn lock_hygiene_flags_bare_lock_only() {
        assert_eq!(lock_hygiene(&lex("m.lock().unwrap();").tokens).len(), 1);
        assert_eq!(lock_hygiene(&lex("m.lock()").tokens).len(), 1);
        // A different method is not a lock.
        assert!(lock_hygiene(&lex("m.locked()").tokens).is_empty());
        assert!(lock_hygiene(&lex("lock_unpoisoned(&m)").tokens).is_empty());
    }

    #[test]
    fn par_reduction_flags_sum_in_par_chain() {
        let f = par_reduction(&lex("xs.par_iter().map(|x| x * 2.0).sum::<f64>();").tokens);
        assert_eq!(f.len(), 1);
        // Sequential sums are fine.
        assert!(par_reduction(&lex("xs.iter().sum::<f64>();").tokens).is_empty());
        // The chain scan stops at the statement boundary.
        let two = "ys.par_iter().for_each(f);\nxs.iter().sum::<f64>();";
        assert!(par_reduction(&lex(two).tokens).is_empty());
        // `reduce` is flagged too.
        let f = par_reduction(&lex("xs.into_par_iter().reduce(|| 0.0, |a, b| a + b)").tokens);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn truncating_cast_flags_int_targets_only() {
        assert_eq!(truncating_cast(&lex("x as u32").tokens).len(), 1);
        assert_eq!(truncating_cast(&lex("(a + b) as usize").tokens).len(), 1);
        // Float casts are widening here and allowed.
        assert!(truncating_cast(&lex("x as f64").tokens).is_empty());
        // `as` in a string or comment is invisible.
        assert!(truncating_cast(&lex(r#"let s = "x as u32";"#).tokens).is_empty());
    }

    #[test]
    fn float_order_flags_calls_not_definitions() {
        assert_eq!(
            float_order(&lex("xs.sort_by(|a, b| a.partial_cmp(b).unwrap());").tokens).len(),
            1
        );
        // An `impl PartialOrd` definition is not a call.
        assert!(float_order(
            &lex("fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }")
                .tokens
        )
        .is_empty());
        // total_cmp is the sanctioned form.
        assert!(float_order(&lex("xs.sort_by(f64::total_cmp);").tokens).is_empty());
    }

    #[test]
    fn panic_sites_counts_the_three_forms() {
        let src = "a.unwrap(); b.expect(\"m\"); panic!(\"x\"); c.unwrap_or(0);";
        let sites = panic_sites(&lex(src).tokens);
        assert_eq!(sites.len(), 3);
    }
}

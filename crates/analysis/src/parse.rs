//! A lightweight item parser on top of the [`crate::lexer`] token stream.
//!
//! The flat token rules of PR 2 cannot express *cross-function* invariants
//! (deadlock freedom, allocation-free hot paths, reachability-scoped panic
//! budgets), so this module recovers just enough structure for a call
//! graph: `fn` items, the `impl`/`trait` owner they belong to, the call
//! sites inside each body, and the per-function facts the graph rules
//! consume (lock acquisitions, allocating constructs, panic sites, rayon
//! boundaries). It is deliberately *not* a Rust parser — see the
//! "Approximations" section below and `DESIGN.md` §11 for what it gets
//! wrong on purpose.
//!
//! ## Approximations
//!
//! * **Calls are matched by name.** `name(`, `Type::name(`, `.name(`,
//!   `name::<T>(` and `.name::<T>(` are recorded; bare function
//!   *references* passed as values (`map(helper)`) are missed
//!   (under-approximation), and an unqualified name resolves to *every*
//!   workspace function with that name — a method call to every one with
//!   a `self` receiver (over-approximation; see [`crate::graph`]). A plain
//!   call to a name a `let` earlier in the same fn binds is a closure call
//!   and not recorded.
//! * **Owners are textual.** The `impl` target is the last type-path
//!   identifier before the impl block opens (after `for` when present);
//!   generics and where-clauses are skipped by bracket counting.
//! * **Closures belong to their enclosing `fn`.** Calls inside a closure
//!   are attributed to the function that syntactically contains it —
//!   conservative for every rule built on this graph.
//! * **Guard extents are syntactic.** A direct `let g = lock_unpoisoned(…);`
//!   binding is assumed held to the end of the function; any other
//!   acquisition (temporaries, chained calls) to the end of its statement.

use crate::lexer::{Lexed, Marker, MarkerKind, Token, TokenKind};

/// Keywords that can precede `(` or `[` without being calls or indexing.
const KEYWORDS: [&str; 24] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "let", "mut", "ref",
    "move", "fn", "impl", "dyn", "where", "unsafe", "break", "continue", "const", "static", "use",
    "pub",
];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Simple callee name (`point_query`, `build`, …).
    pub name: String,
    /// `Type` in `Type::name(…)` / `Self::name(…)`; `None` for plain and
    /// method calls.
    pub qualifier: Option<String>,
    /// A method call, `x.name(…)`: only a fn with a `self` receiver can
    /// answer it.
    pub method: bool,
    /// How many arguments it passes (a method call's receiver aside), when
    /// the tokens tell for certain ([`arg_count`]).
    pub args: Option<usize>,
    /// 1-based line of the callee token.
    pub line: u32,
    /// Index of the callee token in the file's token stream.
    pub token: usize,
}

/// What kind of panic-capable construct a [`PanicSite`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
    /// `panic!(…)`.
    PanicMacro,
    /// `x[…]` expression indexing / slicing.
    Index,
}

impl PanicKind {
    /// Short display name used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::PanicMacro => "panic!",
            PanicKind::Index => "[]-indexing",
        }
    }
}

/// A panic-capable site inside a function body.
#[derive(Debug, Clone, Copy)]
pub struct PanicSite {
    /// Which construct.
    pub kind: PanicKind,
    /// 1-based source line.
    pub line: u32,
}

/// An allocating construct inside a function body (the `alloc_hot_path`
/// ban list).
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// The construct, as written (`Vec::new`, `push`, `format!`, …).
    pub what: &'static str,
    /// 1-based source line.
    pub line: u32,
}

/// One `lock_unpoisoned(…)` acquisition and its approximate guard extent.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Lock identity: the argument's identifier path with a leading `self.`
    /// stripped (`chosen`, `m1`, `state.log`). Identical field names on
    /// different types merge — an over-approximation.
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Token index of the `lock_unpoisoned` identifier.
    pub token: usize,
    /// Token index one past the last token the guard is assumed live for.
    pub held_to: usize,
}

/// A rayon parallelism boundary (`par_iter` family, `rayon::join`,
/// `rayon::scope`) inside a function body.
#[derive(Debug, Clone, Copy)]
pub struct RayonSite {
    /// 1-based source line.
    pub line: u32,
    /// Token index of the boundary identifier.
    pub token: usize,
}

/// One parsed `fn` item plus every per-function fact the graph rules need.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Simple function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, when any.
    pub owner: Option<String>,
    /// Takes a `self` receiver (`self`, `&self`, `&'a mut self`, …).
    pub receiver: bool,
    /// How many parameters it takes besides its receiver, if any.
    pub params: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Marked `// lint:hot_path`.
    pub hot_root: bool,
    /// Marked `// lint:serving_root`.
    pub serving_root: bool,
    /// Carries a `#[cold]` attribute; `alloc_hot_path` does not traverse
    /// into cold functions (they are off the hot path by declaration).
    pub cold: bool,
    /// Lives in test-only code: a `#[test]`/`#[cfg(test)]` function, or any
    /// function inside a `#[cfg(test)] mod`. Test-only items are not
    /// resolution candidates for calls made from production code, which
    /// keeps a test helper named `parse` from merging with every
    /// `.parse()` call in the serving closure.
    pub test_only: bool,
    /// Call sites in this function's own tokens (nested `fn` bodies
    /// excluded — those attribute to the nested item).
    pub calls: Vec<Call>,
    /// Panic-capable sites in this function's own tokens.
    pub panics: Vec<PanicSite>,
    /// Allocating constructs in this function's own tokens.
    pub allocs: Vec<AllocSite>,
    /// Lock acquisitions in this function's own tokens.
    pub locks: Vec<LockAcq>,
    /// Rayon boundaries in this function's own tokens.
    pub rayon: Vec<RayonSite>,
    /// Token range of the body (`{`-index inclusive, `}`-index inclusive);
    /// `None` for bodiless trait/extern declarations.
    pub body: Option<(usize, usize)>,
}

/// Qualified display name (`Owner::name` or `name`).
impl FnItem {
    /// `Owner::name` when the function sits in an impl/trait block,
    /// otherwise the bare name.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The parsed view of one file.
#[derive(Debug, Default)]
pub struct Parsed {
    /// Every `fn` item in source order.
    pub fns: Vec<FnItem>,
}

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Scans from the token after a `fn` name to its body `{` (returned index)
/// or terminating `;` (None). Parens/brackets are depth-tracked so `{` in
/// parameter position cannot exist; `->`-closed generics are irrelevant
/// here because `<`/`>` never nest braces.
fn find_body_start(tokens: &[Token], mut i: usize) -> Option<usize> {
    let mut paren = 0i32;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => return Some(i),
                ";" if paren == 0 => return None,
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Whether the `impl` at `i` is an argument- or return-position `impl
/// Trait` type (after `:`, `->`, `(`, `,`, `<`, `&`, `mut` or `=`) rather
/// than the keyword of an impl block.
fn is_impl_trait_type(tokens: &[Token], i: usize) -> bool {
    i > 0
        && matches!(
            tokens[i - 1].text.as_str(),
            ":" | ">" | "(" | "," | "<" | "&" | "mut" | "="
        )
}

/// Whether the fn whose generics or parameters start at token `i` takes a
/// `self` receiver, and how many parameters besides it. Its parameter list
/// is the first `(` outside the generics' angle brackets (the `>` of an
/// `->` closes none); a receiver is `self` after any `&`, lifetime and
/// `mut`; parameters are separated by commas outside every bracket.
fn signature(tokens: &[Token], mut i: usize) -> (bool, usize) {
    let mut angle = 0i32;
    while let Some(t) = tokens.get(i).filter(|t| t.text != "{" && t.text != ";") {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" if !punct(tokens, i - 1, "-") => angle -= 1,
                "(" if angle == 0 => break,
                _ => {}
            }
        }
        i += 1;
    }
    let params = tokens.get(i + 1..).unwrap_or_default();
    let mut rest = params
        .iter()
        .skip_while(|t| t.kind == TokenKind::Lifetime || t.text == "&" || t.text == "mut");
    let receiver = rest.next().is_some_and(|t| t.text == "self");
    let (mut depth, mut count, mut open) = (0i32, 0usize, false);
    for (k, t) in params.iter().enumerate() {
        let arrow = k > 0 && params.get(k - 1).is_some_and(|p| p.text == "-");
        match t.text.as_str() {
            ")" if depth == 0 => break,
            "(" | "[" | "<" => depth += 1,
            ")" | "]" => depth -= 1,
            ">" if !arrow => depth -= 1,
            "," if depth == 0 => {
                open = false;
                continue;
            }
            _ => {}
        }
        if !open {
            (count, open) = (count + 1, true);
        }
    }
    (receiver, count - usize::from(receiver && count > 0))
}

/// How many arguments the call whose `(` is at `open` passes: one more
/// than the commas outside every bracket, a closure's parameter list
/// (`|a, b|` where an argument starts) and a turbofish (`::<A, B>`). A `<`
/// that opens no turbofish — a comparison, or a type after `as` — leaves
/// the count unknown.
fn arg_count(tokens: &[Token], open: usize) -> Option<usize> {
    let (mut depth, mut angle, mut count) = (0usize, 0usize, 0usize);
    let mut starting = true;
    let mut j = open + 1;
    while let Some(t) = tokens.get(j) {
        j += 1;
        if t.kind != TokenKind::Punct {
            if !(starting && t.text == "move") {
                (count, starting) = (count + usize::from(starting), false);
            }
            continue;
        }
        match t.text.as_str() {
            ")" | "]" | "}" if depth == 0 => return Some(count),
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" if punct(tokens, j - 2, ":") => angle += 1,
            "<" => return None,
            ">" if angle > 0 && !punct(tokens, j - 2, "-") => angle -= 1,
            "," if depth == 0 && angle == 0 => {
                starting = true;
                continue;
            }
            "|" if starting => {
                // A closure's parameters: up to the next `|` outside brackets.
                let mut inner = 0usize;
                while let Some(p) = tokens.get(j) {
                    j += 1;
                    match p.text.as_str() {
                        "(" | "[" => inner += 1,
                        ")" | "]" => inner = inner.saturating_sub(1),
                        "|" if inner == 0 => break,
                        _ => {}
                    }
                }
            }
            _ => {}
        }
        (count, starting) = (count + usize::from(starting), false);
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn find_matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct {
            match tokens[i].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// The owner type of an `impl`/`trait` header starting at `i` (the keyword
/// token): the last path identifier outside `<…>`/`(…)` before the block
/// opens, taken after `for` when one is present, stopping at `where` and at
/// the lone `:` that opens a trait's supertrait list.
fn parse_owner(tokens: &[Token], i: usize, body_start: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut owner: Option<&str> = None;
    let mut j = i + 1;
    while j < body_start {
        let t = &tokens[j];
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "<" => angle += 1,
                // `->` does not close a generic scope.
                ">" if !(j > 0
                    && tokens[j - 1].kind == TokenKind::Punct
                    && tokens[j - 1].text == "-") =>
                {
                    angle -= 1;
                }
                "(" => paren += 1,
                ")" => paren -= 1,
                ":" if angle == 0
                    && paren == 0
                    && !punct(tokens, j - 1, ":")
                    && !punct(tokens, j + 1, ":") =>
                {
                    break
                }
                _ => {}
            },
            TokenKind::Ident if angle == 0 && paren == 0 => match t.text.as_str() {
                "where" => break,
                "for" => owner = None,
                "dyn" | "mut" => {}
                _ => owner = Some(&t.text),
            },
            _ => {}
        }
        j += 1;
    }
    owner.map(str::to_string)
}

/// Extracts the lock identity from the argument of `lock_unpoisoned(…)`:
/// the `.`-joined identifier path with a leading `self` stripped.
fn lock_identity(tokens: &[Token], open_paren: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut j = open_paren + 1;
    let mut depth = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "," if depth == 0 => break,
                _ => {}
            }
        } else if t.kind == TokenKind::Ident && depth == 0 {
            parts.push(&t.text);
        }
        j += 1;
    }
    if parts.first() == Some(&"self") {
        parts.remove(0);
    }
    // `crate::lock_unpoisoned(&x)` style paths keep only the argument.
    if parts.is_empty() {
        "<unknown>".to_string()
    } else {
        parts.join(".")
    }
}

/// Approximate guard extent for an acquisition whose callee token is `at`.
///
/// Direct `let g = lock_unpoisoned(…);` bindings (nothing between the
/// call's closing paren and the `;`) are held to the end of the enclosing
/// function (`fn_end`); everything else to the end of its statement — the
/// next `;` at or above the acquisition's brace depth, or the close of the
/// enclosing block.
fn guard_extent(tokens: &[Token], at: usize, fn_end: usize) -> usize {
    // Find the call's closing paren.
    let mut j = at;
    while j < fn_end && !(tokens[j].kind == TokenKind::Punct && tokens[j].text == "(") {
        j += 1;
    }
    let mut depth = 0i32;
    let mut close = j;
    while close < fn_end {
        if tokens[close].kind == TokenKind::Punct {
            match tokens[close].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        close += 1;
    }
    // Statement start: walk back to the previous `;`/`{`/`}`.
    let mut start = at;
    while start > 0 {
        let t = &tokens[start - 1];
        if t.kind == TokenKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        start -= 1;
    }
    let is_direct_let_binding = tokens.get(start).is_some_and(|t| t.text == "let")
        && tokens
            .get(close + 1)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == ";");
    if is_direct_let_binding {
        return fn_end;
    }
    // End of statement: next `;` at relative brace depth 0, or the close
    // of the enclosing block.
    let mut depth = 0i32;
    let mut k = close + 1;
    while k < fn_end {
        if tokens[k].kind == TokenKind::Punct {
            match tokens[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    if depth == 0 {
                        return k;
                    }
                    depth -= 1;
                }
                ";" if depth <= 0 => return k,
                _ => {}
            }
        }
        k += 1;
    }
    fn_end
}

/// Whether the token at `i` opens an expression-indexing bracket: `[`
/// directly after an identifier (non-keyword), `)`, or `]`.
fn is_expr_index(tokens: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = &tokens[i - 1];
    match prev.kind {
        TokenKind::Ident => !is_keyword(&prev.text),
        TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
        _ => false,
    }
}

/// Parses one lexed file into its `fn` items with per-function facts.
pub fn parse_items(lexed: &Lexed) -> Parsed {
    let tokens = &lexed.tokens;
    let mut fns: Vec<FnItem> = Vec::new();
    // (owner name, block end token) — innermost last.
    let mut owner_stack: Vec<(Option<String>, usize)> = Vec::new();
    // Token ranges of `#[cfg(test)]` mod/impl blocks: every fn inside is
    // test-only.
    let mut test_ranges: Vec<(usize, usize)> = Vec::new();
    let mut pending_cold = false;
    let mut pending_test = false;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        owner_stack.retain(|&(_, end)| i <= end);
        match t.text.as_str() {
            // An `impl Trait` type names no block: scanning on from it would
            // take the fn body for an impl body and skip the fns after it.
            "impl" if is_impl_trait_type(tokens, i) => {}
            "impl" | "trait" => {
                pending_cold = false;
                if let Some(body_start) = find_body_start(tokens, i + 1) {
                    let end = find_matching_brace(tokens, body_start);
                    if pending_test {
                        test_ranges.push((body_start, end));
                        pending_test = false;
                    }
                    let owner = parse_owner(tokens, i, body_start);
                    owner_stack.push((owner, end));
                    i = body_start + 1;
                    continue;
                }
                pending_test = false;
            }
            "cold" => {
                // `#[cold]`: the ident sits between `[` and `]` after `#`.
                let attr = i >= 2
                    && tokens[i - 1].text == "["
                    && tokens[i - 2].text == "#"
                    && tokens.get(i + 1).is_some_and(|n| n.text == "]");
                if attr {
                    pending_cold = true;
                }
            }
            "test" => {
                // `#[test]` directly (not the `test` inside `#[cfg(test)]`,
                // whose neighbours are parens).
                let attr = i >= 2
                    && tokens[i - 1].text == "["
                    && tokens[i - 2].text == "#"
                    && tokens.get(i + 1).is_some_and(|n| n.text == "]");
                if attr {
                    pending_test = true;
                }
            }
            "cfg" => {
                // `#[cfg(test)]` — attaches to the next mod/impl/fn.
                let attr = i >= 2
                    && tokens[i - 1].text == "["
                    && tokens[i - 2].text == "#"
                    && tokens.get(i + 1).is_some_and(|n| n.text == "(")
                    && tokens.get(i + 2).is_some_and(|n| n.text == "test")
                    && tokens.get(i + 3).is_some_and(|n| n.text == ")")
                    && tokens.get(i + 4).is_some_and(|n| n.text == "]");
                if attr {
                    pending_test = true;
                }
            }
            "mod" => {
                pending_cold = false;
                if pending_test {
                    if let Some(open) = find_body_start(tokens, i + 1) {
                        test_ranges.push((open, find_matching_brace(tokens, open)));
                    }
                    pending_test = false;
                }
            }
            "struct" | "enum" | "use" | "static" => {
                pending_cold = false;
                pending_test = false;
            }
            "fn" => {
                let Some(name_tok) = tokens.get(i + 1) else {
                    break;
                };
                if name_tok.kind != TokenKind::Ident {
                    i += 1;
                    continue;
                }
                let owner = owner_stack.last().and_then(|(o, _)| o.clone());
                let body = find_body_start(tokens, i + 2).map(|open| {
                    let close = find_matching_brace(tokens, open);
                    (open, close)
                });
                let in_test_range = test_ranges.iter().any(|&(s, e)| i > s && i < e);
                let (receiver, params) = signature(tokens, i + 2);
                fns.push(FnItem {
                    name: name_tok.text.clone(),
                    owner,
                    receiver,
                    params,
                    line: t.line,
                    hot_root: false,
                    serving_root: false,
                    cold: pending_cold,
                    test_only: pending_test || in_test_range,
                    calls: Vec::new(),
                    panics: Vec::new(),
                    allocs: Vec::new(),
                    locks: Vec::new(),
                    rayon: Vec::new(),
                    body: None, // filled below
                });
                let idx = fns.len() - 1;
                fns[idx].body = body;
                pending_cold = false;
                pending_test = false;
                // Continue scanning *inside* the body too: nested fns and
                // the default-method bodies of traits are their own items.
                i += 2;
                continue;
            }
            _ => {}
        }
        i += 1;
    }

    // Attach markers: each marker claims the first fn at or below its line.
    attach_markers(&mut fns, &lexed.markers);

    // Token → innermost owning fn. Ranges nest properly; later (inner)
    // items overwrite outer ones.
    let mut token_owner: Vec<Option<usize>> = vec![None; tokens.len()];
    let mut order: Vec<usize> = (0..fns.len()).collect();
    order.sort_by_key(|&f| {
        fns[f]
            .body
            .map_or((usize::MAX, 0), |(s, e)| (s, usize::MAX - e))
    });
    for f in order {
        if let Some((s, e)) = fns[f].body {
            for slot in token_owner
                .iter_mut()
                .take(e.min(tokens.len() - 1) + 1)
                .skip(s)
            {
                *slot = Some(f);
            }
        }
    }

    extract_facts(tokens, &token_owner, &mut fns);
    Parsed { fns }
}

fn attach_markers(fns: &mut [FnItem], markers: &[Marker]) {
    for m in markers {
        let target = fns
            .iter_mut()
            .filter(|f| f.line >= m.line)
            .min_by_key(|f| f.line);
        if let Some(f) = target {
            match m.kind {
                MarkerKind::HotPath => f.hot_root = true,
                MarkerKind::ServingRoot => f.serving_root = true,
            }
        }
    }
}

fn ident(tokens: &[Token], i: usize) -> Option<&str> {
    tokens
        .get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct(tokens: &[Token], i: usize, p: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == p)
}

/// Whether a `let` between tokens `open` and `at` binds `name`: a plain
/// call through it calls that local (a closure), which shadows every
/// workspace fn of the name.
fn let_bound(tokens: &[Token], open: usize, at: usize, name: &str) -> bool {
    let body = tokens.get(open..at).unwrap_or_default();
    body.windows(3).any(|w| {
        matches!(w, [l, n, m] if l.text == "let"
            && (n.text == name || (n.text == "mut" && m.text == name)))
    })
}

/// The `(` the generic arguments opening at `tokens[open]` (a `<`) close
/// right before, if they do: `f::<N>(…)` calls `f`, `Vec::<u8>::new` does
/// not call `Vec`. A `>` after `-` is an arrow, not a closing bracket.
fn turbofish_call_paren(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for j in open..tokens.len() {
        if punct(tokens, j, "<") {
            depth += 1;
        } else if punct(tokens, j, ">") && !punct(tokens, j - 1, "-") {
            depth -= 1;
            if depth == 0 {
                return punct(tokens, j + 1, "(").then_some(j + 1);
            }
        } else if punct(tokens, j, ";") || punct(tokens, j, "{") {
            break;
        }
    }
    None
}

/// Second pass: walk every token once and record calls, panic sites,
/// allocating constructs, lock acquisitions and rayon boundaries on the
/// innermost owning function.
fn extract_facts(tokens: &[Token], token_owner: &[Option<usize>], fns: &mut [FnItem]) {
    const PAR_BOUNDARIES: [&str; 5] = [
        "par_iter",
        "par_iter_mut",
        "into_par_iter",
        "par_bridge",
        "par_chunks",
    ];
    for i in 0..tokens.len() {
        let Some(f) = token_owner[i] else { continue };
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            if t.text == "[" && is_expr_index(tokens, i) {
                fns[f].panics.push(PanicSite {
                    kind: PanicKind::Index,
                    line: t.line,
                });
            }
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let next_open_paren = punct(tokens, i + 1, "(");
        let next_bang = punct(tokens, i + 1, "!");
        let prev_dot = i > 0 && punct(tokens, i - 1, ".");
        let turbofish =
            punct(tokens, i + 1, ":") && punct(tokens, i + 2, ":") && punct(tokens, i + 3, "<");

        // Panic sites.
        match name {
            "unwrap" if next_open_paren => {
                fns[f].panics.push(PanicSite {
                    kind: PanicKind::Unwrap,
                    line: t.line,
                });
            }
            "expect" if next_open_paren => {
                fns[f].panics.push(PanicSite {
                    kind: PanicKind::Expect,
                    line: t.line,
                });
            }
            "panic" if next_bang => {
                fns[f].panics.push(PanicSite {
                    kind: PanicKind::PanicMacro,
                    line: t.line,
                });
            }
            _ => {}
        }

        // Allocating constructs (the `alloc_hot_path` ban list).
        let alloc: Option<&'static str> = if name == "Vec"
            && ident(tokens, i + 3).is_some_and(|n| n == "new" || n == "with_capacity")
            && punct(tokens, i + 1, ":")
            && punct(tokens, i + 2, ":")
        {
            Some("Vec::new")
        } else if name == "Box"
            && ident(tokens, i + 3) == Some("new")
            && punct(tokens, i + 1, ":")
            && punct(tokens, i + 2, ":")
        {
            Some("Box::new")
        } else if name == "vec" && next_bang {
            Some("vec!")
        } else if name == "format" && next_bang {
            Some("format!")
        } else if prev_dot && next_open_paren {
            match name {
                "push" => Some("push"),
                "to_vec" => Some("to_vec"),
                "to_string" => Some("to_string"),
                "collect" => Some("collect"),
                "extend" => Some("extend"),
                _ => None,
            }
        } else if prev_dot && turbofish && name == "collect" {
            Some("collect")
        } else {
            None
        };
        if let Some(what) = alloc {
            fns[f].allocs.push(AllocSite { what, line: t.line });
        }

        // Rayon boundaries: the par-iter family anywhere, `join`/`scope`
        // only when `rayon::`-qualified (bare `join` is `Path::join`/
        // `JoinHandle::join` far more often than a fork-join).
        if PAR_BOUNDARIES.contains(&name) && (next_open_paren || turbofish) {
            fns[f].rayon.push(RayonSite {
                line: t.line,
                token: i,
            });
        }
        if (name == "join" || name == "scope")
            && next_open_paren
            && i >= 3
            && ident(tokens, i - 3) == Some("rayon")
            && punct(tokens, i - 2, ":")
            && punct(tokens, i - 1, ":")
        {
            fns[f].rayon.push(RayonSite {
                line: t.line,
                token: i,
            });
        }

        // Lock acquisitions.
        if name == "lock_unpoisoned" && next_open_paren {
            let fn_end = fns[f].body.map_or(tokens.len(), |(_, e)| e);
            fns[f].locks.push(LockAcq {
                lock: lock_identity(tokens, i + 1),
                line: t.line,
                token: i,
                held_to: guard_extent(tokens, i, fn_end),
            });
        }

        // Call sites: `f(`, `f::<N>(` and `.m::<T>(`.
        let paren = if next_open_paren {
            Some(i + 1)
        } else if turbofish {
            turbofish_call_paren(tokens, i + 3)
        } else {
            None
        };
        if let Some(paren) = paren.filter(|_| !is_keyword(name)) {
            // The token right after `fn` is a definition, not a call.
            let is_def = i > 0 && ident(tokens, i - 1) == Some("fn");
            let open = fns[f].body.map_or(i, |(open, _)| open);
            let pathed = i > 0 && punct(tokens, i - 1, ":");
            let local = !prev_dot && !pathed && let_bound(tokens, open, i, name);
            if !is_def && !local {
                let qualifier = if i >= 3
                    && punct(tokens, i - 1, ":")
                    && punct(tokens, i - 2, ":")
                    && tokens[i - 3].kind == TokenKind::Ident
                {
                    Some(tokens[i - 3].text.clone())
                } else {
                    None
                };
                fns[f].calls.push(Call {
                    name: name.to_string(),
                    qualifier,
                    method: prev_dot,
                    args: arg_count(tokens, paren),
                    line: t.line,
                    token: i,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Parsed {
        parse_items(&lex(src))
    }

    // Lookups via slice indexing: a miss still fails the test (out-of-bounds
    // panic) without spending the crate's unwrap/expect budget on test code.
    fn named<'a>(fns: &'a [FnItem], name: &str) -> &'a FnItem {
        &fns[fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or(usize::MAX)]
    }

    fn call<'a>(f: &'a FnItem, name: &str) -> &'a Call {
        &f.calls[f
            .calls
            .iter()
            .position(|c| c.name == name)
            .unwrap_or(usize::MAX)]
    }

    #[test]
    fn finds_fns_with_owners() {
        let p = parse(
            "fn free() {}\n\
             impl Foo { fn m(&self) {} }\n\
             impl<T: Clone> Bar for Baz<T> { fn n(&self) {} }\n\
             trait Qux: a::Send + Sync { fn d(&self) { self.n(); } fn sig(&self); }\n",
        );
        let names: Vec<String> = p.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, ["free", "Foo::m", "Baz::n", "Qux::d", "Qux::sig"]);
        assert!(p.fns[4].body.is_none(), "bodiless trait sig");
        assert_eq!(p.fns[3].calls.len(), 1);
        assert_eq!(p.fns[3].calls[0].name, "n");
    }

    #[test]
    fn impl_trait_types_do_not_open_impl_blocks() {
        let p = parse(
            "impl S {\n\
             fn a(&self, f: impl Fn(u8) -> u8) { f(1); }\n\
             fn b(&self) -> impl Iterator<Item = u8> { x.y() }\n\
             fn c(&mut self, g: &mut impl FnMut()) { g(); }\n\
             fn d(&self) { self.a(|v| { v + 1 }); }\n\
             }\n",
        );
        let names: Vec<String> = p.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, ["S::a", "S::b", "S::c", "S::d"]);
        assert_eq!(named(&p.fns, "d").calls[0].name, "a");
    }

    #[test]
    fn test_only_marks_cfg_test_mods_and_test_fns() {
        let p = parse(
            "fn prod() {}\n\
             #[test]\nfn unit() {}\n\
             #[cfg(test)]\nfn helper() {}\n\
             #[cfg(test)]\nmod tests { use super::*; fn parse(s: &str) {} impl H { fn go() {} } }\n\
             #[cfg(feature = \"x\")]\nfn gated() {}\n",
        );
        assert!(!named(&p.fns, "prod").test_only);
        assert!(named(&p.fns, "unit").test_only);
        assert!(named(&p.fns, "helper").test_only);
        assert!(named(&p.fns, "parse").test_only);
        assert!(
            named(&p.fns, "go").test_only,
            "impl inside #[cfg(test)] mod"
        );
        assert!(
            !named(&p.fns, "gated").test_only,
            "other cfg attrs don't mark"
        );
    }

    #[test]
    fn call_qualifiers_and_methods() {
        let p = parse("fn f() { g(); Type::h(); x.m(); v.collect::<Vec<_>>(); }");
        let calls = &p.fns[0].calls;
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["g", "h", "m", "collect"]);
        assert_eq!(calls[1].qualifier.as_deref(), Some("Type"));
        assert_eq!(calls[0].qualifier, None);
    }

    #[test]
    fn turbofish_calls_are_calls_and_turbofish_paths_are_not() {
        let p = parse("fn f() { g::<N>(a); Vec::<u8>::new(); h::<fn() -> u8>(x); }");
        let names: Vec<&str> = p.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["g", "new", "h"]);
    }

    #[test]
    fn receivers_and_parameter_counts() {
        let p = parse(
            "fn a() {}\n\
             fn b<F: Fn(u8, u8) -> u8>(f: F, (x, y): (u8, u8), z: Vec<(u8, u8)>,) {}\n\
             fn c(&self) {}\n\
             fn d<'a>(&'a mut self, w: &Rect) {}\n\
             fn e(mut self: Box<Self>, n: HashMap<u8, u8>) {}\n\
             fn f(selfish: u8) {}\n",
        );
        let facts: Vec<(bool, usize)> = p.fns.iter().map(|f| (f.receiver, f.params)).collect();
        let want = [
            (false, 0),
            (false, 3),
            (true, 0),
            (true, 1),
            (true, 1),
            (false, 1),
        ];
        assert_eq!(facts, want);
    }

    #[test]
    fn argument_counts_see_through_closures_and_turbofish() {
        let p = parse(
            "fn f() {\n\
               x.a();\n\
               x.b(g(1, 2), [3, 4], (5, 6),);\n\
               x.c(|p, q| p + q, move || 1, 0);\n\
               x.d(Vec::<(u8, u8)>::new(), y.e::<A, B>(z));\n\
               x.h(a < b, c);\n\
             }",
        );
        let args = |name| call(&p.fns[0], name).args;
        let got = ["a", "b", "c", "d", "e", "h"].map(args);
        assert_eq!(got, [Some(0), Some(3), Some(3), Some(2), Some(1), None]);
        assert!(call(&p.fns[0], "a").method && !call(&p.fns[0], "g").method);
    }

    #[test]
    fn macros_are_not_calls() {
        let p = parse("fn f() { println!(\"x\"); assert_eq!(1, 1); }");
        assert!(p.fns[0].calls.is_empty());
    }

    #[test]
    fn nested_fns_own_their_tokens() {
        let p = parse("fn outer() { fn inner() { leaf(); } other(); }");
        assert_eq!(p.fns.len(), 2);
        let outer = named(&p.fns, "outer");
        let inner = named(&p.fns, "inner");
        assert_eq!(
            outer.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            ["other"]
        );
        assert_eq!(
            inner.calls.iter().map(|c| &c.name).collect::<Vec<_>>(),
            ["leaf"]
        );
    }

    #[test]
    fn markers_and_cold_attach() {
        let p = parse(
            "// lint:hot_path\nfn hot() {}\n\
             // lint:serving_root\nfn serve() {}\n\
             #[cold]\nfn slow() {}\n",
        );
        assert!(p.fns[0].hot_root);
        assert!(!p.fns[0].serving_root);
        assert!(p.fns[1].serving_root);
        assert!(p.fns[2].cold);
        assert!(!p.fns[1].cold);
    }

    #[test]
    fn panic_sites_include_indexing() {
        let p = parse("fn f(xs: &[f64], i: usize) -> f64 { xs[i] + ys[0].unwrap() }");
        let kinds: Vec<PanicKind> = p.fns[0].panics.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [PanicKind::Index, PanicKind::Index, PanicKind::Unwrap]
        );
        // Type positions and attributes are not indexing.
        let p = parse("fn g(v: &mut [f64]) -> [u8; 4] { let _: Vec<[f64; 2]> = t; [0; 4] }");
        assert!(p.fns[0].panics.is_empty());
    }

    #[test]
    fn alloc_sites_match_ban_list() {
        let p = parse(
            "fn f() { let mut v = Vec::new(); v.push(1); let b = Box::new(2); \
             let s = format!(\"x\"); let w = xs.to_vec(); let c = it.collect::<Vec<_>>(); }",
        );
        let what: Vec<&str> = p.fns[0].allocs.iter().map(|a| a.what).collect();
        assert_eq!(
            what,
            ["Vec::new", "push", "Box::new", "format!", "to_vec", "collect"]
        );
    }

    #[test]
    fn lock_identity_and_extent() {
        // Temporary: held to end of statement.
        let p = parse("fn f(&self) { lock_unpoisoned(&self.chosen).push(m); other(); }");
        let l = &p.fns[0].locks[0];
        assert_eq!(l.lock, "chosen");
        let other = call(&p.fns[0], "other");
        assert!(l.held_to < other.token, "statement-extent guard released");
        // Direct let binding: held to end of fn.
        let p = parse("fn g(&self) { let gd = lock_unpoisoned(&self.a); other(); }");
        let l = &p.fns[0].locks[0];
        let other = call(&p.fns[0], "other");
        assert!(l.held_to >= other.token, "let-bound guard spans the call");
    }

    #[test]
    fn rayon_boundaries() {
        let p = parse("fn f(xs: &[f64]) { xs.par_iter().for_each(|x| g(x)); rayon::join(a, b); }");
        assert_eq!(p.fns[0].rayon.len(), 2);
        // `path.join` is not a rayon boundary.
        let p = parse("fn g(p: &Path) { p.join(\"x\"); h.join(); }");
        assert!(p.fns[0].rayon.is_empty());
    }
}

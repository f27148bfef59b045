//! The workspace call graph and the fixpoint analyses the graph rules run
//! on it: hot-path reachability (`alloc_hot_path`), serving reachability
//! (`panic_path`) and transitive lock sets with order-edge extraction
//! (`lock_order`).
//!
//! ## Call-edge resolution
//!
//! Nodes are `fn` items parsed by [`crate::parse`]; edges are resolved by
//! *name*, per these rules (documented in `DESIGN.md` §11):
//!
//! * `Type::name(…)` / `Self::name(…)` — the definition owned by that
//!   type when one exists (`Self` = the enclosing impl's type).
//! * A qualifier that matches no workspace owner (`Vec::new`,
//!   `module::helper`, `mem::take`) — the unique workspace definition of
//!   `name` without a `self` receiver when exactly one exists, otherwise
//!   no edge (assumed external). This keeps std-type constructors from
//!   fanning out to every workspace `new`.
//! * Unqualified calls (`helper(…)`) — **every** workspace definition of
//!   `name` without a `self` receiver; method calls (`x.name(…)`) — every
//!   one with a receiver that takes as many further parameters as the
//!   call passes arguments (any, where the parser cannot count them). A
//!   method is only called through a value or its own type or trait, so
//!   `.fill(0)` on a slice never reaches a free `fill`, `locate_lower(…)`
//!   never a method `locate_lower`, and `data.keys()` never a
//!   `keys(&self, points)`. A call to a closure a `let` binds is not
//!   recorded at all ([`crate::parse`]). Receiver types are unknown, so
//!   the graph over-approximates; diagnostics may chase an edge the
//!   program never takes.
//! * Function *references* (`map(helper)`) produce no edge — an
//!   under-approximation the parser documents.
//! * Test-only definitions (`#[test]` fns, anything inside a
//!   `#[cfg(test)]` mod/impl) are invisible to production callers: without
//!   this, a test helper named `parse` would merge with every production
//!   `.parse()` call and drag test code into the serving closure.

use crate::parse::FnItem;
use std::collections::{HashMap, HashSet, VecDeque};

/// One node of the workspace call graph: a parsed function plus the file
/// it came from.
#[derive(Debug)]
pub struct Node {
    /// Workspace-relative file path.
    pub file: String,
    /// The parsed item (facts included).
    pub item: FnItem,
    /// Resolved callee node ids, deduplicated.
    pub callees: Vec<usize>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All nodes, in file/source order.
    pub nodes: Vec<Node>,
}

/// A lock-order edge `from → to` with the site that witnesses it: while
/// `from` was (assumed) held, `to` was acquired — directly or through the
/// call recorded at `file:line`.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock assumed held.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// File of the witnessing acquisition or call.
    pub file: String,
    /// Line of the witnessing acquisition or call.
    pub line: u32,
    /// Qualified name of the function the witness sits in.
    pub in_fn: String,
}

/// A lock held across a rayon boundary, with the witnessing site.
#[derive(Debug, Clone)]
pub struct LockAcrossPar {
    /// The held lock.
    pub lock: String,
    /// File of the boundary (or of the call that reaches one).
    pub file: String,
    /// Line of the boundary (or call).
    pub line: u32,
    /// Qualified name of the holding function.
    pub in_fn: String,
}

impl CallGraph {
    /// Builds the graph from every file's parsed items and resolves call
    /// edges per the module-level rules.
    pub fn build(files: Vec<(String, Vec<FnItem>)>) -> Self {
        let mut nodes: Vec<Node> = Vec::new();
        for (file, fns) in files {
            for item in fns {
                nodes.push(Node {
                    file: file.clone(),
                    item,
                    callees: Vec::new(),
                });
            }
        }
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        let mut by_owner: HashMap<(&str, &str), usize> = HashMap::new();
        for (id, n) in nodes.iter().enumerate() {
            by_name.entry(&n.item.name).or_default().push(id);
            if let Some(owner) = &n.item.owner {
                by_owner.insert((owner.as_str(), n.item.name.as_str()), id);
            }
        }
        let mut callees: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
        for n in &nodes {
            // Test-only items never resolve from production callers: a
            // `#[cfg(test)]` helper named `parse` must not merge with every
            // production `.parse()` call.
            let visible =
                |id: &usize| n.item.test_only || nodes.get(*id).is_some_and(|m| !m.item.test_only);
            // The definitions of `name` that can answer a call: for a method
            // call (`Some(args)`), the methods taking that many arguments;
            // for any other, the fns without a receiver.
            let candidates = |name: &str, method: Option<Option<usize>>| -> Vec<usize> {
                let answers = |id: &usize| {
                    let item = nodes.get(*id).map(|m| &m.item);
                    let fits = item.is_some_and(|f| match method {
                        Some(args) => f.receiver && args.is_none_or(|a| a == f.params),
                        None => !f.receiver,
                    });
                    visible(id) && fits
                };
                by_name
                    .get(name)
                    .map(|ids| ids.iter().copied().filter(answers).collect())
                    .unwrap_or_default()
            };
            let mut out: Vec<usize> = Vec::new();
            for call in &n.item.calls {
                let resolved: Vec<usize> = match call.qualifier.as_deref() {
                    Some("Self") => n
                        .item
                        .owner
                        .as_deref()
                        .and_then(|o| by_owner.get(&(o, call.name.as_str())))
                        .into_iter()
                        .copied()
                        .filter(visible)
                        .collect(),
                    Some(q) => match by_owner.get(&(q, call.name.as_str())) {
                        Some(id) if visible(id) => vec![*id],
                        Some(_) => Vec::new(),
                        None => match candidates(&call.name, None) {
                            // Unique name: a module-qualified free fn.
                            ids if ids.len() == 1 => ids,
                            // Ambiguous under an unknown owner: external.
                            _ => Vec::new(),
                        },
                    },
                    None => candidates(&call.name, call.method.then_some(call.args)),
                };
                out.extend(resolved);
            }
            out.sort_unstable();
            out.dedup();
            callees.push(out);
        }
        for (n, c) in nodes.iter_mut().zip(callees) {
            n.callees = c;
        }
        Self { nodes }
    }

    /// Node ids whose item satisfies `pred`.
    pub fn roots(&self, pred: impl Fn(&FnItem) -> bool) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| pred(&self.nodes[i].item))
            .collect()
    }

    /// Forward closure over call edges from `roots`. `descend` can prune
    /// traversal *into* a node (the node itself is still visited when it
    /// is a root): `alloc_hot_path` uses it to stop at `#[cold]` callees.
    pub fn reachable(&self, roots: &[usize], descend: impl Fn(&Node) -> bool) -> HashSet<usize> {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if seen.insert(r) {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for &c in &self.nodes[id].callees {
                if !seen.contains(&c) && descend(&self.nodes[c]) && seen.insert(c) {
                    queue.push_back(c);
                }
            }
        }
        seen
    }

    /// For each reachable node, the id of the nearest root it was reached
    /// from (breadth-first) — used to name the responsible root in
    /// diagnostics.
    pub fn reached_from(
        &self,
        roots: &[usize],
        descend: impl Fn(&Node) -> bool,
    ) -> HashMap<usize, usize> {
        let mut from: HashMap<usize, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if let std::collections::hash_map::Entry::Vacant(e) = from.entry(r) {
                e.insert(r);
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            let root = from[&id];
            for &c in &self.nodes[id].callees {
                if !from.contains_key(&c) && descend(&self.nodes[c]) {
                    from.insert(c, root);
                    queue.push_back(c);
                }
            }
        }
        from
    }

    /// Transitive lock sets: for every node, the set of lock identities it
    /// may acquire directly or through any callee. Computed as a fixpoint
    /// (the graph may have cycles).
    pub fn transitive_locks(&self) -> Vec<HashSet<String>> {
        let mut sets: Vec<HashSet<String>> = self
            .nodes
            .iter()
            .map(|n| n.item.locks.iter().map(|l| l.lock.clone()).collect())
            .collect();
        loop {
            let mut changed = false;
            for id in 0..self.nodes.len() {
                for &c in &self.nodes[id].callees {
                    if c == id {
                        continue;
                    }
                    let add: Vec<String> = sets[c]
                        .iter()
                        .filter(|l| !sets[id].contains(*l))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        changed = true;
                        sets[id].extend(add);
                    }
                }
            }
            if !changed {
                break;
            }
        }
        sets
    }

    /// Transitive rayon use: whether each node hits a parallel boundary
    /// directly or through any callee.
    pub fn transitive_rayon(&self) -> Vec<bool> {
        let mut uses: Vec<bool> = self
            .nodes
            .iter()
            .map(|n| !n.item.rayon.is_empty())
            .collect();
        loop {
            let mut changed = false;
            for id in 0..self.nodes.len() {
                if uses[id] {
                    continue;
                }
                if self.nodes[id].callees.iter().any(|&c| uses[c]) {
                    uses[id] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        uses
    }

    /// Extracts lock-order edges and locks-held-across-parallel-boundary
    /// witnesses from every function, using the guard extents recorded by
    /// the parser and the transitive facts above.
    pub fn lock_analysis(&self) -> (Vec<LockEdge>, Vec<LockAcrossPar>) {
        let locksets = self.transitive_locks();
        let rayon = self.transitive_rayon();
        let mut edges: Vec<LockEdge> = Vec::new();
        let mut across: Vec<LockAcrossPar> = Vec::new();
        for (id, n) in self.nodes.iter().enumerate() {
            for acq in &n.item.locks {
                let range = acq.token + 1..acq.held_to;
                // Later direct acquisitions inside the guard extent.
                for other in &n.item.locks {
                    if range.contains(&other.token) {
                        edges.push(LockEdge {
                            from: acq.lock.clone(),
                            to: other.lock.clone(),
                            file: n.file.clone(),
                            line: other.line,
                            in_fn: n.item.qualified(),
                        });
                    }
                }
                // Direct rayon boundaries inside the guard extent.
                for r in &n.item.rayon {
                    if range.contains(&r.token) {
                        across.push(LockAcrossPar {
                            lock: acq.lock.clone(),
                            file: n.file.clone(),
                            line: r.line,
                            in_fn: n.item.qualified(),
                        });
                    }
                }
                // Calls inside the guard extent: pull in callee facts.
                for call in &n.item.calls {
                    if !range.contains(&call.token) {
                        continue;
                    }
                    for &callee in &self.nodes[id].callees {
                        // `callees` is deduplicated per function, not per
                        // call site, so re-resolve cheaply by name.
                        if self.nodes[callee].item.name != call.name {
                            continue;
                        }
                        for l in &locksets[callee] {
                            edges.push(LockEdge {
                                from: acq.lock.clone(),
                                to: l.clone(),
                                file: n.file.clone(),
                                line: call.line,
                                in_fn: n.item.qualified(),
                            });
                        }
                        if rayon[callee] {
                            across.push(LockAcrossPar {
                                lock: acq.lock.clone(),
                                file: n.file.clone(),
                                line: call.line,
                                in_fn: n.item.qualified(),
                            });
                        }
                    }
                }
            }
        }
        (edges, across)
    }
}

/// Finds elementary cycles in the lock-order digraph. Each cycle is
/// reported once as the sorted list of participating locks plus the edge
/// that closes it (for a stable, waivable diagnostic site). Self-loops
/// (re-acquiring a lock already held) count as cycles of length one.
pub fn lock_cycles(edges: &[LockEdge]) -> Vec<(Vec<String>, LockEdge)> {
    // Adjacency over lock names.
    let mut adj: HashMap<&str, Vec<&LockEdge>> = HashMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut found: Vec<(Vec<String>, LockEdge)> = Vec::new();
    let mut reported: HashSet<Vec<String>> = HashSet::new();
    // For every edge u→v, a cycle exists iff v can reach u. BFS per edge —
    // the lock graph is tiny (a handful of locks in practice).
    for e in edges {
        if e.from == e.to {
            let key = vec![e.from.clone()];
            if reported.insert(key.clone()) {
                found.push((key, e.clone()));
            }
            continue;
        }
        let mut seen: HashSet<&str> = HashSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        seen.insert(e.to.as_str());
        queue.push_back(e.to.as_str());
        let mut closes = false;
        while let Some(u) = queue.pop_front() {
            if u == e.from {
                closes = true;
                break;
            }
            for next in adj.get(u).into_iter().flatten() {
                if seen.insert(next.to.as_str()) {
                    queue.push_back(next.to.as_str());
                }
            }
        }
        if closes {
            let mut key = vec![e.from.clone(), e.to.clone()];
            key.sort();
            key.dedup();
            if reported.insert(key.clone()) {
                found.push((key, e.clone()));
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), parse_items(&lex(s)).fns))
                .collect(),
        )
    }

    // A miss yields usize::MAX: the caller's indexing then fails the test
    // without spending the crate's panic budget on a test helper.
    fn node_id(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.item.qualified() == name)
            .unwrap_or(usize::MAX)
    }

    #[test]
    fn resolves_owner_qualified_calls_exactly() {
        let g = graph(&[(
            "a.rs",
            "impl A { fn go(&self) { B::step(); } }\n\
             impl B { fn step() {} }\n\
             impl C { fn step() {} }\n",
        )]);
        let go = node_id(&g, "A::go");
        assert_eq!(g.nodes[go].callees, vec![node_id(&g, "B::step")]);
    }

    #[test]
    fn unqualified_calls_merge_all_definitions() {
        // Every definition that can answer: the methods without further
        // parameters for `x.step()`, the free fn for `step()`.
        let g = graph(&[(
            "a.rs",
            "fn f(x: &X) { x.step(); step(); }\n\
             impl B { fn step(&self) {} }\n\
             impl C { fn step(&mut self) {} }\n\
             impl D { fn step(&self, n: u8) {} }\n\
             fn step() {}\n",
        )]);
        let f = node_id(&g, "f");
        let want = ["B::step", "C::step", "step"].map(|n| node_id(&g, n));
        assert_eq!(g.nodes[f].callees, want);
    }

    #[test]
    fn test_only_defs_are_invisible_to_production_callers() {
        let g = graph(&[(
            "a.rs",
            "fn prod(x: &str) { x.parse(); }\n\
             #[cfg(test)]\nmod tests {\n\
               fn parse(s: &str) {}\n\
               fn uses_helper(s: &str) { parse(s); }\n\
             }\n",
        )]);
        // The production `.parse()` call stays external…
        assert!(g.nodes[node_id(&g, "prod")].callees.is_empty());
        // …while test code still resolves into test helpers.
        let from_test = node_id(&g, "uses_helper");
        assert_eq!(g.nodes[from_test].callees, vec![node_id(&g, "parse")]);
    }

    #[test]
    fn unknown_qualifier_with_ambiguous_name_is_external() {
        let g = graph(&[(
            "a.rs",
            "fn f() { Vec::step(); }\n\
             impl B { fn step() {} }\n\
             impl C { fn step() {} }\n",
        )]);
        assert!(g.nodes[node_id(&g, "f")].callees.is_empty());
    }

    #[test]
    fn unknown_qualifier_with_unique_name_resolves() {
        let g = graph(&[(
            "a.rs",
            "fn f() { gen::uniform(10); }\nfn uniform(n: usize) {}\n",
        )]);
        let f = node_id(&g, "f");
        assert_eq!(g.nodes[f].callees, vec![node_id(&g, "uniform")]);
    }

    #[test]
    fn reachability_stops_at_cold() {
        let g = graph(&[(
            "a.rs",
            "// lint:hot_path\nfn hot() { warm(); slow(); }\n\
             fn warm() {}\n\
             #[cold]\nfn slow() { alloc_heavy(); }\n\
             fn alloc_heavy() {}\n",
        )]);
        let roots = g.roots(|f| f.hot_root);
        let seen = g.reachable(&roots, |n| !n.item.cold);
        assert!(seen.contains(&node_id(&g, "hot")));
        assert!(seen.contains(&node_id(&g, "warm")));
        assert!(!seen.contains(&node_id(&g, "slow")));
        assert!(!seen.contains(&node_id(&g, "alloc_heavy")));
    }

    #[test]
    fn transitive_locks_propagate_through_calls() {
        let g = graph(&[(
            "a.rs",
            "fn outer(&self) { self.inner(); }\n\
             fn inner(&self) { lock_unpoisoned(&self.m); }\n",
        )]);
        let sets = g.transitive_locks();
        assert!(sets[node_id(&g, "outer")].contains("m"));
    }

    #[test]
    fn two_mutex_cycle_is_found() {
        let g = graph(&[(
            "a.rs",
            "fn ab(&self) { let g1 = lock_unpoisoned(&self.m1); let g2 = lock_unpoisoned(&self.m2); }\n\
             fn ba(&self) { let g2 = lock_unpoisoned(&self.m2); let g1 = lock_unpoisoned(&self.m1); }\n",
        )]);
        let (edges, _) = g.lock_analysis();
        let cycles = lock_cycles(&edges);
        assert_eq!(cycles.len(), 1, "edges: {edges:?}");
        assert_eq!(cycles[0].0, vec!["m1".to_string(), "m2".to_string()]);
    }

    #[test]
    fn statement_scoped_guards_do_not_order() {
        let g = graph(&[(
            "a.rs",
            "fn f(&self) { lock_unpoisoned(&self.m1).clone(); lock_unpoisoned(&self.m2).clone(); }\n",
        )]);
        let (edges, _) = g.lock_analysis();
        assert!(edges.is_empty(), "got: {edges:?}");
    }

    #[test]
    fn lock_across_rayon_boundary_is_witnessed() {
        let g = graph(&[(
            "a.rs",
            "fn f(&self, xs: &[f64]) { let g = lock_unpoisoned(&self.m); xs.par_iter().for_each(|x| h(x)); }\n",
        )]);
        let (_, across) = g.lock_analysis();
        assert_eq!(across.len(), 1);
        assert_eq!(across[0].lock, "m");
    }
}

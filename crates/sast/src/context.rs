//! k=1 call-string context sensitivity.
//!
//! The [`Full`](crate::RuleProfile::Full) profile aggregates every
//! observed `caller → callee` pair into one graph, so a shared wrapper's
//! summary unions everything it was *ever* observed forwarding to and
//! every site that enters the wrapper inherits the union — the
//! documented over-approximation. This module rebuilds the summaries
//! with one call-string element of context: a summary is keyed
//! `(node, caller)` instead of `node`, and the entry frame of a call
//! site is resolved through the site's own first hop, so the key of the
//! outermost summary is effectively `(wrapper, caller-site)`.
//!
//! The three profiles form a lattice on the findings they can emit:
//!
//! ```text
//! PerfCheckerCompat  ⊆  Contextual  ⊆  Full        (on open chains)
//! ```
//!
//! * `Contextual ⊆ Full`: every contextual edge `(node, caller) → next`
//!   comes from a concrete chain triple, and the same chain contributes
//!   `node → next` to the aggregated graph, so contextual reachability
//!   never exceeds aggregated reachability.
//! * `Compat ⊆ Contextual` on open chains: a concrete chain registers
//!   all of its own consecutive triples, so following the site's own
//!   first hop always rediscovers the site's own working API when every
//!   frame on the chain is scannable.
//!
//! A true positive is a finding whose target *is* the site's own
//! working API — reached through the site's own chain — so the
//! refinement provably drops only cross-context contamination, never a
//! ground-truth bug that `Full` could attribute to its own site.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use hd_appmodel::{ApiKind, App, Call};

use crate::summary::worst_busy_ns;

/// One reachable target under a context: the minimum contextual depth
/// and, for blame placement, the frame that invokes the target on that
/// minimal derivation (ties broken toward the lexicographically
/// smallest caller symbol, so the choice is a pure function of the
/// subgraph and safe to cache across apps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Reach {
    depth: u32,
    caller: Option<usize>,
}

/// Per-context summaries over an app: one summary per observed
/// `(node, caller)` pair, fixed-pointed with min-depth merging.
#[derive(Clone, Debug)]
pub struct ContextIndex {
    /// `(node, caller)` → dense key index.
    keys: HashMap<(usize, usize), usize>,
    /// Per key: contextual successors (`next` nodes observed in a
    /// `caller → node → next` triple).
    edges: Vec<BTreeSet<usize>>,
    /// Per key: reachable working APIs with min contextual depth.
    reach: Vec<BTreeMap<usize, Reach>>,
    /// Per key: whether a closed-source boundary truncated the view.
    truncated: Vec<bool>,
}

fn working(app: &App, node: usize) -> bool {
    !app.apis[node].closed_source
        && matches!(
            app.apis[node].kind,
            ApiKind::Blocking { .. } | ApiKind::SelfDeveloped
        )
}

impl ContextIndex {
    /// Builds the `(node, caller)` key set and contextual edges from
    /// every concrete chain, then runs the summaries to a fixed point.
    ///
    /// Offloaded and async call sites contribute structure too, exactly
    /// like [`CallGraph::build`](crate::CallGraph::build): the code
    /// exists either way, and site gates are applied by the engine.
    pub fn build(app: &App) -> ContextIndex {
        let mut keys: HashMap<(usize, usize), usize> = HashMap::new();
        let mut edges: Vec<BTreeSet<usize>> = Vec::new();
        for action in &app.actions {
            for call in action.calls() {
                // One walk down the chain: each frame gets the key of
                // `(frame, caller)` and is a successor of the caller's key.
                let mut chain = frames(call);
                let mut caller = chain.next().expect("a chain ends in its working API");
                let mut caller_key: Option<usize> = None;
                for node in chain {
                    let next = keys.len();
                    let key = *keys.entry((node, caller)).or_insert_with(|| {
                        edges.push(BTreeSet::new());
                        next
                    });
                    if let Some(k) = caller_key {
                        edges[k].insert(node);
                    }
                    (caller, caller_key) = (node, Some(key));
                }
            }
        }
        let mut index = ContextIndex {
            reach: vec![BTreeMap::new(); keys.len()],
            truncated: vec![false; keys.len()],
            keys,
            edges,
        };
        index.seed(app);
        index.fixed_point(app);
        index
    }

    /// Number of `(node, caller)` summary keys (the report's
    /// `context_pairs` metadata).
    pub fn context_pairs(&self) -> usize {
        self.keys.len()
    }

    fn seed(&mut self, app: &App) {
        for (&(node, _), &key) in &self.keys {
            if app.apis[node].closed_source {
                self.truncated[key] = true;
            } else if working(app, node) {
                self.reach[key].insert(
                    node,
                    Reach {
                        depth: 0,
                        caller: None,
                    },
                );
            }
        }
    }

    /// Monotone fixed point: per-key reachable sets only grow, depths
    /// only shrink (bounded below by zero), and the equal-depth caller
    /// tie-break only moves toward the smallest symbol, so the loop
    /// terminates even with wrapper cycles.
    fn fixed_point(&mut self, app: &App) {
        loop {
            let mut changed = false;
            let pairs: Vec<((usize, usize), usize)> =
                self.keys.iter().map(|(&p, &k)| (p, k)).collect();
            for ((node, _caller), key) in pairs {
                if app.apis[node].closed_source {
                    continue;
                }
                let mut gained: Vec<(usize, Reach)> = Vec::new();
                let mut truncated = self.truncated[key];
                for &next in &self.edges[key] {
                    if app.apis[next].closed_source {
                        truncated = true;
                        continue;
                    }
                    let next_key = match self.keys.get(&(next, node)) {
                        Some(&k) => k,
                        None => continue,
                    };
                    truncated |= self.truncated[next_key];
                    for (&target, r) in &self.reach[next_key] {
                        let candidate = Reach {
                            depth: r.depth + 1,
                            // The direct caller of `target` on this
                            // derivation: `node` itself when the hop
                            // lands on the target, else whatever the
                            // deeper summary recorded.
                            caller: Some(if r.depth == 0 {
                                node
                            } else {
                                r.caller.unwrap()
                            }),
                        };
                        if improves(app, self.reach[key].get(&target), candidate) {
                            gained.push((target, candidate));
                        }
                    }
                }
                for (target, r) in gained {
                    if improves(app, self.reach[key].get(&target), r) {
                        self.reach[key].insert(target, r);
                        changed = true;
                    }
                }
                if truncated != self.truncated[key] {
                    self.truncated[key] = truncated;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Contextual reachability of one call site: the entry frame's own
    /// seed plus the summary of the site's own first hop, shifted one
    /// edge down. Returns `None` when the entry frame is closed-source
    /// (the site is unscannable, exactly like the `Full` profile).
    pub fn site_reach(&self, app: &App, call: &Call) -> Option<SiteReach> {
        let entry = entry_frame(call);
        if app.apis[entry].closed_source {
            return None;
        }
        let Some(hop) = first_hop(call) else {
            // A direct call reaches its own API and nothing else.
            let own = working(app, entry).then_some(SiteTarget {
                node: entry,
                depth: 0,
                caller: None,
            });
            return Some(SiteReach {
                entry,
                targets: own.into_iter().collect(),
                truncated: false,
            });
        };
        let mut targets: BTreeMap<usize, Reach> = BTreeMap::new();
        let mut truncated = false;
        if working(app, entry) {
            targets.insert(
                entry,
                Reach {
                    depth: 0,
                    caller: None,
                },
            );
        }
        if app.apis[hop].closed_source {
            truncated = true;
        } else {
            let key = self.keys[&(hop, entry)];
            truncated |= self.truncated[key];
            for (&target, r) in &self.reach[key] {
                let candidate = Reach {
                    depth: r.depth + 1,
                    caller: Some(if r.depth == 0 {
                        entry
                    } else {
                        r.caller.unwrap()
                    }),
                };
                if improves(app, targets.get(&target), candidate) {
                    targets.insert(target, candidate);
                }
            }
        }
        Some(SiteReach {
            entry,
            targets: targets
                .into_iter()
                .map(|(node, r)| SiteTarget {
                    node,
                    depth: r.depth,
                    caller: r.caller,
                })
                .collect(),
            truncated,
        })
    }

    /// Structural fingerprint of the contextual subgraph one call site
    /// can reach — the cross-app cache key.
    ///
    /// Covers everything [`site_reach`](Self::site_reach) depends on:
    /// the entry chain's first hop, every `(node, caller)` key reachable
    /// from it, each node's symbol/kind/closed flag/worst busy
    /// cost/file/line, and the contextual edge structure — serialized in
    /// symbol order so the hash is independent of API index assignment.
    /// Two sites (in the same app or different apps) with equal
    /// fingerprints have identical reachability results by construction.
    pub fn site_fingerprint(&self, app: &App, call: &Call) -> u64 {
        let entry = entry_frame(call);
        let mut hasher = WordHash::new();
        hasher.write(b"hd-sast/ctx/v1");
        hash_node(&mut hasher, app, entry);
        if let Some(hop) = first_hop(call) {
            // Canonical walk of the reachable key set.
            let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
            let mut queue = VecDeque::new();
            let first = (hop, entry);
            if self.keys.contains_key(&first) {
                seen.insert(first);
                queue.push_back(first);
            }
            while let Some((node, caller)) = queue.pop_front() {
                let key = self.keys[&(node, caller)];
                for &next in &self.edges[key] {
                    let pair = (next, node);
                    if self.keys.contains_key(&pair) && seen.insert(pair) {
                        queue.push_back(pair);
                    }
                }
            }
            let mut entries: Vec<(String, (usize, usize))> = seen
                .iter()
                .map(|&(node, caller)| {
                    (
                        format!("{}\u{1}{}", app.apis[node].symbol, app.apis[caller].symbol),
                        (node, caller),
                    )
                })
                .collect();
            entries.sort();
            for (label, (node, caller)) in entries {
                hasher.write(label.as_bytes());
                hash_node(&mut hasher, app, node);
                hash_node(&mut hasher, app, caller);
                let key = self.keys[&(node, caller)];
                let mut succs: Vec<&str> = self.edges[key]
                    .iter()
                    .map(|&s| app.apis[s].symbol.as_str())
                    .collect();
                succs.sort_unstable();
                for s in succs {
                    hasher.write(s.as_bytes());
                    hasher.write(&[2]);
                }
            }
        }
        hasher.finish()
    }
}

/// Contextual reachability of one call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteReach {
    /// Entry frame (first frame the handler enters).
    pub entry: usize,
    /// Reachable working APIs, target-index order.
    pub targets: Vec<SiteTarget>,
    /// Whether a closed-source boundary hid part of the subtree.
    pub truncated: bool,
}

/// One reachable working API at a call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteTarget {
    /// Target API (index into `App::apis`).
    pub node: usize,
    /// Contextual call-edge distance from the entry frame.
    pub depth: u32,
    /// Frame invoking the target on the minimal derivation (`None` for
    /// a depth-0 direct call).
    pub caller: Option<usize>,
}

/// The concrete frames of a call site: wrapper chain, then the working
/// API.
fn frames(call: &Call) -> impl Iterator<Item = usize> + '_ {
    call.via.iter().chain([&call.api]).map(|f| f.0)
}

/// The first frame a call site's handler enters: its outermost wrapper,
/// or the working API itself for a direct call.
pub(crate) fn entry_frame(call: &Call) -> usize {
    call.via.first().unwrap_or(&call.api).0
}

/// The frame the entry frame calls (`None` for a direct call).
pub(crate) fn first_hop(call: &Call) -> Option<usize> {
    match call.via.len() {
        0 => None,
        1 => Some(call.api.0),
        _ => Some(call.via[1].0),
    }
}

/// Min-depth merge with a deterministic, index-free caller tie-break.
fn improves(app: &App, current: Option<&Reach>, candidate: Reach) -> bool {
    match current {
        None => true,
        Some(cur) => {
            if candidate.depth != cur.depth {
                return candidate.depth < cur.depth;
            }
            match (cur.caller, candidate.caller) {
                (Some(a), Some(b)) => app.apis[b].symbol < app.apis[a].symbol,
                _ => false,
            }
        }
    }
}

fn hash_node(hasher: &mut WordHash, app: &App, node: usize) {
    let api = &app.apis[node];
    hasher.write(api.symbol.as_bytes());
    hasher.write(api.file.as_bytes());
    hasher.write(&api.line.to_le_bytes());
    hasher.write(&[api.closed_source as u8, kind_tag(app, node)]);
    hasher.write(&worst_busy_ns(api).to_le_bytes());
    hasher.write(&[0]);
}

fn kind_tag(app: &App, node: usize) -> u8 {
    match app.apis[node].kind {
        ApiKind::Ui => 0,
        ApiKind::Blocking { .. } => 1,
        ApiKind::SelfDeveloped => 2,
        ApiKind::Wrapper => 3,
    }
}

/// Structural fingerprint of the whole app model (APIs + chains),
/// independent of the app's name and package — recorded in every report
/// so downstream tooling can group structurally identical apps.
pub fn app_fingerprint(app: &App) -> u64 {
    let mut hasher = WordHash::new();
    hasher.write(b"hd-sast/app/v1");
    for (node, _) in app.apis.iter().enumerate() {
        hash_node(&mut hasher, app, node);
    }
    for action in &app.actions {
        for call in action.calls() {
            for frame in frames(call) {
                hasher.write(app.apis[frame].symbol.as_bytes());
                hasher.write(&[3]);
            }
            hasher.write(&[call.offloaded as u8, call.async_op.is_some() as u8, 4]);
        }
    }
    hasher.finish()
}

/// Chunked 64-bit multiply-xor digest (FxHash-style word mixing with a
/// splitmix finalizer).
///
/// Fingerprints are cache keys and grouping metadata, not a wire
/// format, so the only requirements are determinism and distribution —
/// and hashing eight bytes per multiply instead of one makes
/// `app_fingerprint` (computed for every report) and
/// [`ContextIndex::site_fingerprint`] several times cheaper than the
/// byte-serial FNV-1a the telemetry layer uses on its hot path.
struct WordHash(u64);

impl WordHash {
    fn new() -> WordHash {
        WordHash(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes `bytes` in as little-endian 8-byte words: whole words are
    /// read in place, and only a short tail is zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(
                u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
                8,
            );
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let word = tail
                .iter()
                .rev()
                .fold(0u64, |word, &byte| (word << 8) | byte as u64);
            self.mix(word, tail.len());
        }
    }

    fn mix(&mut self, word: u64, len: usize) {
        // The length term keeps zero bytes and short-chunk padding from
        // colliding.
        let word = word ^ (len as u64) << 56;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_appmodel::{ActionSpec, ApiId, ApiSpec, CostSpec, Dist, EventSpec};
    use hd_simrt::MILLIS;

    fn app(apis: Vec<ApiSpec>, calls: Vec<Call>) -> App {
        App {
            name: "C".into(),
            package: "org.c".into(),
            category: "Tools".into(),
            downloads: 1,
            commit: "c".into(),
            apis,
            actions: vec![ActionSpec::new(
                0,
                "a",
                vec![EventSpec::new("org.c.M.h", 1, calls)],
            )],
            bugs: vec![],
            executors: vec![],
        }
    }

    fn wrapper(sym: &str) -> ApiSpec {
        ApiSpec::new(sym, 1, ApiKind::Wrapper, CostSpec::none())
    }

    fn blocking(sym: &str, ms: u64) -> ApiSpec {
        ApiSpec::new(
            sym,
            1,
            ApiKind::Blocking {
                known_since: Some(2010),
            },
            CostSpec::io(Dist::ZERO, Dist::fixed(ms * MILLIS)),
        )
    }

    fn ui(sym: &str) -> ApiSpec {
        ApiSpec::new(sym, 1, ApiKind::Ui, CostSpec::none())
    }

    #[test]
    fn shared_wrapper_does_not_contaminate_the_benign_caller() {
        // The canonical over-approximation: one wrapper forwards to a
        // blocking query at one site and to UI work at another. The
        // contextual view keeps the sites separate.
        let a = app(
            vec![wrapper("w.W.f"), blocking("a.A.x", 200), ui("u.U.t")],
            vec![
                Call::via(vec![ApiId(0)], ApiId(1)),
                Call::via(vec![ApiId(0)], ApiId(2)),
            ],
        );
        let idx = ContextIndex::build(&a);
        let calls: Vec<&Call> = a.actions[0].calls().collect();
        let blocking_site = idx.site_reach(&a, calls[0]).unwrap();
        assert_eq!(blocking_site.targets.len(), 1);
        assert_eq!(blocking_site.targets[0].node, 1);
        assert_eq!(blocking_site.targets[0].depth, 1);
        assert_eq!(blocking_site.targets[0].caller, Some(0));
        let benign_site = idx.site_reach(&a, calls[1]).unwrap();
        assert!(
            benign_site.targets.is_empty(),
            "the UI-only site must not inherit the other context: {benign_site:?}"
        );
    }

    #[test]
    fn k1_merges_sites_sharing_the_same_caller_pair() {
        // Both chains route w → x; with one element of context the two
        // continuations of x are indistinguishable, so both sites see
        // the blocking target — the expected k=1 precision limit.
        let a = app(
            vec![
                wrapper("w.W.f"),
                wrapper("x.X.g"),
                blocking("a.A.x", 200),
                ui("u.U.t"),
            ],
            vec![
                Call::via(vec![ApiId(0), ApiId(1)], ApiId(2)),
                Call::via(vec![ApiId(0), ApiId(1)], ApiId(3)),
            ],
        );
        let idx = ContextIndex::build(&a);
        let calls: Vec<&Call> = a.actions[0].calls().collect();
        for call in calls {
            let reach = idx.site_reach(&a, call).unwrap();
            assert_eq!(reach.targets.len(), 1, "{reach:?}");
            assert_eq!(reach.targets[0].node, 2);
            assert_eq!(reach.targets[0].depth, 2);
        }
    }

    #[test]
    fn closed_entry_is_unscannable_and_closed_hop_truncates() {
        let a = app(
            vec![
                wrapper("w.W.f").closed(),
                wrapper("v.V.g"),
                blocking("a.A.x", 100),
            ],
            vec![
                Call::via(vec![ApiId(0)], ApiId(2)),
                Call::via(vec![ApiId(1), ApiId(0)], ApiId(2)),
            ],
        );
        let idx = ContextIndex::build(&a);
        let calls: Vec<&Call> = a.actions[0].calls().collect();
        assert!(idx.site_reach(&a, calls[0]).is_none(), "closed entry");
        let through = idx.site_reach(&a, calls[1]).unwrap();
        assert!(through.targets.is_empty());
        assert!(through.truncated, "the closed hop must surface upward");
    }

    #[test]
    fn cycles_converge_to_min_depths() {
        let a = app(
            vec![
                wrapper("w.W.f"),
                wrapper("v.V.g"),
                blocking("a.A.x", 100),
                blocking("b.B.y", 100),
            ],
            vec![
                Call::via(vec![ApiId(0), ApiId(1)], ApiId(2)),
                Call::via(vec![ApiId(1), ApiId(0)], ApiId(3)),
            ],
        );
        let idx = ContextIndex::build(&a);
        let calls: Vec<&Call> = a.actions[0].calls().collect();
        let first = idx.site_reach(&a, calls[0]).unwrap();
        assert_eq!(
            first.targets.iter().map(|t| t.node).collect::<Vec<_>>(),
            vec![2],
            "the cycle's other continuation has a different caller pair"
        );
        assert_eq!(first.targets[0].depth, 2);
    }

    #[test]
    fn fingerprints_match_across_structurally_identical_apps() {
        let build = |name: &str| {
            let mut a = app(
                vec![wrapper("w.W.f"), blocking("a.A.x", 200)],
                vec![Call::via(vec![ApiId(0)], ApiId(1))],
            );
            a.name = name.into();
            a.package = format!("org.{name}");
            a
        };
        let (a, b) = (build("one"), build("two"));
        let (ia, ib) = (ContextIndex::build(&a), ContextIndex::build(&b));
        let ca: Vec<&Call> = a.actions[0].calls().collect();
        let cb: Vec<&Call> = b.actions[0].calls().collect();
        assert_eq!(
            ia.site_fingerprint(&a, ca[0]),
            ib.site_fingerprint(&b, cb[0]),
            "identical subgraphs must share a cache slot"
        );
        assert_eq!(app_fingerprint(&a), app_fingerprint(&b));
    }

    #[test]
    fn fingerprints_separate_different_subgraphs() {
        let a = app(
            vec![wrapper("w.W.f"), blocking("a.A.x", 200), ui("u.U.t")],
            vec![
                Call::via(vec![ApiId(0)], ApiId(1)),
                Call::via(vec![ApiId(0)], ApiId(2)),
                Call::direct(ApiId(1)),
            ],
        );
        let idx = ContextIndex::build(&a);
        let calls: Vec<&Call> = a.actions[0].calls().collect();
        let fps: Vec<u64> = calls.iter().map(|c| idx.site_fingerprint(&a, c)).collect();
        assert_ne!(fps[0], fps[1], "different continuations");
        assert_ne!(fps[0], fps[2], "wrapped vs direct");
    }

    #[test]
    fn fingerprint_is_independent_of_api_index_order() {
        // Same structure, APIs declared in a different order: the
        // canonical symbol-ordered serialization must agree.
        let a = app(
            vec![wrapper("w.W.f"), blocking("a.A.x", 200)],
            vec![Call::via(vec![ApiId(0)], ApiId(1))],
        );
        let b = app(
            vec![blocking("a.A.x", 200), wrapper("w.W.f")],
            vec![Call::via(vec![ApiId(1)], ApiId(0))],
        );
        let (ia, ib) = (ContextIndex::build(&a), ContextIndex::build(&b));
        let ca: Vec<&Call> = a.actions[0].calls().collect();
        let cb: Vec<&Call> = b.actions[0].calls().collect();
        assert_eq!(
            ia.site_fingerprint(&a, ca[0]),
            ib.site_fingerprint(&b, cb[0])
        );
    }
}

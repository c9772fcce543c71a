//! Self-time arithmetic over the program's aggregated span tree, and the
//! span-name → layer map.
//!
//! The benchmark opens its own spans (through `viewplan_obs::span`, so
//! they nest with the spans the program already records) around every
//! public call it makes. A layer's busy time is the sum of the self
//! times of its spans: a span's duration minus the part its children
//! cover.

use std::collections::BTreeMap;
use viewplan_obs::SpanNode;

/// The layers: the repository's library crates, plus the benchmark's own
/// loop (`Harness`), whose self time is what the spans do not explain.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Layer {
    Cq,
    Analyze,
    Containment,
    Core,
    Cost,
    Engine,
    Serve,
    Harness,
}

/// Which layer a span's time belongs to, by the first component of its
/// name. The program's own span families (`corecover.*`, `optimizer.*`)
/// are named after algorithms rather than crates and are mapped here.
pub fn layer_of(span: &str) -> Layer {
    match span.split('.').next().unwrap_or("") {
        "cq" => Layer::Cq,
        "analyze" => Layer::Analyze,
        "containment" => Layer::Containment,
        "core" | "corecover" | "cover" | "bucket" | "minicon" | "naive" => Layer::Core,
        "cost" | "optimizer" | "m3" => Layer::Cost,
        "engine" => Layer::Engine,
        "serve" => Layer::Serve,
        _ => Layer::Harness,
    }
}

/// Totals of one span name across every place it appears in a tree.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStat {
    pub fn mean_total_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.count as f64
        }
    }
}

/// Self time of one node: its total minus its children's totals
/// (saturating: clock granularity can make children sum a hair over).
fn self_ns(node: &SpanNode) -> u64 {
    let children: u128 = node.children.iter().map(|c| c.total.as_nanos()).sum();
    node.total.as_nanos().saturating_sub(children) as u64
}

/// Per-name totals over a forest.
pub fn by_name(roots: &[SpanNode]) -> BTreeMap<&'static str, SpanStat> {
    fn walk(node: &SpanNode, out: &mut BTreeMap<&'static str, SpanStat>) {
        let stat = out.entry(node.name).or_default();
        stat.count += node.count;
        stat.total_ns += node.total.as_nanos() as u64;
        stat.self_ns += self_ns(node);
        for child in &node.children {
            walk(child, out);
        }
    }
    let mut out = BTreeMap::new();
    for root in roots {
        walk(root, &mut out);
    }
    out
}

/// Self time per layer over a forest, in nanoseconds.
pub fn by_layer(roots: &[SpanNode]) -> BTreeMap<Layer, u64> {
    let mut out = BTreeMap::new();
    for (name, stat) in by_name(roots) {
        *out.entry(layer_of(name)).or_insert(0) += stat.self_ns;
    }
    out
}

/// The root named `name`, if the forest has one.
pub fn root<'a>(roots: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
    roots.iter().find(|n| n.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn node(name: &'static str, count: u64, us: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name,
            count,
            total: Duration::from_micros(us),
            children,
        }
    }

    /// bench.op 1000 µs
    ///   cq.parse_query 50
    ///   core.rewrite.star 900
    ///     corecover.run 880
    ///       containment.minimize 80
    ///       corecover.view_tuples 500
    ///       corecover.set_cover 200
    fn sample() -> Vec<SpanNode> {
        vec![node(
            "bench.op",
            10,
            1000,
            vec![
                node("cq.parse_query", 10, 50, vec![]),
                node(
                    "core.rewrite.star",
                    10,
                    900,
                    vec![node(
                        "corecover.run",
                        10,
                        880,
                        vec![
                            node("containment.minimize", 10, 80, vec![]),
                            node("corecover.view_tuples", 10, 500, vec![]),
                            node("corecover.set_cover", 10, 200, vec![]),
                        ],
                    )],
                ),
            ],
        )]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let stats = by_name(&sample());
        assert_eq!(stats["bench.op"].self_ns, 50_000);
        assert_eq!(stats["core.rewrite.star"].self_ns, 20_000);
        assert_eq!(stats["corecover.run"].self_ns, 100_000);
        assert_eq!(stats["corecover.view_tuples"].self_ns, 500_000);
        assert_eq!(stats["corecover.view_tuples"].total_ns, 500_000);
        assert!((stats["cq.parse_query"].mean_total_us() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn self_times_sum_to_the_root_and_split_by_layer() {
        let tree = sample();
        let total: u64 = by_name(&tree).values().map(|s| s.self_ns).sum();
        assert_eq!(total, 1_000_000);
        let layers = by_layer(&tree);
        assert_eq!(layers[&Layer::Harness], 50_000);
        assert_eq!(layers[&Layer::Cq], 50_000);
        assert_eq!(layers[&Layer::Containment], 80_000);
        assert_eq!(layers[&Layer::Core], 20_000 + 100_000 + 500_000 + 200_000);
        assert_eq!(layers.values().sum::<u64>(), 1_000_000);
    }

    #[test]
    fn a_name_under_two_parents_is_summed() {
        let tree = vec![
            node(
                "bench.op",
                1,
                100,
                vec![node("serve.request", 1, 60, vec![])],
            ),
            node("serve.request", 4, 200, vec![]),
        ];
        let stats = by_name(&tree);
        assert_eq!(stats["serve.request"].count, 5);
        assert_eq!(stats["serve.request"].total_ns, 260_000);
        assert!(root(&tree, "serve.request").is_some());
        assert!(root(&tree, "missing").is_none());
    }

    #[test]
    fn children_overshooting_the_parent_do_not_underflow() {
        let tree = vec![node(
            "bench.op",
            1,
            10,
            vec![node("cq.parse_query", 1, 11, vec![])],
        )];
        assert_eq!(by_name(&tree)["bench.op"].self_ns, 0);
    }

    #[test]
    fn span_names_map_to_layers() {
        assert_eq!(layer_of("corecover.tuple_cores"), Layer::Core);
        assert_eq!(layer_of("optimizer.enumerate"), Layer::Cost);
        assert_eq!(layer_of("engine.execute_plan"), Layer::Engine);
        assert_eq!(layer_of("containment.minimize"), Layer::Containment);
        assert_eq!(layer_of("serve.compute"), Layer::Serve);
        assert_eq!(layer_of("bench.op"), Layer::Harness);
    }
}

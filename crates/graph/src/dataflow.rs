use std::collections::HashMap;

use nsflow_trace::{ExecutionTrace, OpId};

use crate::MemoryRequirements;

/// A critical-path node together with the off-critical-path nodes attached
/// to it (nodes at the same dependency depth, i.e. the inner-loop
/// parallelism opportunity the paper's step ② exposes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelGroup {
    /// The critical-path anchor node.
    pub anchor: OpId,
    /// Nodes that may execute concurrently with the anchor.
    pub attached: Vec<OpId>,
}

/// The dataflow graph: the execution trace reshaped around its critical
/// path, with parallelism groups and memory costs.
///
/// This structure is what the two-phase DSE and the cycle-level scheduler
/// consume; it owns the underlying [`ExecutionTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowGraph {
    trace: ExecutionTrace,
    depth: Vec<usize>,
    critical_path: Vec<OpId>,
    groups: Vec<ParallelGroup>,
}

impl DataflowGraph {
    /// Builds the dataflow graph from a validated trace.
    ///
    /// The critical path is the dependency chain maximizing total
    /// arithmetic work (MACs) — the hardware-independent proxy the
    /// generator uses before a concrete `(H, W, N)` configuration exists.
    #[must_use]
    pub fn from_trace(trace: ExecutionTrace) -> Self {
        let n = trace.ops().len();

        // ① Longest-path DP over the DAG (ops are already topological).
        // dist[i] = weight(i) + max over preds; weight = MACs.
        let mut dist = vec![0u64; n];
        let mut best_pred: Vec<Option<usize>> = vec![None; n];
        for (i, op) in trace.ops().iter().enumerate() {
            let mut best = 0u64;
            let mut pred = None;
            for input in op.inputs() {
                if dist[input.index()] > best || pred.is_none() {
                    best = dist[input.index()];
                    pred = Some(input.index());
                }
            }
            dist[i] = best + op.kind().macs().max(1);
            best_pred[i] = pred;
        }
        let mut tail = (0..n).max_by_key(|&i| dist[i]).expect("trace is non-empty");
        let mut critical_rev = vec![tail];
        while let Some(p) = best_pred[tail] {
            critical_rev.push(p);
            tail = p;
        }
        critical_rev.reverse();
        let critical_path: Vec<OpId> = critical_rev.iter().map(|&i| trace.ops()[i].id()).collect();

        // ② BFS depth: longest hop count from any source.
        let mut depth = vec![0usize; n];
        for (i, op) in trace.ops().iter().enumerate() {
            depth[i] = op
                .inputs()
                .iter()
                .map(|p| depth[p.index()] + 1)
                .max()
                .unwrap_or(0);
        }

        // Attach every off-critical-path node to the critical-path node at
        // its depth (or the deepest critical node not exceeding it).
        let critical_set: std::collections::HashSet<usize> =
            critical_path.iter().map(|id| id.index()).collect();
        let mut anchor_by_depth: HashMap<usize, usize> = HashMap::new();
        for id in &critical_path {
            anchor_by_depth.insert(depth[id.index()], id.index());
        }
        let mut attached_map: HashMap<usize, Vec<OpId>> = HashMap::new();
        for (i, op) in trace.ops().iter().enumerate() {
            if critical_set.contains(&i) {
                continue;
            }
            let d = depth[i];
            // Deepest critical anchor with depth <= d; sources fall back to
            // the first critical node.
            let anchor = (0..=d)
                .rev()
                .find_map(|dd| anchor_by_depth.get(&dd).copied())
                .unwrap_or(critical_path[0].index());
            attached_map.entry(anchor).or_default().push(op.id());
        }
        let groups = critical_path
            .iter()
            .map(|id| ParallelGroup {
                anchor: *id,
                attached: attached_map.remove(&id.index()).unwrap_or_default(),
            })
            .collect();

        DataflowGraph {
            trace,
            depth,
            critical_path,
            groups,
        }
    }

    /// The underlying trace.
    #[must_use]
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Dependency depth of an op (longest hop count from a source).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph's trace.
    #[must_use]
    pub fn depth(&self, id: OpId) -> usize {
        self.depth[id.index()]
    }

    /// The critical path in execution order.
    #[must_use]
    pub fn critical_path(&self) -> &[OpId] {
        &self.critical_path
    }

    /// Parallel groups in critical-path order; every op of the trace is
    /// either an anchor or attached to exactly one anchor.
    #[must_use]
    pub fn groups(&self) -> &[ParallelGroup] {
        &self.groups
    }

    /// Total arithmetic work (MACs) on the critical path.
    #[must_use]
    pub fn critical_path_macs(&self) -> u64 {
        self.critical_path
            .iter()
            .map(|id| self.trace.op(*id).kind().macs())
            .sum()
    }

    /// The memory-planning aggregates (step ⑤).
    #[must_use]
    pub fn memory_requirements(&self) -> MemoryRequirements {
        MemoryRequirements::from_trace(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsflow_tensor::DType;
    use nsflow_trace::{Domain, EltFunc, OpKind, TraceBuilder};

    /// conv1 → conv2 → bind → sim, with a side branch bind2 parallel to
    /// conv2 (same depth, smaller work).
    fn diamond() -> DataflowGraph {
        let mut b = TraceBuilder::new("diamond");
        let c1 = b.push(
            "conv1",
            OpKind::Gemm {
                m: 1000,
                n: 64,
                k: 27,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let c2 = b.push(
            "conv2",
            OpKind::Gemm {
                m: 1000,
                n: 64,
                k: 576,
            },
            Domain::Neural,
            DType::Int8,
            &[c1],
        );
        let side = b.push(
            "bind_side",
            OpKind::VsaConv { n_vec: 1, dim: 64 },
            Domain::Symbolic,
            DType::Int4,
            &[c1],
        );
        let _join = b.push(
            "sim",
            OpKind::Similarity {
                n_vec: 4,
                dim: 1024,
            },
            Domain::Symbolic,
            DType::Int4,
            &[c2, side],
        );
        DataflowGraph::from_trace(b.finish(2).unwrap())
    }

    #[test]
    fn critical_path_takes_heavier_branch() {
        let g = diamond();
        let names: Vec<&str> = g
            .critical_path()
            .iter()
            .map(|id| g.trace().op(*id).name())
            .collect();
        assert_eq!(names, vec!["conv1", "conv2", "sim"]);
    }

    #[test]
    fn off_path_node_attached_at_its_depth() {
        let g = diamond();
        // bind_side (depth 1) attaches to conv2 (the critical node at depth 1).
        let conv2_group = g
            .groups()
            .iter()
            .find(|grp| g.trace().op(grp.anchor).name() == "conv2")
            .unwrap();
        assert_eq!(conv2_group.attached.len(), 1);
        assert_eq!(g.trace().op(conv2_group.attached[0]).name(), "bind_side");
    }

    #[test]
    fn every_op_appears_exactly_once_across_groups() {
        let g = diamond();
        let mut seen = std::collections::HashSet::new();
        for grp in g.groups() {
            assert!(seen.insert(grp.anchor));
            for id in &grp.attached {
                assert!(seen.insert(*id));
            }
        }
        assert_eq!(seen.len(), g.trace().ops().len());
    }

    #[test]
    fn depth_is_longest_hop_count() {
        let g = diamond();
        let ops = g.trace().ops();
        assert_eq!(g.depth(ops[0].id()), 0);
        assert_eq!(g.depth(ops[1].id()), 1);
        assert_eq!(g.depth(ops[2].id()), 1);
        assert_eq!(g.depth(ops[3].id()), 2);
    }

    #[test]
    fn chain_trace_critical_path_is_whole_chain() {
        let mut b = TraceBuilder::new("chain");
        let mut prev = None;
        for i in 0..5 {
            let inputs: Vec<OpId> = prev.into_iter().collect();
            prev = Some(b.push(
                format!("op{i}"),
                OpKind::Gemm {
                    m: 10,
                    n: 10,
                    k: 10,
                },
                Domain::Neural,
                DType::Int8,
                &inputs,
            ));
        }
        let g = DataflowGraph::from_trace(b.finish(1).unwrap());
        assert_eq!(g.critical_path().len(), 5);
        assert_eq!(g.critical_path_macs(), 5 * 1000);
        assert!(g.groups().iter().all(|grp| grp.attached.is_empty()));
    }

    #[test]
    fn independent_ops_attach_to_first_anchor() {
        let mut b = TraceBuilder::new("indep");
        let _a = b.push(
            "big",
            OpKind::Gemm {
                m: 100,
                n: 100,
                k: 100,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let _c = b.push(
            "small",
            OpKind::Elementwise {
                elems: 4,
                func: EltFunc::Add,
            },
            Domain::Neural,
            DType::Int8,
            &[],
        );
        let g = DataflowGraph::from_trace(b.finish(1).unwrap());
        assert_eq!(g.critical_path().len(), 1);
        assert_eq!(g.groups()[0].attached.len(), 1);
    }
}

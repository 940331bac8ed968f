//! Synthetic Raven's-Progressive-Matrices task generator.
//!
//! A task is a 3×3 matrix of panels; each panel has `attributes` discrete
//! attributes taking one of `values` values. Each attribute follows one
//! row rule sampled independently:
//!
//! - **Constant**: the attribute is identical across a row,
//! - **Progression**: the attribute increases by a fixed step per column
//!   (mod `values`),
//! - **DistributeThree**: each row is a permutation of the same three
//!   values, cyclically shifted per row (as in RAVEN).
//!
//! The bottom-right panel is withheld; `candidates` answer panels are
//! offered, one correct and the rest perturbed — either by resampling an
//! attribute (RAVEN-style, attribute-bias-prone) or by single-attribute
//! edits of the answer (I-RAVEN-style, bias-free and more confusable).

use nsflow_tensor::rng::StdRng;

/// Row rule for one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Same value across the row.
    Constant,
    /// `+step` per column, modulo the value count.
    Progression {
        /// Per-column increment (1 or 2).
        step: usize,
    },
    /// Rows are cyclic shifts of a common value triple.
    DistributeThree,
}

/// One generated task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpmTask {
    /// Number of attributes per panel.
    pub attributes: usize,
    /// Number of values per attribute.
    pub values: usize,
    /// `grid[r][c][a]` = value of attribute `a` in panel `(r, c)`;
    /// the grid includes the (hidden) answer at `[2][2]`.
    pub grid: [[Vec<usize>; 3]; 3],
    /// Rule per attribute.
    pub rules: Vec<Rule>,
    /// Candidate panels (attribute vectors).
    pub candidates: Vec<Vec<usize>>,
    /// Index of the correct candidate.
    pub answer: usize,
}

/// Candidate-generation style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateStyle {
    /// RAVEN-style: distractors resample whole attributes at random.
    Raven,
    /// I-RAVEN-style: distractors are single-attribute edits of the
    /// answer — harder to reject.
    IRaven,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskParams {
    /// Attributes per panel (RAVEN uses type/size/color ≈ 3; PGM more).
    pub attributes: usize,
    /// Values per attribute (≥ 4 so DistributeThree has room).
    pub values: usize,
    /// Number of answer candidates (8 in RAVEN/I-RAVEN/PGM).
    pub candidates: usize,
    /// Distractor style.
    pub style: CandidateStyle,
}

impl Default for TaskParams {
    fn default() -> Self {
        TaskParams {
            attributes: 3,
            values: 8,
            candidates: 8,
            style: CandidateStyle::Raven,
        }
    }
}

/// Generates one task.
///
/// # Panics
///
/// Panics if `values < 4`, `attributes == 0` or `candidates < 2`.
pub fn generate(params: &TaskParams, rng: &mut StdRng) -> RpmTask {
    assert!(params.values >= 4, "need at least 4 values");
    assert!(params.attributes > 0, "need at least one attribute");
    assert!(params.candidates >= 2, "need at least two candidates");
    let v = params.values;
    // The candidate pool must be large enough for distinct distractors.
    let pool = match params.style {
        CandidateStyle::Raven => v.pow(params.attributes as u32),
        CandidateStyle::IRaven => params.attributes * (v - 1) + 1,
    };
    assert!(
        params.candidates <= pool,
        "candidate count exceeds distractor pool {pool}"
    );

    // Sample a rule per attribute and fill the 3×3 grid.
    let mut rules = Vec::with_capacity(params.attributes);
    let mut grid: [[Vec<usize>; 3]; 3] = Default::default();
    for row in &mut grid {
        for cell in row.iter_mut() {
            *cell = vec![0; params.attributes];
        }
    }
    for a in 0..params.attributes {
        let rule = match rng.gen_range(0..3) {
            0 => Rule::Constant,
            1 => Rule::Progression {
                step: rng.gen_range(1..=2),
            },
            _ => Rule::DistributeThree,
        };
        rules.push(rule);
        match rule {
            Rule::Constant => {
                for row in &mut grid {
                    let val = rng.gen_range(0..v);
                    for cell in row.iter_mut() {
                        cell[a] = val;
                    }
                }
            }
            Rule::Progression { step } => {
                for row in &mut grid {
                    let start = rng.gen_range(0..v);
                    for (c, cell) in row.iter_mut().enumerate() {
                        cell[a] = (start + c * step) % v;
                    }
                }
            }
            Rule::DistributeThree => {
                // Three distinct values, rows are cyclic shifts.
                let mut triple = [0usize; 3];
                triple[0] = rng.gen_range(0..v);
                triple[1] = (triple[0] + 1 + rng.gen_range(0..v - 2)) % v;
                loop {
                    triple[2] = rng.gen_range(0..v);
                    if triple[2] != triple[0] && triple[2] != triple[1] {
                        break;
                    }
                }
                for (r, row) in grid.iter_mut().enumerate() {
                    for (c, cell) in row.iter_mut().enumerate() {
                        cell[a] = triple[(c + r) % 3];
                    }
                }
            }
        }
    }

    let answer_panel = grid[2][2].clone();
    // Build candidates: the answer plus perturbed distractors, all unique.
    let mut candidates: Vec<Vec<usize>> = vec![answer_panel.clone()];
    while candidates.len() < params.candidates {
        let mut distractor = answer_panel.clone();
        match params.style {
            CandidateStyle::Raven => {
                // Resample 1..=attributes attributes entirely.
                let edits = rng.gen_range(1..=params.attributes);
                for _ in 0..edits {
                    let a = rng.gen_range(0..params.attributes);
                    distractor[a] = rng.gen_range(0..v);
                }
            }
            CandidateStyle::IRaven => {
                // Exactly one attribute shifted to a different value —
                // maximally confusable while keeping the candidate pool
                // large enough (attributes × (values − 1) possibilities).
                let a = rng.gen_range(0..params.attributes);
                let delta = rng.gen_range(1..v);
                distractor[a] = (distractor[a] + delta) % v;
            }
        }
        if !candidates.contains(&distractor) {
            candidates.push(distractor);
        }
    }
    // Shuffle (Fisher–Yates) and locate the answer.
    for i in (1..candidates.len()).rev() {
        let j = rng.gen_range(0..=i);
        candidates.swap(i, j);
    }
    let answer = candidates
        .iter()
        .position(|c| *c == answer_panel)
        .expect("answer panel is always among the candidates");

    RpmTask {
        attributes: params.attributes,
        values: v,
        grid,
        rules,
        candidates,
        answer,
    }
}

impl RpmTask {
    /// The eight context panels in row-major order (excluding `[2][2]`).
    #[must_use]
    pub fn context(&self) -> Vec<&[usize]> {
        let mut out = Vec::with_capacity(8);
        for (r, row) in self.grid.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                if r == 2 && c == 2 {
                    continue;
                }
                out.push(cell.as_slice());
            }
        }
        out
    }

    /// The hidden answer panel's attribute values.
    #[must_use]
    pub fn answer_panel(&self) -> &[usize] {
        &self.grid[2][2]
    }
}

/// Infers one attribute's row rule from the two complete rows of
/// `grid` (`grid[r][c][attribute]`, the `[2][2]` cell unread) and
/// predicts the hidden panel's value: constant, then progression, then
/// distribute-three, else the bottom row's middle value (so the
/// pipeline stays total). `values` is the attribute's value count.
#[must_use]
pub fn predict_attribute(grid: &[[Vec<usize>; 3]; 3], attribute: usize, values: usize) -> usize {
    let v = values;
    let row = |r: usize, c: usize| grid[r][c][attribute];

    // Constant: both complete rows are constant.
    if row(0, 0) == row(0, 1)
        && row(0, 1) == row(0, 2)
        && row(1, 0) == row(1, 1)
        && row(1, 1) == row(1, 2)
    {
        return row(2, 0);
    }
    // Progression: consistent step within and across the two rows.
    let step0 = (row(0, 1) + v - row(0, 0)) % v;
    if step0 != 0
        && (row(0, 2) + v - row(0, 1)) % v == step0
        && (row(1, 1) + v - row(1, 0)) % v == step0
        && (row(1, 2) + v - row(1, 1)) % v == step0
    {
        return (row(2, 1) + step0) % v;
    }
    // Distribute-three: rows share a value triple.
    let mut t0 = [row(0, 0), row(0, 1), row(0, 2)];
    let mut t1 = [row(1, 0), row(1, 1), row(1, 2)];
    t0.sort_unstable();
    t1.sort_unstable();
    if t0 == t1 && t0[0] != t0[1] && t0[1] != t0[2] {
        // The missing element of the triple in row 2.
        for &cand in &t0 {
            if cand != row(2, 0) && cand != row(2, 1) {
                return cand;
            }
        }
    }
    // Fallback: copy the neighbour.
    row(2, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn generated_grid_respects_rules() {
        let mut r = rng();
        for _ in 0..50 {
            let t = generate(&TaskParams::default(), &mut r);
            for (a, rule) in t.rules.iter().enumerate() {
                for row in &t.grid {
                    match *rule {
                        Rule::Constant => {
                            assert_eq!(row[0][a], row[1][a]);
                            assert_eq!(row[1][a], row[2][a]);
                        }
                        Rule::Progression { step } => {
                            assert_eq!((row[0][a] + step) % t.values, row[1][a]);
                            assert_eq!((row[1][a] + step) % t.values, row[2][a]);
                        }
                        Rule::DistributeThree => {
                            let mut vals = [row[0][a], row[1][a], row[2][a]];
                            vals.sort_unstable();
                            assert!(vals[0] != vals[1] && vals[1] != vals[2]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distribute_three_rows_share_the_triple() {
        let mut r = rng();
        for _ in 0..50 {
            let t = generate(&TaskParams::default(), &mut r);
            for (a, rule) in t.rules.iter().enumerate() {
                if *rule == Rule::DistributeThree {
                    let row_set = |row: usize| {
                        let mut s = [t.grid[row][0][a], t.grid[row][1][a], t.grid[row][2][a]];
                        s.sort_unstable();
                        s
                    };
                    assert_eq!(row_set(0), row_set(1));
                    assert_eq!(row_set(1), row_set(2));
                }
            }
        }
    }

    #[test]
    fn answer_is_among_unique_candidates() {
        let mut r = rng();
        for _ in 0..50 {
            let t = generate(&TaskParams::default(), &mut r);
            assert_eq!(t.candidates.len(), 8);
            assert_eq!(t.candidates[t.answer], *t.answer_panel());
            let unique: std::collections::HashSet<_> = t.candidates.iter().collect();
            assert_eq!(unique.len(), t.candidates.len());
        }
    }

    #[test]
    fn context_has_eight_panels() {
        let t = generate(&TaskParams::default(), &mut rng());
        assert_eq!(t.context().len(), 8);
    }

    #[test]
    fn iraven_distractors_differ_in_one_attribute() {
        let params = TaskParams {
            style: CandidateStyle::IRaven,
            ..TaskParams::default()
        };
        let mut r = rng();
        for _ in 0..20 {
            let t = generate(&params, &mut r);
            for (i, c) in t.candidates.iter().enumerate() {
                if i == t.answer {
                    continue;
                }
                let diffs = c
                    .iter()
                    .zip(t.answer_panel())
                    .filter(|(x, y)| x != y)
                    .count();
                assert_eq!(
                    diffs, 1,
                    "I-RAVEN distractor must differ in exactly 1 attribute"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&TaskParams::default(), &mut StdRng::seed_from_u64(5));
        let b = generate(&TaskParams::default(), &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn rule_prediction_constant_progression_distribute() {
        // Hand-built decoded grid: attr0 constant 5, attr1 progression +1
        // from 2, attr2 distribute-three {1,4,6}.
        let mk = |a0: usize, a1: usize, a2: usize| vec![a0, a1, a2];
        let d: [[Vec<usize>; 3]; 3] = [
            [mk(5, 2, 1), mk(5, 3, 4), mk(5, 4, 6)],
            [mk(5, 4, 4), mk(5, 5, 6), mk(5, 6, 1)],
            [mk(5, 6, 6), mk(5, 7, 1), vec![0, 0, 0]],
        ];
        assert_eq!(predict_attribute(&d, 0, 8), 5);
        assert_eq!(predict_attribute(&d, 1, 8), 0); // (7+1) mod 8
        assert_eq!(predict_attribute(&d, 2, 8), 4); // missing from {1,4,6}
    }
}

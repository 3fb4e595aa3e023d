//! dc-stats: std-only statistics for workload subsetting (Exhibit SS).
//!
//! The source paper's follow-ups ("Characterizing and Subsetting Big
//! Data Workloads", IISWC 2014) normalize the per-workload counter
//! matrix, run PCA, and hierarchically cluster the principal-component
//! scores to pick a representative subset. This module is that
//! pipeline, self-contained and dependency-free:
//!
//! ```text
//! metric matrix → z-score → covariance → Jacobi PCA → PC scores
//!              → Euclidean distances → agglomerative clustering
//!              → medoid per cluster at K = chosen subset
//! ```
//!
//! # Float determinism
//!
//! Every consumer (the `subsetting` example, the golden tests, the
//! `subset` server verb) must render byte-identical output across
//! processes and `DCBENCH_JOBS` settings, so the whole pipeline is
//! deterministic by construction:
//!
//! * the metric matrix has a **fixed column order**
//!   ([`metric_columns`]) and rows arrive in registry order;
//! * the Jacobi eigensolver sweeps rotations in a **fixed (p, q)
//!   order** and uses only IEEE-exact primitives (`+ - * /`, `sqrt`) —
//!   no `atan2`, whose libm rounding varies across platforms;
//! * eigenpairs are sorted by descending eigenvalue (ties by original
//!   index) and **sign-canonicalized** (the component of largest
//!   magnitude is made non-negative), removing the eigenvector sign
//!   ambiguity;
//! * clustering scans candidate pairs in ascending node-id order and
//!   breaks distance ties toward the first pair scanned; medoid ties
//!   break toward the smallest row index;
//! * rendered floats go through Rust's shortest-round-trip `Display`
//!   (JSON) or fixed-precision formatting (text), both deterministic.

use dc_obs::event::{push_f64, write_json_string};
use dc_perfmon::Metrics;
use std::fmt::Write as _;

/// Cumulative-variance retention target for the PCA: keep the leading
/// components until they explain at least this fraction of the total
/// variance (the follow-up papers' 85% rule).
pub const VARIANCE_TARGET: f64 = 0.85;

/// One named column of the metric matrix: a label plus the projection
/// that reads it out of a characterized [`Metrics`] row.
pub type MetricColumn = (&'static str, fn(&Metrics) -> f64);

/// The metric-matrix columns, in fixed order: one derived metric per
/// figure of the paper (stall behavior folded into the out-of-order
/// share so the breakdown's six simplex-constrained columns do not
/// dominate the variance).
pub fn metric_columns() -> [MetricColumn; 10] {
    [
        ("ipc", |m| m.ipc),
        ("kernel", |m| m.kernel_fraction),
        ("ooo_stall", |m| m.ooo_stall_share()),
        ("l1i_mpki", |m| m.l1i_mpki),
        ("itlb_pki", |m| m.itlb_walk_pki),
        ("l2_mpki", |m| m.l2_mpki),
        ("l3_mpki", |m| m.l3_mpki),
        ("l3_hit", |m| m.l3_hit_ratio),
        ("dtlb_pki", |m| m.dtlb_walk_pki),
        ("br_misp", |m| m.branch_misprediction),
    ]
}

/// The workloads × metrics matrix in [`metric_columns`] order.
pub fn metric_matrix(rows: &[Metrics]) -> Vec<Vec<f64>> {
    rows.iter()
        .map(|m| metric_columns().iter().map(|(_, f)| f(m)).collect())
        .collect()
}

/// Z-score each column: subtract the column mean, divide by the sample
/// standard deviation (n−1). A constant column (zero variance) maps to
/// zeros rather than NaN, so degenerate metrics drop out of the
/// distance geometry instead of poisoning it.
pub fn zscore(matrix: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = matrix.len();
    if n < 2 {
        return matrix.iter().map(|r| vec![0.0; r.len()]).collect();
    }
    let cols = matrix[0].len();
    let mut out = vec![vec![0.0; cols]; n];
    for j in 0..cols {
        let mean = matrix.iter().map(|r| r[j]).sum::<f64>() / n as f64;
        let var = matrix
            .iter()
            .map(|r| (r[j] - mean) * (r[j] - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        if var > 0.0 {
            let std = var.sqrt();
            for (i, row) in matrix.iter().enumerate() {
                out[i][j] = (row[j] - mean) / std;
            }
        }
    }
    out
}

/// Sample covariance (n−1 denominator) of an already-centered matrix.
/// For a z-scored input this is the correlation matrix.
pub fn covariance(z: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = z.len();
    assert!(n >= 2, "covariance needs at least two rows");
    let cols = z[0].len();
    let mut cov = vec![vec![0.0; cols]; cols];
    for j in 0..cols {
        for k in j..cols {
            let s = z.iter().map(|r| r[j] * r[k]).sum::<f64>() / (n - 1) as f64;
            cov[j][k] = s;
            cov[k][j] = s;
        }
    }
    cov
}

/// An eigendecomposition of a symmetric matrix: `values[i]` belongs to
/// the unit eigenvector `vectors[i]`.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues, sorted descending (ties keep original order).
    pub values: Vec<f64>,
    /// Unit eigenvectors, row per eigenvalue, sign-canonicalized so the
    /// component of largest magnitude is non-negative.
    pub vectors: Vec<Vec<f64>>,
}

/// Flip `v` so its largest-magnitude component (first on ties) is
/// non-negative — the sign canonicalization that makes eigenvectors,
/// and everything rendered from them, byte-stable.
fn canonicalize_sign(v: &mut [f64]) {
    let mut best = 0usize;
    for (i, x) in v.iter().enumerate() {
        if x.abs() > v[best].abs() {
            best = i;
        }
    }
    if v[best] < 0.0 {
        for x in v.iter_mut() {
            *x = -*x;
        }
    }
}

/// Eigendecomposition of a symmetric matrix by the cyclic Jacobi
/// method: sweep every (p, q) pair in fixed ascending order, rotating
/// the off-diagonal element to zero, until the off-diagonal norm is
/// negligible. Only `+ - * /` and `sqrt` are used (all IEEE
/// correctly-rounded), so results are bit-identical across platforms.
pub fn jacobi_eigen(matrix: &[Vec<f64>]) -> Eigen {
    let n = matrix.len();
    assert!(n > 0, "eigendecomposition of an empty matrix");
    for (i, row) in matrix.iter().enumerate() {
        assert_eq!(row.len(), n, "matrix must be square");
        for (j, x) in row.iter().enumerate() {
            let diff = (x - matrix[j][i]).abs();
            assert!(
                diff <= 1e-9 * (1.0 + x.abs()),
                "matrix must be symmetric (a[{i}][{j}] != a[{j}][{i}])"
            );
        }
    }
    let mut a: Vec<Vec<f64>> = matrix.to_vec();
    let mut v = vec![vec![0.0; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    let scale = a
        .iter()
        .flat_map(|r| r.iter())
        .fold(0.0f64, |acc, x| acc.max(x.abs()))
        .max(1e-300);
    for _sweep in 0..64 {
        let off: f64 = (0..n)
            .flat_map(|p| ((p + 1)..n).map(move |q| (p, q)))
            .map(|(p, q)| a[p][q] * a[p][q])
            .sum();
        if off.sqrt() <= 1e-14 * scale {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p][q];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                // tan of the annihilating rotation, via the stable
                // closed form (no trig calls).
                let theta = (a[q][q] - a[p][p]) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (theta * theta + 1.0).sqrt())
                } else {
                    1.0 / (theta - (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for row in a.iter_mut() {
                    let (rp, rq) = (row[p], row[q]);
                    row[p] = c * rp - s * rq;
                    row[q] = s * rp + c * rq;
                }
                // Rows p and q update in lockstep; indexing keeps the
                // paired reads symmetrical with the column loop above.
                #[allow(clippy::needless_range_loop)]
                for k in 0..n {
                    let (pk, qk) = (a[p][k], a[q][k]);
                    a[p][k] = c * pk - s * qk;
                    a[q][k] = s * pk + c * qk;
                }
                for row in v.iter_mut() {
                    let (rp, rq) = (row[p], row[q]);
                    row[p] = c * rp - s * rq;
                    row[q] = s * rp + c * rq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    // Descending eigenvalue; ties keep ascending index (stable sort).
    order.sort_by(|&i, &j| a[j][j].partial_cmp(&a[i][i]).expect("finite eigenvalues"));
    let values: Vec<f64> = order.iter().map(|&i| a[i][i]).collect();
    let vectors: Vec<Vec<f64>> = order
        .iter()
        .map(|&i| {
            let mut col: Vec<f64> = v.iter().map(|row| row[i]).collect();
            canonicalize_sign(&mut col);
            col
        })
        .collect();
    Eigen { values, vectors }
}

/// A fitted PCA of a metric matrix: the z-scored data, the
/// eigenstructure of its correlation matrix, and the PC scores of the
/// components retained to reach [`VARIANCE_TARGET`].
#[derive(Debug, Clone)]
pub struct Pca {
    /// Eigenvalues of the correlation matrix, descending, clamped at 0
    /// (Jacobi rounding can leave −1e−17-scale values on rank-deficient
    /// input).
    pub eigenvalues: Vec<f64>,
    /// Principal axes: `components[c][j]` is the loading of metric
    /// column `j` on component `c`.
    pub components: Vec<Vec<f64>>,
    /// Per-component share of the total variance, descending, summing
    /// to 1 (all zeros if the matrix is constant).
    pub variance_fraction: Vec<f64>,
    /// Components kept: the smallest prefix whose cumulative variance
    /// share reaches the target (0 only for a constant matrix).
    pub retained: usize,
    /// PC scores of each input row over the retained components.
    pub scores: Vec<Vec<f64>>,
}

impl Pca {
    /// Fit a PCA to `matrix` (rows = workloads, columns = metrics):
    /// z-score, eigendecompose the correlation matrix, and retain the
    /// leading components reaching `target` cumulative variance.
    pub fn fit(matrix: &[Vec<f64>], target: f64) -> Pca {
        assert!(matrix.len() >= 2, "PCA needs at least two rows");
        assert!(!matrix[0].is_empty(), "PCA needs at least one column");
        let z = zscore(matrix);
        let eigen = jacobi_eigen(&covariance(&z));
        let eigenvalues: Vec<f64> = eigen.values.iter().map(|&v| v.max(0.0)).collect();
        let total: f64 = eigenvalues.iter().sum();
        let variance_fraction: Vec<f64> = if total > 0.0 {
            eigenvalues.iter().map(|&v| v / total).collect()
        } else {
            vec![0.0; eigenvalues.len()]
        };
        let mut retained = 0usize;
        if total > 0.0 {
            let mut cum = 0.0;
            for &f in &variance_fraction {
                retained += 1;
                cum += f;
                if cum >= target {
                    break;
                }
            }
        }
        let scores = z
            .iter()
            .map(|row| {
                eigen.vectors[..retained]
                    .iter()
                    .map(|axis| row.iter().zip(axis).map(|(x, w)| x * w).sum())
                    .collect()
            })
            .collect();
        Pca {
            eigenvalues,
            components: eigen.vectors,
            variance_fraction,
            retained,
            scores,
        }
    }

    /// Cumulative variance share of the first `k` components.
    pub fn cumulative(&self, k: usize) -> f64 {
        self.variance_fraction[..k].iter().sum()
    }
}

/// Pairwise Euclidean distances between score rows (columns summed in
/// fixed order; `d[i][j] == d[j][i]`, zero diagonal).
pub fn score_distances(scores: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = scores.len();
    let mut d = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let s: f64 = scores[i]
                .iter()
                .zip(&scores[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            let dist = s.sqrt();
            d[i][j] = dist;
            d[j][i] = dist;
        }
    }
    d
}

/// How the distance between two merged clusters is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Nearest members (chaining-prone, fine-grained).
    Single,
    /// Farthest members (compact clusters).
    Complete,
    /// Unweighted average over member pairs (UPGMA).
    Average,
}

impl Linkage {
    /// All linkages, in wire-name order.
    pub const ALL: [Linkage; 3] = [Linkage::Single, Linkage::Complete, Linkage::Average];

    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Linkage::Single => "single",
            Linkage::Complete => "complete",
            Linkage::Average => "average",
        }
    }

    /// Inverse of [`Linkage::as_str`].
    pub fn from_name(name: &str) -> Option<Linkage> {
        Linkage::ALL.into_iter().find(|l| l.as_str() == name)
    }

    /// Lance–Williams update: distance from the merge of clusters with
    /// `size_a`/`size_b` members (at distances `da`/`db` from some
    /// other cluster) to that other cluster.
    fn merge_distance(self, da: f64, db: f64, size_a: usize, size_b: usize) -> f64 {
        match self {
            Linkage::Single => da.min(db),
            Linkage::Complete => da.max(db),
            Linkage::Average => {
                (size_a as f64 * da + size_b as f64 * db) / (size_a + size_b) as f64
            }
        }
    }
}

/// One agglomeration step: nodes `left` and `right` merge at `height`
/// into a cluster of `size` leaves. Leaves are nodes `0..n`; merge `m`
/// creates node `n + m`.
#[derive(Debug, Clone, PartialEq)]
pub struct Merge {
    /// Smaller-id merged node.
    pub left: usize,
    /// Larger-id merged node.
    pub right: usize,
    /// Linkage distance at which the merge happened. Monotone
    /// non-decreasing over the merge sequence for all three linkages.
    pub height: f64,
    /// Leaves under the new node.
    pub size: usize,
}

/// The full merge tree of an agglomerative clustering run.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    /// Number of leaves.
    pub n: usize,
    /// The `n − 1` merges, in agglomeration order.
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// Cut the tree into `k` clusters: apply the first `n − k` merges.
    /// Each cluster is its sorted leaf indices; clusters are ordered by
    /// their smallest member.
    pub fn cut(&self, k: usize) -> Vec<Vec<usize>> {
        assert!(k >= 1 && k <= self.n, "k must be in [1, {}]", self.n);
        let mut groups: Vec<(usize, Vec<usize>)> = (0..self.n).map(|i| (i, vec![i])).collect();
        for (m, merge) in self.merges.iter().take(self.n - k).enumerate() {
            let right_at = groups.iter().position(|(id, _)| *id == merge.right);
            let (_, right) = groups.remove(right_at.expect("right node is live"));
            let left_at = groups.iter().position(|(id, _)| *id == merge.left);
            let entry = &mut groups[left_at.expect("left node is live")];
            entry.0 = self.n + m;
            entry.1.extend(right);
            entry.1.sort_unstable();
        }
        let mut out: Vec<Vec<usize>> = groups.into_iter().map(|(_, g)| g).collect();
        out.sort_by_key(|g| g[0]);
        out
    }
}

/// Agglomerative hierarchical clustering over a symmetric distance
/// matrix. At every step the globally closest active pair merges;
/// candidate pairs are scanned in ascending node-id order and ties
/// break toward the first pair scanned, so the merge sequence is a
/// deterministic function of the distances.
pub fn cluster(dist: &[Vec<f64>], linkage: Linkage) -> Dendrogram {
    let n = dist.len();
    assert!(n >= 1, "clustering needs at least one row");
    // Active clusters in ascending node-id order: (node id, leaf count,
    // distances to every *other* active cluster by its position).
    struct Active {
        id: usize,
        size: usize,
        d: Vec<f64>,
    }
    let mut active: Vec<Active> = (0..n)
        .map(|i| Active {
            id: i,
            size: 1,
            d: dist[i].clone(),
        })
        .collect();
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    for m in 0..n.saturating_sub(1) {
        let (mut bi, mut bj, mut best) = (0usize, 1usize, f64::INFINITY);
        for i in 0..active.len() {
            for j in (i + 1)..active.len() {
                if active[i].d[j] < best {
                    (bi, bj, best) = (i, j, active[i].d[j]);
                }
            }
        }
        let new_id = n + m;
        let (size_a, size_b) = (active[bi].size, active[bj].size);
        let merged_d: Vec<f64> = (0..active.len())
            .map(|k| linkage.merge_distance(active[k].d[bi], active[k].d[bj], size_a, size_b))
            .collect();
        merges.push(Merge {
            left: active[bi].id,
            right: active[bj].id,
            height: best,
            size: size_a + size_b,
        });
        // Drop the larger position first so the smaller stays valid,
        // then append the merged cluster (ids only ever grow, keeping
        // the ascending scan order).
        let mut d = merged_d;
        d.remove(bj);
        d.remove(bi);
        d.push(0.0);
        active.remove(bj);
        active.remove(bi);
        for (k, row) in active.iter_mut().enumerate() {
            row.d.remove(bj);
            row.d.remove(bi);
            row.d.push(d[k]);
        }
        active.push(Active {
            id: new_id,
            size: size_a + size_b,
            d,
        });
    }
    Dendrogram { n, merges }
}

/// The medoid of `members`: the member minimizing its summed distance
/// to the others (ties toward the smallest index; `members` is sorted).
pub fn medoid(members: &[usize], dist: &[Vec<f64>]) -> usize {
    assert!(!members.is_empty(), "medoid of an empty cluster");
    let (mut best, mut best_sum) = (members[0], f64::INFINITY);
    for &i in members {
        let sum: f64 = members.iter().map(|&j| dist[i][j]).sum();
        if sum < best_sum {
            (best, best_sum) = (i, sum);
        }
    }
    best
}

/// One cluster of the chosen cut: its sorted member rows and the
/// representative medoid.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCluster {
    /// Sorted leaf indices into the label/matrix rows.
    pub members: Vec<usize>,
    /// The representative member (index into the same rows).
    pub medoid: usize,
}

/// The full Exhibit SS result: PCA, merge tree, and the K-cluster cut
/// with one representative workload per cluster.
#[derive(Debug, Clone)]
pub struct Subset {
    /// Row labels (workload names, registry order).
    pub labels: Vec<String>,
    /// Chosen cluster count.
    pub k: usize,
    /// Linkage the tree was built with.
    pub linkage: Linkage,
    /// The fitted PCA.
    pub pca: Pca,
    /// Pairwise PC-score distances (what the tree and medoids use).
    pub distances: Vec<Vec<f64>>,
    /// The full merge tree.
    pub dendrogram: Dendrogram,
    /// The K clusters, ordered by smallest member.
    pub clusters: Vec<WorkloadCluster>,
}

/// Run the whole pipeline: z-score `matrix`, PCA to
/// [`VARIANCE_TARGET`], cluster the PC scores under `linkage`, cut at
/// `k`, and pick each cluster's medoid.
pub fn subset(labels: Vec<String>, matrix: &[Vec<f64>], k: usize, linkage: Linkage) -> Subset {
    let n = labels.len();
    assert_eq!(n, matrix.len(), "one label per matrix row");
    assert!(n >= 2, "subsetting needs at least two workloads");
    assert!(k >= 1 && k <= n, "k must be in [1, {n}]");
    let pca = Pca::fit(matrix, VARIANCE_TARGET);
    let distances = score_distances(&pca.scores);
    let dendrogram = cluster(&distances, linkage);
    let clusters = dendrogram
        .cut(k)
        .into_iter()
        .map(|members| {
            let medoid = medoid(&members, &distances);
            WorkloadCluster { members, medoid }
        })
        .collect();
    Subset {
        labels,
        k,
        linkage,
        pca,
        distances,
        dendrogram,
        clusters,
    }
}

impl Subset {
    /// The chosen representative workloads (medoid labels, cluster
    /// order).
    pub fn chosen(&self) -> Vec<&str> {
        self.clusters
            .iter()
            .map(|c| self.labels[c.medoid].as_str())
            .collect()
    }

    /// Render Exhibit SS as text: the PC variance table (with a
    /// sparkline over the variance shares), the ASCII distance
    /// dendrogram, and the chosen subset with per-cluster membership.
    /// Fixed-precision formatting on deterministic values — the bytes
    /// are identical across processes and worker counts.
    pub fn render_text(&self, window: &str, seed: u64) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(
            out,
            "Exhibit SS — PCA + hierarchical subsetting of the data-analysis workloads"
        );
        let _ = writeln!(
            out,
            "window {window}, seed {seed}, linkage {}, K = {}",
            self.linkage.as_str(),
            self.k
        );
        let cols = metric_columns().len();
        let _ = writeln!(
            out,
            "\nPrincipal components of the z-scored {}x{cols} metric matrix",
            self.labels.len()
        );
        let _ = writeln!(
            out,
            "  {:>4} {:>12} {:>11} {:>11}",
            "PC", "eigenvalue", "var share", "cumulative"
        );
        let mut cum = 0.0;
        for (i, (&val, &frac)) in self
            .pca
            .eigenvalues
            .iter()
            .zip(&self.pca.variance_fraction)
            .enumerate()
        {
            cum += frac;
            let _ = writeln!(out, "  {:>4} {val:>12.4} {frac:>11.4} {cum:>11.4}", i + 1);
        }
        let per_mille: Vec<u64> = self
            .pca
            .variance_fraction
            .iter()
            .map(|f| (f * 1000.0).round() as u64)
            .collect();
        let _ = writeln!(
            out,
            "  var share  |{}|",
            dc_obs::metrics::sparkline(&per_mille, per_mille.len())
        );
        let _ = writeln!(
            out,
            "  retained {} of {} components (cumulative variance {:.4} >= {VARIANCE_TARGET})",
            self.pca.retained,
            self.pca.eigenvalues.len(),
            self.pca.cumulative(self.pca.retained),
        );
        let _ = writeln!(
            out,
            "\nDistance dendrogram ({} linkage over {}-dim PC scores)",
            self.linkage.as_str(),
            self.pca.retained
        );
        self.render_tree(&mut out);
        let _ = writeln!(
            out,
            "\nChosen subset (medoid of each of the {} clusters)",
            self.k
        );
        for (c, cl) in self.clusters.iter().enumerate() {
            let members: Vec<&str> = cl
                .members
                .iter()
                .map(|&i| self.labels[i].as_str())
                .collect();
            let _ = writeln!(
                out,
                "  cluster {}: medoid {} — members {}",
                c + 1,
                self.labels[cl.medoid],
                members.join(", ")
            );
        }
        let _ = writeln!(out, "  subset: {}", self.chosen().join(", "));
        out
    }

    /// Render the merge tree as an ASCII dendrogram (internal nodes
    /// labelled with their merge height, leaves with their workload).
    fn render_tree(&self, out: &mut String) {
        let root = self.dendrogram.n + self.dendrogram.merges.len() - 1;
        self.render_node(out, root, "", "└─ ", "   ");
    }

    fn render_node(&self, out: &mut String, node: usize, pad: &str, tee: &str, cont: &str) {
        let n = self.dendrogram.n;
        if node < n {
            let _ = writeln!(out, "{pad}{tee}{}", self.labels[node]);
            return;
        }
        let merge = &self.dendrogram.merges[node - n];
        let _ = writeln!(out, "{pad}{tee}{:.4}", merge.height);
        let child_pad = format!("{pad}{cont}");
        self.render_node(out, merge.left, &child_pad, "├─ ", "│  ");
        self.render_node(out, merge.right, &child_pad, "└─ ", "   ");
    }

    /// Render the canonical JSON result object — the byte-deterministic
    /// payload the `subsetting --jsonl` artifact stores and the
    /// `subset` server verb returns as `result.output`. Floats use
    /// shortest-round-trip rendering ([`push_f64`]).
    pub fn to_json(&self, window: &str, seed: u64) -> String {
        let mut out = String::with_capacity(2048);
        let _ = write!(
            out,
            "{{\"kind\":\"subset\",\"window\":\"{window}\",\"seed\":{seed},\"k\":{},\"linkage\":\"{}\"",
            self.k,
            self.linkage.as_str()
        );
        out.push_str(",\"entries\":[");
        for (i, label) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, label);
        }
        out.push_str("],\"metrics\":[");
        for (i, (name, _)) in metric_columns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\"");
        }
        out.push_str("],\"eigenvalues\":[");
        for (i, v) in self.pca.eigenvalues.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_f64(&mut out, *v);
        }
        out.push_str("],\"variance_fraction\":[");
        for (i, v) in self.pca.variance_fraction.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_f64(&mut out, *v);
        }
        let _ = write!(out, "],\"retained\":{},\"merges\":[", self.pca.retained);
        for (i, m) in self.dendrogram.merges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"left\":{},\"right\":{},\"height\":",
                m.left, m.right
            );
            push_f64(&mut out, m.height);
            let _ = write!(out, ",\"size\":{}}}", m.size);
        }
        out.push_str("],\"clusters\":[");
        for (i, c) in self.clusters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"medoid\":");
            write_json_string(&mut out, &self.labels[c.medoid]);
            out.push_str(",\"members\":[");
            for (j, &m) in c.members.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_json_string(&mut out, &self.labels[m]);
            }
            out.push_str("]}");
        }
        out.push_str("],\"subset\":[");
        for (i, name) in self.chosen().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, name);
        }
        out.push_str("]}");
        out
    }
}

/// [`subset`] over characterized metric rows: labels from the row
/// names, matrix from [`metric_matrix`]. The shared entry point of
/// `report::subset_exhibit` and the server's `subset` verb, so both
/// render byte-identical exhibits from the same cached rows.
pub fn subset_of_metrics(rows: &[Metrics], k: usize, linkage: Linkage) -> Subset {
    let labels = rows.iter().map(|m| m.name.clone()).collect();
    subset(labels, &metric_matrix(rows), k, linkage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn zscore_centers_and_scales() {
        let m = vec![vec![1.0, 5.0], vec![3.0, 5.0], vec![5.0, 5.0]];
        let z = zscore(&m);
        // Column 0: mean 3, sample std 2.
        assert!(approx(z[0][0], -1.0, 1e-12));
        assert!(approx(z[1][0], 0.0, 1e-12));
        assert!(approx(z[2][0], 1.0, 1e-12));
        // Constant column maps to zeros, not NaN.
        assert!(z.iter().all(|r| r[1] == 0.0));
    }

    #[test]
    fn jacobi_solves_a_known_3x3() {
        // Block diagonal: [[2,1],[1,2]] (eigenvalues 3, 1 with vectors
        // [1,1]/√2 and [1,−1]/√2) plus a lone 5.
        let a = vec![
            vec![2.0, 1.0, 0.0],
            vec![1.0, 2.0, 0.0],
            vec![0.0, 0.0, 5.0],
        ];
        let eig = jacobi_eigen(&a);
        assert!(approx(eig.values[0], 5.0, 1e-10));
        assert!(approx(eig.values[1], 3.0, 1e-10));
        assert!(approx(eig.values[2], 1.0, 1e-10));
        let r = 1.0 / 2.0f64.sqrt();
        for (got, want) in [
            (&eig.vectors[0], [0.0, 0.0, 1.0]),
            (&eig.vectors[1], [r, r, 0.0]),
            (&eig.vectors[2], [r, -r, 0.0]),
        ] {
            for (g, w) in got.iter().zip(want) {
                assert!(approx(*g, w, 1e-10), "vector {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn sign_canonicalization_prefers_first_on_ties() {
        let mut v = [-0.5, 0.5];
        canonicalize_sign(&mut v);
        // Largest magnitude is a tie; the first (negative) wins and the
        // vector flips.
        assert_eq!(v, [0.5, -0.5]);
    }

    #[test]
    fn pca_of_a_rank_one_matrix() {
        // Second column is constant: all variance lives on one axis.
        let m = vec![
            vec![1.0, 7.0],
            vec![-1.0, 7.0],
            vec![2.0, 7.0],
            vec![-2.0, 7.0],
        ];
        let pca = Pca::fit(&m, VARIANCE_TARGET);
        assert!(approx(pca.eigenvalues[0], 1.0, 1e-12));
        assert!(approx(pca.eigenvalues[1], 0.0, 1e-12));
        assert_eq!(pca.retained, 1);
        assert!(approx(pca.variance_fraction[0], 1.0, 1e-12));
        // Scores are the z-scored first column (axis [1, 0]).
        let z = zscore(&m);
        for (s, zr) in pca.scores.iter().zip(&z) {
            assert_eq!(s.len(), 1);
            assert!(approx(s[0], zr[0], 1e-12));
        }
    }

    #[test]
    fn clustering_merges_closest_first_and_cuts() {
        // Three points on a line: 0 and 1 are closest, 2 is far.
        let d = score_distances(&[vec![0.0], vec![1.0], vec![10.0]]);
        for linkage in Linkage::ALL {
            let tree = cluster(&d, linkage);
            assert_eq!(tree.merges.len(), 2);
            assert_eq!((tree.merges[0].left, tree.merges[0].right), (0, 1));
            assert!(approx(tree.merges[0].height, 1.0, 1e-12));
            assert_eq!(tree.cut(2), vec![vec![0, 1], vec![2]]);
            assert_eq!(tree.cut(1), vec![vec![0, 1, 2]]);
            assert_eq!(tree.cut(3), vec![vec![0], vec![1], vec![2]]);
        }
    }

    #[test]
    fn linkages_differ_on_elongated_clusters() {
        // Chain 0—1—2 with a point 3 far away: single linkage sees the
        // chain as one tight cluster, complete penalizes its span.
        let d = score_distances(&[vec![0.0], vec![1.0], vec![2.0], vec![10.0]]);
        let single = cluster(&d, Linkage::Single);
        let complete = cluster(&d, Linkage::Complete);
        // Heights after merging {0,1} with {2}: single 1, complete 2.
        assert!(approx(single.merges[1].height, 1.0, 1e-12));
        assert!(approx(complete.merges[1].height, 2.0, 1e-12));
    }

    #[test]
    fn medoid_minimizes_total_distance() {
        let d = score_distances(&[vec![0.0], vec![1.0], vec![1.5]]);
        assert_eq!(medoid(&[0, 1, 2], &d), 1);
        assert_eq!(medoid(&[2], &d), 2);
    }

    #[test]
    fn subset_pipeline_shapes_and_chosen_members() {
        let labels: Vec<String> = (0..5).map(|i| format!("w{i}")).collect();
        // Two tight groups and a loner.
        let m = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
            vec![-9.0, 9.0],
        ];
        let sub = subset(labels, &m, 3, Linkage::Average);
        assert_eq!(sub.clusters.len(), 3);
        let all: Vec<usize> = sub
            .clusters
            .iter()
            .flat_map(|c| c.members.iter().copied())
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "clusters partition the rows");
        for c in &sub.clusters {
            assert!(c.members.contains(&c.medoid), "medoid is a member");
        }
        let text = sub.render_text("quick", 2013);
        assert!(text.contains("Exhibit SS"));
        assert!(text.contains("subset:"));
        let json = sub.to_json("quick", 2013);
        assert!(json.starts_with("{\"kind\":\"subset\",\"window\":\"quick\""));
        assert!(json.contains("\"clusters\":["));
    }
}

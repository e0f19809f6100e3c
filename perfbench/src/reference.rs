//! Computations made apart from the program, from the definitions, that
//! every pass's outputs are checked against. Nothing here calls the
//! program's kernels.

use mdtask::math::{DistanceMatrix, Frame, Vec3};
use mdtask::sim::Trajectory;

/// Squared distance at the coordinates' own (f32) precision, summed in
/// the same order as the program, so results agree to the last bits.
fn dist2(p: Vec3, q: Vec3) -> f32 {
    let (dx, dy, dz) = (p.x - q.x, p.y - q.y, p.z - q.z);
    dx * dx + dy * dy + dz * dz
}

/// RMSD without superposition: the root of the mean squared per-atom
/// displacement.
fn rmsd(a: &Frame, b: &Frame) -> f64 {
    let (pa, pb) = (a.positions(), b.positions());
    let sum: f64 = pa.iter().zip(pb).map(|(&p, &q)| dist2(p, q) as f64).sum();
    (sum / pa.len() as f64).sqrt()
}

/// `max over a in A of min over b in B of rmsd(a, b)`.
fn directed(a: &[Frame], b: &[Frame]) -> f64 {
    a.iter()
        .map(|fa| {
            b.iter()
                .map(|fb| rmsd(fa, fb))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0, f64::max)
}

/// The all-pairs Hausdorff matrix of an ensemble, row-major.
pub fn psa_matrix(ensemble: &[Trajectory]) -> Vec<f64> {
    let n = ensemble.len();
    let mut d = vec![0.0; n * n];
    for i in 0..n {
        for j in i + 1..n {
            let (a, b) = (&ensemble[i].frames, &ensemble[j].frames);
            let h = directed(a, b).max(directed(b, a));
            d[i * n + j] = h;
            d[j * n + i] = h;
        }
    }
    d
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(f64::MIN_POSITIVE)
}

/// A PSA matrix must equal the reference within 1e-9 relative, be
/// symmetric, have a zero diagonal and satisfy the triangle inequality.
pub fn check_psa(got: &DistanceMatrix, want: &[f64]) -> Result<(), String> {
    let n = got.rows();
    if got.cols() != n || want.len() != n * n {
        return Err(format!(
            "matrix is {}x{}, want {n}x{n}",
            got.rows(),
            got.cols()
        ));
    }
    for i in 0..n {
        if got.get(i, i) != 0.0 {
            return Err(format!("d[{i}][{i}] = {} != 0", got.get(i, i)));
        }
        for j in 0..n {
            let g = got.get(i, j);
            if !close(g, want[i * n + j]) {
                return Err(format!("d[{i}][{j}] = {g}, reference {}", want[i * n + j]));
            }
            if !close(g, got.get(j, i)) {
                return Err(format!(
                    "d[{i}][{j}] = {g} != d[{j}][{i}] = {}",
                    got.get(j, i)
                ));
            }
            for k in 0..n {
                let via = g + got.get(j, k);
                if got.get(i, k) > via + 1e-9 * via {
                    return Err(format!("d[{i}][{k}] > d[{i}][{j}] + d[{j}][{k}]"));
                }
            }
        }
    }
    Ok(())
}

/// What the Leaflet Finder must report for a bilayer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Leaflets {
    pub edges: u64,
    pub components: usize,
    /// The two largest components, largest first.
    pub sizes: [usize; 2],
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// Brute-force scan of every atom pair within `cutoff`, then union-find
/// over the edges; components are counted among atoms with an edge.
pub fn leaflets(positions: &[Vec3], cutoff: f32) -> Leaflets {
    let n = positions.len();
    let c2 = cutoff * cutoff;
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut linked = vec![false; n];
    let mut edges = 0u64;
    for i in 0..n {
        for j in i + 1..n {
            if dist2(positions[i], positions[j]) <= c2 {
                edges += 1;
                linked[i] = true;
                linked[j] = true;
                let (ri, rj) = (find(&mut parent, i as u32), find(&mut parent, j as u32));
                parent[ri.max(rj) as usize] = ri.min(rj);
            }
        }
    }
    let mut size = vec![0usize; n];
    for i in (0..n).filter(|&i| linked[i]) {
        size[find(&mut parent, i as u32) as usize] += 1;
    }
    let mut sizes: Vec<usize> = size.into_iter().filter(|&s| s > 0).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    Leaflets {
        edges,
        components: sizes.len(),
        sizes: [
            sizes.first().copied().unwrap_or(0),
            sizes.get(1).copied().unwrap_or(0),
        ],
    }
}

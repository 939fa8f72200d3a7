//! Functional grid math: initialization, Jacobi sweeps (2D5pt / 3D7pt),
//! sequential reference solvers, gather and comparison utilities.
//!
//! Every sweep uses the *identical* floating-point expression — in the same
//! association order — so a multi-GPU run is bitwise-equal to the
//! single-array reference regardless of execution interleaving (Jacobi
//! updates read only the previous generation).

use gpu_sim::Buf;
use std::f64::consts::PI;

/// The 2D5pt update for one point, shared by kernels and reference.
#[inline(always)]
fn update2d(up: f64, down: f64, left: f64, right: f64) -> f64 {
    ((up + down) + (left + right)) * 0.25
}

/// The 3D7pt update for one point, shared by kernels and reference.
#[inline(always)]
fn update3d(zm: f64, zp: f64, ym: f64, yp: f64, xm: f64, xp: f64) -> f64 {
    ((zm + zp) + ((ym + yp) + (xm + xp))) * (1.0 / 6.0)
}

/// Initial condition of the 2D Laplace problem: top edge follows a sine
/// profile, the other edges and the interior are zero.
pub fn init2d(nx: usize, ny: usize) -> Vec<f64> {
    let mut g = vec![0.0; nx * ny];
    init2d_rows(nx, 0, &mut g);
    g
}

/// Rows `first..` of [`init2d`], written over all of `out` (a whole number
/// of rows).
pub fn init2d_rows(nx: usize, first: usize, out: &mut [f64]) {
    out.fill(0.0);
    if first == 0 {
        for (x, v) in out[..nx].iter_mut().enumerate() {
            *v = (PI * x as f64 / (nx - 1) as f64).sin();
        }
    }
}

/// Initial condition of the 3D Laplace problem: the z=0 face follows a 2D
/// sine product, everything else is zero.
pub fn init3d(nx: usize, ny: usize, nz: usize) -> Vec<f64> {
    let mut g = vec![0.0; nx * ny * nz];
    init3d_planes(nx, ny, 0, &mut g);
    g
}

/// Planes `first..` of [`init3d`], written over all of `out` (a whole
/// number of planes).
pub fn init3d_planes(nx: usize, ny: usize, first: usize, out: &mut [f64]) {
    out.fill(0.0);
    if first == 0 {
        for (y, row) in out[..nx * ny].chunks_exact_mut(nx).enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = (PI * x as f64 / (nx - 1) as f64).sin()
                    * (PI * y as f64 / (ny - 1) as f64).sin();
            }
        }
    }
}

/// Sweep rows `rows.0 ..= rows.1` (slice-local indices) of a 2D row-major
/// grid with row stride `nx`: `dst` gets the 5-point update of `src`.
/// Columns 0 and nx-1 are left untouched (fixed boundary).
///
/// Each row's four neighbours are sliced to the interior length once and
/// walked in lockstep, so the inner loop carries no bounds checks.
pub fn sweep2d_rows(src: &[f64], dst: &mut [f64], nx: usize, rows: (usize, usize)) {
    let (lo, hi) = rows;
    if hi < lo {
        return;
    }
    debug_assert!(lo >= 1 && (hi + 2) * nx <= src.len());
    let n = nx - 2;
    for (r, row) in (lo..).zip(dst[lo * nx..(hi + 1) * nx].chunks_exact_mut(nx)) {
        let up = &src[(r - 1) * nx + 1..][..n];
        let down = &src[(r + 1) * nx + 1..][..n];
        let left = &src[r * nx..][..n];
        let right = &src[r * nx + 2..][..n];
        let out = &mut row[1..][..n];
        for ((((o, &u), &d), &l), &rt) in out.iter_mut().zip(up).zip(down).zip(left).zip(right) {
            *o = update2d(u, d, l, rt);
        }
    }
}

/// [`sweep2d_rows`] between two device buffers.
pub fn sweep2d_buf(a: &Buf, b: &Buf, nx: usize, rows: (usize, usize)) {
    if rows.1 < rows.0 {
        return;
    }
    a.with(|src| b.with_mut(|dst| sweep2d_rows(src, dst, nx, rows)));
}

/// Sweep planes `planes.0 ..= planes.1` (slice-local indices) of a 3D
/// row-major grid (x fastest): `dst` gets the 7-point update of `src`.
/// Face cells (x/y extremes) are left untouched.
///
/// Each row's six neighbours are sliced to the interior length once and
/// walked in lockstep, as in [`sweep2d_rows`].
pub fn sweep3d_planes(src: &[f64], dst: &mut [f64], nx: usize, ny: usize, planes: (usize, usize)) {
    let (lo, hi) = planes;
    if hi < lo {
        return;
    }
    let plane = nx * ny;
    debug_assert!(lo >= 1 && (hi + 2) * plane <= src.len());
    let n = nx - 2;
    for (z, dplane) in (lo..).zip(dst[lo * plane..(hi + 1) * plane].chunks_exact_mut(plane)) {
        let below = &src[(z - 1) * plane..][..plane];
        let above = &src[(z + 1) * plane..][..plane];
        let mid = &src[z * plane..][..plane];
        for y in 1..ny - 1 {
            let first = y * nx + 1; // first interior cell of row y
            let zm = &below[first..][..n];
            let zp = &above[first..][..n];
            let ym = &mid[first - nx..][..n];
            let yp = &mid[first + nx..][..n];
            let xm = &mid[first - 1..][..n];
            let xp = &mid[first + 1..][..n];
            let out = &mut dplane[first..][..n];
            let nbrs = zm.iter().zip(zp).zip(ym).zip(yp).zip(xm).zip(xp);
            for (o, (((((&a, &b), &c), &d), &e), &f)) in out.iter_mut().zip(nbrs) {
                *o = update3d(a, b, c, d, e, f);
            }
        }
    }
}

/// [`sweep3d_planes`] between two device buffers.
pub fn sweep3d_buf(a: &Buf, b: &Buf, nx: usize, ny: usize, planes: (usize, usize)) {
    if planes.1 < planes.0 {
        return;
    }
    a.with(|src| b.with_mut(|dst| sweep3d_planes(src, dst, nx, ny, planes)));
}

/// Sequential 2D reference: run `iterations` Jacobi steps on the full grid,
/// returning the final generation.
pub fn reference2d(nx: usize, ny: usize, iterations: u64) -> Vec<f64> {
    let mut a = init2d(nx, ny);
    let mut b = a.clone();
    for _ in 0..iterations {
        sweep2d_rows(&a, &mut b, nx, (1, ny - 2));
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Sequential 3D reference.
pub fn reference3d(nx: usize, ny: usize, nz: usize, iterations: u64) -> Vec<f64> {
    let mut a = init3d(nx, ny, nz);
    let mut b = a.clone();
    for _ in 0..iterations {
        sweep3d_planes(&a, &mut b, nx, ny, (1, nz - 2));
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// One step of the workspace's deviation fold: the larger of `max` and
/// `dev`, or NaN once either is NaN (`f64::max` would drop the NaN).
/// Every verifier folds its deviations with this, starting from `0.0`.
pub fn max_dev(max: f64, dev: f64) -> f64 {
    if dev > max || dev.is_nan() {
        dev
    } else {
        max
    }
}

/// Maximum absolute difference between two equal-length slices; NaN if
/// any pair differs by NaN.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    // The maximum of non-negative values does not depend on the fold order,
    // so fold in independent lanes: one serial compare chain would cost
    // three times as much.
    const LANES: usize = 8;
    let (xs, ys) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail = xs
        .remainder()
        .iter()
        .zip(ys.remainder())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, max_dev);
    let mut lanes = [0.0; LANES];
    for (x, y) in xs.zip(ys) {
        for ((lane, x), y) in lanes.iter_mut().zip(x).zip(y) {
            *lane = max_dev(*lane, (x - y).abs());
        }
    }
    lanes.into_iter().fold(tail, max_dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init2d_has_sine_top_edge() {
        let g = init2d(5, 4);
        assert_eq!(g[0], 0.0);
        assert!((g[2] - 1.0).abs() < 1e-12); // sin(pi/2)
        assert_eq!(g[5], 0.0); // row 1 interior
    }

    #[test]
    fn one_sweep_averages_neighbors() {
        // 3x3 grid: single interior point = mean of its 4 neighbors.
        let mut a = vec![0.0; 9];
        a[1] = 4.0; // up
        a[3] = 8.0; // left
        let mut b = a.clone();
        sweep2d_rows(&a, &mut b, 3, (1, 1));
        assert_eq!(b[4], (4.0 + 8.0) * 0.25);
    }

    #[test]
    fn sweep_preserves_boundary() {
        let a = init2d(8, 8);
        let mut b = a.clone();
        sweep2d_rows(&a, &mut b, 8, (1, 6));
        for x in 0..8 {
            assert_eq!(b[x], a[x], "top row fixed");
            assert_eq!(b[7 * 8 + x], a[7 * 8 + x], "bottom row fixed");
        }
        for r in 0..8 {
            assert_eq!(b[r * 8], a[r * 8], "left col fixed");
            assert_eq!(b[r * 8 + 7], a[r * 8 + 7], "right col fixed");
        }
    }

    #[test]
    fn whole_range_sweep_equals_row_by_row_sweeps() {
        let nx = 512;
        let ny = 128;
        let a = init2d(nx, ny);
        let mut b_whole = a.clone();
        sweep2d_rows(&a, &mut b_whole, nx, (1, ny - 2)); // all interior rows at once
        let mut b_rows = a.clone();
        for r in 1..=ny - 2 {
            sweep2d_rows(&a, &mut b_rows, nx, (r, r)); // one row per call
        }
        assert_eq!(b_whole, b_rows);
    }

    #[test]
    fn jacobi_converges_toward_harmonic() {
        // After many iterations the center approaches the analytic harmonic
        // solution's qualitative behavior: positive, below the top BC max.
        let n = 17;
        let g = reference2d(n, n, 2000);
        let center = g[(n / 2) * n + n / 2];
        assert!(center > 0.0 && center < 1.0, "center {center}");
        // Residual shrinks: one more sweep barely changes the field.
        let mut next = g.clone();
        sweep2d_rows(&g, &mut next, n, (1, n - 2));
        assert!(max_abs_diff(&g, &next) < 1e-3);
    }

    #[test]
    fn sweep3d_single_point() {
        // 3x3x3: center = mean of 6 neighbors.
        let mut a = vec![0.0; 27];
        a[4] = 6.0; // z=0 face, y=1,x=1 (zm neighbor)
        let mut b = a.clone();
        sweep3d_planes(&a, &mut b, 3, 3, (1, 1));
        assert!((b[13] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep3d_whole_range_equals_plane_by_plane() {
        let (nx, ny, nz) = (32, 32, 40);
        let a = init3d(nx, ny, nz);
        let mut b_whole = a.clone();
        sweep3d_planes(&a, &mut b_whole, nx, ny, (1, nz - 2));
        let mut b_planes = a.clone();
        for z in 1..=nz - 2 {
            sweep3d_planes(&a, &mut b_planes, nx, ny, (z, z));
        }
        assert_eq!(b_whole, b_planes);
    }

    #[test]
    fn reference3d_keeps_faces_fixed() {
        let g = reference3d(8, 8, 8, 5);
        let init = init3d(8, 8, 8);
        // z=0 face unchanged.
        assert_eq!(&g[..64], &init[..64]);
    }

    #[test]
    fn empty_ranges_are_noops() {
        let a = init2d(8, 8);
        let mut b = a.clone();
        sweep2d_rows(&a, &mut b, 8, (3, 2));
        assert_eq!(a, b);
    }

    /// A deterministic field with no structure the sweep could hide behind:
    /// distinct magnitudes and signs in every cell.
    fn noisy(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The plain indexed 2D sweep the slice form must equal bit for bit.
    fn sweep2d_indexed(src: &[f64], dst: &mut [f64], nx: usize, (lo, hi): (usize, usize)) {
        for r in lo..=hi {
            for x in 1..nx - 1 {
                dst[r * nx + x] = update2d(
                    src[(r - 1) * nx + x],
                    src[(r + 1) * nx + x],
                    src[r * nx + x - 1],
                    src[r * nx + x + 1],
                );
            }
        }
    }

    /// The plain indexed 3D sweep the slice form must equal bit for bit.
    fn sweep3d_indexed(
        src: &[f64],
        dst: &mut [f64],
        nx: usize,
        ny: usize,
        (lo, hi): (usize, usize),
    ) {
        let plane = nx * ny;
        for z in lo..=hi {
            for y in 1..ny - 1 {
                for x in 1..nx - 1 {
                    let c = z * plane + y * nx + x;
                    dst[c] = update3d(
                        src[c - plane],
                        src[c + plane],
                        src[c - nx],
                        src[c + nx],
                        src[c - 1],
                        src[c + 1],
                    );
                }
            }
        }
    }

    #[test]
    fn slice_sweeps_equal_indexed_oracle_bit_for_bit() {
        // (nx, layers in the slab, swept range): nx = 3, one owned layer,
        // uneven slabs, and inner/boundary splits that start mid-slab.
        let shapes_2d = [
            (3, 1, (1, 1)),
            (3, 5, (1, 5)),
            (4, 1, (1, 1)),
            (7, 5, (2, 4)),
            (7, 5, (5, 5)),
            (33, 6, (1, 1)),
            (33, 6, (2, 5)),
            (33, 6, (6, 6)),
            (130, 9, (3, 8)),
        ];
        for (i, &(nx, layers, rows)) in shapes_2d.iter().enumerate() {
            let src = noisy((layers + 2) * nx, i as u64);
            let init = noisy(src.len(), 100 + i as u64);
            let (mut got, mut want) = (init.clone(), init);
            sweep2d_rows(&src, &mut got, nx, rows);
            sweep2d_indexed(&src, &mut want, nx, rows);
            assert_eq!(
                bits(&got),
                bits(&want),
                "2D nx={nx} layers={layers} {rows:?}"
            );
        }
        // (nx, ny, layers in the slab, swept range), with nx != ny.
        let shapes_3d = [
            (3, 3, 1, (1, 1)),
            (3, 5, 2, (1, 2)),
            (6, 3, 3, (2, 2)),
            (9, 4, 5, (2, 4)),
            (17, 11, 4, (1, 1)),
            (17, 11, 4, (4, 4)),
            (12, 20, 7, (1, 7)),
        ];
        for (i, &(nx, ny, layers, planes)) in shapes_3d.iter().enumerate() {
            let src = noisy((layers + 2) * nx * ny, 200 + i as u64);
            let init = noisy(src.len(), 300 + i as u64);
            let (mut got, mut want) = (init.clone(), init);
            sweep3d_planes(&src, &mut got, nx, ny, planes);
            sweep3d_indexed(&src, &mut want, nx, ny, planes);
            assert_eq!(
                bits(&got),
                bits(&want),
                "3D {nx}x{ny} layers={layers} {planes:?}"
            );
        }
    }

    #[test]
    fn max_abs_diff_surfaces_nan() {
        // 21 elements: two full lanes of 8 and a tail of 5.
        let a = noisy(21, 7);
        for at in [0, 3, 15, 16, 20] {
            let mut b = a.clone();
            assert_eq!(max_abs_diff(&a, &b).to_bits(), 0.0f64.to_bits());
            b[at] += 0.5;
            assert_eq!(max_abs_diff(&a, &b), (a[at] + 0.5 - a[at]).abs(), "{at}");
            b[at] = f64::NAN;
            assert!(max_abs_diff(&a, &b).is_nan(), "NaN at {at}");
        }
        // A NaN already folded in stays, whatever follows.
        assert!(max_dev(f64::NAN, 1.0).is_nan());
        assert!(max_dev(1.0, f64::NAN).is_nan());
        assert_eq!(max_dev(0.25, 1.0), 1.0);
        assert_eq!(max_dev(1.0, 0.25), 1.0);
    }
}

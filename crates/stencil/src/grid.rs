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
    for (x, v) in g.iter_mut().enumerate().take(nx) {
        *v = (PI * x as f64 / (nx - 1) as f64).sin();
    }
    g
}

/// Initial condition of the 3D Laplace problem: the z=0 face follows a 2D
/// sine product, everything else is zero.
pub fn init3d(nx: usize, ny: usize, nz: usize) -> Vec<f64> {
    let mut g = vec![0.0; nx * ny * nz];
    for y in 0..ny {
        for x in 0..nx {
            g[y * nx + x] =
                (PI * x as f64 / (nx - 1) as f64).sin() * (PI * y as f64 / (ny - 1) as f64).sin();
        }
    }
    let _ = nz;
    g
}

/// Sweep rows `rows.0 ..= rows.1` (slice-local indices) of a 2D row-major
/// grid with row stride `nx`: `dst` gets the 5-point update of `src`.
/// Columns 0 and nx-1 are left untouched (fixed boundary).
pub fn sweep2d_rows(src: &[f64], dst: &mut [f64], nx: usize, rows: (usize, usize)) {
    let (lo, hi) = rows;
    if hi < lo {
        return;
    }
    debug_assert!(lo >= 1 && (hi + 2) * nx <= src.len());
    let run = |r: usize, row: &mut [f64]| {
        for x in 1..nx - 1 {
            row[x] = update2d(
                src[(r - 1) * nx + x],
                src[(r + 1) * nx + x],
                src[r * nx + x - 1],
                src[r * nx + x + 1],
            );
        }
    };
    dst[lo * nx..(hi + 1) * nx]
        .chunks_mut(nx)
        .enumerate()
        .for_each(|(i, row)| run(lo + i, row));
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
pub fn sweep3d_planes(src: &[f64], dst: &mut [f64], nx: usize, ny: usize, planes: (usize, usize)) {
    let (lo, hi) = planes;
    if hi < lo {
        return;
    }
    let plane = nx * ny;
    debug_assert!(lo >= 1 && (hi + 2) * plane <= src.len());
    let run = |z: usize, dplane: &mut [f64]| {
        for y in 1..ny - 1 {
            for x in 1..nx - 1 {
                let c = y * nx + x;
                dplane[c] = update3d(
                    src[(z - 1) * plane + c],
                    src[(z + 1) * plane + c],
                    src[z * plane + c - nx],
                    src[z * plane + c + nx],
                    src[z * plane + c - 1],
                    src[z * plane + c + 1],
                );
            }
        }
    };
    dst[lo * plane..(hi + 1) * plane]
        .chunks_mut(plane)
        .enumerate()
        .for_each(|(i, dplane)| run(lo + i, dplane));
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

/// Maximum absolute difference between two grids.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
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
    fn parallel_and_serial_sweeps_agree() {
        // Grid big enough to trip the parallel path.
        let nx = 512;
        let ny = 128;
        let a = init2d(nx, ny);
        let mut b_par = a.clone();
        sweep2d_rows(&a, &mut b_par, nx, (1, ny - 2)); // 65024 pts: parallel
        let mut b_ser = a.clone();
        for r in 1..=ny - 2 {
            sweep2d_rows(&a, &mut b_ser, nx, (r, r)); // 512 pts each: serial
        }
        assert_eq!(b_par, b_ser);
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
    fn sweep3d_parallel_serial_agree() {
        let (nx, ny, nz) = (32, 32, 40);
        let a = init3d(nx, ny, nz);
        let mut b_par = a.clone();
        sweep3d_planes(&a, &mut b_par, nx, ny, (1, nz - 2));
        let mut b_ser = a.clone();
        for z in 1..=nz - 2 {
            sweep3d_planes(&a, &mut b_ser, nx, ny, (z, z));
        }
        assert_eq!(b_par, b_ser);
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
}

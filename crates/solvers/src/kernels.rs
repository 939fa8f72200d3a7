//! The local (per-PE) vector kernels of CG: matvec, dot, axpy, p-update —
//! functional math on slab-local buffers plus their roofline costs.

use gpu_sim::{Buf, ExecMode, KernelCtx};
use sim_des::Category;

/// Charge a vector kernel's roofline time, stretched by `mult` (straggler
/// windows in fault-injected runs slow the kernel without changing its
/// output), and run the math in Full mode.
pub fn vec_op(
    k: &mut KernelCtx<'_>,
    points: u64,
    bytes_per_pt: u64,
    flops_per_pt: u64,
    mult: f64,
    label: &str,
    f: impl FnOnce(),
) {
    let dur = k
        .cost()
        .sweep(points * bytes_per_pt, points * flops_per_pt, 1.0);
    k.busy(Category::Compute, label, dur * mult);
    if k.exec_mode() == ExecMode::Full {
        f();
    }
}

/// The elements of rows `rows.0 ..= rows.1` of a row-major grid with row
/// stride `nx`.
fn span(nx: usize, (lo, hi): (usize, usize)) -> std::ops::Range<usize> {
    lo * nx..(hi + 1) * nx
}

/// `q = A p` for the 5-point Laplacian on rows `rows.0 ..= rows.1` of a
/// row-major grid with row stride `nx`; columns 0 and nx-1 are left
/// untouched. Each row's four neighbours are sliced to the interior length
/// once and walked in lockstep (the form of `stencil_lab::grid`'s sweeps).
pub fn matvec_rows(p: &[f64], q: &mut [f64], nx: usize, rows: (usize, usize)) {
    let (lo, hi) = rows;
    if hi < lo {
        return;
    }
    let n = nx - 2;
    for (i, row) in (lo..).zip(q[span(nx, rows)].chunks_exact_mut(nx)) {
        let centre = &p[i * nx + 1..][..n];
        let up = &p[(i - 1) * nx + 1..][..n];
        let down = &p[(i + 1) * nx + 1..][..n];
        let left = &p[i * nx..][..n];
        let right = &p[i * nx + 2..][..n];
        let nbrs = centre.iter().zip(up).zip(down).zip(left).zip(right);
        for (o, ((((&c, &u), &d), &l), &r)) in row[1..][..n].iter_mut().zip(nbrs) {
            *o = 4.0 * c - u - d - l - r;
        }
    }
}

/// Dot product over rows `rows.0 ..= rows.1` (all columns): one sequential
/// left fold in ascending element order, so every slab's partial is the
/// same on the device and in the reference.
pub fn dot_rows(a: &[f64], b: &[f64], nx: usize, rows: (usize, usize)) -> f64 {
    let span = span(nx, rows);
    a[span.clone()]
        .iter()
        .zip(&b[span])
        .fold(0.0, |acc, (x, y)| acc + x * y)
}

/// `x += alpha p; r -= alpha q` over rows `rows.0 ..= rows.1`.
pub fn axpy_xr_rows(
    x: &mut [f64],
    r: &mut [f64],
    p: &[f64],
    q: &[f64],
    alpha: f64,
    nx: usize,
    rows: (usize, usize),
) {
    let span = span(nx, rows);
    let (p, q) = (&p[span.clone()], &q[span.clone()]);
    for (xv, pv) in x[span.clone()].iter_mut().zip(p) {
        *xv += alpha * pv;
    }
    for (rv, qv) in r[span].iter_mut().zip(q) {
        *rv -= alpha * qv;
    }
}

/// `p = r + beta p` over rows `rows.0 ..= rows.1`.
pub fn update_p_rows(p: &mut [f64], r: &[f64], beta: f64, nx: usize, rows: (usize, usize)) {
    let span = span(nx, rows);
    for (pv, rv) in p[span.clone()].iter_mut().zip(&r[span]) {
        *pv = rv + beta * *pv;
    }
}

/// [`matvec_rows`] over the owned rows `1..=layers` of two device buffers
/// (row 0 and layers+1 are halos).
pub fn matvec(p: &Buf, q: &Buf, nx: usize, layers: usize) {
    p.with(|pv| q.with_mut(|qv| matvec_rows(pv, qv, nx, (1, layers))));
}

/// [`dot_rows`] over the owned rows. Handles `a` and `b` being the same
/// allocation (`<r,r>`) — buffer locks are not reentrant.
pub fn dot_local(a: &Buf, b: &Buf, nx: usize, layers: usize) -> f64 {
    let rows = (1, layers);
    if a.same_alloc(b) {
        a.with(|av| dot_rows(av, av, nx, rows))
    } else {
        a.with(|av| b.with(|bv| dot_rows(av, bv, nx, rows)))
    }
}

/// [`axpy_xr_rows`] over the owned rows.
pub fn axpy_xr(x: &Buf, r: &Buf, p: &Buf, q: &Buf, alpha: f64, nx: usize, layers: usize) {
    x.with_mut(|xv| {
        r.with_mut(|rv| {
            p.with(|pv| q.with(|qv| axpy_xr_rows(xv, rv, pv, qv, alpha, nx, (1, layers))))
        })
    });
}

/// [`update_p_rows`] over the owned rows.
pub fn update_p(p: &Buf, r: &Buf, beta: f64, nx: usize, layers: usize) {
    p.with_mut(|pv| r.with(|rv| update_p_rows(pv, rv, beta, nx, (1, layers))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Place;

    fn buf(data: &[f64]) -> Buf {
        let b = Buf::new(Place::Host, "t", data.len());
        b.write_slice(0, data);
        b
    }

    #[test]
    fn matvec_applies_laplacian() {
        // 1 owned row, nx=3: single interior point at (1,1).
        let p = buf(&[0.0, 1.0, 0.0, 2.0, 3.0, 4.0, 0.0, 5.0, 0.0]);
        let q = buf(&[0.0; 9]);
        matvec(&p, &q, 3, 1);
        // 4*3 - 1 - 5 - 2 - 4 = 0
        assert_eq!(q.get(4), 0.0);
        assert_eq!(q.get(3), 0.0, "boundary column untouched");
    }

    #[test]
    fn dot_covers_owned_rows_only() {
        // layers=1, nx=2: owned row is elements [2,3].
        let a = buf(&[9.0, 9.0, 2.0, 3.0, 9.0, 9.0]);
        let b = buf(&[9.0, 9.0, 4.0, 5.0, 9.0, 9.0]);
        assert_eq!(dot_local(&a, &b, 2, 1), 2.0 * 4.0 + 3.0 * 5.0);
    }

    #[test]
    fn axpy_and_update() {
        let x = buf(&[0.0; 6]);
        let r = buf(&[0.0, 0.0, 10.0, 20.0, 0.0, 0.0]);
        let p = buf(&[0.0, 0.0, 1.0, 2.0, 0.0, 0.0]);
        let q = buf(&[0.0, 0.0, 3.0, 4.0, 0.0, 0.0]);
        axpy_xr(&x, &r, &p, &q, 2.0, 2, 1);
        assert_eq!(x.get(2), 2.0);
        assert_eq!(r.get(3), 12.0);
        update_p(&p, &r, 0.5, 2, 1);
        assert_eq!(p.get(2), 4.0 + 0.5); // r=4 after axpy, p was 1
    }

    /// A deterministic field with distinct magnitudes and signs.
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

    #[test]
    fn slice_kernels_equal_indexed_oracle_bit_for_bit() {
        // (nx, rows in the grid incl. halos, range): nx = 3, one owned
        // row, uneven slabs, and ranges that start mid-slab.
        let shapes = [
            (3, 3, (1, 1)),
            (3, 7, (1, 5)),
            (4, 3, (1, 1)),
            (9, 8, (2, 5)),
            (9, 8, (6, 6)),
            (33, 11, (1, 9)),
            (33, 11, (4, 7)),
        ];
        for (k, &(nx, rows_total, (lo, hi))) in shapes.iter().enumerate() {
            let seed = 10 * k as u64;
            let len = rows_total * nx;
            let (p, r0, x0, q0) = (
                noisy(len, seed),
                noisy(len, seed + 1),
                noisy(len, seed + 2),
                noisy(len, seed + 3),
            );
            let (alpha, beta) = (0.37 + k as f64, -1.3 / (k + 1) as f64);
            let at = |i: usize, j: usize| i * nx + j;

            let mut q_got = q0.clone();
            matvec_rows(&p, &mut q_got, nx, (lo, hi));
            let mut q_want = q0.clone();
            for i in lo..=hi {
                for j in 1..nx - 1 {
                    q_want[at(i, j)] = 4.0 * p[at(i, j)]
                        - p[at(i - 1, j)]
                        - p[at(i + 1, j)]
                        - p[at(i, j - 1)]
                        - p[at(i, j + 1)];
                }
            }
            assert_eq!(bits(&q_got), bits(&q_want), "matvec nx={nx} {lo}..={hi}");

            let mut dot_want = 0.0;
            for i in lo..=hi {
                for j in 0..nx {
                    dot_want += p[at(i, j)] * q_want[at(i, j)];
                }
            }
            let dot_got = dot_rows(&p, &q_got, nx, (lo, hi));
            assert_eq!(dot_got.to_bits(), dot_want.to_bits(), "dot nx={nx}");

            let (mut x_got, mut r_got) = (x0.clone(), r0.clone());
            axpy_xr_rows(&mut x_got, &mut r_got, &p, &q_got, alpha, nx, (lo, hi));
            let (mut x_want, mut r_want) = (x0, r0);
            for i in lo..=hi {
                for j in 0..nx {
                    x_want[at(i, j)] += alpha * p[at(i, j)];
                    r_want[at(i, j)] -= alpha * q_want[at(i, j)];
                }
            }
            assert_eq!(bits(&x_got), bits(&x_want), "axpy x nx={nx}");
            assert_eq!(bits(&r_got), bits(&r_want), "axpy r nx={nx}");

            let mut p_got = p.clone();
            update_p_rows(&mut p_got, &r_got, beta, nx, (lo, hi));
            let mut p_want = p;
            for i in lo..=hi {
                for j in 0..nx {
                    p_want[at(i, j)] = r_want[at(i, j)] + beta * p_want[at(i, j)];
                }
            }
            assert_eq!(bits(&p_got), bits(&p_want), "update p nx={nx}");
        }
    }
}

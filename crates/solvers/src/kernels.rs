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

/// `q[1..=layers][1..nx-2] = A p` for the 5-point Laplacian (rows indexed
/// locally; row 0 and layers+1 are halos).
pub fn matvec(p: &Buf, q: &Buf, nx: usize, layers: usize) {
    p.with(|pv| {
        q.with_mut(|qv| {
            for i in 1..=layers {
                for j in 1..nx - 1 {
                    qv[i * nx + j] = 4.0 * pv[i * nx + j]
                        - pv[(i - 1) * nx + j]
                        - pv[(i + 1) * nx + j]
                        - pv[i * nx + j - 1]
                        - pv[i * nx + j + 1];
                }
            }
        })
    });
}

/// Partial dot product over the owned rows (all columns, matching the
/// reference's per-slab iteration order). Handles `a` and `b` being the
/// same allocation (`<r,r>`) — buffer locks are not reentrant.
pub fn dot_local(a: &Buf, b: &Buf, nx: usize, layers: usize) -> f64 {
    let run = |av: &[f64], bv: &[f64]| {
        let mut acc = 0.0;
        for i in 1..=layers {
            for j in 0..nx {
                acc += av[i * nx + j] * bv[i * nx + j];
            }
        }
        acc
    };
    if a.same_alloc(b) {
        a.with(|av| run(av, av))
    } else {
        a.with(|av| b.with(|bv| run(av, bv)))
    }
}

/// `x += alpha p; r -= alpha q` over the owned rows.
pub fn axpy_xr(x: &Buf, r: &Buf, p: &Buf, q: &Buf, alpha: f64, nx: usize, layers: usize) {
    x.with_mut(|xv| {
        r.with_mut(|rv| {
            p.with(|pv| {
                q.with(|qv| {
                    for i in 1..=layers {
                        for j in 0..nx {
                            xv[i * nx + j] += alpha * pv[i * nx + j];
                            rv[i * nx + j] -= alpha * qv[i * nx + j];
                        }
                    }
                })
            })
        })
    });
}

/// `p = r + beta p` over the owned rows.
pub fn update_p(p: &Buf, r: &Buf, beta: f64, nx: usize, layers: usize) {
    p.with_mut(|pv| {
        r.with(|rv| {
            for i in 1..=layers {
                for j in 0..nx {
                    pv[i * nx + j] = rv[i * nx + j] + beta * pv[i * nx + j];
                }
            }
        })
    });
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
}

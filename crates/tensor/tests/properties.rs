//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use stone_tensor::{col2im, im2col, matmul, matmul_a_bt, matmul_at_b, Conv2dGeometry, Tensor};

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(vec![rows, cols], data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_identity_left_right(a in tensor_strategy(4, 4)) {
        let i = Tensor::eye(4);
        prop_assert_eq!(&matmul(&a, &i), &a);
        prop_assert_eq!(&matmul(&i, &a), &a);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 2),
        c in tensor_strategy(4, 2),
    ) {
        let lhs = matmul(&a, &(&b + &c));
        let rhs = &matmul(&a, &b) + &matmul(&a, &c);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_variants_agree(
        a in tensor_strategy(3, 5),
        b in tensor_strategy(3, 4),
    ) {
        let direct = matmul(&a.transposed(), &b);
        let fused = matmul_at_b(&a, &b);
        for (x, y) in direct.as_slice().iter().zip(fused.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn a_bt_agrees_with_transpose(
        a in tensor_strategy(3, 5),
        b in tensor_strategy(2, 5),
    ) {
        let direct = matmul(&a, &b.transposed());
        let fused = matmul_a_bt(&a, &b);
        for (x, y) in direct.as_slice().iter().zip(fused.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_is_involutive(a in tensor_strategy(5, 3)) {
        prop_assert_eq!(&a.transposed().transposed(), &a);
    }

    #[test]
    fn reshape_preserves_elements(a in tensor_strategy(4, 6)) {
        let r = a.reshape(vec![3, 8]).unwrap();
        prop_assert_eq!(r.as_slice(), a.as_slice());
    }

    #[test]
    fn im2col_col2im_adjoint(
        xs in proptest::collection::vec(-5.0f32..5.0, 2 * 5 * 4),
        ys in proptest::collection::vec(-5.0f32..5.0, (2 * 2 * 2) * (4 * 3)),
    ) {
        let g = Conv2dGeometry::new(2, 5, 4, 2, 2, 1).unwrap();
        let y = Tensor::from_vec(vec![g.col_rows(), g.col_cols()], ys).unwrap();
        let ax = im2col(&xs, &g);
        let lhs: f32 = ax.as_slice().iter().zip(y.as_slice()).map(|(&a, &b)| a * b).sum();
        let mut aty = vec![0.0f32; xs.len()];
        col2im(&y, &g, &mut aty);
        let rhs: f32 = xs.iter().zip(&aty).map(|(&a, &b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn solve_recovers_solution(
        xs in proptest::collection::vec(-3.0f32..3.0, 9),
        sol in proptest::collection::vec(-3.0f32..3.0, 3),
    ) {
        // Make the matrix diagonally dominant so it is well-conditioned.
        let mut a = Tensor::from_vec(vec![3, 3], xs).unwrap();
        for i in 0..3 {
            let v = a.at2(i, i);
            a.set2(i, i, v + 12.0);
        }
        let b: Vec<f32> = (0..3)
            .map(|i| a.row(i).iter().zip(&sol).map(|(&m, &s)| m * s).sum())
            .collect();
        let x = stone_tensor::linalg::solve(&a, &b).unwrap();
        for (got, want) in x.iter().zip(&sol) {
            prop_assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
    }

    #[test]
    fn softmax_rows_are_distributions(a in tensor_strategy(4, 6)) {
        let s = stone_tensor::softmax_rows(&a);
        for i in 0..4 {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

/// Deterministic pseudo-random matrix from a salt. The proptest shim has no
/// dynamic-length `vec` strategy, so random-*shape* tests draw dimensions
/// and a salt instead and derive the data hash-style.
fn salted(rows: usize, cols: usize, salt: u32) -> Tensor {
    Tensor::from_fn(vec![rows, cols], |i| {
        let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt.wrapping_mul(97));
        (h % 2003) as f32 / 1001.5 - 1.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every kernel variant — register-tiled, narrow-path, on the
    /// environment's backend (AVX2, or portable under `STONE_NO_SIMD=1`) —
    /// must match the naive triple loop **bitwise**, not approximately:
    /// tiling and packing regroup which elements are computed together but
    /// never reorder any element's own sum (the canonical accumulation
    /// order of `docs/PERFORMANCE.md`). Shapes are drawn so every
    /// combination of full and ragged register tiles, and outputs narrower
    /// than one tile, comes up.
    #[test]
    fn kernel_variants_match_naive_triple_loop_bitwise(
        m in 1usize..35,
        k in 1usize..41,
        n in 1usize..35,
        salt in 0u32..1_000_000,
    ) {
        let a = salted(m, k, salt);
        let b = salted(k, n, salt.wrapping_add(1));
        let at = salted(k, m, salt.wrapping_add(2));
        let bt = salted(n, k, salt.wrapping_add(3));

        let (c, c_atb, c_abt) = (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt));
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at2(i, p) * b.at2(p, j);
                }
                prop_assert_eq!(c.at2(i, j), acc, "matmul ({},{})", i, j);
            }
        }

        let c = c_atb;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += at.at2(p, i) * b.at2(p, j);
                }
                prop_assert_eq!(c.at2(i, j), acc, "matmul_at_b ({},{})", i, j);
            }
        }

        let c = c_abt;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at2(i, p) * bt.at2(j, p);
                }
                prop_assert_eq!(c.at2(i, j), acc, "matmul_a_bt ({},{})", i, j);
            }
        }
    }

    /// The batched im2col window writer must place each sample's columns
    /// exactly where the one-sample lowering puts them, shifted by the
    /// window offset (the `Conv2d` batching contract).
    #[test]
    fn im2col_into_window_matches_single_sample(salt in 0u32..1_000_000) {
        let g = Conv2dGeometry::new(2, 5, 4, 2, 2, 1).unwrap();
        let samples: Vec<Tensor> =
            (0..3).map(|s| salted(1, 2 * 5 * 4, salt.wrapping_add(s))).collect();
        let wide_cols = 3 * g.col_cols();
        let mut wide = vec![f32::NAN; g.col_rows() * wide_cols];
        for (s, sample) in samples.iter().enumerate() {
            stone_tensor::im2col_into(sample.as_slice(), &g, &mut wide, wide_cols, s * g.col_cols());
        }
        for (s, sample) in samples.iter().enumerate() {
            let single = im2col(sample.as_slice(), &g);
            for r in 0..g.col_rows() {
                for c in 0..g.col_cols() {
                    prop_assert_eq!(
                        wide[r * wide_cols + s * g.col_cols() + c],
                        single.at2(r, c),
                        "sample {} row {} col {}", s, r, c
                    );
                }
            }
        }
    }
}

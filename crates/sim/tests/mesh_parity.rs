//! Oracle parity for the mesh kernel: `MeshSim` must report `Metrics`
//! bit-identical to the seed-faithful `ReferenceMeshSim` over every
//! traffic pattern, router delay, buffer depth and grid shape. Buffer
//! depth 1 and non-square grids exercise the credit rule and the
//! edge-of-grid neighbours that an 8x8, depth-8 run never stresses.

use proptest::prelude::*;
use rlnoc_sim::reference::ReferenceMeshSim;
use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{run_synthetic, MeshSim, SimConfig};
use rlnoc_topology::Grid;

/// Grid shapes `(width, height)`, square and not.
const SHAPES: [(usize, usize); 6] = [(3, 5), (6, 4), (4, 4), (5, 3), (2, 7), (8, 8)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mesh_matches_reference_on_any_shape_and_depth(
        pattern_idx in 0usize..6,
        rate in 0.02f64..0.6,
        delay in 0u64..3,
        capacity in 1usize..9,
        shape_idx in 0usize..6,
        data_flits in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let (w, h) = SHAPES[shape_idx];
        let grid = Grid::new(w, h).unwrap();
        let pattern = Pattern::ALL[pattern_idx];
        let cfg = SimConfig {
            warmup: 100,
            measure: 600,
            drain: 400,
            data_flits,
            ..SimConfig::mesh()
        };
        let fast = run_synthetic(&mut MeshSim::new(grid, delay, capacity), pattern, rate, &cfg, seed);
        let slow = run_synthetic(
            &mut ReferenceMeshSim::new(grid, delay, capacity),
            pattern,
            rate,
            &cfg,
            seed,
        );
        prop_assert_eq!(
            fast,
            slow,
            "{}x{} {:?} @ {} delay {} capacity {}",
            w,
            h,
            pattern,
            rate,
            delay,
            capacity
        );
    }
}

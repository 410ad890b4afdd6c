//! Solver micro-benchmarks: the substrate the whole reproduction stands on.
//!
//! Times the bounded-variable simplex against the reference engine, branch
//! and bound on knapsacks, and a representative BIRP per-slot MILP.

use criterion::{criterion_group, criterion_main, Criterion, SamplingMode};
use std::hint::black_box;

use birp_core::{DemandMatrix, ProblemConfig, SlotProblem, TirMatrix};
use birp_models::{AppId, Catalog, EdgeId};
use birp_solver::lp::{LpProblem, RowCmp};
use birp_solver::milp::{branch_and_bound, BnbConfig, MilpProblem};
use birp_solver::simplex::{
    solve_bounded, solve_reference, with_engine, SimplexMode, SimplexOptions,
};
use birp_solver::SolverConfig;

/// Cold solves timed by `simplex_sparse/fleet_relaxation`.
const FLEET_SOLVES: usize = 10;

/// A dense-ish random LP with `n` columns and `m` rows (deterministic).
fn random_lp(n: usize, m: usize, seed: u64) -> LpProblem {
    let mut lp = LpProblem::with_columns(n);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 1000.0
    };
    for j in 0..n {
        lp.objective[j] = next() * 2.0 - 1.0;
        lp.upper[j] = 1.0 + next() * 9.0;
    }
    for _ in 0..m {
        let coeffs: Vec<(usize, f64)> = (0..n)
            .filter_map(|j| {
                let v = next();
                (v > 0.6).then_some((j, v * 4.0 - 1.0))
            })
            .collect();
        let rhs = 1.0 + next() * (n as f64);
        lp.push_row(coeffs, RowCmp::Le, rhs);
    }
    lp
}

fn knapsack(n: usize) -> MilpProblem {
    let mut lp = LpProblem::with_columns(n);
    lp.upper = vec![1.0; n];
    lp.objective = (0..n).map(|i| -(((i * 37) % 13) as f64 + 1.0)).collect();
    let weights: Vec<(usize, f64)> = (0..n).map(|i| (i, ((i * 17) % 7) as f64 + 1.0)).collect();
    let cap: f64 = weights.iter().map(|(_, w)| w).sum::<f64>() * 0.4;
    lp.push_row(weights, RowCmp::Le, cap);
    MilpProblem {
        lp,
        integers: (0..n).collect(),
    }
}

fn bench_simplex(c: &mut Criterion) {
    let mut g = c.benchmark_group("simplex");
    for &(n, m) in &[(40usize, 25usize), (120, 80), (300, 200)] {
        let lp = random_lp(n, m, 42);
        g.bench_function(format!("bounded_{n}x{m}"), |b| {
            b.iter(|| black_box(solve_bounded(&lp)))
        });
    }
    // The reference oracle is only worth timing on the small instance.
    let lp = random_lp(40, 25, 42);
    g.bench_function("reference_40x25", |b| {
        b.iter(|| black_box(solve_reference(&lp)))
    });
    g.finish();
}

/// Sparse revised core vs dense tableau core, back to back on identical
/// instances — the differential table recorded in BENCH_solver.json. Also
/// sweeps the scheduled refactorization cadence on the large instance
/// (too-small intervals pay rebuilds, too-large ones pay eta-file drag).
fn bench_simplex_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("simplex_sparse");
    for &(n, m) in &[(120usize, 80usize), (300, 200)] {
        let lp = random_lp(n, m, 42);
        for (tag, mode) in [
            ("sparse", SimplexMode::Sparse),
            ("dense", SimplexMode::Dense),
        ] {
            let opts = SimplexOptions {
                mode,
                ..SimplexOptions::default()
            };
            g.bench_function(format!("{tag}_{n}x{m}"), |b| {
                b.iter(|| {
                    with_engine(|eng| black_box(eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts)))
                })
            });
        }
    }
    let lp = random_lp(300, 200, 42);
    for interval in [8usize, 32, 64, 128] {
        let opts = SimplexOptions {
            mode: SimplexMode::Sparse,
            refactor_interval: interval,
            ..SimplexOptions::default()
        };
        g.bench_function(format!("refactor_cadence_{interval}"), |b| {
            b.iter(|| {
                with_engine(|eng| black_box(eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts)))
            })
        });
    }
    g.finish();

    // The fleet's monolithic relaxation: 1000 edges at the fleet workload's
    // 2.5 requests per edge per slot, solved cold. Its basis is
    // block-diagonal with thousands of rows and its FTRAN/BTRAN results
    // touch a handful of them, so this row times the hyper-sparse
    // triangular solves (DESIGN.md §3). One solve outlasts the time budget,
    // so the row is the median of a fixed number of cold solves.
    let mut g = c.benchmark_group("simplex_sparse");
    g.sampling_mode(SamplingMode::Flat)
        .sample_size(FLEET_SOLVES);
    let catalog = Catalog::fleet_scale(42, 1000);
    let demand = demand_pattern(&catalog, 6);
    let tir = TirMatrix::oracle(&catalog);
    let problem = SlotProblem::build(&catalog, 0, &demand, &tir, None, &ProblemConfig::default());
    let lp = problem.debug_milp().lp;
    let opts = SimplexOptions::default();
    g.bench_function("fleet_relaxation", |b| {
        b.iter(|| with_engine(|eng| black_box(eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts))))
    });
    g.finish();
}

/// Deterministic demand `(3i + 5k) mod period` for app `i` at edge `k`.
fn demand_pattern(catalog: &Catalog, period: usize) -> DemandMatrix {
    let mut demand = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
    for i in 0..catalog.num_apps() {
        for k in 0..catalog.num_edges() {
            demand.set(AppId(i), EdgeId(k), ((3 * i + 5 * k) % period) as u32);
        }
    }
    demand
}

/// Dive-chain guard: one cold solve, then a chain of in-place
/// `resolve_with_bounds` re-solves under successive bound tightenings —
/// the diving heuristic's access pattern. Guards the satellite scratch
/// reuse in the dense extract/compact path and the sparse eta-file
/// carry-over (a regression to per-call allocation or per-step
/// refactorization shows up here first).
fn bench_dive_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("dive_chain");
    let lp = random_lp(120, 80, 42);
    for (tag, mode) in [
        ("sparse", SimplexMode::Sparse),
        ("dense", SimplexMode::Dense),
    ] {
        let opts = SimplexOptions {
            mode,
            ..SimplexOptions::default()
        };
        g.bench_function(format!("resolve_chain_{tag}"), |b| {
            b.iter(|| {
                with_engine(|eng| {
                    let cold = eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts);
                    let mut hi = lp.upper.clone();
                    for j in 0..8 {
                        hi[j] *= 0.5;
                        black_box(eng.resolve_with_bounds(&lp, &lp.lower, &hi, &opts));
                    }
                    black_box(cold)
                })
            })
        });
    }
    g.finish();
}

fn bench_bnb(c: &mut Criterion) {
    let mut g = c.benchmark_group("branch_and_bound");
    for &n in &[12usize, 18, 24] {
        let p = knapsack(n);
        g.bench_function(format!("knapsack_{n}"), |b| {
            b.iter(|| black_box(branch_and_bound(&p, &BnbConfig::default())))
        });
    }
    let p = knapsack(24);
    g.bench_function("knapsack_24_parallel", |b| {
        b.iter(|| {
            black_box(branch_and_bound(
                &p,
                &BnbConfig {
                    parallel: true,
                    ..Default::default()
                },
            ))
        })
    });
    g.finish();
}

fn bench_slot_problem(c: &mut Criterion) {
    let mut g = c.benchmark_group("slot_problem");
    g.sample_size(10);
    for (label, catalog) in [
        ("small_scale", Catalog::small_scale(42)),
        ("large_scale", Catalog::large_scale(42)),
    ] {
        let demand = demand_pattern(&catalog, 14);
        let tir = TirMatrix::oracle(&catalog);
        g.bench_function(format!("build_{label}"), |b| {
            b.iter(|| {
                black_box(SlotProblem::build(
                    &catalog,
                    0,
                    &demand,
                    &tir,
                    None,
                    &ProblemConfig::default(),
                ))
            })
        });
        let problem =
            SlotProblem::build(&catalog, 0, &demand, &tir, None, &ProblemConfig::default());
        g.bench_function(format!("solve_{label}"), |b| {
            b.iter(|| black_box(problem.solve(&SolverConfig::scheduling())))
        });
    }
    g.finish();
}

/// Node throughput on the representative per-slot MILP: exhaust a fixed
/// node budget serially (no gap early-exit, no dives) so the measurement is
/// LP-re-solve cost, not search luck. `warm` vs `cold` isolates the
/// warm-start machinery; nodes/sec = node budget / measured time.
fn bench_node_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("node_throughput");
    g.sample_size(10);
    let catalog = Catalog::small_scale(42);
    let demand = demand_pattern(&catalog, 14);
    let tir = TirMatrix::oracle(&catalog);
    let problem = SlotProblem::build(&catalog, 0, &demand, &tir, None, &ProblemConfig::default());
    let milp = problem.debug_milp();
    for (label, warm_nodes) in [("warm", true), ("cold", false)] {
        let cfg = BnbConfig {
            node_limit: 256,
            rel_gap: 0.0,
            parallel: false,
            root_dive: false,
            warm_nodes,
            ..Default::default()
        };
        g.bench_function(format!("slot_256_nodes_{label}"), |b| {
            b.iter(|| black_box(branch_and_bound(&milp, &cfg)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_simplex,
    bench_simplex_sparse,
    bench_dive_chain,
    bench_bnb,
    bench_slot_problem,
    bench_node_throughput
);
criterion_main!(benches);

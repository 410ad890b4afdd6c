//! `birp repro <figure>`: each table and figure of the paper's evaluation,
//! plus the Section 5.4 headline check. Each function runs its experiment,
//! prints the rows/series the paper reports and returns the record the
//! caller persists.

use birp_core::experiments::{
    compare_schedulers, epsilon_sweep, fig2_experiment, table1_experiment, ComparisonConfig,
    ComparisonResult, Fig2Result, SchedulerKind, SweepConfig, SweepResult, Table1Result,
};
use birp_telemetry as telemetry;
use serde::Serialize;

/// Paper Table 1: serial-execution resource utilisation and FPS on the
/// simulated Jetson Nano and Atlas 200DK.
pub fn table1(seed: u64, windows: usize) -> Vec<Table1Result> {
    let rows = table1_experiment(seed, windows);
    println!("Table 1: Inference Resource Usage and Performance upon Heterogeneous Edges");
    println!(
        "{:<10} {:<12} {:>8} {:>8} {:>8} {:>10} {:>9} | {:>8} {:>8}",
        "Inference", "Edge", "CPU %", "GPU %", "NPU %", "NPUCore %", "FPS", "ref CPU", "ref FPS"
    );
    for r in &rows {
        println!(
            "{:<10} {:<12} {:>8.1} {:>8.1} {:>8.1} {:>10.1} {:>9.1} | {:>8.1} {:>8.1}",
            r.model,
            r.device,
            r.measured.cpu_pct,
            r.measured.gpu_pct,
            r.measured.npu_pct,
            r.measured.npu_core_pct,
            r.measured.avg_fps,
            r.reference_cpu_pct,
            r.reference_fps
        );
    }
    println!("\nmotivating observation check:");
    let small_underutilised = rows
        .iter()
        .filter(|r| r.model == "Yolov4-t" || r.model == "ResNet-18")
        .all(|r| r.measured.gpu_pct.max(r.measured.npu_core_pct) < 75.0);
    println!("  small models keep accelerator < 75%: {small_underutilised}");
    println!();
    rows
}

/// Paper Fig. 2: TIR raw data and piecewise fits for LeNet / GoogLeNet /
/// ResNet-18 on a simulated Jetson Nano, batch sizes 1..=16, `reps`
/// measurements each.
pub fn fig2(seed: u64, reps: usize) -> Vec<Fig2Result> {
    const MAX_BATCH: u32 = 16;
    let results = fig2_experiment(seed, MAX_BATCH, reps);
    for r in &results {
        println!("--- Fig. 2: {} ---", r.model);
        println!(
            "fitted : TIR = b^{:.2}, b <= {}   |   TIR = {:.2}, b > {}",
            r.fit.params.eta, r.fit.params.beta, r.fit.params.c, r.fit.params.beta
        );
        println!(
            "truth  : TIR = b^{:.2}, b <= {}   |   TIR = {:.2}, b > {}   (rmse {:.4})",
            r.truth.eta,
            r.truth.beta,
            r.truth.c,
            r.truth.beta,
            r.fit.rmse()
        );
        println!("batch-size -> mean measured TIR (raw dots):");
        for b in 1..=MAX_BATCH {
            let vals: Vec<f64> = r
                .samples
                .iter()
                .filter(|s| s.batch == b)
                .map(|s| s.tir)
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
            let fitted = r.fit.params.tir(b);
            println!("  b={b:>2}  measured {mean:>5.3}  fitted {fitted:>5.3}");
        }
        println!();
    }
    results
}

/// Paper Fig. 4 (ΔLoss = Σ_t (loss_BIRP − loss_BIRP-OFF), at t = 10 and
/// t = 100) or Fig. 5 (the SLO failure rate p%, at t = 100 and t = 300):
/// one surface over the (eps1, eps2) grid per checkpoint.
pub fn sweep(figure: &str, seed: u64, slots: usize) -> SweepResult {
    let fig4 = figure == "fig4";
    // ΔLoss cells are 9 wide with 1 decimal, p% cells 7 wide with 2.
    let (checkpoints, title, width, precision) = if fig4 {
        (vec![10, 100], "Fig. 4: dLoss", 9, 1)
    } else {
        (vec![100, 299], "Fig. 5: p%", 7, 2)
    };
    let cfg = SweepConfig {
        checkpoints,
        ..SweepConfig::paper(seed, slots)
    };
    let result = epsilon_sweep(&cfg);
    for &t in &result.checkpoints {
        println!("--- {title} surface at t = {t} ---");
        print!("{:>7}", "e1\\e2");
        for e2 in &cfg.eps2_grid {
            print!(" {e2:>width$.2}");
        }
        println!();
        for e1 in &cfg.eps1_grid {
            print!("{e1:>7.2}");
            for e2 in &cfg.eps2_grid {
                let p = result
                    .points
                    .iter()
                    .find(|p| (p.eps1 - e1).abs() < 1e-9 && (p.eps2 - e2).abs() < 1e-9)
                    .expect("the sweep measures every grid point");
                let series = if fig4 { &p.delta_loss } else { &p.failure_pct };
                let v = series
                    .iter()
                    .find(|(ct, _)| *ct == t)
                    .expect("every grid point is sampled at every checkpoint")
                    .1;
                print!(" {v:>width$.precision$}");
            }
            println!();
        }
        println!();
    }
    result
}

/// Paper Fig. 6 (`cfg` at small scale) or Fig. 7 (large scale):
/// completion-time CDF, per-slot loss, cumulative loss and a per-scheduler
/// summary.
pub fn comparison(figure: &str, cfg: &ComparisonConfig) -> Vec<ComparisonResult> {
    // The CDF's x range and step count, and the summary's served width.
    let (fig, x_max, steps, served_width) = match figure {
        "fig6" => ("6", 1.5, 15, 7),
        _ => ("7", 2.0, 20, 8),
    };
    let slots = cfg.trace.num_slots;
    let results = compare_schedulers(cfg);
    // A table's header: its row label, then one column per scheduler.
    let header = |label: &str, width: usize| {
        print!("{label:>6}");
        for r in &results {
            print!(" {:>width$}", r.run.scheduler);
        }
        println!();
    };
    println!("--- Fig. {fig}a: completion-time CDF (x = completed time / slot) ---");
    header("x", 9);
    for i in 0..=steps {
        let x = x_max * i as f64 / steps as f64;
        print!("{x:>6.2}");
        for r in &results {
            print!(" {:>9.3}", r.run.metrics.cdf.at(x));
        }
        println!();
    }

    println!("\n--- Fig. {fig}b: per-slot loss (every 20th slot) ---");
    header("t", 10);
    for t in (0..slots).step_by(20) {
        print!("{t:>6}");
        for r in &results {
            print!(" {:>10.1}", r.run.metrics.loss_per_slot[t]);
        }
        println!();
    }

    println!("\n--- Fig. {fig}c: cumulative loss ---");
    header("t", 11);
    for t in (0..slots).step_by(50).chain(slots.checked_sub(1)) {
        print!("{t:>6}");
        for r in &results {
            print!(" {:>11.1}", r.run.metrics.cumulative_loss_at(t));
        }
        println!();
    }

    println!("\n--- summary ---");
    for r in &results {
        let m = &r.run.metrics;
        println!(
            "{:<9} total loss {:>10.1}   p% {:>6.2}   served {:>served_width$}   dropped {:>6}",
            r.run.scheduler, m.total_loss, m.failure_rate_pct, m.served, m.dropped
        );
    }
    println!();
    results
}

/// The Section 5.4 headline claims at one scale: "overall inference loss
/// reduction of at least 32.9 %" (32.3 % in Fig. 7c) for BIRP vs OAEI, "the
/// failure rate of SLO has been reduced to 19.8 % of OAEI" (small scale:
/// 1.9 % vs 10.0 %; large scale: 0.21 % vs 4.1 %), and BIRP tracking
/// BIRP-OFF closely (the tuning module works).
#[derive(Serialize)]
pub struct Headline {
    scale: &'static str,
    birp_loss: f64,
    oaei_loss: f64,
    loss_reduction_pct: f64,
    birp_fail_pct: f64,
    oaei_fail_pct: f64,
    fail_ratio_pct: f64,
    birp_off_loss: Option<f64>,
    /// Counter/histogram snapshot of the comparison run (solver pivots and
    /// nodes, MAB pulls and LCB widths, runner latencies).
    telemetry: telemetry::TelemetrySummary,
}

impl Headline {
    /// Run the comparison at one scale and derive its headline numbers.
    fn evaluate(scale: &'static str, cfg: &ComparisonConfig) -> Headline {
        // Aggregate counters/histograms only (NullSink: no event stream).
        // The snapshot spans every scheduler in the comparison, which is the
        // point — it characterises what the whole experiment cost.
        telemetry::init(
            std::sync::Arc::new(telemetry::NullSink),
            telemetry::Level::Error,
        );
        let results = compare_schedulers(cfg);
        let snapshot = telemetry::summary();
        telemetry::reset();
        let get = |k: SchedulerKind| results.iter().find(|r| r.kind == k);
        let birp = &get(SchedulerKind::Birp)
            .expect("both comparisons run BIRP")
            .run
            .metrics;
        let oaei = &get(SchedulerKind::Oaei)
            .expect("both comparisons run OAEI")
            .run
            .metrics;
        Headline {
            scale,
            birp_loss: birp.total_loss,
            oaei_loss: oaei.total_loss,
            loss_reduction_pct: 100.0 * (1.0 - birp.total_loss / oaei.total_loss),
            birp_fail_pct: birp.failure_rate_pct,
            oaei_fail_pct: oaei.failure_rate_pct,
            fail_ratio_pct: if oaei.failure_rate_pct > 0.0 {
                100.0 * birp.failure_rate_pct / oaei.failure_rate_pct
            } else {
                f64::NAN
            },
            birp_off_loss: get(SchedulerKind::BirpOff).map(|r| r.run.metrics.total_loss),
            telemetry: snapshot,
        }
    }
}

/// Run the Fig. 6 and Fig. 7 comparisons and print both scales' headline
/// numbers and the qualitative verdict.
pub fn headline(seed: u64, slots: usize) -> [Headline; 2] {
    let records = [
        Headline::evaluate("small", &ComparisonConfig::small_scale(seed, slots)),
        Headline::evaluate("large", &ComparisonConfig::large_scale(seed, slots)),
    ];
    for h in &records {
        println!("--- {} scale ---", h.scale);
        println!(
            "  BIRP loss {:>10.1}   OAEI loss {:>10.1}",
            h.birp_loss, h.oaei_loss
        );
        println!(
            "  loss reduction vs OAEI: {:>6.1}%   (paper: >= 32.9%, Fig. 7c: 32.3%)",
            h.loss_reduction_pct
        );
        println!(
            "  BIRP p% {:>6.2}   OAEI p% {:>6.2}",
            h.birp_fail_pct, h.oaei_fail_pct
        );
        println!(
            "  SLO failure ratio BIRP/OAEI: {:>6.1}%   (paper: 19.8%)",
            h.fail_ratio_pct
        );
        if let Some(off) = h.birp_off_loss {
            println!(
                "  BIRP vs BIRP-OFF loss: {:>10.1} vs {:>10.1} ({:+.1}% — tuning overhead)",
                h.birp_loss,
                off,
                100.0 * (h.birp_loss / off - 1.0)
            );
        }
        let t = &h.telemetry;
        println!(
            "  solver: {} solves, {} B&B nodes, {} pivots   MAB: {} pulls",
            t.counter("solver.solves").unwrap_or(0),
            t.counter("solver.nodes").unwrap_or(0),
            t.counter("solver.pivots").unwrap_or(0),
            t.counter("mab.pulls").unwrap_or(0),
        );
        println!();
    }
    let large = &records[1];
    println!("qualitative reproduction verdict:");
    println!(
        "  BIRP substantially reduces loss vs OAEI:      {}",
        large.loss_reduction_pct > 20.0
    );
    println!(
        "  BIRP substantially reduces SLO failures:      {}",
        large.fail_ratio_pct < 60.0
    );
    println!();
    records
}

//! `steady` — runs every workload a given number of times, untraced,
//! alternating the workload order and the seed from run to run, and
//! prints each end-to-end metric's median, quartiles and spread (quartile distance over median,
//! the rule of Python's `statistics.quantiles(v, n=4)`), next to the
//! bound `BENCHMARK.json` sets. Used to set the bounds and to re-check
//! them later.
//!
//! ```text
//! steady [--runs 10] [--seconds 10] [--seed 1]
//! ```
//!
//! Run from the repository root after building the `wallbench` binary
//! (`cargo build --release --manifest-path wallbench/Cargo.toml`); it is
//! started from the directory this binary lives in.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use gnnone_sim::jsonio::{self, Json};
use wallbench::stats::{median, quartiles, spread};
use wallbench::workload::Workload;

struct Opts {
    runs: u64,
    seconds: String,
    seed: u64,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        runs: 10,
        seconds: "10".to_string(),
        seed: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => o.runs = v.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seconds" => o.seconds = v.clone(),
            "--seed" => o.seed = v.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

/// Bounds of the end-to-end metrics in `./BENCHMARK.json`, if present.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = jsonio::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((name, m.get("bound")?.as_f64()?))
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("steady: {e}");
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe()
        .expect("the running binary has a path")
        .with_file_name(format!("wallbench{}", std::env::consts::EXE_SUFFIX));
    // (workload, metric) -> values; workload -> failed shares.
    let mut values: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    let mut shares: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    let mut bad = false;
    for i in 0..opts.runs {
        let seed = opts.seed + i;
        let mut order: Vec<(usize, Workload)> = Workload::ALL.into_iter().enumerate().collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for (wi, w) in order {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds, "--trace", "0"])
                .output();
            let stdout = match &out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).to_string(),
                Ok(o) => {
                    eprintln!("steady: {} seed {seed} exited with {}", w.name(), o.status);
                    bad = true;
                    continue;
                }
                Err(e) => {
                    eprintln!("steady: cannot start {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            };
            // The hypervisor's steal share, printed by the run, is kept next
            // to the metrics to explain a slow run.
            let steal = stdout.lines().find_map(|l| {
                l.strip_prefix("hypervisor steal during the measured loops: ")?
                    .split('%')
                    .next()?
                    .parse::<f64>()
                    .ok()
            });
            if let Some(v) = steal {
                values
                    .entry((wi, "(steal %)".to_string()))
                    .or_default()
                    .push(v);
            }
            let line = stdout.lines().last().unwrap_or("");
            let Ok(doc) = jsonio::parse(line) else {
                eprintln!("steady: {} seed {seed}: last line is not JSON", w.name());
                bad = true;
                continue;
            };
            let attempted = doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            let failed = doc.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX);
            if doc.get("correct").and_then(Json::as_bool) != Some(true) {
                eprintln!("steady: {} seed {seed}: correct is not true", w.name());
                bad = true;
            }
            shares.entry(wi).or_default().push((failed, attempted));
            for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values.entry((wi, name.clone())).or_default().push(v);
                }
            }
            eprintln!("steady: run {} {} seed {seed} done", i + 1, w.name());
        }
    }
    let bounds = bounds();
    println!(
        "{:<18} {:<28} {:>16} {:>16} {:>16} {:>8} {:>7}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for ((wi, name), v) in &values {
        let med = median(v).unwrap_or(f64::NAN);
        let [q1, _, q3] = quartiles(v).unwrap_or([f64::NAN; 3]);
        let sp = spread(v).unwrap_or(f64::NAN);
        let bound = bounds
            .get(name)
            .map(|b| format!("{:.1}%", b * 100.0))
            .unwrap_or_default();
        println!(
            "{:<18} {:<28} {:>16.6} {:>16.6} {:>16.6} {:>7.2}% {:>7}",
            Workload::ALL[*wi].name(),
            name,
            med,
            q1,
            q3,
            sp * 100.0,
            bound
        );
    }
    println!("values in run order:");
    for ((wi, name), v) in &values {
        let v: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        println!("  {} {name}: {}", Workload::ALL[*wi].name(), v.join(" "));
    }
    for (wi, s) in &shares {
        let exact = s.windows(2).all(|p| {
            // failed/attempted equal as fractions
            u128::from(p[0].0) * u128::from(p[1].1) == u128::from(p[1].0) * u128::from(p[0].1)
        });
        let failed: u64 = s.iter().map(|x| x.0).sum();
        println!(
            "{:<18} failed share identical in every run: {} (failed {failed} in total)",
            Workload::ALL[*wi].name(),
            if exact { "yes" } else { "NO" }
        );
        bad |= !exact;
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

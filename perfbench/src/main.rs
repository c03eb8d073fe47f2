//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last, one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric without
//! tracing, every per-layer metric with it. A wrong answer, a failed
//! durability check or a failed ledger check exits 1 without that line.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::ledger;
use perfbench::machine::Machine;
use perfbench::report::{end_to_end, print_table, record_line, result_line, Metric};
use perfbench::workload::{churn, dram, embedded, grow, RunResult};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    git_sha: String,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        git_sha: "unknown".into(),
        out_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--git-sha" => a.git_sha = val()?,
            "--out-dir" => a.out_dir = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn untraced(a: &Args) -> Result<RunResult, String> {
    Ok(match a.workload.as_str() {
        embedded::NAME => embedded::measure(
            &embedded::STANDARD,
            a.seed,
            a.seconds,
            &embedded::paper_table,
        )?,
        churn::NAME => churn::measure(&churn::STANDARD, a.seed, a.seconds)?,
        dram::NAME => dram::measure(&dram::STANDARD, a.seed, a.seconds)?,
        grow::NAME => grow::measure(&grow::standard(), a.seed, a.seconds)?,
        other => return Err(format!("unknown workload {other}")),
    })
}

fn run(a: &Args) -> Result<(), String> {
    perfbench::clock::calibrate();
    let machine = Machine::probe();
    let (attempted, failed, metrics, counts, facts): (
        u64,
        u64,
        Vec<Metric>,
        Vec<(String, u64)>,
        _,
    ) = if a.trace {
        let l = ledger::run(&a.workload, a.seed, a.seconds, a.out_dir.as_deref())?;
        print_table(&format!("{} per-layer (traced)", a.workload), &l.metrics);
        (l.attempted, l.failed, l.metrics, l.counts, l.facts)
    } else {
        let r = untraced(a)?;
        let e = end_to_end(&r);
        let (read, write) = (e.read, e.write);
        print_table(&format!("{} end-to-end", a.workload), &e.gated);
        print_table("not gated", &e.shown);
        println!(
            "#   read tail is p{:.0} over {} samples; write tail is p{:.0} over {} samples",
            read.tail_q * 100.0,
            read.samples,
            write.tail_q * 100.0,
            write.samples
        );
        let rates: Vec<String> = r
            .slices
            .iter()
            .map(|s| format!("{:.0}", s.keys as f64 / s.dur_s.max(1e-9)))
            .collect();
        println!("#   keys/s by slice: {}", rates.join(" "));
        let reps: Vec<String> = r.setup_s.iter().map(|s| format!("{s:.4}")).collect();
        println!("#   set-up repetitions, s: {}", reps.join(" "));
        let counts = vec![
            ("read_latency".to_owned(), read.samples),
            ("write_latency".to_owned(), write.samples),
            ("setup_reps".to_owned(), r.setup_s.len() as u64),
            ("slices".to_owned(), r.slices.len() as u64),
            ("calls".to_owned(), r.attempted),
            ("keys".to_owned(), r.keys),
            ("inserts".to_owned(), r.inserts),
            ("recoveries".to_owned(), r.recover_s.len() as u64),
        ];
        (r.attempted, r.failed, e.gated, counts, r.facts)
    };
    for (k, v) in &facts {
        println!("#   {k} = {v}");
    }
    println!(
        "{}",
        record_line(
            &machine,
            &a.git_sha,
            &a.workload,
            a.seed,
            a.seconds,
            a.trace,
            &counts,
            &facts
        )
    );
    println!("{}", result_line(attempted.max(1), failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!(
                "perfbench: {} (workload {}, seed {})",
                e, a.workload, a.seed
            );
            ExitCode::FAILURE
        }
    }
}

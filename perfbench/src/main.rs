//! `krb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Traced
//! runs also write every span to `.bench_out/spans-<workload>-<seed>.jsonl`
//! and print each span name's self time.

use krb_perfbench::{selected, trace::Tracer, Workload, WORKLOADS};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: krb-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(),
            },
            "--seconds" => match value.parse() {
                Ok(v) if v > 0 => seconds = v,
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(name) = workload else { return usage() };
    let Some(w) = Workload::named(&name, seconds) else {
        return usage();
    };

    let mut tr = Tracer::new(traced);
    let mut report = w.run(seed, &mut tr);
    if traced {
        let path =
            std::path::PathBuf::from(".bench_out").join(format!("spans-{name}-{seed}.jsonl"));
        if let Err(e) = tr.write_jsonl(&path) {
            report
                .problems
                .push(format!("writing {}: {e}", path.display()));
        }
        println!("spans: {} written to {}", tr.spans().len(), path.display());
        println!(
            "{:<28} {:>9} {:>14} {:>14} {:>12}",
            "span", "count", "total_us", "self_us", "self_us/call"
        );
        for (span, (n, total, own)) in tr.summary() {
            println!(
                "{span:<28} {n:>9} {total:>14.1} {own:>14.1} {:>12.3}",
                own / n as f64
            );
        }
        for (metric, value, unit) in selected(&report, true) {
            println!("{metric:<28} {value:>14.4} {unit}");
        }
        // Only to price tracing against an untraced run of the same seed.
        for (metric, value, unit) in selected(&report, false) {
            println!("traced {metric:<21} {value:>14.4} {unit}");
        }
    }
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    report.metrics = selected(&report, traced);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

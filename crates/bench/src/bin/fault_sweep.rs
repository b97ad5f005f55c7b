//! Fault-injection sweep for CI: graceful degradation of EAS vs EDF
//! under `k = 0..N` random permanent PE/channel faults on the
//! A/V-integrated benchmark, comparing a pristine schedule limping
//! through the faults against a masked-resource re-repair. Writes
//! `BENCH_faults.json` (first positional argument overrides the path).
//!
//! Flags: `--max-faults <N>` (default 3), `--trials <N>` (default 10),
//! `--seed <N>` (default 0xFA17). The sweep is fully deterministic for
//! a given seed.

use noc_bench::experiments::try_fault_sweep_study;

fn main() {
    let mut out_path = "BENCH_faults.json".to_owned();
    let mut max_faults = 3usize;
    let mut trials = 10usize;
    let mut seed = 0xFA17u64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("error: {} needs a value", args[*i - 1]);
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--max-faults" => max_faults = parse(&flag_value(&mut i)),
            "--trials" => trials = parse(&flag_value(&mut i)),
            "--seed" => seed = parse(&flag_value(&mut i)),
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                std::process::exit(2);
            }
            path => out_path = path.to_owned(),
        }
        i += 1;
    }

    println!(
        "== Extension: fault-injection sweep (A/V integrated, 3x3, k = 0..={max_faults}, \
         {trials} trials, seed {seed:#x}) ==\n"
    );
    let rows = try_fault_sweep_study(max_faults, trials, seed).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!(
        "{:<6} {:>6} {:>9} {:>13} {:>12} {:>10} {:>10}",
        "sched", "faults", "repaired", "unrepaired", "repaired", "recovered", "dE(%)"
    );
    for r in &rows {
        println!(
            "{:<6} {:>6} {:>6}/{:<3} {:>12.3} {:>12.3} {:>10} {:>+10.2}",
            r.scheduler,
            r.faults,
            r.repaired_trials,
            r.trials,
            r.unrepaired_met,
            r.repaired_met,
            r.recovered_deadlines,
            r.mean_energy_delta_percent,
        );
    }
    println!(
        "\nReading guide: `unrepaired` is the deadline-met fraction when the\n\
         pristine schedule keeps running while the faults strike at t=0 —\n\
         everything downstream of a dead resource strands. `repaired` masks\n\
         the same faults into the platform and re-repairs the schedule\n\
         (EAS: evacuation + masked search-and-repair; EDF: reschedule).\n\
         `recovered` counts the deadlines the repair wins back."
    );

    if let Err(e) = noc_bench::write_json(&out_path, &rows) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("\nArtifact written to {out_path}");
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid numeric value {s:?}");
        std::process::exit(2);
    })
}

//! Regenerates every experiment table (E1–E11, E13–E17).
//!
//! ```text
//! cargo run -p minsync-harness --release --bin experiments [-- --quick] [--csv DIR] [e1 e3 ...]
//! cargo run -p minsync-harness --release --bin experiments -- --list
//! ```
//!
//! Prints GitHub-flavored markdown to stdout (paste-ready for
//! `EXPERIMENTS.md`); `--csv DIR` additionally writes one CSV per table;
//! `--list` prints the experiment catalog (id + one-line description) and
//! exits without running anything. Any other flag, and any id not in the
//! catalog, is an error (exit status 2).
//!
//! E11, E13, E15, E16, and E17 spawn real `minsync-node` OS processes —
//! build it first (`cargo build --release -p minsync-transport`) or they
//! abort with a hint.

#![forbid(unsafe_code)]

use minsync_harness::experiments::{catalog, select};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let catalog = catalog();
    let selected = select(&catalog, &args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if args.iter().any(|a| a == "--list") {
        for (name, description, _) in &catalog {
            println!("{name:>4}  {description}");
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1));

    for (name, _, runner) in selected {
        eprintln!("running {name}{}…", if quick { " (quick)" } else { "" });
        let table = runner(quick);
        println!("{table}");
        if let Some(dir) = csv_dir {
            let path = std::path::Path::new(dir).join(format!("{name}.csv"));
            if let Err(e) = table.save_csv(&path) {
                eprintln!("failed to write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
    }
}
